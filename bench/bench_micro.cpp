// Microbenchmarks (google-benchmark) for the hot primitives under the
// reproduction: superposition, scoring, alignment, search, simulation.
#include <benchmark/benchmark.h>

#include <numbers>

#include "analysis/struct_align.hpp"
#include "bio/fold_grammar.hpp"
#include "fold/engine.hpp"
#include "geom/backbone.hpp"
#include "geom/distogram.hpp"
#include "geom/kabsch.hpp"
#include "native/render.hpp"
#include "geom/violations.hpp"
#include "relax/forcefield.hpp"
#include "relax/minimize.hpp"
#include "score/lddt.hpp"
#include "score/tm_score.hpp"
#include "seqsearch/alignment.hpp"
#include "seqsearch/kmer_index.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sf;

std::vector<Vec3> bench_trace(int n, unsigned seed = 5) {
  Rng rng(seed);
  std::string ss;
  for (int i = 0; i < n; ++i) ss += (i / 12) % 2 ? 'H' : 'E';
  return build_ca_trace(ss, rng);
}

std::vector<Vec3> noisy(const std::vector<Vec3>& pts, double sigma, unsigned seed) {
  Rng rng(seed);
  auto out = pts;
  for (auto& p : out) {
    p += Vec3{rng.normal(0, sigma), rng.normal(0, sigma), rng.normal(0, sigma)};
  }
  return out;
}

void BM_Kabsch(benchmark::State& state) {
  const auto a = bench_trace(static_cast<int>(state.range(0)));
  const auto b = noisy(a, 1.0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kabsch(a, b).rmsd);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Kabsch)->Arg(64)->Arg(256)->Arg(1024)->Complexity(benchmark::oN);

// The CA trace of a rendered native at length n, as the engine sees it.
std::vector<Vec3> native_trace(int n) {
  Rng rng(3);
  const FoldSpec fold = sample_fold(rng, n);
  const std::string seq = sample_sequence_for_ss(render_ss(fold, n), rng);
  return build_fold_structure("b", fold, seq, 0.4, 9).ca_coords();
}

// A model with the engine's kinds of error: the second half of the chain
// turned 20 degrees about its own centroid (a misplaced domain), plus
// 1.5 A of per-residue noise.
std::vector<Vec3> engine_like_model(const std::vector<Vec3>& native, unsigned seed) {
  auto model = noisy(native, 1.5, seed);
  const std::size_t half = model.size() / 2;
  Vec3 c;
  for (std::size_t i = half; i < model.size(); ++i) c += model[i];
  c = c / static_cast<double>(model.size() - half);
  const Mat3 rot = rotation_about_axis(Vec3{1, 2, 3}.normalized(), 20.0 * std::numbers::pi / 180.0);
  for (std::size_t i = half; i < model.size(); ++i) model[i] = rot * (model[i] - c) + c;
  return model;
}

void BM_TmScore(benchmark::State& state) {
  const auto native = native_trace(static_cast<int>(state.range(0)));
  const auto model = engine_like_model(native, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tm_score(model, native).tm_score);
  }
}
BENCHMARK(BM_TmScore)->Arg(64)->Arg(256)->Arg(512);

// One exact alignment as the cluster stage runs it: an engine-like model
// of a length-n render against the same fold rendered at 5n/4 residues
// (a remote homolog).
void BM_StructAlign(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  const FoldSpec fold = sample_fold(rng, n);
  const std::string seq = sample_sequence_for_ss(render_ss(fold, n), rng);
  const auto model = engine_like_model(build_fold_structure("b", fold, seq, 0.4, 9).ca_coords(), 7);
  Rng hrng(5);
  const std::string hseq = homolog_sequence(fold, seq, n, n + n / 4, 0.3, hrng);
  const auto homolog = build_fold_structure("h", fold, hseq).ca_coords();
  for (auto _ : state) {
    benchmark::DoNotOptimize(struct_align_ca(model, homolog, seq, hseq).tm_query);
  }
}
BENCHMARK(BM_StructAlign)->Arg(64)->Arg(256)->Arg(512);

// The engine's final declash pass on a perturbed native.
void BM_Declash(benchmark::State& state) {
  const EngineParams params;
  const auto start = noisy(native_trace(static_cast<int>(state.range(0))), 1.5, 7);
  for (auto _ : state) {
    auto ca = start;
    resolve_steric_overlap(ca, params.declash_iterations / 4 + 1, params.declash_target_A,
                           params.declash_step);
    benchmark::DoNotOptimize(ca.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Declash)->Arg(64)->Arg(256)->Arg(512);

void BM_Lddt(benchmark::State& state) {
  const auto a = bench_trace(static_cast<int>(state.range(0)));
  const auto b = noisy(a, 2.0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lddt(b, a).global);
  }
}
BENCHMARK(BM_Lddt)->Arg(64)->Arg(256)->Arg(512);

// One recycle's convergence signal: the in-place update of a trace's
// bins, alternating between two traces so every update moves bins.
void BM_Distogram(benchmark::State& state) {
  const auto a = bench_trace(static_cast<int>(state.range(0)));
  const auto b = noisy(a, 2.0, 7);
  Distogram d(a.size());
  bool flip = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.update(flip ? a : b));
    flip = !flip;
  }
}
BENCHMARK(BM_Distogram)->Arg(128)->Arg(512);

void BM_Violations(benchmark::State& state) {
  const auto a = bench_trace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(count_violations(a).bumps);
  }
}
BENCHMARK(BM_Violations)->Arg(128)->Arg(512)->Arg(2048);

void BM_SmithWaterman(benchmark::State& state) {
  Rng rng(3);
  const FoldSpec fold = sample_fold(rng, static_cast<int>(state.range(0)));
  const std::string a = sample_sequence_for_ss(render_ss(fold, state.range(0)), rng);
  Rng h(5);
  const std::string b = homolog_sequence(fold, a, state.range(0), state.range(0), 0.5, h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(smith_waterman(a, b).score);
  }
}
BENCHMARK(BM_SmithWaterman)->Arg(128)->Arg(512);

void BM_BandedSW(benchmark::State& state) {
  Rng rng(3);
  const FoldSpec fold = sample_fold(rng, static_cast<int>(state.range(0)));
  const std::string a = sample_sequence_for_ss(render_ss(fold, state.range(0)), rng);
  Rng h(5);
  const std::string b = homolog_sequence(fold, a, state.range(0), state.range(0), 0.5, h);
  for (auto _ : state) {
    benchmark::DoNotOptimize(banded_smith_waterman(a, b, 0, 32).score);
  }
}
BENCHMARK(BM_BandedSW)->Arg(128)->Arg(512);

void BM_KmerQuery(benchmark::State& state) {
  Rng rng(3);
  KmerIndex index(5);
  std::vector<std::string> seqs;
  for (int i = 0; i < 500; ++i) {
    const FoldSpec fold = sample_fold(rng, 200);
    seqs.push_back(sample_sequence_for_ss(render_ss(fold, 200), rng));
    index.add_sequence(seqs.back());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.query(seqs[42]).size());
  }
}
BENCHMARK(BM_KmerQuery);

// One force-field energy + gradient evaluation (the minimizer's step).
void BM_ForceFieldEnergy(benchmark::State& state) {
  Rng rng(3);
  const FoldSpec fold = sample_fold(rng, static_cast<int>(state.range(0)));
  const std::string seq = sample_sequence_for_ss(render_ss(fold, state.range(0)), rng);
  const Structure s = build_fold_structure("b", fold, seq, 0.4, 9);
  const ForceField ff(s);
  const auto coords = s.all_atom_coords();
  std::vector<Vec3> grad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ff.energy_and_gradient(coords, grad));
  }
}
BENCHMARK(BM_ForceFieldEnergy)->Arg(100)->Arg(400);

void BM_FullMinimize(benchmark::State& state) {
  Rng rng(3);
  const FoldSpec fold = sample_fold(rng, 150);
  const std::string seq = sample_sequence_for_ss(render_ss(fold, 150), rng);
  const Structure s = build_fold_structure("b", fold, seq, 0.4, 9);
  const ForceField ff(s);
  for (auto _ : state) {
    auto coords = s.all_atom_coords();
    benchmark::DoNotOptimize(minimize_lbfgs(ff, coords).final_energy);
  }
}
BENCHMARK(BM_FullMinimize);

void BM_EventEngine(benchmark::State& state) {
  for (auto _ : state) {
    SimEngine engine;
    int counter = 0;
    for (int i = 0; i < 10000; ++i) {
      engine.schedule_at(static_cast<double>(i % 100), [&counter] { ++counter; });
    }
    engine.run();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_EventEngine);

void BM_ThreadPoolThroughput(benchmark::State& state) {
  ThreadPool pool(4);
  for (auto _ : state) {
    std::atomic<int> counter{0};
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    benchmark::DoNotOptimize(counter.load());
  }
}
BENCHMARK(BM_ThreadPoolThroughput);

}  // namespace

BENCHMARK_MAIN();
