// Relaxation protocol comparison on a batch of predicted models,
// executed concurrently on a util::ThreadPool -- one Summit node's worth
// of workers (six) running real minimizations on this host.
//
// Shows: single-pass vs AF2-loop outcomes, violation removal, structure
// preservation, and where the GPU platform pays off (§3.2.3 / Fig. 4).
//
// Usage: ./examples/relax_compare [num_targets 1..1000, default 12]
#include <cstdio>
#include <future>
#include <string_view>
#include <vector>

#include "bio/proteome.hpp"
#include "bio/species.hpp"
#include "dataflow/task.hpp"
#include "fold/engine.hpp"
#include "native/render.hpp"
#include "relax/protocol.hpp"
#include "score/tm_score.hpp"
#include "seqsearch/feature_model.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

using namespace sf;

int main(int argc, char** argv) {
  constexpr const char* kUsage = "usage: relax_compare [num_targets 1..1000]\n";
  int num_targets = 12;
  if (argc == 2 && std::string_view(argv[1]) == "--help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (argc > 2 || (argc == 2 && !parse_number(argv[1], 1, 1000, num_targets))) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  FoldUniverse universe(120, 23);
  ProteomeGenerator generator(universe, casp14_profile(), 8);
  const auto records = generator.generate(num_targets);
  FoldingEngine engine(universe);

  // Predict top models (serially: the engine is the expensive part).
  struct Job {
    ProteinRecord record;
    Structure model;
  };
  std::vector<Job> jobs;
  for (const auto& rec : records) {
    const auto feats = sample_features(rec, LibraryKind::kReduced);
    const auto preds = engine.predict_all_models(rec, feats, preset_genome());
    const int top = top_model_index(preds);
    if (top < 0) continue;
    jobs.push_back({rec, preds[static_cast<std::size_t>(top)].structure});
  }
  std::printf("relaxing %zu predicted models with both protocols (thread pool, 6 workers)\n\n",
              jobs.size());

  // Real concurrent relaxations, longest models first; each result
  // keeps its submission slot whatever order the workers finish in.
  std::vector<TaskSpec> tasks(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    tasks[i] = {i, jobs[i].record.sequence.id(), static_cast<double>(jobs[i].record.length()), i};
  }
  apply_order(tasks, TaskOrder::kDescendingCost);

  struct Outcome {
    RelaxOutcome ours;
    RelaxOutcome af2;
  };
  ThreadPool pool(6);
  std::vector<std::future<Outcome>> pending;
  pending.reserve(tasks.size());
  for (const TaskSpec& t : tasks) {
    const Structure& model = jobs[t.payload].model;
    pending.push_back(pool.submit(
        [&model] { return Outcome{relax_single_pass(model), relax_af2_loop(model)}; }));
  }
  std::vector<Outcome> outcomes;
  outcomes.reserve(pending.size());
  for (auto& f : pending) outcomes.push_back(f.get());

  const RelaxCostModel cost;
  std::printf("%-16s %6s | %13s | %16s | %22s\n", "target", "atoms", "clashes b->s/a",
              "evals ours/af2", "sim sec GPU/CPU/AF2");
  RunningStats gpu_speedup;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto& o = outcomes[i];
    const double gpu = o.ours.simulated_seconds(RelaxPlatform::kSummitGpu, cost);
    const double cpu = o.ours.simulated_seconds(RelaxPlatform::kAndesCpu, cost);
    const double af2 = o.af2.simulated_seconds(RelaxPlatform::kAf2Original, cost);
    gpu_speedup.add(af2 / gpu);
    std::printf("%-16s %6zu | %5zu -> %zu / %zu | %7zu / %6zu | %6.1f / %6.1f / %7.1f\n",
                tasks[i].name.c_str(), o.ours.heavy_atoms, o.ours.violations_before.clashes,
                o.ours.violations_after.clashes, o.af2.violations_after.clashes,
                o.ours.energy_evaluations, o.af2.energy_evaluations, gpu, cpu, af2);
  }
  std::printf("\nmean simulated GPU speedup over the AF2 method: %.1fx (max %.1fx)\n",
              gpu_speedup.mean(), gpu_speedup.max());

  // Structure preservation check on the first job (locate its task:
  // the task list was re-sorted by length).
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (tasks[i].payload != 0) continue;
    const Structure native = build_native_structure(universe, jobs[0].record);
    std::printf("structure preservation (%s): TM %.3f unrelaxed vs %.3f relaxed\n",
                jobs[0].record.sequence.id().c_str(),
                tm_score(jobs[0].model, native).tm_score,
                tm_score(outcomes[i].ours.relaxed, native).tm_score);
    break;
  }
  return 0;
}
