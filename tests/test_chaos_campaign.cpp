// Chaos harness for the fault-injection subsystem and the campaign
// checkpoint journal.
//
// Three layers of assurance:
//  * executor-level property sweep: hundreds of seeded fault schedules
//    (tests/chaos_schedule.hpp) run against a pure oracle -- every task
//    completes or is reported failed, attempt/retry/reroute accounting
//    reconciles exactly with the injected schedule, and results are
//    independent of worker count;
//  * campaign-level determinism: a faulty campaign reruns bit-identically
//    and its per-target results do not depend on cluster width;
//  * kill/resume: a campaign journal truncated at many byte prefixes
//    (line boundaries and torn mid-line tails) resumes to a
//    CampaignReport identical to the uninterrupted run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/pipeline.hpp"
#include "store/artifact_store.hpp"
#include "chaos_schedule.hpp"
#include "scratch_dir.hpp"

namespace sf {
namespace {

// ------------------------------------------------------------------ //
// Executor-level oracle.
// ------------------------------------------------------------------ //

// Pure re-derivation of a chaos case's fate from the fault plan and the
// retry policy alone -- no executor involved. The executors must agree
// with this exactly, on any backend and any worker count.
struct Oracle {
  std::map<std::uint64_t, int> attempts;  // per task
  int failed_tasks = 0;
  int retry_attempts = 0;
  int rerouted_tasks = 0;
  std::vector<std::pair<int, bool>> rounds;  // (size, alt_pool)
  FaultAccounting acct;                      // integer fields only
};

Oracle predict(const chaos::ChaosCase& c) {
  const FaultInjector inj(c.plan);
  const bool alt_present = c.alt_workers > 0;
  Oracle o;
  std::vector<std::uint64_t> active;
  for (const auto& t : c.tasks) active.push_back(t.id);
  for (int a = 0; a < c.policy.max_attempts; ++a) {
    const bool alt = a > 0 && c.policy.reroute_to_alt_pool && alt_present;
    if (a > 0) {
      if (active.empty()) break;
      o.rounds.emplace_back(static_cast<int>(active.size()), alt);
      o.retry_attempts += static_cast<int>(active.size());
      if (alt) o.rerouted_tasks += static_cast<int>(active.size());
    }
    std::vector<std::uint64_t> next;
    for (const std::uint64_t id : active) {
      ++o.attempts[id];
      switch (inj.assigned(id)) {
        case FaultKind::kNone:
          break;
        case FaultKind::kWorkerCrash:
          if (a == 0 && !alt) {
            ++o.acct.crash_attempts;
            next.push_back(id);
          }
          break;
        case FaultKind::kTransient:
          if (a < c.plan.transient_attempts) {
            ++o.acct.transient_attempts;
            next.push_back(id);
          }
          break;
        case FaultKind::kOom:
          if (!alt) {
            ++o.acct.oom_attempts;
            next.push_back(id);
          }
          break;
        case FaultKind::kStraggler:
          ++o.acct.straggler_attempts;
          break;
        case FaultKind::kFsStall:
          ++o.acct.stalled_attempts;
          break;
      }
    }
    active = std::move(next);
  }
  o.failed_tasks = static_cast<int>(active.size());
  o.acct.workers_lost = std::min(o.acct.crash_attempts, std::max(0, c.workers - 1));
  return o;
}

struct Observed {
  MapResult run;
  std::map<std::uint64_t, int> attempts;
};

Observed run_case(Executor& exec, const chaos::ChaosCase& c) {
  Observed obs;
  const TaskFn fn = [&](const TaskSpec& t, const TaskAttempt&) {
    ++obs.attempts[t.id];
    TaskOutcome o;
    o.sim_duration_s = t.cost_hint;
    return o;
  };
  const FaultInjector inj(c.plan);
  obs.run = exec.map(c.tasks, fn, c.policy, &inj);
  return obs;
}

SimulatedExecutor make_sim(const chaos::ChaosCase& c, int workers) {
  SimulatedDataflowParams primary;
  primary.workers = workers;
  SimulatedDataflowParams alt;
  alt.workers = c.alt_workers;
  return SimulatedExecutor{primary, alt};
}

void expect_matches_oracle(const Observed& obs, const Oracle& want, std::uint64_t seed,
                           const char* backend) {
  SCOPED_TRACE(std::string(backend) + " seed " + std::to_string(seed));
  EXPECT_EQ(obs.attempts, want.attempts);
  EXPECT_EQ(obs.run.failed_tasks, want.failed_tasks);
  EXPECT_EQ(obs.run.retry_attempts, want.retry_attempts);
  EXPECT_EQ(obs.run.rerouted_tasks, want.rerouted_tasks);
  ASSERT_EQ(obs.run.retries.size(), want.rounds.size());
  for (std::size_t r = 0; r < want.rounds.size(); ++r) {
    EXPECT_EQ(obs.run.retries[r].tasks, want.rounds[r].first);
    EXPECT_EQ(obs.run.retries[r].alt_pool, want.rounds[r].second);
  }
  const FaultAccounting& got = obs.run.faults;
  EXPECT_EQ(got.crash_attempts, want.acct.crash_attempts);
  EXPECT_EQ(got.transient_attempts, want.acct.transient_attempts);
  EXPECT_EQ(got.oom_attempts, want.acct.oom_attempts);
  EXPECT_EQ(got.straggler_attempts, want.acct.straggler_attempts);
  EXPECT_EQ(got.stalled_attempts, want.acct.stalled_attempts);
  EXPECT_EQ(got.workers_lost, want.acct.workers_lost);
  EXPECT_EQ(got.intrinsic_failures, 0);
  // Every attempt is either a success or an attributed failure: total
  // invocations reconcile with tasks + attributed retries + failures.
  int total_attempts = 0;
  for (const auto& [id, count] : obs.attempts) total_attempts += count;
  EXPECT_EQ(total_attempts, static_cast<int>(obs.run.primary.records.size()) +
                                obs.run.retry_attempts);
}

TEST(ChaosSchedules, SimulatedMatchesOracleOver200Schedules) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const chaos::ChaosCase c = chaos::make_case(seed);
    const Oracle want = predict(c);
    SimulatedExecutor sim = make_sim(c, c.workers);
    const Observed obs = run_case(sim, c);
    expect_matches_oracle(obs, want, seed, "simulated");
    // Completion guarantee: one primary record per task (the first
    // attempt always runs every task), and no task is silently lost.
    EXPECT_EQ(obs.run.primary.records.size(), c.tasks.size());
    EXPECT_EQ(static_cast<int>(obs.attempts.size()), static_cast<int>(c.tasks.size()));
  }
}

TEST(ChaosSchedules, FaultScheduleIndependentOfWorkerCount) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const chaos::ChaosCase c = chaos::make_case(seed);
    SimulatedExecutor narrow = make_sim(c, 1);
    SimulatedExecutor wide = make_sim(c, c.workers + 7);
    const Observed a = run_case(narrow, c);
    const Observed b = run_case(wide, c);
    SCOPED_TRACE("seed " + std::to_string(seed));
    // The schedule (who faults, who retries, who fails) is a pure
    // function of the plan: pool width changes wall time only.
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.run.failed_tasks, b.run.failed_tasks);
    EXPECT_EQ(a.run.retry_attempts, b.run.retry_attempts);
    EXPECT_EQ(a.run.rerouted_tasks, b.run.rerouted_tasks);
    EXPECT_EQ(a.run.faults.crash_attempts, b.run.faults.crash_attempts);
    EXPECT_EQ(a.run.faults.transient_attempts, b.run.faults.transient_attempts);
    EXPECT_EQ(a.run.faults.oom_attempts, b.run.faults.oom_attempts);
    EXPECT_EQ(a.run.faults.straggler_attempts, b.run.faults.straggler_attempts);
    EXPECT_EQ(a.run.faults.stalled_attempts, b.run.faults.stalled_attempts);
  }
}

TEST(ChaosSchedules, SimulatedRerunIsBitIdentical) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const chaos::ChaosCase c = chaos::make_case(seed);
    SimulatedExecutor first = make_sim(c, c.workers);
    SimulatedExecutor second = make_sim(c, c.workers);
    const Observed a = run_case(first, c);
    const Observed b = run_case(second, c);
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(a.run.wall_s(), b.run.wall_s());
    EXPECT_EQ(a.run.primary_pool_s(), b.run.primary_pool_s());
    EXPECT_EQ(a.run.alt_pool_s(), b.run.alt_pool_s());
    EXPECT_EQ(a.run.faults.lost_work_s, b.run.faults.lost_work_s);
    EXPECT_EQ(a.run.faults.straggler_delay_s, b.run.faults.straggler_delay_s);
    EXPECT_EQ(a.run.faults.stall_delay_s, b.run.faults.stall_delay_s);
    EXPECT_EQ(a.run.faults.backoff_delay_s, b.run.faults.backoff_delay_s);
    ASSERT_EQ(a.run.primary.records.size(), b.run.primary.records.size());
    for (std::size_t i = 0; i < a.run.primary.records.size(); ++i) {
      EXPECT_EQ(a.run.primary.records[i].task_id, b.run.primary.records[i].task_id);
      EXPECT_EQ(a.run.primary.records[i].worker, b.run.primary.records[i].worker);
      EXPECT_EQ(a.run.primary.records[i].start_s, b.run.primary.records[i].start_s);
      EXPECT_EQ(a.run.primary.records[i].end_s, b.run.primary.records[i].end_s);
    }
  }
}

// ------------------------------------------------------------------ //
// Campaign level: determinism, width independence, kill/resume.
// ------------------------------------------------------------------ //

PipelineConfig chaos_campaign_config() {
  PipelineConfig cfg;
  cfg.summit_nodes = 2;
  cfg.andes_nodes = 4;
  cfg.relax_nodes = 1;
  cfg.db_replicas = 2;
  cfg.jobs_per_replica = 2;
  cfg.quality_sample = 6;
  cfg.relax_sample = 3;
  cfg.use_highmem_for_oom = true;
  cfg.highmem_nodes = 1;
  cfg.faults.seed = 77;
  cfg.faults.crash_rate = 0.06;
  cfg.faults.transient_rate = 0.08;
  cfg.faults.transient_attempts = 1;
  cfg.faults.oom_rate = 0.05;
  cfg.faults.straggler_rate = 0.1;
  cfg.faults.straggler_factor = 3.0;
  cfg.faults.fs_stall_rate = 0.05;
  cfg.faults.fs_stall_base_s = 20.0;
  return cfg;
}

void expect_stage_eq(const StageReport& a, const StageReport& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.wall_s, b.wall_s);
  EXPECT_EQ(a.node_hours, b.node_hours);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.failed_tasks, b.failed_tasks);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_EQ(a.rerouted_tasks, b.rerouted_tasks);
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
  EXPECT_EQ(a.finish_spread_s, b.finish_spread_s);
  EXPECT_EQ(a.faults.crash_attempts, b.faults.crash_attempts);
  EXPECT_EQ(a.faults.transient_attempts, b.faults.transient_attempts);
  EXPECT_EQ(a.faults.oom_attempts, b.faults.oom_attempts);
  EXPECT_EQ(a.faults.intrinsic_failures, b.faults.intrinsic_failures);
  EXPECT_EQ(a.faults.straggler_attempts, b.faults.straggler_attempts);
  EXPECT_EQ(a.faults.stalled_attempts, b.faults.stalled_attempts);
  EXPECT_EQ(a.faults.workers_lost, b.faults.workers_lost);
  EXPECT_EQ(a.faults.lost_work_s, b.faults.lost_work_s);
  EXPECT_EQ(a.faults.straggler_delay_s, b.faults.straggler_delay_s);
  EXPECT_EQ(a.faults.stall_delay_s, b.faults.stall_delay_s);
  EXPECT_EQ(a.faults.backoff_delay_s, b.faults.backoff_delay_s);
}

void expect_targets_eq(const std::vector<TargetResult>& a, const std::vector<TargetResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("target " + std::to_string(i));
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].length, b[i].length);
    EXPECT_EQ(a[i].measured, b[i].measured);
    EXPECT_EQ(a[i].top_model, b[i].top_model);
    EXPECT_EQ(a[i].plddt, b[i].plddt);
    EXPECT_EQ(a[i].ptms, b[i].ptms);
    EXPECT_EQ(a[i].true_tm, b[i].true_tm);
    EXPECT_EQ(a[i].true_lddt, b[i].true_lddt);
    EXPECT_EQ(a[i].recycles, b[i].recycles);
    EXPECT_EQ(a[i].converged, b[i].converged);
    EXPECT_EQ(a[i].oom, b[i].oom);
    EXPECT_EQ(a[i].relaxed, b[i].relaxed);
    EXPECT_EQ(a[i].clashes_before, b[i].clashes_before);
    EXPECT_EQ(a[i].clashes_after, b[i].clashes_after);
    EXPECT_EQ(a[i].bumps_before, b[i].bumps_before);
    EXPECT_EQ(a[i].bumps_after, b[i].bumps_after);
  }
}

void expect_campaign_eq(const CampaignReport& a, const CampaignReport& b) {
  expect_stage_eq(a.features, b.features);
  expect_stage_eq(a.inference, b.inference);
  expect_stage_eq(a.relaxation, b.relaxation);
  expect_targets_eq(a.targets, b.targets);
  EXPECT_EQ(a.plddt.count(), b.plddt.count());
  EXPECT_EQ(a.plddt.mean(), b.plddt.mean());
  EXPECT_EQ(a.ptms.mean(), b.ptms.mean());
  EXPECT_EQ(a.recycles.mean(), b.recycles.mean());
  ASSERT_EQ(a.inference_records.size(), b.inference_records.size());
  for (std::size_t i = 0; i < a.inference_records.size(); ++i) {
    EXPECT_EQ(a.inference_records[i].task_id, b.inference_records[i].task_id);
    EXPECT_EQ(a.inference_records[i].worker, b.inference_records[i].worker);
    EXPECT_EQ(a.inference_records[i].start_s, b.inference_records[i].start_s);
    EXPECT_EQ(a.inference_records[i].end_s, b.inference_records[i].end_s);
  }
}

TEST(ChaosCampaign, FaultyCampaignIsDeterministicAndFullyAccounted) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(12);
  const PipelineConfig cfg = chaos_campaign_config();
  const CampaignReport a = Pipeline(universe, cfg).run(records);
  const CampaignReport b = Pipeline(universe, cfg).run(records);
  expect_campaign_eq(a, b);

  // The plan actually fired somewhere, and its effects are attributed.
  FaultAccounting total;
  total.merge(a.features.faults);
  total.merge(a.inference.faults);
  total.merge(a.relaxation.faults);
  EXPECT_GT(total.injected_failures() + total.straggler_attempts + total.stalled_attempts, 0);
  EXPECT_EQ(a.inference.retry_attempts > 0 || a.features.retry_attempts > 0 ||
                a.relaxation.retry_attempts > 0,
            total.injected_failures() + total.intrinsic_failures > 0);

  // Every measured target either produced a model or was dropped and
  // reported as such -- no silent losses under chaos.
  for (const auto& t : a.targets) {
    if (t.measured) {
      EXPECT_TRUE(t.oom || (t.top_model >= 1 && t.top_model <= 5)) << t.id;
    }
  }
}

TEST(ChaosCampaign, TargetResultsIndependentOfClusterWidth) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(12);
  PipelineConfig narrow = chaos_campaign_config();
  PipelineConfig wide = chaos_campaign_config();
  wide.summit_nodes = 5;
  wide.andes_nodes = 9;
  const CampaignReport a = Pipeline(universe, narrow).run(records);
  const CampaignReport b = Pipeline(universe, wide).run(records);
  // Scientific results are schedule-independent: only walls/node-hours
  // may move with pool width.
  expect_targets_eq(a.targets, b.targets);
  EXPECT_EQ(a.plddt.mean(), b.plddt.mean());
  EXPECT_EQ(a.ptms.mean(), b.ptms.mean());
  EXPECT_EQ(a.inference.faults.oom_attempts, b.inference.faults.oom_attempts);
  EXPECT_EQ(a.inference.faults.transient_attempts, b.inference.faults.transient_attempts);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

TEST(ChaosCampaign, JournalResumeReproducesUninterruptedRun) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(12);
  const PipelineConfig cfg = chaos_campaign_config();
  const Pipeline pipeline(universe, cfg);

  // Uninterrupted baseline, then a journaled run that must match it.
  const CampaignReport baseline = pipeline.run(records);
  const std::string dir = test_scratch_dir();
  const std::string full_path = dir + "chaos_journal_full.sfj";
  write_file(full_path, "");
  {
    CampaignJournal journal(full_path);
    const CampaignReport journaled = pipeline.run(records, &journal);
    expect_campaign_eq(baseline, journaled);
  }
  const std::string full = read_file(full_path);
  ASSERT_NE(full.find("sfjournal v1"), std::string::npos);
  ASSERT_NE(full.find("measured "), std::string::npos);
  ASSERT_NE(full.find("stage features"), std::string::npos);
  ASSERT_NE(full.find("stage inference"), std::string::npos);
  ASSERT_NE(full.find("stage relaxation"), std::string::npos);

  // Kill points: every line boundary (a clean kill between appends)...
  std::vector<std::size_t> cuts;
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    if (full[pos] == '\n') cuts.push_back(pos + 1);
  }
  // ...plus torn mid-line tails (a kill mid-write) at assorted offsets.
  const std::size_t line_cuts = cuts.size();
  for (std::size_t i = 0; i + 1 < line_cuts; i += 3) {
    const std::size_t mid = (cuts[i] + cuts[i + 1]) / 2;
    if (mid > cuts[i]) cuts.push_back(mid);
  }
  // Keep runtime bounded: resume from every torn tail but cap clean
  // boundaries to an even sample across the file.
  std::vector<std::size_t> selected;
  const std::size_t max_clean = 24;
  const std::size_t stride = std::max<std::size_t>(1, line_cuts / max_clean);
  for (std::size_t i = 0; i < line_cuts; i += stride) selected.push_back(cuts[i]);
  for (std::size_t i = line_cuts; i < cuts.size(); i += 2) selected.push_back(cuts[i]);

  int resumed_runs = 0;
  for (const std::size_t cut : selected) {
    const std::string path = dir + "chaos_journal_cut_" + std::to_string(cut) + ".sfj";
    write_file(path, full.substr(0, cut));
    CampaignJournal journal(path);
    const CampaignReport resumed = pipeline.run(records, &journal);
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    expect_campaign_eq(baseline, resumed);
    ++resumed_runs;
  }
  EXPECT_GE(resumed_runs, 20);

  // A fully sealed journal resumes without recomputing anything heavy
  // and still reproduces the report bit-for-bit.
  {
    CampaignJournal journal(full_path);
    const CampaignReport resumed = pipeline.run(records, &journal);
    expect_campaign_eq(baseline, resumed);
  }
}

TEST(ChaosCampaign, JournalResumeWithWarmStoreReproducesAtEveryCut) {
  // Same kill-at-any-byte discipline as above, but every resume also
  // sees a warm artifact store: cache hits must never perturb the
  // replayed campaign, at any truncation point.
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(12);
  const PipelineConfig cfg = chaos_campaign_config();
  const Pipeline pipeline(universe, cfg);
  const CampaignReport baseline = pipeline.run(records);

  const std::string dir = test_scratch_dir() + "chaos_warm_store";
  std::filesystem::remove_all(dir);
  const std::string full_path = test_scratch_dir() + "chaos_store_journal.sfj";
  write_file(full_path, "");
  {
    store::ArtifactStore artifacts(dir);
    artifacts.open();
    CampaignJournal journal(full_path);
    const CampaignReport journaled = pipeline.run(records, &journal, nullptr, &artifacts);
    expect_campaign_eq(baseline, journaled);
  }
  const std::string full = read_file(full_path);

  std::vector<std::size_t> cuts;
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    if (full[pos] == '\n') cuts.push_back(pos + 1);
  }
  const std::size_t line_cuts = cuts.size();
  std::vector<std::size_t> selected;
  const std::size_t stride = std::max<std::size_t>(1, line_cuts / 12);
  for (std::size_t i = 0; i < line_cuts; i += stride) {
    selected.push_back(cuts[i]);
    // A torn tail a few bytes into the next line at every sampled spot.
    if (i + 1 < line_cuts && cuts[i] + 4 < cuts[i + 1]) selected.push_back(cuts[i] + 4);
  }

  int resumed_runs = 0;
  for (const std::size_t cut : selected) {
    const std::string path =
        test_scratch_dir() + "chaos_store_cut_" + std::to_string(cut) + ".sfj";
    write_file(path, full.substr(0, cut));
    store::ArtifactStore warm(dir);
    EXPECT_TRUE(warm.open());
    CampaignJournal journal(path);
    const CampaignReport resumed = pipeline.run(records, &journal, nullptr, &warm);
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    expect_campaign_eq(baseline, resumed);
    // A warm store never recomputes features on resume.
    ASSERT_FALSE(warm.stage_history().empty());
    EXPECT_EQ(warm.stage_history()[0].first, "features");
    EXPECT_EQ(warm.stage_history()[0].second.misses, 0u);
    ++resumed_runs;
  }
  EXPECT_GE(resumed_runs, 20);
}

TEST(ChaosCampaign, JournalRejectsForeignFingerprint) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(12);
  const PipelineConfig cfg = chaos_campaign_config();
  const Pipeline pipeline(universe, cfg);
  const CampaignReport baseline = pipeline.run(records);

  const std::string path = test_scratch_dir() + "chaos_journal_foreign.sfj";
  {
    write_file(path, "");
    CampaignJournal journal(path);
    pipeline.run(records, &journal);
  }
  // Same journal file, different campaign (different fault seed): the
  // stale rows must be discarded, not spliced into the new campaign.
  PipelineConfig other = cfg;
  other.faults.seed = 78;
  {
    CampaignJournal journal(path);
    EXPECT_FALSE(journal.open(campaign_fingerprint(other, records)));
  }
  // And the original campaign, rerun against the now-reset journal,
  // still reproduces its baseline from scratch.
  {
    CampaignJournal journal(path);
    const CampaignReport resumed = pipeline.run(records, &journal);
    expect_campaign_eq(baseline, resumed);
  }
}

TEST(ChaosCampaign, JournalKeepsFirstRowOnDuplicateAndDropsGarbageTail) {
  const std::string path = test_scratch_dir() + "chaos_journal_unit.sfj";
  write_file(path, "");
  StageReport report;
  report.name = "features";
  report.wall_s = 123.0625;  // representable exactly
  report.tasks = 9;
  {
    CampaignJournal journal(path);
    journal.open(0xABCDULL);
    store::PredictionArtifact row;
    row.plddt = 81.5;
    row.top_model = 2;
    journal.record(4, row);
    row.plddt = 10.0;  // duplicate for the same index: must be ignored
    journal.record(4, row);
    journal.record_stage_complete(StageKind::kFeatures, report);
  }
  const std::string clean = read_file(path);
  // Append a torn line (no `end` seal) and pure garbage.
  {
    std::ofstream out(path, std::ios::app);
    out << "measured 5 1 50.0";
  }
  {
    CampaignJournal journal(path);
    EXPECT_TRUE(journal.open(0xABCDULL));
    ASSERT_NE(journal.find<store::PredictionArtifact>(4), nullptr);
    EXPECT_EQ(journal.find<store::PredictionArtifact>(4)->plddt, 81.5);
    EXPECT_EQ(journal.find<store::PredictionArtifact>(5), nullptr);  // torn tail discarded
    ASSERT_TRUE(journal.stage_complete(StageKind::kFeatures));
    EXPECT_EQ(journal.stage_report(StageKind::kFeatures)->wall_s, 123.0625);
    EXPECT_EQ(journal.stage_report(StageKind::kFeatures)->tasks, 9);
    EXPECT_FALSE(journal.stage_complete(StageKind::kInference));
  }

  // Lines the writer never produces end the valid prefix exactly like a
  // torn tail: neither they nor the well-formed row behind them load,
  // and compaction cuts the file back to its clean image.
  const std::string measured_row = "measured 3 2 0.5 0.5 0.5 0.5 3 1 0 4 4 4 4 4 0 31 end\n";
  const std::string relaxed_row = "relaxed 6 1 0 2 0 100 200 end\n";
  {  // control: a well-formed measured row loads, and so does the row behind it
    write_file(path, clean + measured_row + relaxed_row);
    CampaignJournal journal(path);
    journal.open(0xABCDULL);
    ASSERT_NE(journal.find<store::PredictionArtifact>(3), nullptr);
    EXPECT_EQ(journal.find<store::PredictionArtifact>(3)->conv_mask, 31u);
    EXPECT_NE(journal.find<store::RelaxArtifact>(6), nullptr);
  }
  const std::vector<std::string> rejected = {
      "relaxed -1 0 0 0 0 1 1 end",  // sign on an unsigned index
      "measured +3 2 0.5 0.5 0.5 0.5 3 1 0 4 4 4 4 4 0 0 end",
      "measured 3 9 0.5 0.5 0.5 0.5 -7 1 0 -2 -2 -2 -2 -2 4294967297 0 end",
      "measured 3 6 0.5 0.5 0.5 0.5 3 1 0 4 4 4 4 4 0 0 end",   // top_model past 5
      "measured 3 2 0.5 0.5 0.5 0.5 -7 1 0 4 4 4 4 4 0 0 end",  // negative recycles
      "measured 3 2 0.5 0.5 0.5 0.5 3 1 0 4 -2 4 4 4 0 0 end",  // negative passes
      "measured 3 2 0.5 0.5 0.5 0.5 3 2 0 4 4 4 4 4 0 0 end",   // boolean 2
      "measured 3 2 0.5 0.5 0.5 0.5 3 1 0 4 4 4 4 4 32 0 end",  // mask past 5 models
      "clusteralign 5 3 0.5 0.5 1 end",                         // pair not ordered
      "clusternovel 2 0.25 -2 end",                             // fold index below -1
      "stage inference 1 1 -2 1 0 0 0 0.5 0 0 0 0 0 0 0 0 0 0 0 0 end",  // negative nodes
      "pair 0 0.5 0.5 3 0 0 end",  // a line kind only pair journals hold
  };
  for (const std::string& line : rejected) {
    SCOPED_TRACE(line);
    write_file(path, clean + line + "\n" + relaxed_row);
    CampaignJournal journal(path);
    EXPECT_TRUE(journal.open(0xABCDULL));
    ASSERT_NE(journal.find<store::PredictionArtifact>(4), nullptr);
    EXPECT_EQ(journal.find<store::PredictionArtifact>(3), nullptr);
    EXPECT_EQ(journal.find<store::RelaxArtifact>(6), nullptr);
    EXPECT_FALSE(journal.stage_complete(StageKind::kInference));
    EXPECT_EQ(read_file(path), clean);
  }

  // The header tag is part of a journal's identity, and a pair journal
  // holds only pair rows: a single-chain row ends its valid prefix too.
  write_file(path, clean);
  EXPECT_FALSE(CampaignJournal(path).open(0xABCDULL, JournalKind::kPair));
  for (const bool foreign : {false, true}) {
    write_file(path, "sfpairj v1 abcd end\n" + (foreign ? measured_row : std::string()) +
                         "pair 0 0.5 0.5 3 0 0 end\n");
    CampaignJournal journal(path);
    EXPECT_EQ(journal.open(0xABCDULL, JournalKind::kPair), !foreign);
    EXPECT_EQ(journal.find<store::PairArtifact>(0) != nullptr, !foreign);
  }
}

}  // namespace
}  // namespace sf
