// The observability subsystem's core guarantees:
//  * a recorded trace is a pure function of (task stream, fault plan,
//    canonical pool widths) -- byte-identical Chrome trace JSON across
//    the SimulatedExecutor and the DistributedExecutor, at any worker
//    or node count, on every rerun;
//  * when the executing backend's widths match the registered canonical
//    widths, the replayed schedule reconciles bit-for-bit with
//    MapResult's pool accounting;
//  * exports round-trip losslessly, metrics are exact functions of the
//    span list;
//  * a traced pipeline run produces the same CampaignReport as an
//    untraced one, and a kill/resume through the journal reproduces the
//    uninterrupted trace byte for byte without recomputing what the
//    journal holds;
//  * the journal compacts on open: duplicates, torn tails, and
//    superseded trec batches are dropped, and a reopen of an
//    already-canonical file never rewrites it.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dataflow/executor.hpp"
#include "dist/executor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "store/artifact_store.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "scratch_dir.hpp"

namespace sf {
namespace {

// ------------------------------------------------------------------ //
// Executor-level determinism.
// ------------------------------------------------------------------ //

std::vector<TaskSpec> make_tasks(int n) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < n; ++i) {
    TaskSpec t;
    t.id = static_cast<std::uint64_t>(i);
    t.name = format("t%d", i);
    t.cost_hint = 40.0 + static_cast<double>(i % 9) * 7.0;
    tasks.push_back(t);
  }
  return tasks;
}

// The canonical pool shape every backend records against. Dispatch
// overhead and startup match SimulatedDataflowParams defaults so the
// width-matched simulated run reconciles.
obs::StageTraceInfo canonical_info() {
  obs::StageTraceInfo info;
  info.stage = "unit";
  info.primary = {16, 1.0};
  info.alt = {2, 1.0};
  return info;
}

FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.seed = 41;
  plan.crash_rate = 0.04;
  plan.transient_rate = 0.10;
  plan.transient_attempts = 1;
  plan.oom_rate = 0.06;
  plan.straggler_rate = 0.08;
  plan.straggler_factor = 3.0;
  plan.fs_stall_rate = 0.06;
  plan.fs_stall_base_s = 15.0;
  return plan;
}

RetryPolicy chaos_policy() {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.reroute_to_alt_pool = true;
  policy.retry_cost_scale = 1.25;
  policy.backoff_base_s = 20.0;
  policy.retry_order = TaskOrder::kDescendingCost;
  return policy;
}

// Records one chaotic map() through `exec` against the canonical pool
// shape and returns the rendered Chrome trace JSON.
std::string record_map(Executor& exec, obs::TraceRecorder& rec, MapResult& run) {
  const auto tasks = make_tasks(60);
  const FaultInjector inj(chaos_plan());
  rec.begin_stage(canonical_info());
  const TaskFn fn = [](const TaskSpec& t, const TaskAttempt&) {
    TaskOutcome o;
    o.sim_duration_s = t.cost_hint;
    return o;
  };
  run = exec.map(tasks, fn, chaos_policy(), &inj, &rec);
  return obs::render_chrome_trace(rec.doc());
}

TEST(ObsTrace, ByteIdenticalAcrossBackendsWidthsAndReruns) {
  // Width-matched simulated baseline: 16 + 2, exactly the canonical
  // registration, so the recorder also reconciles against MapResult.
  SimulatedDataflowParams primary16;
  primary16.workers = 16;
  SimulatedDataflowParams alt2;
  alt2.workers = 2;
  SimulatedExecutor sim16{primary16, alt2};
  obs::TraceRecorder rec16;
  MapResult run16;
  const std::string baseline = record_map(sim16, rec16, run16);

  ASSERT_EQ(rec16.stages().size(), 1u);
  const obs::StageTrace& st = rec16.stages().front();
  // The plan actually exercised the interesting structure.
  EXPECT_GE(st.rounds.size(), 2u);
  EXPECT_EQ(static_cast<int>(st.spans.size()),
            static_cast<int>(run16.primary.records.size()) + run16.retry_attempts);
  bool any_alt = false, any_fault = false;
  for (const auto& s : st.spans) {
    any_alt = any_alt || s.alt_pool;
    any_fault = any_fault || s.fault != obs::SpanFault::kNone;
  }
  EXPECT_TRUE(any_alt);
  EXPECT_TRUE(any_fault);
  // Bit-exact reconcile against the executor's own accounting.
  EXPECT_EQ(rec16.reconcile_failures(), 0);
  EXPECT_EQ(st.primary_pool_s, run16.primary_pool_s());
  EXPECT_EQ(st.alt_pool_s, run16.alt_pool_s());

  // A narrower simulated pool: the actual schedule differs, the
  // recorded canonical trace must not.
  SimulatedDataflowParams primary3;
  primary3.workers = 3;
  SimulatedDataflowParams alt1;
  alt1.workers = 1;
  SimulatedExecutor sim3{primary3, alt1};
  obs::TraceRecorder rec3;
  MapResult run3;
  EXPECT_EQ(record_map(sim3, rec3, run3), baseline);
  EXPECT_EQ(rec3.reconcile_failures(), 0);  // width mismatch: reconcile skipped

  // The distributed backend over both pool shapes, at two node counts:
  // same canonical trace, and the width-matched one reconciles too.
  dist::DistConfig dc4;
  dc4.nodes = 4;
  dist::DistCluster cluster4(dc4);
  dist::DistributedExecutor dist16{sim16, cluster4};
  obs::TraceRecorder rec4;
  MapResult run4;
  EXPECT_EQ(record_map(dist16, rec4, run4), baseline);
  EXPECT_EQ(rec4.reconcile_failures(), 0);

  dist::DistConfig dc2;
  dc2.nodes = 2;
  dist::DistCluster cluster2(dc2);
  dist::DistributedExecutor dist3{sim3, cluster2};
  obs::TraceRecorder rec2;
  MapResult run2;
  EXPECT_EQ(record_map(dist3, rec2, run2), baseline);

  // And a rerun of the baseline is bit-identical.
  SimulatedExecutor again{primary16, alt2};
  obs::TraceRecorder rec_again;
  MapResult run_again;
  EXPECT_EQ(record_map(again, rec_again, run_again), baseline);
}

TEST(ObsTrace, ChromeJsonRoundTripsLosslessly) {
  SimulatedDataflowParams primary;
  primary.workers = 16;
  SimulatedDataflowParams alt;
  alt.workers = 2;
  SimulatedExecutor sim{primary, alt};
  obs::TraceRecorder rec;
  MapResult run;
  const std::string json = record_map(sim, rec, run);

  obs::TraceDoc doc;
  std::string error;
  ASSERT_TRUE(obs::parse_chrome_trace(json, doc, &error)) << error;
  ASSERT_EQ(doc.stages.size(), 1u);
  const obs::StageTrace& got = doc.stages.front();
  const obs::StageTrace& want = rec.stages().front();
  EXPECT_EQ(got.info.stage, "unit");
  EXPECT_EQ(got.info.primary.workers, want.info.primary.workers);
  EXPECT_EQ(got.info.alt.workers, want.info.alt.workers);
  EXPECT_EQ(got.info.dispatch_overhead_s, want.info.dispatch_overhead_s);
  EXPECT_EQ(got.info.startup_s, want.info.startup_s);
  ASSERT_EQ(got.rounds.size(), want.rounds.size());
  for (std::size_t r = 0; r < want.rounds.size(); ++r) {
    EXPECT_EQ(got.rounds[r].attempt, want.rounds[r].attempt);
    EXPECT_EQ(got.rounds[r].alt_pool, want.rounds[r].alt_pool);
    EXPECT_EQ(got.rounds[r].backoff_s, want.rounds[r].backoff_s);
    EXPECT_EQ(got.rounds[r].tasks, want.rounds[r].tasks);
  }
  ASSERT_EQ(got.spans.size(), want.spans.size());
  for (std::size_t i = 0; i < want.spans.size(); ++i) {
    EXPECT_EQ(got.spans[i].task_id, want.spans[i].task_id);
    EXPECT_EQ(got.spans[i].name, want.spans[i].name);
    EXPECT_EQ(got.spans[i].attempt, want.spans[i].attempt);
    EXPECT_EQ(got.spans[i].alt_pool, want.spans[i].alt_pool);
    EXPECT_EQ(got.spans[i].worker, want.spans[i].worker);
    EXPECT_EQ(got.spans[i].ok, want.spans[i].ok);
    EXPECT_EQ(got.spans[i].fault, want.spans[i].fault);
    EXPECT_EQ(got.spans[i].begin_s, want.spans[i].begin_s);  // %.17g round-trip
    EXPECT_EQ(got.spans[i].end_s, want.spans[i].end_s);
  }
  EXPECT_EQ(got.primary_pool_s, want.primary_pool_s);
  EXPECT_EQ(got.alt_pool_s, want.alt_pool_s);
  // Re-rendering the parsed document reproduces the bytes.
  EXPECT_EQ(obs::render_chrome_trace(doc), json);
}

TEST(ObsTrace, SpansCsvHasOneRowPerAttempt) {
  SimulatedDataflowParams primary;
  primary.workers = 16;
  SimulatedDataflowParams alt;
  alt.workers = 2;
  SimulatedExecutor sim{primary, alt};
  obs::TraceRecorder rec;
  MapResult run;
  record_map(sim, rec, run);

  const std::string csv = obs::render_spans_csv(rec.stages());
  std::size_t lines = 0;
  for (char c : csv) lines += c == '\n';
  EXPECT_EQ(lines, rec.stages().front().spans.size() + 1);  // header + rows
  EXPECT_EQ(csv.rfind("stage,task_id,name,attempt,pool,worker,fault,ok,begin_s,end_s\n", 0), 0u);
}

// ------------------------------------------------------------------ //
// Metrics over a hand-built trace with known arithmetic.
// ------------------------------------------------------------------ //

obs::TraceSpan span(std::uint64_t id, int attempt, bool alt, int worker, bool ok,
                    obs::SpanFault fault, double begin, double end) {
  obs::TraceSpan s;
  s.task_id = id;
  s.name = "t" + std::to_string(id);
  s.attempt = attempt;
  s.alt_pool = alt;
  s.worker = worker;
  s.ok = ok;
  s.fault = fault;
  s.begin_s = begin;
  s.end_s = end;
  return s;
}

obs::StageTrace hand_trace() {
  obs::StageTrace st;
  st.info.stage = "unit";
  st.info.primary = {2, 1.0};
  st.info.alt = {1, 1.0};
  st.spans.push_back(span(0, 0, false, 0, true, obs::SpanFault::kNone, 0.0, 10.0));
  st.spans.push_back(span(1, 0, false, 1, true, obs::SpanFault::kNone, 0.0, 10.0));
  st.spans.push_back(span(2, 0, false, 0, false, obs::SpanFault::kTransient, 10.0, 20.0));
  st.spans.push_back(span(3, 0, false, 1, true, obs::SpanFault::kStraggler, 10.0, 60.0));
  st.spans.push_back(span(2, 1, true, 0, true, obs::SpanFault::kNone, 20.0, 30.0));
  obs::RoundInfo r0;
  r0.tasks = 4;
  st.rounds.push_back(r0);
  obs::RoundInfo r1;
  r1.attempt = 1;
  r1.alt_pool = true;
  r1.tasks = 1;
  st.rounds.push_back(r1);
  return st;
}

TEST(ObsMetrics, ExactOnHandBuiltTrace) {
  const obs::StageTrace st = hand_trace();
  const obs::StageMetrics m = obs::compute_stage_metrics(st);
  EXPECT_EQ(m.stage, "unit");
  EXPECT_EQ(m.tasks, 4);
  EXPECT_EQ(m.attempts, 5);
  EXPECT_EQ(m.failed_attempts, 1);
  EXPECT_EQ(m.retry_attempts, 1);
  EXPECT_EQ(m.alt_attempts, 1);
  EXPECT_EQ(m.makespan_s, 60.0);
  EXPECT_EQ(m.busy_s, 90.0);
  EXPECT_EQ(m.primary_busy_s, 80.0);
  EXPECT_EQ(m.alt_busy_s, 10.0);
  // Primary window [0, 60], 2 canonical workers: 80 / 120.
  EXPECT_DOUBLE_EQ(m.utilization, 80.0 / 120.0);
  // Worker 0 finishes its last primary span at 20, worker 1 at 60.
  EXPECT_EQ(m.finish_spread_s, 40.0);
  // Durations {10,10,10,50,10}: median 10, k=4 threshold 40 -> the 50s
  // straggler span alone, excess 40 over the median.
  EXPECT_EQ(m.stragglers.median_s, 10.0);
  EXPECT_EQ(m.stragglers.count, 1);
  EXPECT_EQ(m.stragglers.excess_s, 40.0);
  ASSERT_EQ(m.stragglers.worst.size(), 1u);
  EXPECT_EQ(m.stragglers.worst.front().task_id, 3u);
  // Fault classes in enum order: transient bills the failed attempt in
  // full, the straggler bills its dilation over the median.
  ASSERT_EQ(m.faults.size(), 2u);
  EXPECT_EQ(m.faults[0].fault, obs::SpanFault::kTransient);
  EXPECT_EQ(m.faults[0].attempts, 1);
  EXPECT_EQ(m.faults[0].lost_s, 10.0);
  EXPECT_EQ(m.faults[1].fault, obs::SpanFault::kStraggler);
  EXPECT_EQ(m.faults[1].attempts, 1);
  EXPECT_EQ(m.faults[1].lost_s, 40.0);

  const std::string timeline = obs::render_trace_timeline(st, 10, 60);
  EXPECT_NE(timeline.find("w00000"), std::string::npos);
  EXPECT_NE(timeline.find('#'), std::string::npos);
  EXPECT_NE(timeline.find('|'), std::string::npos);
}

TEST(ObsMetrics, TimelineClampsSpansThatBeginBeforeZero) {
  // A span beginning before 0 is a canonical real, so a trace the reader
  // accepts may carry one; its row starts at the first column.
  obs::TraceDoc doc;
  obs::StageTrace& st = doc.stages.emplace_back();
  st.info.stage = "unit";
  st.info.primary = {1, 1.0};
  st.spans.push_back(span(0, 0, false, 0, true, obs::SpanFault::kNone, -6.0, 10.0));
  st.spans.push_back(span(1, 0, false, 0, true, obs::SpanFault::kNone, 10.0, 60.0));
  obs::TraceDoc back;
  ASSERT_TRUE(obs::parse_chrome_trace(obs::render_chrome_trace(doc), back));
  const std::string timeline = obs::render_trace_timeline(back.stages.front(), 10, 60);
  EXPECT_EQ(timeline.rfind("w00000 |#", 0), 0u) << timeline;
}

// ------------------------------------------------------------------ //
// Trace I/O: a trace re-renders to its own bytes, or it is refused.
// ------------------------------------------------------------------ //

constexpr std::uint64_t kBigTaskId = (std::uint64_t{1} << 53) + 1;  // no double holds it

// Every section a trace can carry: store windows with and without a
// policy, an alternate-pool round, names that need escapes, requests,
// queue samples, dist windows and node spans, and a cluster summary.
obs::TraceDoc every_section_doc() {
  obs::TraceDoc doc;
  obs::StageTrace& features = doc.stages.emplace_back(hand_trace());
  features.info.stage = "features";
  features.rounds[1].backoff_s = 5.5;
  features.primary_pool_s = 60.25;
  features.alt_pool_s = 30.0;
  obs::StoreStageStats& fifo = features.store.emplace();
  fifo.gets = 5;
  fifo.hits = 3;
  fifo.misses = 2;
  fifo.puts = 2;
  fifo.bytes_read = 1.5e6;
  fifo.bytes_written = 0.125;
  fifo.read_s = 0.3;
  fifo.write_s = 1.0 / 3.0;

  obs::StageTrace& inference = doc.stages.emplace_back(hand_trace());
  inference.info.stage = "inference@1";
  inference.info.alt = {2, 0.75};
  inference.info.startup_s = 12.5;
  inference.rounds[0].workers_lost = 1;
  inference.spans[0].task_id = kBigTaskId;
  inference.spans[1].name = "quote\" backslash\\ nl\n tab\t cr\r ctl\x01 utf8 \xc3\xa9";
  inference.spans[3].fault = obs::SpanFault::kIntrinsic;
  obs::StoreStageStats& lru = inference.store.emplace();
  lru.policy = "lru";
  lru.gets = 9;
  lru.puts = 9;
  lru.evictions = 4;

  obs::ServiceTrace& service = doc.service.emplace();
  service.policy = "fair";
  service.waves = 2;
  service.makespan_s = 1234.5;
  service.requests.push_back({0, "tenant0", 7, 0.0, 1.5, 99.25, false, 0});
  service.requests.push_back({1, "tenant1", 3, 2.0, 2.0, 2.0, true, -1});
  service.queue_depth = {{0.0, 2}, {1.5, 1}};

  obs::DistTrace& dist = doc.dist.emplace();
  dist.topology = "fat-tree";
  dist.routing = "locality";
  dist.nodes = 2;
  dist.totals.label = "total";
  dist.totals.tasks = 14;
  dist.totals.messages = 96;
  dist.totals.message_bytes = 24576.0;
  dist.totals.makespan_s = 2330.5;
  for (const char* label : {"features", "inference@1"}) {
    obs::DistWindowTrace& w = dist.windows.emplace_back();
    w.label = label;
    w.rounds = 2;
    w.tasks = 7;
    w.migrations = 3;
    w.bytes_migrated = 4096.5;
  }
  for (int n = 0; n < 2; ++n) {
    obs::DistNodeTrace& node = dist.node_spans.emplace_back();
    node.node = n;
    node.workers = 12;
    node.tasks = 7 + n;
    node.busy_s = 100.0 / (n + 3);
    node.crashes = n;
    node.replica_entries = 11;
    node.replica_bytes = 1113525.0;
  }

  obs::ClusterTrace& cluster = doc.cluster.emplace();
  cluster.structures = 6;
  cluster.excluded_oom = 1;
  cluster.pairs_total = 15;
  cluster.pruned_length = 6;
  cluster.pruned_sketch = 5;
  cluster.aligned_pairs = 4;
  cluster.clusters = 6;
  cluster.novel_folds = 2;
  cluster.tm_threshold = 0.5;
  return doc;
}

bool parses(const std::string& json, obs::TraceDoc& doc) {
  bool ok = true;
  EXPECT_NO_THROW(ok = obs::parse_chrome_trace(json, doc));
  return ok;
}

bool parses(const std::string& json) {
  obs::TraceDoc doc;
  return parses(json, doc);
}

TEST(ObsTraceIo, EverySectionRoundTripsByteIdentically) {
  const obs::TraceDoc doc = every_section_doc();
  const std::string json = obs::render_chrome_trace(doc);
  obs::TraceDoc back;
  std::string error;
  ASSERT_TRUE(obs::parse_chrome_trace(json, back, &error)) << error;
  EXPECT_EQ(obs::render_chrome_trace(back), json);
  ASSERT_EQ(back.stages.size(), 2u);
  ASSERT_TRUE(back.stages[0].store);
  EXPECT_TRUE(back.stages[0].store->policy.empty());
  ASSERT_TRUE(back.stages[1].store);
  EXPECT_EQ(back.stages[1].store->policy, "lru");
  EXPECT_EQ(back.stages[1].spans[1].name, doc.stages[1].spans[1].name);
  EXPECT_EQ(back.stages[1].rounds[1].alt_pool, true);
  ASSERT_TRUE(back.service);
  EXPECT_EQ(back.service->requests.size(), 2u);
  EXPECT_EQ(back.service->queue_depth.size(), 2u);
  ASSERT_TRUE(back.dist);
  EXPECT_EQ(back.dist->windows.size(), 2u);
  EXPECT_EQ(back.dist->node_spans.size(), 2u);
  ASSERT_TRUE(back.cluster);
  EXPECT_EQ(back.cluster->novel_folds, 2u);

  // Absent sections and store windows stay absent.
  obs::TraceDoc bare = doc;
  bare.stages[0].store.reset();
  bare.service.reset();
  bare.dist.reset();
  bare.cluster.reset();
  const std::string bare_json = obs::render_chrome_trace(bare);
  ASSERT_TRUE(obs::parse_chrome_trace(bare_json, back, &error)) << error;
  EXPECT_EQ(obs::render_chrome_trace(back), bare_json);
  EXPECT_FALSE(back.stages[0].store);
  EXPECT_FALSE(back.service || back.dist || back.cluster);
}

TEST(ObsTraceIo, TaskIdAboveTwoToTheFiftyThreeSurvivesExactly) {
  obs::TraceDoc back;
  ASSERT_TRUE(parses(obs::render_chrome_trace(every_section_doc()), back));
  EXPECT_EQ(back.stages[1].spans[0].task_id, kBigTaskId);
}

// The first occurrence of `from` in `json`, replaced by `to`.
std::string replaced(const std::string& json, const std::string& from, const std::string& to) {
  const std::size_t at = json.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return at == std::string::npos ? json : json.substr(0, at) + to + json.substr(at + from.size());
}

TEST(ObsTraceIo, RefusesWhatItsWriterNeverWritesWithoutThrowing) {
  const std::string json = obs::render_chrome_trace(every_section_doc());
  ASSERT_TRUE(parses(json));
  const std::pair<const char*, const char*> edits[] = {
      {"\"task\":0,", "\"task\":9.75,"},  // fractional task id
      {"\"ok\":1,", "\"ok\":7,"},
      {"\"task\":0,", "\"task\":-1,"},
      {"\"workers\":2,", "\"workers\":1e30,"},
      {"\"gets\":5,", "\"gets\":5,\"gets\":5,"},                // duplicated key
      {"\"hits\":3,\"misses\":2,", "\"misses\":2,\"hits\":3,"},  // swapped keys
      {",\"beginS\":0,\"endS\":10}", "}"},                        // span without its seconds
      {"\"ts\":0,", "\"ts\":1,"},                                 // ts disagrees with beginS
  };
  for (const auto& [from, to] : edits) {
    EXPECT_FALSE(parses(replaced(json, from, to))) << from << " -> " << to;
  }
  EXPECT_FALSE(parses(json + " "));
  EXPECT_FALSE(parses(json + "\n"));
  for (std::size_t n = 0; n < json.size(); ++n) {
    ASSERT_FALSE(parses(json.substr(0, n))) << "prefix of " << n << " bytes";
  }
  // The error names the offset where reading stopped.
  obs::TraceDoc doc;
  std::string error;
  const std::string fractional = replaced(json, "\"task\":0,", "\"task\":9.75,");
  EXPECT_FALSE(obs::parse_chrome_trace(fractional, doc, &error));
  EXPECT_EQ(error, format("trace parse error at offset %zu", fractional.find("9.75")));
}

TEST(ObsTraceIo, SeededSingleByteFlipsAreRefusedOrReRendered) {
  const std::string json = obs::render_chrome_trace(every_section_doc());
  Rng rng(1616);
  int refused = 0;
  int accepted = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string flipped = json;
    const auto at =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(json.size()) - 1));
    flipped[at] = static_cast<char>(flipped[at] ^ rng.uniform_int(1, 255));
    obs::TraceDoc doc;
    if (!parses(flipped, doc)) {
      ++refused;
      continue;
    }
    ++accepted;
    EXPECT_EQ(obs::render_chrome_trace(doc), flipped) << "flip at byte " << at;
  }
  EXPECT_GT(refused, 0);
  EXPECT_GT(accepted, 0);
}

// ------------------------------------------------------------------ //
// Pipeline level: tracing is a pure observer, and resume reproduces
// the uninterrupted trace.
// ------------------------------------------------------------------ //

PipelineConfig traced_campaign_config() {
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

std::string campaign_text(const CampaignReport& report) {
  std::ostringstream os;
  print_campaign(os, report, species_d_vulgaris());
  return os.str();
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

TEST(ObsPipeline, TracingIsAPureObserverOfTheCampaign) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(12);
  const PipelineConfig cfg = traced_campaign_config();
  const Pipeline pipeline(universe, cfg);

  const CampaignReport untraced = pipeline.run(records);

  obs::TraceRecorder rec_a;
  const CampaignReport traced = pipeline.run(records, nullptr, &rec_a);
  // The report is byte-identical with and without the sink attached.
  EXPECT_EQ(campaign_text(traced), campaign_text(untraced));
  EXPECT_EQ(rec_a.reconcile_failures(), 0);
  ASSERT_EQ(rec_a.stages().size(), 3u);
  EXPECT_EQ(rec_a.stages()[0].info.stage, "features");
  EXPECT_EQ(rec_a.stages()[1].info.stage, "inference");
  EXPECT_EQ(rec_a.stages()[2].info.stage, "relaxation");
  for (const auto& st : rec_a.stages()) EXPECT_FALSE(st.spans.empty());

  // A traced rerun is bit-identical.
  obs::TraceRecorder rec_b;
  pipeline.run(records, nullptr, &rec_b);
  EXPECT_EQ(obs::render_chrome_trace(rec_b.doc()), obs::render_chrome_trace(rec_a.doc()));
}

TEST(ObsPipeline, KillResumeReproducesTheUninterruptedTrace) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(12);
  const PipelineConfig cfg = traced_campaign_config();
  const Pipeline pipeline(universe, cfg);

  obs::TraceRecorder baseline_rec;
  const CampaignReport baseline = pipeline.run(records, nullptr, &baseline_rec);
  const std::string baseline_json = obs::render_chrome_trace(baseline_rec.doc());

  // A journaled traced run matches the unjournaled one.
  const std::string dir = test_scratch_dir();
  const std::string full_path = dir + "obs_journal_full.sfj";
  write_file(full_path, "");
  {
    CampaignJournal journal(full_path);
    obs::TraceRecorder rec;
    const CampaignReport journaled = pipeline.run(records, &journal, &rec);
    EXPECT_EQ(campaign_text(journaled), campaign_text(baseline));
    EXPECT_EQ(obs::render_chrome_trace(rec.doc()), baseline_json);
  }
  const std::string full = read_file(full_path);
  ASSERT_NE(full.find("sfjournal v1"), std::string::npos);

  // Kill at assorted byte prefixes: clean line boundaries plus torn
  // mid-line tails. Every resume must reproduce the baseline trace.
  std::vector<std::size_t> cuts;
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    if (full[pos] == '\n') cuts.push_back(pos + 1);
  }
  ASSERT_GE(cuts.size(), 4u);
  std::vector<std::size_t> selected;
  const std::size_t stride = std::max<std::size_t>(1, cuts.size() / 6);
  for (std::size_t i = 0; i < cuts.size(); i += stride) selected.push_back(cuts[i]);
  selected.push_back(cuts[0] + 3);  // torn tail just past the header
  const std::size_t mid_line = cuts.size() / 2;
  selected.push_back((cuts[mid_line - 1] + cuts[mid_line]) / 2);  // torn mid-file tail

  int resumed_runs = 0;
  for (const std::size_t cut : selected) {
    const std::string path = dir + "obs_journal_cut_" + std::to_string(cut) + ".sfj";
    write_file(path, full.substr(0, std::min(cut, full.size())));
    CampaignJournal journal(path);
    obs::TraceRecorder rec;
    const CampaignReport resumed = pipeline.run(records, &journal, &rec);
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    EXPECT_EQ(campaign_text(resumed), campaign_text(baseline));
    EXPECT_EQ(obs::render_chrome_trace(rec.doc()), baseline_json);
    EXPECT_EQ(rec.reconcile_failures(), 0);
    ++resumed_runs;
  }
  EXPECT_GE(resumed_runs, 6);

  // Resuming from the fully sealed (and by now compacted) journal
  // re-derives every span without touching the journal's results.
  {
    CampaignJournal journal(full_path);
    obs::TraceRecorder rec;
    const CampaignReport resumed = pipeline.run(records, &journal, &rec);
    EXPECT_EQ(campaign_text(resumed), campaign_text(baseline));
    EXPECT_EQ(obs::render_chrome_trace(rec.doc()), baseline_json);
  }

  // Nor does it recompute a prediction: every kept target's relaxed row
  // is journaled, so its measured row restores it without a structure.
  // A fresh store attached to the traced resume sees no inference
  // traffic at all.
  {
    const std::string dir = test_scratch_dir() + "obs_sealed_store";
    std::filesystem::remove_all(dir);
    store::ArtifactStore fresh(dir);
    EXPECT_FALSE(fresh.open());
    CampaignJournal journal(full_path);
    obs::TraceRecorder rec;
    const CampaignReport resumed = pipeline.run(records, &journal, &rec, &fresh);
    EXPECT_EQ(campaign_text(resumed), campaign_text(baseline));
    int inference_windows = 0;
    for (const auto& [stage, window] : fresh.stage_history()) {
      if (stage != "inference") continue;
      ++inference_windows;
      EXPECT_EQ(window.gets, 0u);
      EXPECT_EQ(window.puts, 0u);
    }
    EXPECT_EQ(inference_windows, 1);
  }
}

// ------------------------------------------------------------------ //
// Journal compact-on-open.
// ------------------------------------------------------------------ //

TEST(ObsJournal, CompactionDropsSupersededTrecsAndIsIdempotent) {
  const std::string path = test_scratch_dir() + "obs_journal_compact.sfj";
  write_file(path, "");
  StageReport report;
  report.name = "inference";
  report.wall_s = 512.25;
  report.tasks = 3;
  {
    CampaignJournal journal(path);
    journal.open(0xBEEFULL);
    store::PredictionArtifact row;
    row.plddt = 81.5;
    row.top_model = 1;
    journal.record(2, row);
    row.plddt = 10.0;  // duplicate index: first write wins
    journal.record(2, row);
    std::vector<TaskRecord> first(2), second(3);
    for (std::size_t i = 0; i < first.size(); ++i) {
      first[i].task_id = i;
      first[i].name = "a" + std::to_string(i);
      first[i].worker = static_cast<int>(i);
      first[i].end_s = 5.0;
    }
    for (std::size_t i = 0; i < second.size(); ++i) {
      second[i].task_id = i;
      second[i].name = "b" + std::to_string(i);
      second[i].worker = static_cast<int>(i);
      second[i].end_s = 7.5;
    }
    journal.record_task_records(first);
    journal.record_task_records(second);  // supersedes `first`
    journal.record_stage_complete(StageKind::kInference, report);
  }
  {  // a kill mid-write: torn line plus garbage, no trailing newline
    std::ofstream out(path, std::ios::app);
    out << "measured 9 1 44.0\nnot a journal line";
  }
  const std::string raw = read_file(path);
  EXPECT_NE(raw.find("trecbatch 2 end"), std::string::npos);
  EXPECT_NE(raw.find("trecbatch 3 end"), std::string::npos);

  {
    CampaignJournal journal(path);
    EXPECT_TRUE(journal.open(0xBEEFULL));
    // Only the last batch survives, and the duplicate row kept its
    // first value.
    ASSERT_EQ(journal.inference_task_records().size(), 3u);
    EXPECT_EQ(journal.inference_task_records()[0].name, "b0");
    ASSERT_NE(journal.find<store::PredictionArtifact>(2), nullptr);
    EXPECT_EQ(journal.find<store::PredictionArtifact>(2)->plddt, 81.5);
    EXPECT_EQ(journal.find<store::PredictionArtifact>(9), nullptr);  // torn tail discarded
    EXPECT_EQ(journal.stage_report(StageKind::kInference)->wall_s, 512.25);
  }
  const std::string compacted = read_file(path);
  EXPECT_LT(compacted.size(), raw.size());
  EXPECT_EQ(compacted.find("trecbatch 2 end"), std::string::npos);
  EXPECT_NE(compacted.find("trecbatch 3 end"), std::string::npos);
  EXPECT_EQ(compacted.find("a0"), std::string::npos);
  EXPECT_EQ(compacted.find("not a journal line"), std::string::npos);
  EXPECT_EQ(compacted.back(), '\n');

  // Reopening the canonical file is a no-op: same bytes, same state.
  {
    CampaignJournal journal(path);
    EXPECT_TRUE(journal.open(0xBEEFULL));
    EXPECT_EQ(journal.inference_task_records().size(), 3u);
  }
  EXPECT_EQ(read_file(path), compacted);
}

TEST(ObsJournal, CompactionDropsTrecsFromUnsealedInference) {
  const std::string path = test_scratch_dir() + "obs_journal_unsealed.sfj";
  write_file(path, "");
  {
    CampaignJournal journal(path);
    journal.open(0xBEEFULL);
    std::vector<TaskRecord> recs(2);
    recs[0].task_id = 0;
    recs[0].name = "x0";
    recs[1].task_id = 1;
    recs[1].name = "x1";
    journal.record_task_records(recs);
    // Inference never seals: a kill here means the timeline is partial.
  }
  ASSERT_NE(read_file(path).find("trecbatch 2 end"), std::string::npos);
  {
    CampaignJournal journal(path);
    journal.open(0xBEEFULL);
    EXPECT_TRUE(journal.inference_task_records().empty());
  }
  // The compacted image dropped the untrustworthy batch entirely.
  EXPECT_EQ(read_file(path).find("trecbatch"), std::string::npos);
}

}  // namespace
}  // namespace sf
