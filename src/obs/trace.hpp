// Deterministic campaign tracing: the observability data plane.
//
// The paper's scheduling evidence is observational -- Fig. 2's worker
// timeline, §4.3's load-balance argument -- and every planned
// scheduling experiment (speculative straggler re-execution,
// fault-aware ordering ablations) needs per-task-attempt timing that
// the executors used to throw away. This module records it as
// first-class data: one TraceSpan per task attempt, carrying stage,
// task id, worker, pool, attempt number, fault class, and sim-clock
// begin/end.
//
// Determinism contract (the whole point of the design): a recorded
// trace is a pure function of (task stream, fault plan, canonical pool
// widths). Executors do NOT report their own schedule; they emit the
// canonical per-attempt event stream (batch order, modeled durations),
// and the TraceRecorder replays the discrete-event scheduler's greedy
// dispatch arithmetic itself at the pool widths registered via
// begin_stage(). The same (seed, plan) therefore yields bit-identical
// traces on the SimulatedExecutor and the DistributedExecutor, at any
// worker or node count, on every rerun -- and no wall clock is ever
// read (sfcheck D2 holds by construction).
//
// When the executing backend's pool widths match the registered
// canonical widths (the pipeline's stage executors), the recorder
// additionally reconciles its replayed schedule against MapResult's
// pool-span accounting bit-for-bit: any drift between accounting and
// the actual schedule trips an assert (and is always counted in
// reconcile_failures() for release builds).
//
// Layering: obs ranks with the leaf simulation modules -- it depends
// only on util, so dataflow and core may emit into it without cycles.
// It deliberately mirrors (rather than includes) dataflow's fault
// taxonomy as SpanFault, adding kIntrinsic for failures the task
// function reported itself.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sf::obs {

// Fault class of one task attempt (dataflow FaultKind plus intrinsic).
enum class SpanFault : int {
  kNone = 0,
  kCrash,      // worker died mid-task
  kTransient,  // attempt errored at the end
  kOom,        // out-of-memory kill (reroutes to the alternate pool)
  kStraggler,  // completed, dilated
  kFsStall,    // completed after a metadata-stall delay
  kIntrinsic,  // the task function itself reported failure
};

// Fault class names, indexed by SpanFault.
inline constexpr const char* kSpanFaultNames[] = {
    "none", "crash", "transient", "oom", "straggler", "fs_stall", "intrinsic"};

const char* span_fault_name(SpanFault fault);

// Canonical width and speed of one worker pool. Homogeneous pools only:
// heterogeneous per-worker speeds would make the canonical replay
// schedule-dependent, which is exactly what the trace must not be.
struct PoolTraceInfo {
  int workers = 0;
  double worker_speed = 1.0;
};

// Everything the recorder needs to replay one stage's schedule.
struct StageTraceInfo {
  std::string stage;
  PoolTraceInfo primary;
  PoolTraceInfo alt;  // workers == 0 => no alternate pool
  double dispatch_overhead_s = 0.6;
  double startup_s = 30.0;
};

// One executor retry round (round 0 is the first attempt of every task).
struct RoundInfo {
  int attempt = 0;
  bool alt_pool = false;
  double backoff_s = 0.0;
  // Cumulative primary-pool workers crashed before this round started
  // (raw count, pre-clamp; 0 for alternate-pool rounds). The recorder
  // clamps against the canonical width so the value is identical on
  // every backend.
  int workers_lost = 0;
  int tasks = 0;  // filled by the recorder
};

// One task attempt as the executor's map() loop saw it, in canonical
// batch order. duration_s is the modeled duration after fault effects
// and retry cost scaling, before worker speed.
struct AttemptEvent {
  std::uint64_t task_id = 0;
  std::string name;
  bool ok = true;
  SpanFault fault = SpanFault::kNone;
  double duration_s = 0.0;
};

// One recorded task attempt, placed on the canonical schedule.
struct TraceSpan {
  std::uint64_t task_id = 0;
  std::string name;
  int attempt = 0;
  bool alt_pool = false;
  int worker = 0;  // within its pool
  bool ok = true;
  SpanFault fault = SpanFault::kNone;
  double begin_s = 0.0;  // sim clock
  double end_s = 0.0;

  double duration_s() const { return end_s - begin_s; }
};

// End-of-map accounting snapshot used for the reconcile check.
struct MapAccounting {
  double primary_pool_s = 0.0;
  double alt_pool_s = 0.0;
  double wall_s = 0.0;
  int workers = 0;      // the executing backend's pool widths
  int alt_workers = 0;
};

// Artifact-store traffic attributed to one stage: cache effectiveness
// counters plus the replica-priced staging seconds. Mirrors (rather
// than includes) store::StoreStats so obs keeps its util-only
// dependency surface -- the store subsystem ranks above obs in the
// layering DAG.
struct StoreStageStats {
  // Eviction policy name ("lru", "cost") when the store runs a
  // non-default policy; empty under FIFO, so FIFO traces keep their
  // historical byte image (the regression guard for PR 6 goldens).
  std::string policy;
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t puts = 0;
  std::uint64_t evictions = 0;
  double bytes_read = 0.0;
  double bytes_written = 0.0;
  double read_s = 0.0;
  double write_s = 0.0;
};

// One serviced request of a streaming campaign (core/campaign_service):
// arrival, admission out of the queue, completion, and whether it was
// served from the in-campaign memo instead of new stage work. Times are
// the service's modeled clock -- deterministic, never wall time.
struct ServiceRequest {
  int request_id = 0;
  std::string tenant;
  std::uint64_t record = 0;
  double arrival_s = 0.0;
  double admission_s = 0.0;
  double completion_s = 0.0;
  bool cache_hit = false;
  int wave = -1;

  double latency_s() const { return completion_s - arrival_s; }
};

// Admission-queue depth at one service decision point.
struct ServiceQueueSample {
  double time_s = 0.0;
  int depth = 0;
};

// The streaming-campaign section of a trace ("sfService"): per-request
// spans plus the queue-depth timeline. Present only when a campaign
// actually streamed (the degenerate batch re-expression never emits it).
struct ServiceTrace {
  std::string policy;
  int waves = 0;
  double makespan_s = 0.0;
  std::vector<ServiceRequest> requests;
  std::vector<ServiceQueueSample> queue_depth;
};

// The novel-fold-discovery section of a trace ("sfCluster"): prefilter
// efficiency counters and the clustering summary of the fourth pipeline
// stage (core/stage_cluster). Present only when a campaign ran with the
// cluster stage enabled.
struct ClusterTrace {
  int structures = 0;        // records with a usable predicted structure
  int excluded_oom = 0;      // records dropped (prediction OOMed)
  std::uint64_t pairs_total = 0;
  std::uint64_t pruned_length = 0;
  std::uint64_t pruned_sketch = 0;
  std::uint64_t aligned_pairs = 0;   // survived the prefilter
  std::uint64_t accepted_edges = 0;  // cleared the TM threshold
  std::uint64_t clusters = 0;
  std::uint64_t novel_folds = 0;
  double tm_threshold = 0.0;
};

// Per-node span of a distributed-executor run (src/dist): how much of
// the campaign one node computed, and what the coherence protocol moved
// through it. These dist records are dist's own counters, not mirrors:
// each node counts straight into one (dist::NodeStats is this type), so
// obs keeps its util-only dependency surface and the trace copies
// nothing. Replicas never evict, so `evictions` stays 0; the field
// keeps the trace format.
struct DistNodeTrace {
  int node = 0;
  int workers = 0;  // width in the most recent round
  int tasks = 0;
  double busy_s = 0.0;
  double finish_s = 0.0;
  std::uint64_t local_hits = 0;
  std::uint64_t migrations_in = 0;
  std::uint64_t migrations_out = 0;
  std::uint64_t recomputes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t invalidations = 0;  // kInvalidate messages honored
  double bytes_in = 0.0;
  double bytes_out = 0.0;
  int crashes = 0;
  std::uint64_t replica_entries = 0;  // live replica snapshot at export
  double replica_bytes = 0.0;
};

// Transfer/coherence counters of one distributed stage window, counted
// into directly by the cluster (dist::WindowStats is this type).
// `evictions` and `bytes_evicted` stay 0, as in DistNodeTrace.
struct DistWindowTrace {
  std::string label;
  int rounds = 0;
  int tasks = 0;      // tasks routed through the cluster
  int alt_tasks = 0;  // alternate-pool attempts (not distributed)
  std::uint64_t messages = 0;
  double message_bytes = 0.0;
  double network_s = 0.0;
  std::uint64_t local_hits = 0;
  std::uint64_t migrations = 0;
  double bytes_migrated = 0.0;
  std::uint64_t recomputes = 0;
  double recompute_s = 0.0;
  std::uint64_t invalidations = 0;
  std::uint64_t evictions = 0;
  double bytes_evicted = 0.0;
  int node_crashes = 0;
  int tasks_rerouted = 0;
  double makespan_s = 0.0;  // summed round makespans

  // Add `o`'s counters to this window's; the label stays.
  void merge(const DistWindowTrace& o);
};

// The distributed-execution section of a trace ("sfDist"): topology and
// routing configuration, per-stage-window counters, and per-node spans.
// Present only when a campaign ran on the distributed backend.
struct DistTrace {
  std::string topology;
  std::string routing;
  int nodes = 0;
  DistWindowTrace totals;
  std::vector<DistWindowTrace> windows;
  std::vector<DistNodeTrace> node_spans;
};

// One stage's recorded trace: registration info, round structure, the
// canonical spans, and the replayed pool busy-spans.
struct StageTrace {
  StageTraceInfo info;
  std::vector<RoundInfo> rounds;
  std::vector<TraceSpan> spans;  // canonical order: round, then dispatch
  // Replayed pool busy-spans; mirror MapResult::primary_pool_s /
  // alt_pool_s bit-for-bit when canonical widths match the executor's.
  double primary_pool_s = 0.0;
  double alt_pool_s = 0.0;
  // Artifact-store traffic, present only when the campaign ran with a
  // store attached.
  std::optional<StoreStageStats> store;
};

// A whole trace: what TraceRecorder records, obs/trace_io writes and
// reads back, and sftrace analyses. Each optional section is present
// only when the campaign produced it. An absent section (or store
// window) is left out of the JSON, so a trace keeps the byte image of
// the builds that predate it.
struct TraceDoc {
  std::vector<StageTrace> stages;
  std::optional<ServiceTrace> service;  // streaming campaigns
  std::optional<DistTrace> dist;        // distributed-executor runs
  std::optional<ClusterTrace> cluster;  // campaigns with the cluster stage
};

// Sink interface the executors emit into. The default implementation
// ignores everything, so an untraced map() costs one pointer test.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // False => emitters may skip event construction entirely.
  virtual bool active() const { return false; }

  // Stage drivers register the canonical pool shape before their map().
  virtual void begin_stage(const StageTraceInfo& info) { (void)info; }
  // map() brackets each round; attempts arrive in canonical batch order.
  virtual void begin_round(const RoundInfo& round) { (void)round; }
  virtual void record_attempt(const AttemptEvent& event) { (void)event; }
  // End of one map(): accounting snapshot for the reconcile check.
  virtual void end_map(const MapAccounting& accounting) { (void)accounting; }
  // Artifact-store traffic for the current stage (stage drivers emit
  // this once per stage, after their store window closes).
  virtual void record_store(const StoreStageStats& stats) { (void)stats; }
  // Streaming-campaign request spans (the campaign service emits this
  // once, after its wave loop drains).
  virtual void record_service(const ServiceTrace& service) { (void)service; }
  // Novel-fold-discovery summary (the cluster stage emits this once,
  // after its clustering and library scan).
  virtual void record_cluster(const ClusterTrace& cluster) { (void)cluster; }
};

// Records canonical spans by replaying the DES dispatch arithmetic --
// min-free-time worker, dispatch overhead, duration / speed -- at the
// registered canonical widths. See the header comment for the
// determinism contract.
class TraceRecorder final : public TraceSink {
 public:
  bool active() const override { return true; }
  void begin_stage(const StageTraceInfo& info) override;
  void begin_round(const RoundInfo& round) override;
  void record_attempt(const AttemptEvent& event) override;
  void end_map(const MapAccounting& accounting) override;
  void record_store(const StoreStageStats& stats) override;
  void record_service(const ServiceTrace& service) override;
  void record_cluster(const ClusterTrace& cluster) override;

  // Everything recorded so far; the dist section stays absent (the
  // distributed cluster exports it, dist::DistCluster::trace()).
  const TraceDoc& doc() const { return doc_; }
  const std::vector<StageTrace>& stages() const { return doc_.stages; }

  // Number of end_map() reconciles where MapResult's pool accounting
  // disagreed with the replayed schedule (0 in a healthy build; also
  // trips an assert in debug builds).
  int reconcile_failures() const { return reconcile_failures_; }

 private:
  void close_round();
  StageTrace& current_stage();

  TraceDoc doc_;
  bool round_open_ = false;
  bool round_alt_ = false;
  RoundInfo round_;
  std::vector<double> free_s_;   // per-worker next-free time (relative)
  double round_last_end_s_ = 0.0;
  double round_base_s_ = 0.0;
  double primary_clock_s_ = 0.0;
  double alt_clock_s_ = 0.0;
  int reconcile_failures_ = 0;
};

}  // namespace sf::obs
