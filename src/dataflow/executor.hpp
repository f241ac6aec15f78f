// Unified dataflow executor interface.
//
// The discrete-event SimulatedExecutor (6,000 workers on a laptop) and
// the multi-node DistributedExecutor built on it (dist/executor.hpp)
// implement the same map()/TaskRecord semantics: submit an ordered task
// list, get back one TaskRecord per task attempt plus pool makespans,
// all in modeled time. Failure handling is declarative: a RetryPolicy
// describes how many attempts each task gets, whether failed tasks
// reroute to the executor's alternate worker pool (the paper's
// high-memory-node rerun for OOM inference tasks, §3.3, generalized so
// *any* stage can retry or reroute), and how retry rounds back off.
//
// The task function prices one attempt of the stage's work and reports
// a TaskOutcome: whether the attempt succeeded and its modeled
// duration. It receives a TaskAttempt so workloads can price retries
// differently (e.g. a high-memory rerun runs more passes). Every
// backend calls it serially, once per task in batch submission order.
//
// map() optionally takes a FaultInjector (dataflow/fault.hpp): a seeded,
// schedule-independent fault plan applied identically at any pool
// width. Injected failures flow through the same RetryPolicy as
// intrinsic ones, and MapResult::faults attributes every lost attempt,
// dilated duration, and dead worker to its fault class.
//
// map() also optionally emits into an obs::TraceSink (obs/trace.hpp):
// the shared retry loop streams per-round, per-attempt events in
// canonical batch order, so the recorded trace is identical on every
// backend at any worker count (the sink replays the schedule at its own
// registered canonical widths; see obs/trace.hpp).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "dataflow/fault.hpp"
#include "dataflow/simulated.hpp"
#include "dataflow/task.hpp"

namespace sf {

struct WorkerPool;  // sim/cluster.hpp

namespace obs {
class TraceSink;  // obs/trace.hpp
}  // namespace obs

// Which try this is and on which pool it runs.
struct TaskAttempt {
  int attempt = 0;        // 0 = first attempt, 1.. = retries
  bool alt_pool = false;  // running on the alternate worker pool
};

// What one task attempt did.
struct TaskOutcome {
  bool ok = true;               // false => candidate for retry/reroute
  double sim_duration_s = 0.0;  // modeled cost
};

using TaskFn = std::function<TaskOutcome(const TaskSpec&, const TaskAttempt&)>;

// Declarative failure handling, applied identically by every backend.
struct RetryPolicy {
  int max_attempts = 1;              // total attempts per task (1 = no retry)
  bool reroute_to_alt_pool = false;  // retries run on the alternate pool
  double retry_cost_scale = 1.0;     // duration multiplier per retry attempt
  // Exponential backoff before retry round r: base * growth^(r-1)
  // modeled seconds (0 = resubmit immediately). Stalls the round's
  // start the way a scheduler waits out a flapping resource.
  double backoff_base_s = 0.0;
  double backoff_growth = 2.0;
  // Failed tasks are re-queued in canonical task-id order, then this
  // ordering policy is applied (mirrors the stage's own queue order).
  TaskOrder retry_order = TaskOrder::kSubmission;
  std::uint64_t seed = 0;
};

// One retry round: the failed set of the previous attempt, re-run.
struct RetryRound {
  int attempt = 0;        // 1-based retry index
  bool alt_pool = false;  // ran on the alternate pool
  int tasks = 0;
  double backoff_s = 0.0;  // wait applied before the round started
  DataflowRunResult run;
};

struct MapResult {
  DataflowRunResult primary;        // first attempt, every task
  std::vector<RetryRound> retries;  // later attempts, failed sets only
  int failed_tasks = 0;             // tasks that exhausted all attempts
  int rerouted_tasks = 0;           // task attempts run on the alt pool
  int retry_attempts = 0;           // task attempts beyond the first
  FaultAccounting faults;           // per-failure-kind attribution

  // Busy span of each pool: retry rounds run serially after the round
  // that produced their failures.
  double primary_pool_s() const;
  double alt_pool_s() const;
  // Stage wall: the two pools run concurrently.
  double wall_s() const;
};

class Executor {
 public:
  virtual ~Executor() = default;

  virtual int workers() const = 0;      // primary pool width
  virtual int alt_workers() const = 0;  // alternate pool width (0 = none)

  // Map `fn` over `tasks` (already ordered) under `policy`, optionally
  // injecting `faults` and emitting per-attempt trace events into
  // `sink`. The retry loop is shared across backends (template method);
  // backends supply run_batch() and may observe each round through
  // after_round().
  MapResult map(const std::vector<TaskSpec>& tasks, const TaskFn& fn,
                const RetryPolicy& policy = {}, const FaultInjector* faults = nullptr,
                obs::TraceSink* sink = nullptr);

 protected:
  enum class Pool { kPrimary, kAlt };

  // Everything a backend needs to run one round.
  struct BatchEnv {
    TaskAttempt attempt;
    double cost_scale = 1.0;  // modeled-duration multiplier (retries)
    Pool pool = Pool::kPrimary;
    int workers_lost = 0;  // crashed workers removed from the primary pool
    double delay_s = 0.0;  // backoff wait before the round starts
  };

  // One task's attempt as its round ran it: the outcome after fault
  // injection (duration before the round's cost scale) and the injected
  // fault class (kNone for a clean or an intrinsically failed attempt).
  struct Attempt {
    TaskOutcome outcome;
    FaultKind fault = FaultKind::kNone;
  };

  // Run one attempt of `batch` under `env`, calling `fn` once per task
  // in batch submission order (map() pairs attempts with tasks by
  // position); append tasks whose outcome was not ok to `failed` in
  // that order.
  virtual DataflowRunResult run_batch(const std::vector<TaskSpec>& batch, const TaskFn& fn,
                                      const BatchEnv& env, std::vector<TaskSpec>& failed) = 0;

  // Called once per round, after run_batch(), with `attempts[i]` the
  // attempt of `batch[i]`. The same record feeds the trace; the base
  // does nothing with it.
  virtual void after_round(const std::vector<TaskSpec>& /*batch*/, const BatchEnv& /*env*/,
                           const std::vector<Attempt>& /*attempts*/) {}
};

// Simulated-time backend: wraps run_simulated_dataflow() for the primary
// pool and (optionally) an alternate pool, e.g. Summit's high-memory
// nodes. Durations come from TaskOutcome::sim_duration_s.
class SimulatedExecutor : public Executor {
 public:
  // `alt` with workers == 0 means "no alternate pool".
  explicit SimulatedExecutor(SimulatedDataflowParams primary,
                             SimulatedDataflowParams alt = no_pool());

  // Build from machine worker-pool descriptions (sim/cluster.hpp);
  // `base` supplies dispatch overhead / startup shared by both pools.
  static SimulatedExecutor from_pools(const SimulatedDataflowParams& base,
                                      const WorkerPool& primary);
  static SimulatedExecutor from_pools(const SimulatedDataflowParams& base,
                                      const WorkerPool& primary, const WorkerPool& alt);

  int workers() const override { return primary_.workers; }
  int alt_workers() const override { return alt_.workers; }

 protected:
  // One DES round: the task function runs once per task in batch
  // submission order (the DES dispatches queue-head first).
  DataflowRunResult run_batch(const std::vector<TaskSpec>& batch, const TaskFn& fn,
                              const BatchEnv& env, std::vector<TaskSpec>& failed) override;

  // DES parameters of the round `env` describes: the pool it names,
  // narrowed by the crashed workers (at least one remains) and with the
  // backoff stalling the round's start.
  SimulatedDataflowParams round_params(const BatchEnv& env) const;

 private:
  static SimulatedDataflowParams no_pool() {
    SimulatedDataflowParams p;
    p.workers = 0;
    return p;
  }

  SimulatedDataflowParams primary_;
  SimulatedDataflowParams alt_;
};

}  // namespace sf
