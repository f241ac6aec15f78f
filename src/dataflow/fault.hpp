// Deterministic fault injection for the dataflow executors.
//
// At the paper's campaign scale (~4,000 Summit node-hours over 35,634
// targets, §4.3) worker loss, transient task errors, stragglers, OOM
// reruns, and Lustre metadata stalls are routine, and what makes a
// deployment practical is that none of them corrupts results or loses
// targets. This module models those failure classes as a seeded
// FaultPlan: a pure function of (plan seed, task id, attempt, pool), so
// every executor honors the exact same fault schedule regardless of
// worker count, node count, or dispatch order -- the property the chaos
// suite leans on to assert that campaign results are
// schedule-independent.
//
// Fault classes (one per task, chosen by a seeded draw):
//   * worker crash  -- the worker dies mid-task; the attempt is lost
//                      after a deterministic fraction of its duration,
//                      the task is requeued (a retry round), and the
//                      primary pool shrinks by one worker.
//   * transient     -- the attempt errors; the task succeeds once it
//                      has burned `transient_attempts` attempts.
//   * injected OOM  -- the attempt fails on the primary pool but
//                      succeeds on the alternate (high-memory) pool,
//                      exactly like the paper's real OOM tasks.
//   * straggler     -- the attempt completes but runs `straggler_factor`
//                      slower (modeled duration).
//   * metadata stall-- the attempt completes after an additive delay
//                      priced by the sim/filesystem contention model
//                      (a metadata scan under `fs_stall_jobs` load).
#pragma once

#include <cstdint>

#include "sim/filesystem.hpp"

namespace sf {

struct TaskAttempt;  // dataflow/executor.hpp

enum class FaultKind : int {
  kNone = 0,
  kWorkerCrash,
  kTransient,
  kOom,
  kStraggler,
  kFsStall,
};

// Seeded fault schedule. Rates are per-task probabilities; each task is
// assigned at most one fault class (first match on a cumulative draw, in
// declaration order: crash, transient, oom, straggler, stall).
struct FaultPlan {
  std::uint64_t seed = 0;

  double crash_rate = 0.0;      // worker dies mid-task on the first attempt
  double transient_rate = 0.0;  // attempt errors, later attempt succeeds
  int transient_attempts = 1;   // leading attempts that fail
  double oom_rate = 0.0;        // fails off the high-memory pool
  double straggler_rate = 0.0;  // slow worker / contended GPU
  double straggler_factor = 4.0;
  double fs_stall_rate = 0.0;   // Lustre metadata stall
  double fs_stall_base_s = 30.0;  // one metadata scan, unloaded
  int fs_stall_jobs = 8;          // jobs hammering the same MDS replica

  // Metadata-stall dilation comes from the shared-filesystem model
  // (§3.2.1): a scan under `fs_stall_jobs` concurrent jobs.
  FilesystemModel filesystem;

  bool enabled() const {
    return crash_rate > 0.0 || transient_rate > 0.0 || oom_rate > 0.0 ||
           straggler_rate > 0.0 || fs_stall_rate > 0.0;
  }
  double fs_stall_seconds() const {
    return fs_stall_base_s * filesystem.io_slowdown(fs_stall_jobs);
  }
};

// What the injector decided for one task attempt.
struct FaultDecision {
  FaultKind kind = FaultKind::kNone;
  bool fail = false;            // attempt outcome forced to failed
  double duration_scale = 1.0;  // straggler dilation / crash truncation
  double extra_delay_s = 0.0;   // metadata stall
};

// Pure decision function over a FaultPlan. `stream` decorrelates stages
// sharing one plan (task ids restart at 0 in every stage).
class FaultInjector {
 public:
  explicit FaultInjector(const FaultPlan& plan, std::uint64_t stream = 0);

  bool active() const { return plan_.enabled(); }
  const FaultPlan& plan() const { return plan_; }

  // The fault class assigned to `task_id` (independent of attempt).
  FaultKind assigned(std::uint64_t task_id) const;

  // The effect on one attempt. Deterministic: same (plan, stream,
  // task_id, attempt, pool) -> same decision on every backend.
  FaultDecision decide(std::uint64_t task_id, const TaskAttempt& attempt) const;

 private:
  // Uniform draw + crash/OOM truncation fraction for a task.
  void task_draws(std::uint64_t task_id, double& u, double& fraction) const;

  FaultPlan plan_;
  std::uint64_t stream_ = 0;
};

// Per-failure-kind accounting for one executor map() (and, summed, for a
// stage / campaign). Separates injected fault classes from intrinsic
// failures the task function itself reported, so lost time reconciles
// exactly with the fault schedule.
struct FaultAccounting {
  int crash_attempts = 0;      // attempts lost to worker crashes
  int transient_attempts = 0;  // attempts lost to transient errors
  int oom_attempts = 0;        // attempts lost to injected OOM
  int intrinsic_failures = 0;  // attempts the task fn itself failed
  int straggler_attempts = 0;  // attempts dilated (not failed)
  int stalled_attempts = 0;    // attempts delayed by metadata stalls
  int workers_lost = 0;        // primary-pool workers dead by the end

  double lost_work_s = 0.0;       // modeled seconds burned by failed attempts
  double straggler_delay_s = 0.0; // extra modeled seconds from dilation
  double stall_delay_s = 0.0;     // extra modeled seconds from stalls
  double backoff_delay_s = 0.0;   // retry-round backoff waits

  int injected_failures() const { return crash_attempts + transient_attempts + oom_attempts; }
  int failed_attempts() const { return injected_failures() + intrinsic_failures; }

  void merge(const FaultAccounting& other);
};

}  // namespace sf
