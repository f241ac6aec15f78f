#include "dataflow/fault.hpp"

#include "dataflow/executor.hpp"
#include "util/rng.hpp"

namespace sf {

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t stream)
    : plan_(plan), stream_(stream) {}

void FaultInjector::task_draws(std::uint64_t task_id, double& u, double& fraction) const {
  // One private stream per (plan seed, stage stream, task id); the draw
  // never depends on schedule state, so every backend sees the same
  // faults in the same places.
  Rng rng(mix64(plan_.seed, mix64(stream_, 0xFA17D5EEDULL)), mix64(task_id, 0x7A5Cu));
  u = rng.uniform();
  fraction = rng.uniform(0.1, 0.9);  // crash/OOM point within the attempt
}

FaultKind FaultInjector::assigned(std::uint64_t task_id) const {
  if (!plan_.enabled()) return FaultKind::kNone;
  double u = 0.0;
  double fraction = 0.0;
  task_draws(task_id, u, fraction);
  double edge = plan_.crash_rate;
  if (u < edge) return FaultKind::kWorkerCrash;
  edge += plan_.transient_rate;
  if (u < edge) return FaultKind::kTransient;
  edge += plan_.oom_rate;
  if (u < edge) return FaultKind::kOom;
  edge += plan_.straggler_rate;
  if (u < edge) return FaultKind::kStraggler;
  edge += plan_.fs_stall_rate;
  if (u < edge) return FaultKind::kFsStall;
  return FaultKind::kNone;
}

FaultDecision FaultInjector::decide(std::uint64_t task_id, const TaskAttempt& attempt) const {
  FaultDecision d;
  if (!plan_.enabled()) return d;
  double u = 0.0;
  double fraction = 0.0;
  task_draws(task_id, u, fraction);

  switch (assigned(task_id)) {
    case FaultKind::kNone:
      break;
    case FaultKind::kWorkerCrash:
      // The worker dies partway through the first attempt; the retry (on
      // a surviving worker, or the alternate pool if the policy reroutes)
      // succeeds.
      if (attempt.attempt == 0 && !attempt.alt_pool) {
        d.kind = FaultKind::kWorkerCrash;
        d.fail = true;
        d.duration_scale = fraction;  // occupied the worker until it died
      }
      break;
    case FaultKind::kTransient:
      if (attempt.attempt < plan_.transient_attempts) {
        d.kind = FaultKind::kTransient;
        d.fail = true;
      }
      break;
    case FaultKind::kOom:
      // Dies on any standard-memory pool attempt; the high-memory pool
      // fits it -- the paper's real OOM behaviour (§3.3). Without a
      // reroute policy the task exhausts its attempts and is reported
      // failed, never silently lost.
      if (!attempt.alt_pool) {
        d.kind = FaultKind::kOom;
        d.fail = true;
        d.duration_scale = fraction;  // died at the allocation, not the end
      }
      break;
    case FaultKind::kStraggler:
      d.kind = FaultKind::kStraggler;
      d.duration_scale = plan_.straggler_factor;
      break;
    case FaultKind::kFsStall:
      d.kind = FaultKind::kFsStall;
      d.extra_delay_s = plan_.fs_stall_seconds();
      break;
  }
  return d;
}

void FaultAccounting::merge(const FaultAccounting& other) {
  crash_attempts += other.crash_attempts;
  transient_attempts += other.transient_attempts;
  oom_attempts += other.oom_attempts;
  intrinsic_failures += other.intrinsic_failures;
  straggler_attempts += other.straggler_attempts;
  stalled_attempts += other.stalled_attempts;
  workers_lost += other.workers_lost;
  lost_work_s += other.lost_work_s;
  straggler_delay_s += other.straggler_delay_s;
  stall_delay_s += other.stall_delay_s;
  backoff_delay_s += other.backoff_delay_s;
}

}  // namespace sf
