#include "dataflow/executor.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "sim/cluster.hpp"

namespace sf {
namespace {

obs::SpanFault to_span_fault(FaultKind kind, bool intrinsic) {
  if (intrinsic) return obs::SpanFault::kIntrinsic;
  switch (kind) {
    case FaultKind::kNone: return obs::SpanFault::kNone;
    case FaultKind::kWorkerCrash: return obs::SpanFault::kCrash;
    case FaultKind::kTransient: return obs::SpanFault::kTransient;
    case FaultKind::kOom: return obs::SpanFault::kOom;
    case FaultKind::kStraggler: return obs::SpanFault::kStraggler;
    case FaultKind::kFsStall: return obs::SpanFault::kFsStall;
  }
  return obs::SpanFault::kNone;
}

}  // namespace

double MapResult::primary_pool_s() const {
  double t = primary.makespan_s;
  for (const auto& r : retries) {
    if (!r.alt_pool) t += r.backoff_s + r.run.makespan_s;
  }
  return t;
}

double MapResult::alt_pool_s() const {
  double t = 0.0;
  for (const auto& r : retries) {
    if (r.alt_pool) t += r.backoff_s + r.run.makespan_s;
  }
  return t;
}

double MapResult::wall_s() const { return std::max(primary_pool_s(), alt_pool_s()); }

MapResult Executor::map(const std::vector<TaskSpec>& tasks, const TaskFn& fn,
                        const RetryPolicy& policy, const FaultInjector* faults,
                        obs::TraceSink* sink) {
  MapResult out;
  const bool inject = faults != nullptr && faults->active();
  const bool tracing = sink != nullptr && sink->active();

  // The current round's attempts in batch order: every backend calls
  // the task function once per task in that order.
  std::vector<Attempt> attempts;

  // The fault-aware wrapper runs on every backend, which calls it
  // serially in batch order. Decisions are pure functions of (plan,
  // task, attempt) -- no shared state -- which is what makes the
  // schedule identical across backends and worker counts.
  const TaskFn effective = [&](const TaskSpec& t, const TaskAttempt& at) -> TaskOutcome {
    TaskOutcome o = fn(t, at);
    if (!o.ok) {
      ++out.faults.intrinsic_failures;
      out.faults.lost_work_s += o.sim_duration_s;
      attempts.push_back({o, FaultKind::kNone});
      return o;
    }
    if (!inject) {
      attempts.push_back({o, FaultKind::kNone});
      return o;
    }
    const FaultDecision d = faults->decide(t.id, at);
    switch (d.kind) {
      case FaultKind::kNone:
        break;
      case FaultKind::kWorkerCrash:
        ++out.faults.crash_attempts;
        o.ok = false;
        o.sim_duration_s *= d.duration_scale;  // worker died mid-task
        out.faults.lost_work_s += o.sim_duration_s;
        break;
      case FaultKind::kTransient:
        ++out.faults.transient_attempts;
        o.ok = false;  // errored at the end; the whole attempt is lost
        out.faults.lost_work_s += o.sim_duration_s;
        break;
      case FaultKind::kOom:
        ++out.faults.oom_attempts;
        o.ok = false;
        o.sim_duration_s *= d.duration_scale;  // died at the allocation
        out.faults.lost_work_s += o.sim_duration_s;
        break;
      case FaultKind::kStraggler:
        ++out.faults.straggler_attempts;
        out.faults.straggler_delay_s += o.sim_duration_s * (d.duration_scale - 1.0);
        o.sim_duration_s *= d.duration_scale;
        break;
      case FaultKind::kFsStall:
        ++out.faults.stalled_attempts;
        out.faults.stall_delay_s += d.extra_delay_s;
        o.sim_duration_s += d.extra_delay_s;
        break;
    }
    attempts.push_back({o, d.kind});
    return o;
  };

  // Close one round: hand its attempts to the backend, then stream them
  // into the sink. The batch vector in submission order is the
  // canonical event order on every backend (the DES dispatches
  // queue-head first). `crashed_pre` is the raw pre-round crash count;
  // the sink clamps it against its canonical width.
  const auto end_round = [&](const std::vector<TaskSpec>& batch, const BatchEnv& env,
                             int crashed_pre) {
    after_round(batch, env, attempts);
    if (tracing) {
      obs::RoundInfo round;
      round.attempt = env.attempt.attempt;
      round.alt_pool = env.pool == Pool::kAlt;
      round.backoff_s = env.delay_s;
      round.workers_lost = crashed_pre;
      sink->begin_round(round);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const Attempt& a = attempts[i];
        obs::AttemptEvent ev;
        ev.task_id = batch[i].id;
        ev.name = batch[i].name;
        ev.ok = a.outcome.ok;
        ev.fault = to_span_fault(a.fault, !a.outcome.ok && a.fault == FaultKind::kNone);
        // Same expression as the simulated backend's duration_of().
        ev.duration_s = a.outcome.sim_duration_s * env.cost_scale;
        sink->record_attempt(ev);
      }
    }
    attempts.clear();
  };

  std::vector<TaskSpec> failed;
  BatchEnv env;
  out.primary = run_batch(tasks, effective, env, failed);
  end_round(tasks, env, 0);

  double scale = 1.0;
  double backoff = policy.backoff_base_s;
  for (int attempt = 1; attempt < policy.max_attempts && !failed.empty(); ++attempt) {
    scale *= policy.retry_cost_scale;
    // Canonical re-queue order (task id), then the stage's own queue
    // policy -- the same thing a scheduler does when the failed set is
    // resubmitted as a fresh job.
    std::sort(failed.begin(), failed.end(),
              [](const TaskSpec& a, const TaskSpec& b) { return a.id < b.id; });
    apply_order(failed, policy.retry_order, policy.seed);

    const bool alt = policy.reroute_to_alt_pool && alt_workers() > 0;
    const std::vector<TaskSpec> batch = std::move(failed);
    failed.clear();

    RetryRound round;
    round.attempt = attempt;
    round.alt_pool = alt;
    round.tasks = static_cast<int>(batch.size());
    round.backoff_s = policy.backoff_base_s > 0.0 ? backoff : 0.0;
    backoff *= policy.backoff_growth;
    out.faults.backoff_delay_s += round.backoff_s;

    env.attempt = {attempt, alt};
    env.cost_scale = scale;
    env.pool = alt ? Pool::kAlt : Pool::kPrimary;
    // Crashed workers stay dead: later primary-pool rounds run on the
    // surviving width (at least one worker remains).
    const int crashed_pre = alt ? 0 : out.faults.crash_attempts;
    env.workers_lost = std::min(crashed_pre, std::max(0, workers() - 1));
    env.delay_s = round.backoff_s;

    round.run = run_batch(batch, effective, env, failed);
    end_round(batch, env, crashed_pre);
    if (alt) out.rerouted_tasks += round.tasks;
    out.retry_attempts += round.tasks;
    out.retries.push_back(std::move(round));
  }
  out.failed_tasks = static_cast<int>(failed.size());
  out.faults.workers_lost = std::min(out.faults.crash_attempts, std::max(0, workers() - 1));
  if (tracing) {
    obs::MapAccounting acct;
    acct.primary_pool_s = out.primary_pool_s();
    acct.alt_pool_s = out.alt_pool_s();
    acct.wall_s = out.wall_s();
    acct.workers = workers();
    acct.alt_workers = alt_workers();
    sink->end_map(acct);
  }
  return out;
}

// ------------------------------------------------------------------ //
// Simulated backend.
// ------------------------------------------------------------------ //

SimulatedExecutor::SimulatedExecutor(SimulatedDataflowParams primary, SimulatedDataflowParams alt)
    : primary_(std::move(primary)), alt_(std::move(alt)) {}

SimulatedDataflowParams SimulatedExecutor::round_params(const BatchEnv& env) const {
  SimulatedDataflowParams params = env.pool == Pool::kAlt ? alt_ : primary_;
  if (env.pool == Pool::kPrimary && env.workers_lost > 0) {
    params.workers = std::max(1, params.workers - env.workers_lost);
    if (!params.worker_speed.empty()) {
      params.worker_speed.resize(static_cast<std::size_t>(params.workers));
    }
  }
  // Backoff stalls the round's start the way scheduler registration does.
  params.startup_s += env.delay_s;
  return params;
}

SimulatedExecutor SimulatedExecutor::from_pools(const SimulatedDataflowParams& base,
                                                const WorkerPool& primary) {
  SimulatedDataflowParams p = base;
  p.workers = primary.workers();
  if (primary.worker_speed != 1.0) {
    p.worker_speed.assign(static_cast<std::size_t>(p.workers), primary.worker_speed);
  }
  return SimulatedExecutor(std::move(p));
}

SimulatedExecutor SimulatedExecutor::from_pools(const SimulatedDataflowParams& base,
                                                const WorkerPool& primary, const WorkerPool& alt) {
  SimulatedDataflowParams a = base;
  a.workers = alt.workers();
  if (alt.worker_speed != 1.0) {
    a.worker_speed.assign(static_cast<std::size_t>(a.workers), alt.worker_speed);
  }
  SimulatedExecutor exec = from_pools(base, primary);
  exec.alt_ = std::move(a);
  return exec;
}

DataflowRunResult SimulatedExecutor::run_batch(const std::vector<TaskSpec>& batch, const TaskFn& fn,
                                               const BatchEnv& env, std::vector<TaskSpec>& failed) {
  // The DES dispatches queue-head first, so fn is invoked exactly once
  // per task in batch submission order; failures collect in that order.
  const auto duration = [&](const TaskSpec& t) {
    const TaskOutcome o = fn(t, env.attempt);
    if (!o.ok) failed.push_back(t);
    return o.sim_duration_s * env.cost_scale;
  };
  return run_simulated_dataflow(batch, duration, round_params(env));
}

}  // namespace sf
