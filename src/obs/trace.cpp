#include "obs/trace.hpp"

#include <algorithm>
#include <cassert>

#include "util/string_util.hpp"

namespace sf::obs {

const char* span_fault_name(SpanFault fault) { return enum_name(kSpanFaultNames, fault); }

void DistWindowTrace::merge(const DistWindowTrace& o) {
  rounds += o.rounds;
  tasks += o.tasks;
  alt_tasks += o.alt_tasks;
  messages += o.messages;
  message_bytes += o.message_bytes;
  network_s += o.network_s;
  local_hits += o.local_hits;
  migrations += o.migrations;
  bytes_migrated += o.bytes_migrated;
  recomputes += o.recomputes;
  recompute_s += o.recompute_s;
  invalidations += o.invalidations;
  evictions += o.evictions;
  bytes_evicted += o.bytes_evicted;
  node_crashes += o.node_crashes;
  tasks_rerouted += o.tasks_rerouted;
  makespan_s += o.makespan_s;
}

StageTrace& TraceRecorder::current_stage() {
  if (doc_.stages.empty()) {
    // Emission without registration: open a visible fallback stage so
    // the trace is still well-formed (callers should begin_stage()
    // with real canonical widths first).
    StageTraceInfo info;
    info.stage = "unregistered";
    info.primary = {1, 1.0};
    begin_stage(info);
  }
  return doc_.stages.back();
}

void TraceRecorder::begin_stage(const StageTraceInfo& info) {
  close_round();
  StageTrace st;
  st.info = info;
  if (st.info.primary.workers <= 0) st.info.primary.workers = 1;
  if (st.info.alt.workers < 0) st.info.alt.workers = 0;
  doc_.stages.push_back(std::move(st));
  primary_clock_s_ = 0.0;
  alt_clock_s_ = 0.0;
}

void TraceRecorder::begin_round(const RoundInfo& round) {
  close_round();
  StageTrace& st = current_stage();
  round_ = round;
  round_.tasks = 0;
  round_open_ = true;
  round_alt_ = round.alt_pool && st.info.alt.workers > 0;

  int width = round_alt_ ? st.info.alt.workers : st.info.primary.workers;
  if (!round_alt_) width = std::max(1, width - round_.workers_lost);
  // Mirrors the simulated backend: backoff is added to the round's
  // startup (params.startup_s += env.delay_s), so every relative time
  // in this round starts from startup + backoff.
  const double start = st.info.startup_s + round_.backoff_s;
  free_s_.assign(static_cast<std::size_t>(width), start);
  round_last_end_s_ = start;
  // Rounds serialize on their pool: the round's absolute offset is the
  // pool's busy span so far plus the backoff wait, matching the
  // MapResult pool accounting (backoff billed once before the round;
  // the round's own makespan includes it again via the delayed startup,
  // exactly as the executor bills it).
  round_base_s_ = round_alt_ ? alt_clock_s_ : primary_clock_s_;
}

void TraceRecorder::record_attempt(const AttemptEvent& event) {
  if (!round_open_) begin_round({});
  StageTrace& st = current_stage();
  const PoolTraceInfo& pool = round_alt_ ? st.info.alt : st.info.primary;

  // Greedy dispatch: the next task goes to the worker that frees up
  // first. Ties take the lowest worker id; under homogeneous speeds the
  // begin/end time multiset (and hence the makespan) is tie-invariant,
  // which is what makes this replay equal to the DES schedule.
  std::size_t w = 0;
  for (std::size_t i = 1; i < free_s_.size(); ++i) {
    if (free_s_[i] < free_s_[w]) w = i;
  }
  const double speed = pool.worker_speed > 0.0 ? pool.worker_speed : 1.0;
  const double begin = free_s_[w] + st.info.dispatch_overhead_s;
  const double end = begin + event.duration_s / speed;
  free_s_[w] = end;
  if (end > round_last_end_s_) round_last_end_s_ = end;
  ++round_.tasks;

  TraceSpan span;
  span.task_id = event.task_id;
  span.name = event.name;
  span.attempt = round_.attempt;
  span.alt_pool = round_alt_;
  span.worker = static_cast<int>(w);
  span.ok = event.ok;
  span.fault = event.fault;
  span.begin_s = round_base_s_ + begin;
  span.end_s = round_base_s_ + end;
  st.spans.push_back(std::move(span));
}

void TraceRecorder::close_round() {
  if (!round_open_) return;
  StageTrace& st = current_stage();
  // Same expression shape as MapResult::primary_pool_s's
  // `t += r.backoff_s + r.run.makespan_s`, so the replayed pool clocks
  // stay bit-identical to the accounting.
  if (round_alt_) {
    alt_clock_s_ += round_.backoff_s + round_last_end_s_;
  } else {
    primary_clock_s_ += round_.backoff_s + round_last_end_s_;
  }
  st.rounds.push_back(round_);
  round_open_ = false;
}

void TraceRecorder::record_store(const StoreStageStats& stats) { current_stage().store = stats; }

void TraceRecorder::record_service(const ServiceTrace& service) { doc_.service = service; }

void TraceRecorder::record_cluster(const ClusterTrace& cluster) { doc_.cluster = cluster; }

void TraceRecorder::end_map(const MapAccounting& accounting) {
  close_round();
  StageTrace& st = current_stage();
  st.primary_pool_s = primary_clock_s_;
  st.alt_pool_s = alt_clock_s_;
  // Reconcile only when the executing backend ran exactly the canonical
  // widths (the pipeline's stage executors): then MapResult's accounting
  // and the replayed schedule must agree bit for bit, and any difference
  // means the two code paths drifted.
  if (accounting.workers == st.info.primary.workers &&
      accounting.alt_workers == st.info.alt.workers) {
    const bool ok = accounting.primary_pool_s == st.primary_pool_s &&
                    accounting.alt_pool_s == st.alt_pool_s &&
                    accounting.wall_s == std::max(st.primary_pool_s, st.alt_pool_s);
    if (!ok) ++reconcile_failures_;
    assert(ok && "obs: MapResult pool accounting drifted from the recorded schedule");
  }
  primary_clock_s_ = 0.0;
  alt_clock_s_ = 0.0;
}

}  // namespace sf::obs
