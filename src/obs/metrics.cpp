#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "util/string_util.hpp"

namespace sf::obs {

StageMetrics compute_stage_metrics(const StageTrace& stage, double straggler_k) {
  StageMetrics m;
  m.stage = stage.info.stage;
  m.stragglers.k = straggler_k;
  m.store = stage.store;
  if (stage.store && stage.store->gets != 0) {
    m.cache_hit_rate =
        static_cast<double>(stage.store->hits) / static_cast<double>(stage.store->gets);
  }

  std::set<std::uint64_t> task_ids;
  std::map<SpanFault, FaultClassStat> faults;
  double window_lo = 0.0;
  double window_hi = 0.0;
  bool primary_seen = false;
  for (const TraceSpan& s : stage.spans) {
    task_ids.insert(s.task_id);
    ++m.attempts;
    if (!s.ok) ++m.failed_attempts;
    if (s.attempt > 0) ++m.retry_attempts;
    if (s.alt_pool) ++m.alt_attempts;
    const double dur = s.duration_s();
    m.busy_s += dur;
    (s.alt_pool ? m.alt_busy_s : m.primary_busy_s) += dur;
    m.makespan_s = std::max(m.makespan_s, s.end_s);
    m.durations.add(dur);
    if (!s.alt_pool) {
      if (!primary_seen) {
        window_lo = s.begin_s;
        window_hi = s.end_s;
        primary_seen = true;
      } else {
        window_lo = std::min(window_lo, s.begin_s);
        window_hi = std::max(window_hi, s.end_s);
      }
    }
    if (s.fault != SpanFault::kNone) {
      FaultClassStat& fc = faults[s.fault];
      fc.fault = s.fault;
      ++fc.attempts;
    }
  }
  m.tasks = static_cast<int>(task_ids.size());

  const double window = window_hi - window_lo;
  if (primary_seen && window > 0.0 && stage.info.primary.workers > 0) {
    m.utilization = m.primary_busy_s / (window * static_cast<double>(stage.info.primary.workers));
  }

  // Finish spread: last span end per primary worker, busiest pool only.
  std::map<int, double> finish;
  for (const TraceSpan& s : stage.spans) {
    if (s.alt_pool) continue;
    double& f = finish[s.worker];
    f = std::max(f, s.end_s);
  }
  if (!finish.empty()) {
    double lo = finish.begin()->second;
    double hi = lo;
    for (const auto& [w, f] : finish) {
      lo = std::min(lo, f);
      hi = std::max(hi, f);
    }
    m.finish_spread_s = hi - lo;
  }

  // Stragglers and fault time, both keyed off the stage median.
  const double median = m.durations.empty() ? 0.0 : m.durations.median();
  m.stragglers.median_s = median;
  for (const TraceSpan& s : stage.spans) {
    const double dur = s.duration_s();
    if (median > 0.0 && dur > straggler_k * median) {
      ++m.stragglers.count;
      m.stragglers.excess_s += dur - median;
      m.stragglers.worst.push_back(s);
    }
    if (s.fault == SpanFault::kNone) continue;
    FaultClassStat& fc = faults[s.fault];
    if (!s.ok) {
      fc.lost_s += dur;  // the whole attempt was burned
    } else {
      fc.lost_s += std::max(0.0, dur - median);  // dilation over the median
    }
  }
  std::sort(m.stragglers.worst.begin(), m.stragglers.worst.end(),
            [](const TraceSpan& a, const TraceSpan& b) {
              const double da = a.duration_s();
              const double db = b.duration_s();
              if (da != db) return da > db;
              if (a.task_id != b.task_id) return a.task_id < b.task_id;
              return a.attempt < b.attempt;
            });
  if (m.stragglers.worst.size() > 5) m.stragglers.worst.resize(5);
  for (const auto& [fault, fc] : faults) m.faults.push_back(fc);
  return m;
}

Histogram duration_histogram(const StageMetrics& metrics, std::size_t bins) {
  const double hi = metrics.durations.empty() ? 1.0 : metrics.durations.max();
  Histogram h(0.0, hi > 0.0 ? hi : 1.0, bins == 0 ? 1 : bins);
  for (double d : metrics.durations.samples()) h.add(d);
  return h;
}

std::string render_trace_timeline(const StageTrace& stage, std::size_t rows, std::size_t width) {
  if (width < 8) width = 8;
  // Sample `rows` evenly spaced primary workers that ran at least one span.
  std::set<int> active;
  double makespan = 0.0;
  for (const TraceSpan& s : stage.spans) {
    makespan = std::max(makespan, s.end_s);
    if (!s.alt_pool) active.insert(s.worker);
  }
  std::vector<int> workers(active.begin(), active.end());
  std::vector<int> sampled;
  if (rows == 0) rows = 1;
  if (workers.size() <= rows) {
    sampled = workers;
  } else {
    for (std::size_t r = 0; r < rows; ++r) {
      sampled.push_back(workers[r * workers.size() / rows]);
    }
  }
  if (makespan <= 0.0 || sampled.empty()) return "(no primary-pool spans)\n";

  std::map<int, std::string> row_by_worker;
  for (int w : sampled) row_by_worker[w] = std::string(width, '.');
  for (const TraceSpan& s : stage.spans) {
    if (s.alt_pool) continue;
    const auto it = row_by_worker.find(s.worker);
    if (it == row_by_worker.end()) continue;
    // Clamped to [0, 1] before the cast: a span may begin before 0.
    auto col = [&](double t) {
      const double f = t > 0.0 ? std::min(t / makespan, 1.0) : 0.0;
      return std::min(static_cast<std::size_t>(f * static_cast<double>(width)), width - 1);
    };
    const std::size_t lo = col(s.begin_s);
    const std::size_t hi = col(s.end_s);
    for (std::size_t c = lo; c <= hi; ++c) it->second[c] = '#';
    it->second[lo] = '|';
  }
  std::ostringstream os;
  for (int w : sampled) os << format("w%05d ", w) << row_by_worker[w] << '\n';
  return os.str();
}

ServiceMetrics compute_service_metrics(const ServiceTrace& service) {
  ServiceMetrics m;
  m.policy = service.policy;
  m.waves = service.waves;
  m.makespan_s = service.makespan_s;
  m.requests = static_cast<int>(service.requests.size());

  SampleSet all_latency;
  std::vector<SampleSet> per_tenant;
  std::vector<std::size_t> tenant_index;  // parallel to m.tenants
  for (const ServiceRequest& r : service.requests) {
    std::size_t ti = m.tenants.size();
    for (std::size_t t = 0; t < m.tenants.size(); ++t) {
      if (m.tenants[t].tenant == r.tenant) {
        ti = t;
        break;
      }
    }
    if (ti == m.tenants.size()) {
      TenantLatency tl;
      tl.tenant = r.tenant;
      m.tenants.push_back(std::move(tl));
      per_tenant.emplace_back();
    }
    TenantLatency& tl = m.tenants[ti];
    ++tl.requests;
    if (r.cache_hit) {
      ++tl.cache_hits;
      ++m.cache_hits;
    }
    all_latency.add(r.latency_s());
    per_tenant[ti].add(r.latency_s());
  }
  if (!all_latency.empty()) {
    m.p50_s = all_latency.quantile(0.5);
    m.p95_s = all_latency.quantile(0.95);
  }
  for (std::size_t t = 0; t < m.tenants.size(); ++t) {
    const SampleSet& s = per_tenant[t];
    if (s.empty()) continue;
    m.tenants[t].mean_s = s.mean();
    m.tenants[t].p50_s = s.quantile(0.5);
    m.tenants[t].p95_s = s.quantile(0.95);
    m.tenants[t].max_s = s.max();
  }
  for (const ServiceQueueSample& q : service.queue_depth) {
    m.peak_queue_depth = std::max(m.peak_queue_depth, q.depth);
  }
  return m;
}

}  // namespace sf::obs
