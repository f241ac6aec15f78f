// Derived metrics over recorded traces.
//
// Turns the raw span list into the quantities the paper argues with:
// per-worker utilization over the stage window (§4.3's load-balance
// claim), the worker finish spread (Fig. 2's "within minutes of one
// another"), per-stage duration histograms, straggler statistics (task
// attempts slower than k x the stage median -- the trigger signal for
// speculative re-execution), and per-fault-class time lost. All
// quantities are pure functions of the trace, so two byte-identical
// traces always produce byte-identical metrics.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace sf::obs {

// Attempts and time attributed to one fault class. Failed attempts
// bill their full span; dilating classes that still completed
// (straggler, fs_stall) bill their excess over the stage median.
struct FaultClassStat {
  SpanFault fault = SpanFault::kNone;
  int attempts = 0;
  double lost_s = 0.0;
};

// Task attempts slower than k x the stage's median span duration.
struct StragglerStats {
  double k = 4.0;
  double median_s = 0.0;
  int count = 0;
  double excess_s = 0.0;  // total time above the median across stragglers
  // Worst offenders, slowest first (at most 5).
  std::vector<TraceSpan> worst;
};

struct StageMetrics {
  std::string stage;
  int tasks = 0;     // distinct task ids
  int attempts = 0;  // spans
  int failed_attempts = 0;
  int retry_attempts = 0;  // attempts beyond the first round
  int alt_attempts = 0;    // attempts on the alternate pool
  double makespan_s = 0.0;  // latest span end on the stage clock
  double busy_s = 0.0;      // total span time, both pools
  double primary_busy_s = 0.0;
  double alt_busy_s = 0.0;
  // Primary-pool utilization: busy / (window x canonical width), window
  // spanning first span begin to last span end.
  double utilization = 0.0;
  // Spread between the first and last primary worker to finish, over
  // workers that ran at least one span.
  double finish_spread_s = 0.0;
  SampleSet durations;  // per-attempt span durations
  StragglerStats stragglers;
  std::vector<FaultClassStat> faults;  // only classes seen, enum order
  // Artifact-store cache effectiveness (present iff the trace carried
  // store traffic for this stage).
  std::optional<StoreStageStats> store;
  // hits / gets over the stage window; 0 when no gets were issued.
  double cache_hit_rate = 0.0;
};

StageMetrics compute_stage_metrics(const StageTrace& stage, double straggler_k = 4.0);

// Per-tenant request-latency summary over a streaming campaign's
// service section (arrival -> completion on the service's modeled
// clock).
struct TenantLatency {
  std::string tenant;
  int requests = 0;
  int cache_hits = 0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double max_s = 0.0;
};

struct ServiceMetrics {
  std::string policy;
  int waves = 0;
  double makespan_s = 0.0;
  int requests = 0;
  int cache_hits = 0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  int peak_queue_depth = 0;
  // One row per tenant, in order of first appearance in the request
  // stream (deterministic: the stream itself is).
  std::vector<TenantLatency> tenants;
};

ServiceMetrics compute_service_metrics(const ServiceTrace& service);

// Per-stage duration histogram over [0, max duration], ready to render.
Histogram duration_histogram(const StageMetrics& metrics, std::size_t bins = 12);

// Fig. 2-style text timeline: `rows` evenly sampled primary workers,
// '#' processing, '|' attempt boundary, '.' idle, one worker per line.
std::string render_trace_timeline(const StageTrace& stage, std::size_t rows = 10,
                                  std::size_t width = 96);

}  // namespace sf::obs
