// Streaming campaign service: an incremental, policy-driven scheduler
// over a record stream (the tentpole re-expression of the batch
// pipeline).
//
// The batch Pipeline treats a campaign as one closed record list pushed
// through three stage maps. Real deployments (and every follow-up
// scheduling experiment) look different: requests *arrive* over time,
// from multiple tenants, often repeating hot targets. CampaignService
// models that as a wave loop over an admission queue:
//
//   arrivals -> admission queue -> [ordering policy] -> wave ->
//     features -> inference -> relaxation -> completions
//
// Each wave drives the three stage drivers through their incremental
// run_subset() entry points (core/stage_features.hpp et al.), so
// records genuinely move through the stages wave by wave while
// campaign-global state (the quality-measured shuffle, the recycle
// model, the relax calibration fit) carries across waves. Stage time is
// modeled with per-stage virtual clocks: a wave's inference starts when
// its own features are done AND the inference resource is free, so
// consecutive waves pipeline exactly as the paper's ensembles do.
//
// Ordering policies decide wave MEMBERSHIP only; execution order inside
// a wave is the executor's task-order knob (kLengthSorted ->
// kDescendingCost etc.), and the subset handed to the drivers is always
// ascending record index, preserving the store's serial index-ordered
// call contract. FairShare runs deficit round-robin over tenants:
// each wave every backlogged tenant earns quantum x weight residues of
// credit and admits its queued requests in arrival order while the
// credit lasts -- a heavy tenant cannot starve a light one (bounded
// deficit; see tests/test_campaign_service.cpp).
//
// Batch re-expression contract: a *degenerate* stream (every record
// arrives at t=0, in record order, single tenant -- sim/arrivals.hpp's
// degenerate_arrivals()) under the kLengthSorted policy IS the batch
// campaign: one wave, the config's own task order, the plain campaign
// fingerprint, no wave tags in the trace. Pipeline::run() is now
// implemented exactly this way, and stdout, CampaignReport, journal
// bytes, and trace bytes are byte-identical to the monolithic
// pre-streaming pipeline (locked by test_campaign_service.cpp).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "sim/arrivals.hpp"

namespace sf {

// Builds the executor one wave's stage map runs on. The default factory
// is make_stage_executor() (the per-stage SimulatedExecutor); installing
// a custom factory swaps the dataflow backend -- e.g. the distributed
// executor (dist/executor.hpp) -- without touching the stage drivers.
// Reports price the returned executor's own modeled schedule, so a
// factory that builds on make_stage_executor()'s pools (as
// make_stage_executor_dist() does) keeps campaign stdout, reports,
// journal bytes, and canonical trace sections unchanged.
using StageExecutorFactory =
    std::function<std::unique_ptr<Executor>(const PipelineConfig&, StageKind)>;

// Wave-membership policy of the admission queue.
enum class OrderingPolicy {
  kFifo,          // arrival order
  kLengthSorted,  // longest pending first (the paper's §3.3 ordering)
  kShortestFirst, // shortest pending first (latency-biased)
  kFairShare,     // per-tenant deficit round-robin
};

const char* ordering_policy_name(OrderingPolicy policy);
bool ordering_policy_from_name(const std::string& name, OrderingPolicy& out);

struct ServiceConfig {
  OrderingPolicy policy = OrderingPolicy::kLengthSorted;
  // Max records admitted per wave (0 = drain the whole queue).
  std::size_t admit_limit = 0;
  // FairShare: residues of credit earned per unit tenant weight per
  // wave.
  double fair_quantum = 600.0;
  // FairShare tenant weights, indexed by tenant id; missing entries
  // default to 1.0. Names (same indexing) label trace/metrics output.
  std::vector<double> tenant_weights;
  std::vector<std::string> tenant_names;
};

// Outcome of one submitted request, in request-id order.
struct RequestOutcome {
  int request_id = 0;
  std::size_t tenant = 0;
  std::size_t record = 0;
  double arrival_s = 0.0;
  double admission_s = 0.0;   // left the queue (wave dispatch or memo hit)
  double completion_s = 0.0;  // wave relax finished, or memo served
  bool cache_hit = false;     // served without new stage work (repeat)
  int wave = -1;              // wave that computed the record (-1: memo)

  double latency_s() const { return completion_s - arrival_s; }
};

struct QueueDepthSample {
  double time_s = 0.0;
  int depth = 0;
};

struct ServiceReport {
  CampaignReport campaign;
  std::vector<RequestOutcome> requests;
  std::vector<QueueDepthSample> queue_depth;
  int waves = 0;
  double makespan_s = 0.0;           // last completion time
  std::size_t service_cache_hits = 0;  // repeat requests served from memo
  // FairShare accounting: per-tenant peak unspent deficit, the bounded-
  // starvation witness (<= quantum x weight + longest record).
  std::vector<double> max_deficit;
};

class CampaignService {
 public:
  CampaignService(const FoldUniverse& universe, PipelineConfig config, ServiceConfig service);

  const PipelineConfig& config() const { return config_; }

  // Swap the dataflow backend every wave's stage maps run on (empty =
  // the default per-stage SimulatedExecutor). Set before run().
  void set_executor_factory(StageExecutorFactory factory) { factory_ = std::move(factory); }

  // Run the campaign over `arrivals` (each referencing a record index
  // into `records`). Journal, trace sink, and artifact store compose
  // exactly as in Pipeline::run(); repeated requests for an
  // already-computed record are served from the in-campaign memo (and,
  // across campaigns, stage artifacts come from the store as usual).
  ServiceReport run(const std::vector<ProteinRecord>& records,
                    const std::vector<ArrivalEvent>& arrivals,
                    CampaignJournal* journal = nullptr, obs::TraceSink* sink = nullptr,
                    store::ArtifactStore* store = nullptr) const;

 private:
  const FoldUniverse* universe_;
  PipelineConfig config_;
  ServiceConfig service_;
  StageExecutorFactory factory_;
};

// True when `arrivals` is the degenerate batch stream over `num_records`
// records: one request per record, in record order, all at t=0, single
// tenant.
bool degenerate_stream(const std::vector<ArrivalEvent>& arrivals, std::size_t num_records);

// Journal identity of a streaming campaign: the batch fingerprint mixed
// with the arrival stream and the service knobs that change scheduling.
// The degenerate stream under kLengthSorted keeps the plain batch
// fingerprint, so batch journals and re-expressed-batch journals
// interoperate.
std::uint64_t service_fingerprint(const PipelineConfig& cfg,
                                  const std::vector<ProteinRecord>& records,
                                  const std::vector<ArrivalEvent>& arrivals,
                                  const ServiceConfig& service);

}  // namespace sf
