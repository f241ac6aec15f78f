// Streaming campaign service: the refactor's load-bearing invariants.
//
//  * Batch re-expression: the degenerate stream (every record at t=0,
//    LengthSorted) IS the batch pipeline -- identical CampaignReport,
//    identical journal bytes, identical trace bytes (no sfService
//    section, no wave tags), for any configured task order. Combined
//    with test_campaign_regression's golden values (captured from the
//    pre-streaming implementation), this locks the refactor to PR 5's
//    exact behavior.
//  * Fingerprint hygiene: streaming campaigns get their own journal
//    identity, sensitive to policy, arrivals, and fair-share knobs; the
//    degenerate stream keeps the plain batch fingerprint.
//  * Fair share: deficit round-robin admits every tenant's work with a
//    bounded unspent deficit (quantum x weight + longest record) even
//    when one tenant floods the queue -- the no-unbounded-starvation
//    property.
//  * Kill-at-any-byte: a mid-stream campaign whose journal is truncated
//    at line boundaries and torn mid-line resumes to the identical
//    ServiceReport (requests, waves, campaign) at every cut, faults and
//    memo hits included.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/campaign_service.hpp"
#include "core/journal.hpp"
#include "core/pipeline.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "sim/arrivals.hpp"
#include "scratch_dir.hpp"

namespace sf {
namespace {

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

void expect_stage_eq(const StageReport& a, const StageReport& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.wall_s, b.wall_s);
  EXPECT_EQ(a.node_hours, b.node_hours);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.failed_tasks, b.failed_tasks);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_EQ(a.rerouted_tasks, b.rerouted_tasks);
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
  EXPECT_EQ(a.finish_spread_s, b.finish_spread_s);
  EXPECT_EQ(a.faults.crash_attempts, b.faults.crash_attempts);
  EXPECT_EQ(a.faults.transient_attempts, b.faults.transient_attempts);
  EXPECT_EQ(a.faults.oom_attempts, b.faults.oom_attempts);
  EXPECT_EQ(a.faults.straggler_attempts, b.faults.straggler_attempts);
  EXPECT_EQ(a.faults.stalled_attempts, b.faults.stalled_attempts);
  EXPECT_EQ(a.faults.lost_work_s, b.faults.lost_work_s);
  EXPECT_EQ(a.faults.backoff_delay_s, b.faults.backoff_delay_s);
}

void expect_campaign_eq(const CampaignReport& a, const CampaignReport& b) {
  expect_stage_eq(a.features, b.features);
  expect_stage_eq(a.inference, b.inference);
  expect_stage_eq(a.relaxation, b.relaxation);
  ASSERT_EQ(a.targets.size(), b.targets.size());
  for (std::size_t i = 0; i < a.targets.size(); ++i) {
    SCOPED_TRACE("target " + std::to_string(i));
    EXPECT_EQ(a.targets[i].id, b.targets[i].id);
    EXPECT_EQ(a.targets[i].measured, b.targets[i].measured);
    EXPECT_EQ(a.targets[i].top_model, b.targets[i].top_model);
    EXPECT_EQ(a.targets[i].plddt, b.targets[i].plddt);
    EXPECT_EQ(a.targets[i].ptms, b.targets[i].ptms);
    EXPECT_EQ(a.targets[i].recycles, b.targets[i].recycles);
    EXPECT_EQ(a.targets[i].oom, b.targets[i].oom);
    EXPECT_EQ(a.targets[i].relaxed, b.targets[i].relaxed);
    EXPECT_EQ(a.targets[i].clashes_after, b.targets[i].clashes_after);
  }
  EXPECT_EQ(a.plddt.count(), b.plddt.count());
  EXPECT_EQ(a.plddt.mean(), b.plddt.mean());
  EXPECT_EQ(a.ptms.mean(), b.ptms.mean());
  EXPECT_EQ(a.recycles.mean(), b.recycles.mean());
  ASSERT_EQ(a.inference_records.size(), b.inference_records.size());
  for (std::size_t i = 0; i < a.inference_records.size(); ++i) {
    EXPECT_EQ(a.inference_records[i].task_id, b.inference_records[i].task_id);
    EXPECT_EQ(a.inference_records[i].worker, b.inference_records[i].worker);
    EXPECT_EQ(a.inference_records[i].start_s, b.inference_records[i].start_s);
    EXPECT_EQ(a.inference_records[i].end_s, b.inference_records[i].end_s);
  }
}

void expect_requests_eq(const std::vector<RequestOutcome>& a, const std::vector<RequestOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(a[i].request_id, b[i].request_id);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].record, b[i].record);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].admission_s, b[i].admission_s);
    EXPECT_EQ(a[i].completion_s, b[i].completion_s);
    EXPECT_EQ(a[i].cache_hit, b[i].cache_hit);
    EXPECT_EQ(a[i].wave, b[i].wave);
  }
}

PipelineConfig small_config() {
  PipelineConfig cfg;
  cfg.summit_nodes = 2;
  cfg.andes_nodes = 4;
  cfg.relax_nodes = 1;
  cfg.db_replicas = 2;
  cfg.jobs_per_replica = 2;
  cfg.quality_sample = 10;
  cfg.relax_sample = 5;
  return cfg;
}

// ------------------------------------------------------------------ //
// Batch re-expression.
// ------------------------------------------------------------------ //

TEST(CampaignServiceEquivalence, DegenerateStreamIsTheBatchPipelineByteForByte) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(40);
  const PipelineConfig cfg = small_config();

  const std::string batch_path = test_scratch_dir() + "svc_equiv_batch.sfj";
  const std::string svc_path = test_scratch_dir() + "svc_equiv_stream.sfj";
  write_file(batch_path, "");
  write_file(svc_path, "");

  obs::TraceRecorder batch_rec;
  CampaignJournal batch_journal(batch_path);
  const CampaignReport batch =
      Pipeline(universe, cfg).run(records, &batch_journal, &batch_rec);

  obs::TraceRecorder svc_rec;
  CampaignJournal svc_journal(svc_path);
  const CampaignService service(universe, cfg, ServiceConfig{});
  const ServiceReport rep =
      service.run(records, degenerate_arrivals(records.size()), &svc_journal, &svc_rec);

  expect_campaign_eq(batch, rep.campaign);
  EXPECT_EQ(rep.waves, 1);
  EXPECT_EQ(rep.service_cache_hits, 0u);

  // Journal bytes, not just semantics: batch journals and re-expressed
  // batch journals interoperate.
  const std::string batch_bytes = read_file(batch_path);
  EXPECT_FALSE(batch_bytes.empty());
  EXPECT_EQ(batch_bytes, read_file(svc_path));

  // Trace bytes: no sfService section, no @wave stage tags.
  EXPECT_FALSE(svc_rec.doc().service);
  const std::string batch_trace = obs::render_chrome_trace(batch_rec.doc());
  const std::string svc_trace = obs::render_chrome_trace(svc_rec.doc());
  EXPECT_EQ(batch_trace, svc_trace);
  EXPECT_EQ(svc_trace.find("@"), std::string::npos);
  EXPECT_EQ(svc_trace.find("sfService"), std::string::npos);
}

TEST(CampaignServiceEquivalence, InheritModeHoldsForAnyConfiguredTaskOrder) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(24);
  for (const TaskOrder order :
       {TaskOrder::kSubmission, TaskOrder::kAscendingCost, TaskOrder::kRandom}) {
    SCOPED_TRACE("order " + std::to_string(static_cast<int>(order)));
    PipelineConfig cfg = small_config();
    cfg.order = order;
    const CampaignReport batch = Pipeline(universe, cfg).run(records);
    const CampaignService service(universe, cfg, ServiceConfig{});
    const ServiceReport rep = service.run(records, degenerate_arrivals(records.size()));
    expect_campaign_eq(batch, rep.campaign);
  }
}

TEST(CampaignServiceFingerprint, DegenerateKeepsBatchIdentityOthersDiverge) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(12);
  const PipelineConfig cfg = small_config();
  const auto degenerate = degenerate_arrivals(records.size());

  const ServiceConfig base;
  EXPECT_EQ(service_fingerprint(cfg, records, degenerate, base),
            campaign_fingerprint(cfg, records));

  ServiceConfig fifo = base;
  fifo.policy = OrderingPolicy::kFifo;
  const std::uint64_t fp_fifo = service_fingerprint(cfg, records, degenerate, fifo);
  EXPECT_NE(fp_fifo, campaign_fingerprint(cfg, records));

  ArrivalProcessParams ap;
  ap.requests = 12;
  ap.mean_interarrival_s = 10.0;
  ap.seed = 3;
  const auto stream = generate_arrivals(ap, records.size());
  const std::uint64_t fp_stream = service_fingerprint(cfg, records, stream, base);
  EXPECT_NE(fp_stream, campaign_fingerprint(cfg, records));
  EXPECT_NE(fp_stream, fp_fifo);

  ServiceConfig tuned = base;
  tuned.policy = OrderingPolicy::kFairShare;
  tuned.fair_quantum = 333.0;
  EXPECT_NE(service_fingerprint(cfg, records, stream, tuned), fp_stream);
  tuned.tenant_weights = {2.0, 1.0};
  EXPECT_NE(service_fingerprint(cfg, records, stream, tuned),
            service_fingerprint(cfg, records, stream, [&] {
              ServiceConfig c = tuned;
              c.tenant_weights.clear();
              return c;
            }()));
}

// ------------------------------------------------------------------ //
// Fair share: bounded deficit under a flooding tenant.
// ------------------------------------------------------------------ //

TEST(CampaignServiceFairShare, DeficitStaysBoundedWhenOneTenantFloods) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(24);
  int max_len = 0;
  for (const auto& r : records) max_len = std::max(max_len, r.length());

  ArrivalProcessParams ap;
  ap.requests = 60;
  ap.mean_interarrival_s = 5.0;  // queue builds far faster than service
  ap.seed = 9;
  ap.tenants = {
      {"flooder", 8.0, 0.3, 4},  // 8x the traffic of each light tenant
      {"light1", 1.0, 0.0, 4},
      {"light2", 1.0, 0.0, 4},
  };
  const auto arrivals = generate_arrivals(ap, records.size());

  ServiceConfig svc;
  svc.policy = OrderingPolicy::kFairShare;
  svc.fair_quantum = 400.0;
  svc.tenant_weights = {1.0, 1.0, 1.0};  // equal shares despite 8/1/1 traffic
  const CampaignService service(universe, small_config(), svc);
  const ServiceReport rep = service.run(records, arrivals);

  // Every request completes; latency is non-negative and finite.
  ASSERT_EQ(rep.requests.size(), arrivals.size());
  for (const auto& o : rep.requests) {
    EXPECT_GE(o.admission_s, o.arrival_s);
    EXPECT_GE(o.completion_s, o.admission_s);
    EXPECT_LE(o.completion_s, rep.makespan_s);
  }

  // The bounded-starvation witness: no tenant's unspent deficit ever
  // exceeds one quantum of credit plus the longest possible record (the
  // classic DRR bound).
  ASSERT_GE(rep.max_deficit.size(), 3u);
  for (std::size_t t = 0; t < rep.max_deficit.size(); ++t) {
    SCOPED_TRACE("tenant " + std::to_string(t));
    EXPECT_LE(rep.max_deficit[t], svc.fair_quantum * 1.0 + static_cast<double>(max_len) + 1e-9);
  }

  // Light tenants are not starved behind the flood: each completes its
  // whole backlog no later than the flooder finishes.
  double flood_last = 0.0, light_last = 0.0;
  for (const auto& o : rep.requests) {
    (o.tenant == 0 ? flood_last : light_last) =
        std::max(o.tenant == 0 ? flood_last : light_last, o.completion_s);
  }
  EXPECT_LE(light_last, flood_last);
}

// ------------------------------------------------------------------ //
// Kill-at-any-byte: mid-stream journal resume.
// ------------------------------------------------------------------ //

TEST(CampaignServiceChaos, StreamingResumeReproducesAtEveryJournalCut) {
  FoldUniverse universe(40, 31);
  const auto records = ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(10);

  PipelineConfig cfg = small_config();
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

  ArrivalProcessParams ap;
  ap.requests = 18;
  ap.mean_interarrival_s = 120.0;
  ap.seed = 5;
  ap.tenants = {{"a", 2.0, 0.4, 3}, {"b", 1.0, 0.2, 3}};
  const auto arrivals = generate_arrivals(ap, records.size());

  ServiceConfig svc;
  svc.policy = OrderingPolicy::kFairShare;
  svc.admit_limit = 4;  // force several waves
  const CampaignService service(universe, cfg, svc);

  const ServiceReport baseline = service.run(records, arrivals);
  ASSERT_GT(baseline.waves, 1);
  ASSERT_GT(baseline.service_cache_hits, 0u);  // hot sets actually repeat

  const std::string full_path = test_scratch_dir() + "svc_chaos_full.sfj";
  write_file(full_path, "");
  {
    CampaignJournal journal(full_path);
    const ServiceReport journaled = service.run(records, arrivals, &journal);
    expect_campaign_eq(baseline.campaign, journaled.campaign);
    expect_requests_eq(baseline.requests, journaled.requests);
  }
  const std::string full = read_file(full_path);
  ASSERT_NE(full.find("sfjournal v1"), std::string::npos);

  // Clean line-boundary kills plus torn mid-line tails.
  std::vector<std::size_t> cuts;
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    if (full[pos] == '\n') cuts.push_back(pos + 1);
  }
  const std::size_t line_cuts = cuts.size();
  std::vector<std::size_t> selected;
  const std::size_t stride = std::max<std::size_t>(1, line_cuts / 16);
  for (std::size_t i = 0; i < line_cuts; i += stride) {
    selected.push_back(cuts[i]);
    if (i + 1 < line_cuts && cuts[i] + 3 < cuts[i + 1]) selected.push_back(cuts[i] + 3);
  }
  // The whole sealed journal too: every wave re-prices its relax tasks
  // from the journaled calibration samples.
  selected.push_back(full.size());

  int resumed_runs = 0;
  for (const std::size_t cut : selected) {
    const std::string path = test_scratch_dir() + "svc_chaos_cut_" + std::to_string(cut) + ".sfj";
    write_file(path, full.substr(0, cut));
    CampaignJournal journal(path);
    const ServiceReport resumed = service.run(records, arrivals, &journal);
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    expect_campaign_eq(baseline.campaign, resumed.campaign);
    expect_requests_eq(baseline.requests, resumed.requests);
    EXPECT_EQ(baseline.waves, resumed.waves);
    EXPECT_EQ(baseline.makespan_s, resumed.makespan_s);
    ++resumed_runs;
  }
  EXPECT_GE(resumed_runs, 16);

  // A journal from a different policy is a foreign campaign: rejected,
  // then overwritten cleanly by the campaign that owns the path.
  {
    ServiceConfig other = svc;
    other.policy = OrderingPolicy::kFifo;
    CampaignJournal journal(full_path);
    EXPECT_FALSE(journal.open(service_fingerprint(cfg, records, arrivals, other)));
  }
  {
    CampaignJournal journal(full_path);
    const ServiceReport resumed = service.run(records, arrivals, &journal);
    expect_campaign_eq(baseline.campaign, resumed.campaign);
  }
}

}  // namespace
}  // namespace sf
