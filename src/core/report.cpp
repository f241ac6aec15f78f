#include "core/report.hpp"

#include <ostream>

#include "util/string_util.hpp"

namespace sf {

void print_stage(std::ostream& out, const StageReport& stage) {
  out << format("  %-11s wall %-12s nodes %-5d node-hours %-9.1f tasks %-7d", stage.name.c_str(),
                human_duration(stage.wall_s).c_str(), stage.nodes, stage.node_hours, stage.tasks);
  if (stage.failed_tasks > 0) out << format(" failed %d", stage.failed_tasks);
  if (stage.mean_utilization > 0.0) {
    out << format(" util %.1f%% finish-spread %s", 100.0 * stage.mean_utilization,
                  human_duration(stage.finish_spread_s).c_str());
  }
  // Fault attribution prints only when a fault plan actually fired, so
  // fault-free campaigns keep their historical byte-exact output.
  if (stage.faults.injected_failures() > 0 || stage.faults.straggler_attempts > 0 ||
      stage.faults.stalled_attempts > 0) {
    out << format(" faults[crash %d transient %d oom %d straggle %d stall %d lost %s]",
                  stage.faults.crash_attempts, stage.faults.transient_attempts,
                  stage.faults.oom_attempts, stage.faults.straggler_attempts,
                  stage.faults.stalled_attempts,
                  human_duration(stage.faults.lost_work_s).c_str());
  }
  out << '\n';
}

void print_campaign(std::ostream& out, const CampaignReport& report,
                    const SpeciesProfile& species) {
  out << "campaign: " << species.name << " (" << report.targets.size() << " targets)\n";
  print_stage(out, report.features);
  print_stage(out, report.inference);
  print_stage(out, report.relaxation);

  int oom = 0;
  for (const auto& t : report.targets) {
    if (t.oom) ++oom;
  }
  out << format("  quality (measured subset, n=%zu):\n", report.plddt.count());
  out << format("    mean pLDDT %.1f | pLDDT>70: %.0f%% | pLDDT>90: %.0f%%\n",
                report.plddt.mean(), 100.0 * report.fraction_plddt_above(70.0),
                100.0 * report.fraction_plddt_above(90.0));
  out << format("    mean pTMS  %.3f | pTMS>0.6: %.0f%%\n", report.ptms.mean(),
                100.0 * report.fraction_ptms_above(0.6));
  out << format("    mean recycles %.1f (max %.0f)\n", report.recycles.mean(),
                report.recycles.max());
  if (oom > 0) out << format("    dropped (out-of-memory) targets: %d\n", oom);
  // The opt-in fourth stage; campaigns that never enabled clustering
  // keep their historical byte-exact output.
  if (report.cluster.enabled) {
    print_stage(out, report.cluster.align);
    const ClusterStageReport& c = report.cluster;
    out << format("  clustering (TM>=%.2f): %zu clusters (largest %zu, singletons %zu) over %d structures\n",
                  c.tm_threshold, c.clusters, c.largest_cluster, c.singletons, c.structures);
    out << format("    prefilter: %llu pairs -> %llu aligned (length pruned %llu, sketch pruned %llu), %llu edges\n",
                  static_cast<unsigned long long>(c.pairs_total),
                  static_cast<unsigned long long>(c.aligned_pairs),
                  static_cast<unsigned long long>(c.pruned_length),
                  static_cast<unsigned long long>(c.pruned_sketch),
                  static_cast<unsigned long long>(c.accepted_edges));
    out << format("    novel folds: %zu centroids below library TM %.2f\n", c.novel.size(),
                  c.tm_threshold);
    if (c.excluded_oom > 0) out << format("    excluded (out-of-memory) structures: %d\n", c.excluded_oom);
  }
  out << format("  totals: %.0f Summit node-hours, %.0f Andes node-hours\n",
                report.total_summit_node_hours(), report.total_andes_node_hours());
}

}  // namespace sf
