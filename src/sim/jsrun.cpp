#include "sim/jsrun.hpp"

#include <sstream>

#include "util/string_util.hpp"

namespace sf {

std::string ResourceSet::command_line(const std::string& command) const {
  return format("jsrun --nrs %d --cpu_per_rs %d --gpu_per_rs %d --tasks_per_rs %d %s", num_sets,
                cores_per_set, gpus_per_set, tasks_per_set, command.c_str());
}

bool LaunchPlan::fits(const MachineSpec& machine, std::string* error) const {
  long cores = 0;
  long gpus = 0;
  for (const auto& rs : sets) {
    cores += rs.total_cores();
    gpus += rs.total_gpus();
  }
  const long have_cores = static_cast<long>(nodes) * machine.cores_per_node;
  const long have_gpus = static_cast<long>(nodes) * machine.gpus_per_node;
  if (cores > have_cores) {
    if (error != nullptr) {
      *error = format("needs %ld cores but %d nodes of %s provide %ld", cores, nodes,
                      machine.name.c_str(), have_cores);
    }
    return false;
  }
  if (gpus > have_gpus) {
    if (error != nullptr) {
      *error = format("needs %ld GPUs but %d nodes of %s provide %ld", gpus, nodes,
                      machine.name.c_str(), have_gpus);
    }
    return false;
  }
  if (nodes > machine.nodes) {
    if (error != nullptr) {
      *error = format("requests %d nodes; %s has %d", nodes, machine.name.c_str(),
                      machine.nodes);
    }
    return false;
  }
  return true;
}

std::string LaunchPlan::lsf_script(const MachineSpec& machine) const {
  std::ostringstream out;
  out << "#!/bin/bash\n";
  out << "#BSUB -P BIO000\n";
  out << "#BSUB -J " << job_name << "\n";
  out << format("#BSUB -W %d:%02d\n", static_cast<int>(walltime_hours),
                static_cast<int>(walltime_hours * 60) % 60);
  out << "#BSUB -nnodes " << nodes << "\n";
  out << "#BSUB -q batch\n\n";
  out << "# machine: " << machine.name << " (" << machine.gpus_per_node
      << " GPUs/node)\n";
  static const char* kCommands[] = {
      "dask-scheduler --scheduler-file $SCHED_JSON",
      "dask-worker --scheduler-file $SCHED_JSON --nthreads 1",
      "python run_inference.py --scheduler-file $SCHED_JSON --targets targets.txt",
  };
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const char* cmd = i < 3 ? kCommands[i] : "true";
    out << sets[i].command_line(cmd) << (i + 1 < sets.size() ? " &\n" : "\n");
  }
  return out.str();
}

LaunchPlan paper_inference_launch(int nodes) {
  LaunchPlan plan;
  plan.job_name = "af2_inference";
  plan.nodes = nodes;
  plan.walltime_hours = 6.0;
  // 1. Dask scheduler: one set, two cores (§3.3: "run a Dask scheduler
  //    using just two cores").
  plan.sets.push_back({"scheduler", 1, 2, 0, 1});
  // 2. One 1-core/1-GPU worker per GPU across all nodes.
  plan.sets.push_back({"workers", nodes * summit().gpus_per_node, 1, 1, 1});
  // 3. The driving client script on a single core.
  plan.sets.push_back({"client", 1, 1, 0, 1});
  return plan;
}

}  // namespace sf
