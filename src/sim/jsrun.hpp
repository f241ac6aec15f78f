// jsrun resource-set model and the paper's LSF launch layout (§3.3).
//
// Summit jobs are launched with IBM's `jsrun`, which partitions each
// node's 42 usable cores and 6 GPUs into "resource sets". The paper's
// inference job uses three jsrun invocations inside one LSF batch script:
//   1. the Dask scheduler        (1 resource set, 2 cores, 0 GPUs)
//   2. the Dask workers          (one 1-core/1-GPU set per GPU, all nodes)
//   3. the driving Python client (1 resource set, 1 core)
// This module validates such layouts against node capacity and renders
// the equivalent batch script, so the deployment recipe itself is a
// tested artifact.
#pragma once

#include <string>
#include <vector>

#include "sim/cluster.hpp"

namespace sf {

struct ResourceSet {
  std::string name;
  int num_sets = 1;       // --nrs
  int cores_per_set = 1;  // --cpu_per_rs
  int gpus_per_set = 0;   // --gpu_per_rs
  int tasks_per_set = 1;  // --tasks_per_rs

  int total_cores() const { return num_sets * cores_per_set; }
  int total_gpus() const { return num_sets * gpus_per_set; }

  // The jsrun command line for this set running `command`.
  std::string command_line(const std::string& command) const;
};

struct LaunchPlan {
  std::string job_name;
  int nodes = 1;
  double walltime_hours = 2.0;
  std::vector<ResourceSet> sets;

  // Validate against a machine's per-node capacity: total cores and GPUs
  // demanded by all resource sets must fit the allocation.
  bool fits(const MachineSpec& machine, std::string* error = nullptr) const;

  // Render the full LSF batch script (#BSUB headers + jsrun lines).
  std::string lsf_script(const MachineSpec& machine) const;
};

// The paper's three-jsrun inference layout for `nodes` Summit nodes.
LaunchPlan paper_inference_launch(int nodes);

}  // namespace sf
