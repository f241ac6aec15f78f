// OLCF machine descriptions (§3, "Methodology").
//
// Summit: ~4,600 IBM AC922 nodes, 2x POWER9 + 6x V100 (16 GB HBM each),
// plus high-memory nodes (2 TB DDR4, 192 GB HBM2). Andes: 704 commodity
// nodes, 2x 16-core EPYC 7302, 256 GB. Phoenix (GA Tech PACE): mixed;
// GPU nodes with 2x Xeon 6226 + 4x RTX6000.
#pragma once

#include <string>

namespace sf {

struct MachineSpec {
  std::string name;
  int nodes = 0;
  int highmem_nodes = 0;     // subset with large DDR4 (Summit: 54)
  int cores_per_node = 0;
  int gpus_per_node = 0;
  double node_mem_gb = 0.0;
  double gpu_mem_gb = 0.0;   // per GPU
  double highmem_node_mem_gb = 0.0;
  // Relative compute throughputs used by the task cost model
  // (1.0 == one V100-class GPU / one EPYC-node's worth of CPU).
  double gpu_speed = 1.0;
  double cpu_node_speed = 1.0;

  int total_gpus() const { return nodes * gpus_per_node; }
};

MachineSpec summit();
MachineSpec andes();

// A named slice of a machine used as a dataflow worker pool: `nodes`
// allocated nodes exposing `workers_per_node` dataflow workers each
// (one per GPU for GPU stages, one per node for CPU stages). Executors
// are built from these descriptions, and a RetryPolicy can reroute
// failed tasks to an alternate pool (e.g. Summit's high-memory nodes).
struct WorkerPool {
  std::string name;
  int nodes = 0;
  int workers_per_node = 1;
  double worker_speed = 1.0;  // relative throughput per worker

  int workers() const { return nodes * workers_per_node; }
};

// Standard pools of the paper's deployment (§3.3-§3.4).
WorkerPool summit_gpu_pool(int nodes);       // one worker per V100
WorkerPool summit_highmem_pool(int nodes);   // OOM-rerun pool
WorkerPool andes_cpu_pool(int nodes);        // one search job per node

// Node-hours for `nodes` allocated over `wall_seconds` (facility billing:
// allocation x wall clock, idle or not).
double node_hours(int nodes, double wall_seconds);

}  // namespace sf
