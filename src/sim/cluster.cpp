#include "sim/cluster.hpp"

namespace sf {

MachineSpec summit() {
  MachineSpec m;
  m.name = "summit";
  m.nodes = 4600;
  m.highmem_nodes = 54;
  m.cores_per_node = 42;  // usable cores (2x21 per AC922 after system cores)
  m.gpus_per_node = 6;
  m.node_mem_gb = 512.0;
  m.gpu_mem_gb = 16.0;
  m.highmem_node_mem_gb = 2048.0;
  m.gpu_speed = 1.0;        // V100 reference
  m.cpu_node_speed = 0.9;   // POWER9 node vs EPYC node reference
  return m;
}

MachineSpec andes() {
  MachineSpec m;
  m.name = "andes";
  m.nodes = 704;
  m.cores_per_node = 32;  // 2x 16-core EPYC 7302
  m.gpus_per_node = 0;
  m.node_mem_gb = 256.0;
  m.cpu_node_speed = 1.0;  // reference CPU node
  return m;
}

WorkerPool summit_gpu_pool(int nodes) {
  return {"summit-gpu", nodes, summit().gpus_per_node, 1.0};
}

WorkerPool summit_highmem_pool(int nodes) {
  return {"summit-highmem", nodes, summit().gpus_per_node, 1.0};
}

WorkerPool andes_cpu_pool(int nodes) {
  return {"andes-cpu", nodes, 1, 1.0};
}

double node_hours(int nodes, double wall_seconds) {
  return static_cast<double>(nodes) * wall_seconds / 3600.0;
}

}  // namespace sf
