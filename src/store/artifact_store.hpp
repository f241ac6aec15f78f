// Content-addressed artifact store with replica-priced staging.
//
// The disk layout is a directory the campaign points at with
// `--store DIR`:
//   DIR/manifest.sfstore   -- append-only + compact-on-open index
//   DIR/objects/<key>.sfa  -- one payload per artifact, written
//                             atomically (util/file_io)
//
// Determinism contract: given the same sequence of get/put calls, the
// store's observable state (manifest image, live set, eviction order,
// stats) is byte-identical across reruns and executor backends. The
// stage drivers guarantee the "same sequence" part by issuing store
// calls outside their task functions, in record-index order -- never
// from concurrently running threads.
//
// Pricing: the store never *bills* time into stage reports (stage cost
// models are calibrated to already include artifact I/O); it *accounts*
// staging seconds through sim/filesystem's metadata-server queue so
// traces and `sftrace summarize` can show how replica count shapes
// cache traffic. See StagingPricer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/filesystem.hpp"
#include "store/manifest.hpp"

namespace sf::store {

// Prices artifact traffic against the shared-filesystem model for a
// fleet of `total_jobs` spread round-robin over `replicas` metadata
// domains (the paper's 24 replicas x 4 jobs layout, §3.2.1).
struct StagingPricer {
  FilesystemModel fs;
  int replicas = 1;
  int total_jobs = 1;

  int jobs_on_replica() const {
    if (replicas <= 0) return total_jobs < 1 ? 1 : total_jobs;
    const int j = (total_jobs + replicas - 1) / replicas;
    return j < 1 ? 1 : j;
  }
  double read_seconds(double bytes) const {
    return fs.artifact_read_seconds(bytes, jobs_on_replica());
  }
  double write_seconds(double bytes) const {
    return fs.artifact_write_seconds(bytes, jobs_on_replica());
  }
  double lookup_seconds() const { return fs.artifact_lookup_seconds(jobs_on_replica()); }
};

struct StoreStats {
  std::uint64_t gets = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t puts = 0;
  std::uint64_t evictions = 0;
  double bytes_read = 0.0;     // modeled bytes staged in (hits)
  double bytes_written = 0.0;  // modeled bytes staged out (puts)
  double bytes_evicted = 0.0;
  double read_s = 0.0;   // priced staging time: hits + miss lookups
  double write_s = 0.0;  // priced staging time: puts + evict unlinks

  void merge(const StoreStats& o);
};

// How the store picks eviction victims when a put pushes the live total
// past capacity:
//   kFifo      -- lowest seq (insertion order); the seed behavior, and
//                 the only policy that writes a pure-v1 manifest.
//   kLru       -- lowest recency tick; gets count as touches, and puts
//                 count too (a fresh put's tick IS its seq).
//   kCostAware -- lowest modeled recompute-seconds-per-byte: keep what
//                 is expensive to rebuild relative to the space it eats.
// All three tie-break by seq, so victim choice is a pure function of
// the call sequence -- identical across reruns and executor backends.
enum class EvictionPolicy { kFifo, kLru, kCostAware };

const char* eviction_policy_name(EvictionPolicy policy);
bool eviction_policy_from_name(const std::string& name, EvictionPolicy& out);

struct StorePolicy {
  // Modeled-byte capacity; 0 means unbounded. When a put pushes the
  // live total past this, victims chosen by `eviction` are evicted
  // until it fits -- except the entry just written, which survives even
  // if it alone exceeds capacity.
  std::uint64_t capacity_bytes = 0;
  EvictionPolicy eviction = EvictionPolicy::kFifo;
};

class ArtifactStore {
 public:
  explicit ArtifactStore(std::string dir, StorePolicy policy = {});

  // Creates the directory layout and loads the manifest. Returns true
  // if the store came up warm (any live entries).
  bool open();
  bool opened() const { return opened_; }

  // Starts a per-stage stats window; subsequent traffic is priced with
  // `pricer` and accounted to both the window and the campaign totals.
  void begin_stage(const std::string& stage, const StagingPricer& pricer);

  // Payload bytes on hit; nullopt on miss. A manifest entry whose
  // object file is missing, truncated, or fails its checksum is dropped
  // (evict line) and reported as a miss -- corruption can cost a
  // recompute, never a wrong artifact.
  std::optional<std::string> get(const ArtifactKey& key);

  bool contains(const ArtifactKey& key) const;

  // Stores a payload under `key`. `modeled_bytes` is the artifact's
  // real-pipeline size used for capacity and pricing (see manifest.hpp).
  // `recompute_s` is the modeled cost of rebuilding the artifact from
  // scratch; it is recorded in the manifest only under kCostAware, so
  // FIFO and LRU manifests carry no cost lines.
  void put(const ArtifactKey& key, const std::string& name, const std::string& payload,
           double modeled_bytes, double recompute_s = 0.0);

  // Stats for the current (most recent) begin_stage window.
  const StoreStats& stage_stats() const;
  const StoreStats& total_stats() const { return totals_; }
  // (stage name, stats) for every begin_stage window, in call order;
  // the last element is the live window.
  const std::vector<std::pair<std::string, StoreStats>>& stage_history() const {
    return history_;
  }

  const Manifest& manifest() const { return manifest_; }
  const StorePolicy& policy() const { return policy_; }
  const std::string& dir() const { return dir_; }
  std::size_t size() const { return manifest_.size(); }

  std::string object_path(const ArtifactKey& key) const;

 private:
  void account(const StoreStats& delta);
  void evict_to_capacity(const ArtifactKey& keep);
  const ManifestEntry* pick_victim(const ArtifactKey& keep) const;

  std::string dir_;
  StorePolicy policy_;
  Manifest manifest_;
  StagingPricer pricer_;
  bool opened_ = false;
  StoreStats totals_;
  std::vector<std::pair<std::string, StoreStats>> history_;
};

}  // namespace sf::store
