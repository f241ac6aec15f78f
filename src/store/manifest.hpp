// Append-only, compact-on-open store manifest.
//
// The manifest is the store's single source of truth: an object file
// under objects/ is live iff the manifest has an un-evicted `put` line
// for its key. It shares the campaign journal's line format, reader and
// durable-file loop (util/sealed_line): every line is sealed with an
// `end` token so a kill mid-append tears at most the final line; load()
// keeps the valid prefix -- a torn line, or one its writer never
// produces, ends it -- then rewrites the recovered state as its
// canonical image (live entries only, insertion order) atomically and
// only when the bytes differ, so the file stays bounded across put/evict
// cycles and a clean reopen never touches the disk. Lines are appended
// through util/file_io.
//
// Line format (integers decimal; key and checksum 32 and 16 lowercase
// hex digits; a cost's seconds are an IEEE-754 bit image, the exact form
// the payloads use for reals, not the journal's %.17g text):
//   sfstore v1 end
//   put <key:32hex> <bytes> <checksum:16hex> <seq> <name> end
//   evict <key:32hex> end
//   touch <key:32hex> <tick> end
//   cost <key:32hex> <seconds:16hex IEEE-754 bits> end
//
// `touch` and `cost` are OPTIONAL policy metadata: a store running FIFO
// eviction never writes either, so its manifest is byte-identical to the
// v1 format. `touch` bumps an entry's recency tick (LRU); ticks share
// the put counter, so "puts count as touches" falls out of seq
// assignment. `cost` records the artifact's modeled recompute seconds
// (cost-aware eviction weighs recompute-seconds-per-byte). Both survive
// compact-on-open: the canonical image re-emits a cost line after each
// put that has one, then one touch line per entry whose recency differs
// from its insertion seq, in ascending tick order -- so eviction
// decisions after a reopen match the uncompacted timeline exactly.
//
// `bytes` is the artifact's MODELED size (what the real pipeline would
// move over the parallel filesystem -- e.g. InputFeatures::
// feature_bytes()), not the physical size of our compact surrogate
// encoding; capacity accounting and staging prices both use it, so the
// store behaves like the multi-GB artifact cache it stands in for.
// `seq` is a monotone insertion counter: eviction order (FIFO, lowest
// seq first) is a pure function of insertion order, hence identical
// across reruns and executor backends.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "store/key.hpp"

namespace sf::store {

// Cost-aware eviction ranks by recompute-seconds-per-modeled-byte; a
// zero-byte entry is free to keep, so it is never worth evicting.
double cost_density(double cost_s, double bytes);

struct ManifestEntry {
  ArtifactKey key;
  std::uint64_t bytes = 0;       // modeled artifact size
  std::uint64_t checksum = 0;    // content_checksum of the payload
  std::uint64_t seq = 0;         // insertion counter (FIFO eviction order)
  std::uint64_t last_touch = 0;  // recency tick (== seq until touched)
  double cost_s = 0.0;           // modeled recompute seconds (cost-aware)
  std::string name;              // human-readable label, e.g. "dv_00042/features"

  double cost_density() const { return store::cost_density(cost_s, static_cast<double>(bytes)); }
};

class Manifest {
 public:
  explicit Manifest(std::string path);

  // Recovers state from disk (tolerating a torn tail), then compacts.
  // Returns true if any live entries were recovered.
  bool load();

  // Live entries in insertion (seq) order.
  const std::vector<ManifestEntry>& entries() const { return live_; }
  const ManifestEntry* find(const ArtifactKey& key) const;
  std::size_t size() const { return live_.size(); }
  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t next_seq() const {  // sfcheck:allow(U1): test_store checks the replayed sequence
    return next_seq_;
  }

  // Appends a `put` line and registers the entry (seq assigned here;
  // last_touch starts at seq). A nonzero `cost_s` also appends a `cost`
  // line recording the modeled recompute seconds.
  ManifestEntry append_put(const ArtifactKey& key, std::uint64_t bytes, std::uint64_t checksum,
                           const std::string& name, double cost_s = 0.0);
  // Appends an `evict` line and drops the entry; no-op for unknown keys.
  void append_evict(const ArtifactKey& key);
  // Appends a `touch` line bumping the entry's recency tick from the
  // shared put/touch counter; no-op for unknown keys.
  void append_touch(const ArtifactKey& key);

  const std::string& path() const { return path_; }

 private:
  void insert(ManifestEntry e);
  void erase(const ArtifactKey& key);
  bool parse_line(std::string_view line);
  std::string canonical_image() const;

  std::string path_;
  std::vector<ManifestEntry> live_;
  std::map<ArtifactKey, std::size_t> index_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace sf::store
