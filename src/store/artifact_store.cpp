#include "store/artifact_store.hpp"

#include <filesystem>

#include "util/file_io.hpp"
#include "util/string_util.hpp"

namespace sf::store {
namespace {

// Where an entry stands in the eviction order.
struct EvictionRank {
  std::uint64_t seq = 0;   // insertion counter
  std::uint64_t tick = 0;  // recency tick (== seq until touched)
  double cost_density = 0.0;
};

// The victim order: true when `a` goes before `b` under `policy`.
bool evicts_before(EvictionPolicy policy, const EvictionRank& a, const EvictionRank& b) {
  if (policy == EvictionPolicy::kLru && a.tick != b.tick) return a.tick < b.tick;
  if (policy == EvictionPolicy::kCostAware && a.cost_density != b.cost_density) {
    return a.cost_density < b.cost_density;
  }
  return a.seq < b.seq;  // FIFO, and every tie
}

}  // namespace

// Policy names, indexed by EvictionPolicy.
constexpr const char* kPolicyNames[] = {"fifo", "lru", "cost"};

const char* eviction_policy_name(EvictionPolicy policy) {
  return enum_name(kPolicyNames, policy);
}

bool eviction_policy_from_name(const std::string& name, EvictionPolicy& out) {
  return enum_from_name(name, kPolicyNames, out);
}

void StoreStats::merge(const StoreStats& o) {
  gets += o.gets;
  hits += o.hits;
  misses += o.misses;
  puts += o.puts;
  evictions += o.evictions;
  bytes_read += o.bytes_read;
  bytes_written += o.bytes_written;
  bytes_evicted += o.bytes_evicted;
  read_s += o.read_s;
  write_s += o.write_s;
}

ArtifactStore::ArtifactStore(std::string dir, StorePolicy policy)
    : dir_(std::move(dir)), policy_(policy), manifest_(dir_ + "/manifest.sfstore") {}

bool ArtifactStore::open() {
  std::error_code ec;
  std::filesystem::create_directories(dir_ + "/objects", ec);
  return manifest_.load();
}

void ArtifactStore::begin_stage(const std::string& stage, const StagingPricer& pricer) {
  pricer_ = pricer;
  history_.emplace_back(stage, StoreStats{});
}

const StoreStats& ArtifactStore::stage_stats() const {
  static const StoreStats kEmpty;
  return history_.empty() ? kEmpty : history_.back().second;
}

void ArtifactStore::account(const StoreStats& delta) {
  totals_.merge(delta);
  if (!history_.empty()) history_.back().second.merge(delta);
}

std::string ArtifactStore::object_path(const ArtifactKey& key) const {
  return dir_ + "/objects/" + key.hex() + ".sfa";
}

std::optional<std::string> ArtifactStore::get(const ArtifactKey& key) {
  StoreStats d;
  d.gets = 1;
  const ManifestEntry* entry = manifest_.find(key);
  if (entry == nullptr) {
    d.misses = 1;
    d.read_s = pricer_.lookup_seconds();
    account(d);
    return std::nullopt;
  }
  std::string payload = read_file(object_path(key));
  if (content_checksum(payload) != entry->checksum) {
    // Missing, truncated, or corrupted object: drop it from the live
    // set and treat as a miss. The caller recomputes; the store never
    // serves bytes it cannot vouch for.
    manifest_.append_evict(key);
    std::error_code ec;
    std::filesystem::remove(object_path(key), ec);
    d.misses = 1;
    d.read_s = pricer_.lookup_seconds();
    account(d);
    return std::nullopt;
  }
  d.hits = 1;
  d.bytes_read = static_cast<double>(entry->bytes);
  d.read_s = pricer_.read_seconds(static_cast<double>(entry->bytes));
  account(d);
  // A hit is a use: under LRU the entry's recency tick moves to the
  // front of the shared put/touch counter. FIFO and cost-aware ignore
  // recency, so they skip the manifest line entirely.
  if (policy_.eviction == EvictionPolicy::kLru) manifest_.append_touch(key);
  return payload;
}

bool ArtifactStore::contains(const ArtifactKey& key) const {
  return manifest_.find(key) != nullptr;
}

void ArtifactStore::put(const ArtifactKey& key, const std::string& name,
                        const std::string& payload, double modeled_bytes, double recompute_s) {
  write_file_atomic(object_path(key), [&](std::ostream& out) { out << payload; });
  const auto bytes = modeled_bytes <= 0.0 ? std::uint64_t{0}
                                          : static_cast<std::uint64_t>(modeled_bytes);
  manifest_.append_put(key, bytes, content_checksum(payload), name,
                       policy_.eviction == EvictionPolicy::kCostAware ? recompute_s : 0.0);
  StoreStats d;
  d.puts = 1;
  d.bytes_written = static_cast<double>(bytes);
  d.write_s = pricer_.write_seconds(static_cast<double>(bytes));
  account(d);
  evict_to_capacity(key);
}

const ManifestEntry* ArtifactStore::pick_victim(const ArtifactKey& keep) const {
  const auto rank = [](const ManifestEntry& e) {
    return EvictionRank{e.seq, e.last_touch, e.cost_density()};
  };
  const ManifestEntry* best = nullptr;
  for (const auto& e : manifest_.entries()) {
    if (e.key == keep) continue;
    if (best == nullptr || evicts_before(policy_.eviction, rank(e), rank(*best))) best = &e;
  }
  return best;
}

void ArtifactStore::evict_to_capacity(const ArtifactKey& keep) {
  if (policy_.capacity_bytes == 0) return;
  // The just-put entry is exempt -- a store too small for one artifact
  // degrades to a pass-through cache, not a failure. Under FIFO the
  // victim is always entries().front() (lowest seq), exactly the seed
  // behavior; LRU and cost-aware scan the live set, which is small by
  // construction (capacity pressure keeps it bounded).
  while (manifest_.total_bytes() > policy_.capacity_bytes && manifest_.size() > 1) {
    const ManifestEntry* chosen = pick_victim(keep);
    if (chosen == nullptr) break;
    const ManifestEntry victim = *chosen;  // append_evict invalidates the pointer
    manifest_.append_evict(victim.key);
    std::error_code ec;
    std::filesystem::remove(object_path(victim.key), ec);
    StoreStats d;
    d.evictions = 1;
    d.bytes_evicted = static_cast<double>(victim.bytes);
    d.write_s = pricer_.lookup_seconds();  // one metadata op for the unlink
    account(d);
  }
}

}  // namespace sf::store
