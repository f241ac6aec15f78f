// src/store: pluggable eviction policies (FIFO / LRU / cost-aware).
//
// Locks the semantics DESIGN.md §3.3 promises, per policy:
//  * FIFO evicts the lowest insertion seq and writes a pure-v1 manifest
//    (no touch/cost lines) -- the seed behavior, byte-for-byte;
//  * LRU evicts the least-recently-touched entry, where gets AND puts
//    both count as touches (ticks share the put counter);
//  * cost-aware ranks by modeled recompute-seconds-per-byte and never
//    evicts an entry denser than one it retains; a zero-byte entry is
//    free to keep and therefore immortal.
// All three are checked against a pure shadow oracle over a seeded
// traffic sweep, and all three must make identical eviction decisions
// across a mid-sequence close/reopen (manifest compaction).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "store/artifact_store.hpp"
#include "store/key.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "scratch_dir.hpp"

namespace sf {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = test_scratch_dir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

store::ArtifactKey key_of(int i) {
  return store::artifact_key(mix64(0xe71cULL, static_cast<std::uint64_t>(i)), "features",
                             0xc0f1ULL);
}

store::StagingPricer test_pricer() {
  store::StagingPricer p;
  p.replicas = 4;
  p.total_jobs = 16;
  return p;
}

store::StorePolicy policy_of(store::EvictionPolicy ep, std::uint64_t capacity) {
  store::StorePolicy p;
  p.capacity_bytes = capacity;
  p.eviction = ep;
  return p;
}

std::vector<store::ArtifactKey> live_keys(const store::ArtifactStore& s) {
  std::vector<store::ArtifactKey> keys;
  for (const auto& e : s.manifest().entries()) keys.push_back(e.key);
  return keys;
}

// ------------------------------------------------------------------ //
// Policy names.
// ------------------------------------------------------------------ //

TEST(EvictionPolicy, NamesRoundTrip) {
  using store::EvictionPolicy;
  for (const EvictionPolicy ep :
       {EvictionPolicy::kFifo, EvictionPolicy::kLru, EvictionPolicy::kCostAware}) {
    EvictionPolicy back;
    ASSERT_TRUE(store::eviction_policy_from_name(store::eviction_policy_name(ep), back));
    EXPECT_EQ(back, ep);
  }
  store::EvictionPolicy out;
  EXPECT_FALSE(store::eviction_policy_from_name("mru", out));
  EXPECT_FALSE(store::eviction_policy_from_name("", out));
}

// ------------------------------------------------------------------ //
// Targeted per-policy semantics.
// ------------------------------------------------------------------ //

TEST(EvictionFifo, EvictsLowestSeqIgnoringUse) {
  const std::string dir = fresh_dir("evict_fifo");
  store::ArtifactStore s(dir, policy_of(store::EvictionPolicy::kFifo, 2500));
  s.open();
  s.begin_stage("features", test_pricer());
  s.put(key_of(1), "a", "one", 1000.0);
  s.put(key_of(2), "b", "two", 1000.0);
  // Heavy reuse of key 1 changes nothing under FIFO: insertion order is
  // the whole story.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(s.get(key_of(1)).has_value());
  s.put(key_of(3), "c", "three", 1000.0);
  EXPECT_FALSE(s.contains(key_of(1)));
  EXPECT_TRUE(s.contains(key_of(2)));
  EXPECT_TRUE(s.contains(key_of(3)));
}

TEST(EvictionLru, GetsAndPutsBothCountAsTouches) {
  const std::string dir = fresh_dir("evict_lru");
  store::ArtifactStore s(dir, policy_of(store::EvictionPolicy::kLru, 2500));
  s.open();
  s.begin_stage("features", test_pricer());
  s.put(key_of(1), "a", "one", 1000.0);  // seq 1, tick 1
  s.put(key_of(2), "b", "two", 1000.0);  // seq 2, tick 2
  // A get refreshes recency: key 1 jumps ahead of key 2 ...
  ASSERT_TRUE(s.get(key_of(1)).has_value());  // tick 3
  s.put(key_of(3), "c", "three", 1000.0);     // seq/tick 4: evicts 2, not 1
  EXPECT_TRUE(s.contains(key_of(1)));
  EXPECT_FALSE(s.contains(key_of(2)));
  EXPECT_TRUE(s.contains(key_of(3)));
  // ... and a put is a use too: the fresh key 3 (tick 4) outranks the
  // key-1 get at tick 3, so the next pressure evicts key 1.
  s.put(key_of(4), "d", "four", 1000.0);
  EXPECT_FALSE(s.contains(key_of(1)));
  EXPECT_TRUE(s.contains(key_of(3)));
  EXPECT_TRUE(s.contains(key_of(4)));
}

TEST(EvictionCost, KeepsTheExpensivePerByteArtifacts) {
  const std::string dir = fresh_dir("evict_cost");
  store::ArtifactStore s(dir, policy_of(store::EvictionPolicy::kCostAware, 2500));
  s.open();
  s.begin_stage("features", test_pricer());
  // Density (recompute seconds per modeled byte) decides, not age:
  //   key 1: 1000 B at 900 s  -> 0.9 s/B   (oldest, but precious)
  //   key 2: 1000 B at  10 s  -> 0.01 s/B  (cheap to rebuild)
  //   key 3: 1000 B at 100 s  -> 0.1 s/B
  s.put(key_of(1), "a", "one", 1000.0, 900.0);
  s.put(key_of(2), "b", "two", 1000.0, 10.0);
  s.put(key_of(3), "c", "three", 1000.0, 100.0);  // evicts 2 (lowest density)
  EXPECT_TRUE(s.contains(key_of(1)));
  EXPECT_FALSE(s.contains(key_of(2)));
  EXPECT_TRUE(s.contains(key_of(3)));
  // Another push: the fresh put is exempt, so the victim is the lowest
  // density among the survivors -- key 3 (0.1), never key 1 (0.9).
  s.put(key_of(4), "d", "four", 1000.0, 50.0);
  EXPECT_TRUE(s.contains(key_of(1)));
  EXPECT_FALSE(s.contains(key_of(3)));
  EXPECT_TRUE(s.contains(key_of(4)));
}

TEST(EvictionCost, ZeroByteEntryIsNeverWorthEvicting) {
  const std::string dir = fresh_dir("evict_cost_zero");
  store::ArtifactStore s(dir, policy_of(store::EvictionPolicy::kCostAware, 2000));
  s.open();
  s.begin_stage("features", test_pricer());
  s.put(key_of(1), "z", "zero", 0.0, 5.0);  // 0 modeled bytes: density +inf
  for (int i = 2; i <= 8; ++i) {
    s.put(key_of(i), format("k%d", i), "payload", 1000.0, 100.0 * i);
  }
  // Plenty of eviction pressure later, but the zero-byte entry costs
  // nothing to keep and something to rebuild: it must survive.
  EXPECT_TRUE(s.contains(key_of(1)));
  EXPECT_GT(s.total_stats().evictions, 0u);
}

// ------------------------------------------------------------------ //
// Shadow oracle: the store's live set under pressure must match a pure
// re-derivation of the documented policy, step by step.
// ------------------------------------------------------------------ //

struct ShadowEntry {
  std::uint64_t bytes = 0;
  std::uint64_t seq = 0;
  std::uint64_t last_touch = 0;
  double cost_s = 0.0;

  double density() const {
    if (bytes == 0) return std::numeric_limits<double>::infinity();
    return cost_s / static_cast<double>(bytes);
  }
};

class ShadowStore {
 public:
  ShadowStore(store::EvictionPolicy policy, std::uint64_t capacity)
      : policy_(policy), capacity_(capacity) {}

  void put(int key, std::uint64_t bytes, double cost_s) {
    ShadowEntry e;
    e.bytes = bytes;
    e.seq = e.last_touch = next_seq_++;
    e.cost_s = policy_ == store::EvictionPolicy::kCostAware ? cost_s : 0.0;
    total_ += bytes;
    live_[key] = e;
    while (total_ > capacity_ && live_.size() > 1) {
      const int victim = pick_victim(key);
      total_ -= live_[victim].bytes;
      live_.erase(victim);
    }
  }

  bool get(int key) {  // returns hit
    const auto it = live_.find(key);
    if (it == live_.end()) return false;
    if (policy_ == store::EvictionPolicy::kLru) it->second.last_touch = next_seq_++;
    return true;
  }

  std::set<int> live_set() const {
    std::set<int> out;
    for (const auto& [k, e] : live_) out.insert(k);
    return out;
  }

 private:
  int pick_victim(int keep) const {
    int best = -1;
    for (const auto& [k, e] : live_) {
      if (k == keep) continue;
      if (best < 0) {
        best = k;
        continue;
      }
      const ShadowEntry& b = live_.at(best);
      bool better = false;
      switch (policy_) {
        case store::EvictionPolicy::kFifo:
          better = e.seq < b.seq;
          break;
        case store::EvictionPolicy::kLru:
          better = e.last_touch != b.last_touch ? e.last_touch < b.last_touch : e.seq < b.seq;
          break;
        case store::EvictionPolicy::kCostAware:
          better = e.density() != b.density() ? e.density() < b.density() : e.seq < b.seq;
          break;
      }
      if (better) best = k;
    }
    return best;
  }

  store::EvictionPolicy policy_;
  std::uint64_t capacity_ = 0;
  std::map<int, ShadowEntry> live_;
  std::uint64_t total_ = 0;
  std::uint64_t next_seq_ = 1;
};

std::set<int> store_live_set(const store::ArtifactStore& s, int key_count) {
  std::set<int> out;
  for (int k = 0; k < key_count; ++k) {
    if (s.contains(key_of(k))) out.insert(k);
  }
  return out;
}

TEST(EvictionOracle, AllPoliciesMatchShadowUnderSeededTraffic) {
  using store::EvictionPolicy;
  constexpr int kKeys = 20;
  constexpr std::uint64_t kCapacity = 6000;
  for (const EvictionPolicy ep :
       {EvictionPolicy::kFifo, EvictionPolicy::kLru, EvictionPolicy::kCostAware}) {
    SCOPED_TRACE(store::eviction_policy_name(ep));
    const std::string dir = fresh_dir(std::string("evict_oracle_") +
                                      store::eviction_policy_name(ep));
    store::ArtifactStore s(dir, policy_of(ep, kCapacity));
    s.open();
    s.begin_stage("features", test_pricer());
    ShadowStore shadow(ep, kCapacity);

    Rng rng(0x5eedc0deULL, static_cast<std::uint64_t>(ep) + 1);
    std::set<int> ever_put;
    for (int step = 0; step < 200; ++step) {
      const int key = static_cast<int>(rng.next_u64() % kKeys);
      if (rng.next_u64() % 3 == 0 && ever_put.count(key)) {
        // get: a hit must agree between store and shadow, and under LRU
        // both bump the same recency tick.
        EXPECT_EQ(s.get(key_of(key)).has_value(), shadow.get(key)) << "step " << step;
      } else {
        const std::uint64_t bytes = 500 + rng.next_u64() % 2000;
        const double cost_s = 1.0 + static_cast<double>(rng.next_u64() % 5000);
        // The oracle does not model put-over-live-key; skip those.
        if (s.contains(key_of(key))) continue;
        shadow.put(key, bytes, cost_s);
        s.put(key_of(key), format("k%d", key), format("payload%d", step),
              static_cast<double>(bytes), cost_s);
        ever_put.insert(key);
      }
      ASSERT_EQ(store_live_set(s, kKeys), shadow.live_set()) << "step " << step;
    }
    EXPECT_GT(s.total_stats().evictions, 0u);

    // Cost-aware invariant, stated directly: everything still live is at
    // least as dense as anything would need to be -- concretely, the
    // minimum retained density is well-defined and every entry satisfies
    // the manifest's own ranking (no NaNs, no negative densities).
    if (ep == EvictionPolicy::kCostAware) {
      for (const auto& e : s.manifest().entries()) {
        EXPECT_GE(e.cost_density(), 0.0);
      }
    }
  }
}

TEST(EvictionCost, NeverEvictsDenserThanARetainedEntry) {
  // Direct statement of the cost-aware contract: at the moment of each
  // eviction, the victim's density is <= every retained entry's density.
  // Observed by diffing the live set across single puts.
  const std::string dir = fresh_dir("evict_cost_invariant");
  store::ArtifactStore s(dir, policy_of(store::EvictionPolicy::kCostAware, 8000));
  s.open();
  s.begin_stage("features", test_pricer());

  Rng rng(0xdeadULL);
  std::map<store::ArtifactKey, double> density;
  for (int i = 0; i < 60; ++i) {
    const std::uint64_t bytes = 400 + rng.next_u64() % 3000;
    const double cost_s = 1.0 + static_cast<double>(rng.next_u64() % 9000);
    const auto key = key_of(1000 + i);
    const auto before = live_keys(s);
    s.put(key, format("k%d", i), format("p%d", i),
          static_cast<double>(bytes), cost_s);
    density[key] = cost_s / static_cast<double>(bytes);
    const auto after_vec = live_keys(s);
    const std::set<store::ArtifactKey> after(after_vec.begin(), after_vec.end());
    double max_evicted = -1.0;
    for (const auto& k : before) {
      if (!after.count(k)) max_evicted = std::max(max_evicted, density.at(k));
    }
    if (max_evicted < 0.0) continue;  // no eviction this step
    for (const auto& k : after) {
      if (k == key) continue;  // the fresh put is exempt from ranking
      EXPECT_GE(density.at(k), max_evicted) << "step " << i;
    }
  }
  EXPECT_GT(s.total_stats().evictions, 0u);
}

// ------------------------------------------------------------------ //
// Durability: decisions survive reopen + compaction; FIFO manifests
// stay pure v1.
// ------------------------------------------------------------------ //

// Runs the same seeded traffic, optionally closing/reopening the store
// (forcing manifest compaction) every `reopen_every` steps. Returns the
// final compacted manifest image.
std::string traffic_image(store::EvictionPolicy ep, const std::string& tag, int reopen_every) {
  const std::string dir = fresh_dir("evict_reopen_" + tag);
  auto make = [&] {
    auto s = std::make_unique<store::ArtifactStore>(dir, policy_of(ep, 5000));
    s->open();
    s->begin_stage("features", test_pricer());
    return s;
  };
  auto s = make();
  Rng rng(0xfadeULL, static_cast<std::uint64_t>(ep) + 1);
  for (int step = 0; step < 80; ++step) {
    if (reopen_every > 0 && step > 0 && step % reopen_every == 0) s = make();
    const int key = static_cast<int>(rng.next_u64() % 14);
    if (rng.next_u64() % 3 == 0) {
      (void)s->get(key_of(key));
    } else if (!s->contains(key_of(key))) {
      s->put(key_of(key), format("k%d", key), format("payload%d", step),
             static_cast<double>(600 + rng.next_u64() % 1800),
             1.0 + static_cast<double>(rng.next_u64() % 4000));
    }
  }
  s.reset();
  // Reopen once more so the on-disk bytes are the canonical compacted
  // image on both sides of the comparison.
  store::ArtifactStore fin(dir, policy_of(ep, 5000));
  fin.open();
  return read_file(dir + "/manifest.sfstore");
}

TEST(EvictionDurability, DecisionsIdenticalAcrossReopenAndCompaction) {
  using store::EvictionPolicy;
  for (const EvictionPolicy ep :
       {EvictionPolicy::kFifo, EvictionPolicy::kLru, EvictionPolicy::kCostAware}) {
    SCOPED_TRACE(store::eviction_policy_name(ep));
    const std::string tag = store::eviction_policy_name(ep);
    const std::string uninterrupted = traffic_image(ep, format("%s_solid", tag.c_str()), 0);
    const std::string chopped = traffic_image(ep, format("%s_chop", tag.c_str()), 7);
    EXPECT_FALSE(uninterrupted.empty());
    // Compaction preserves seq, recency ticks, and recompute costs, so a
    // store that restarted every few steps made the exact same eviction
    // decisions -- down to the manifest bytes.
    EXPECT_EQ(uninterrupted, chopped);
  }
}

TEST(EvictionManifest, FifoStaysPureV1AndOthersAnnotateMinimally) {
  using store::EvictionPolicy;
  struct Case {
    EvictionPolicy ep;
    bool expect_touch;
    bool expect_cost;
  };
  for (const Case c : {Case{EvictionPolicy::kFifo, false, false},
                       Case{EvictionPolicy::kLru, true, false},
                       Case{EvictionPolicy::kCostAware, false, true}}) {
    SCOPED_TRACE(store::eviction_policy_name(c.ep));
    const std::string dir =
        fresh_dir(std::string("evict_manifest_") + store::eviction_policy_name(c.ep));
    {
      store::ArtifactStore s(dir, policy_of(c.ep, 4000));
      s.open();
      s.begin_stage("features", test_pricer());
      for (int i = 0; i < 6; ++i) {
        s.put(key_of(i), format("k%d", i), format("payload%d", i), 1000.0,
              50.0 * (i + 1));
        (void)s.get(key_of(i / 2));
      }
    }
    const std::string raw = read_file(dir + "/manifest.sfstore");
    ASSERT_NE(raw.find("sfstore v1"), std::string::npos);
    EXPECT_EQ(raw.find("\ntouch ") != std::string::npos, c.expect_touch);
    EXPECT_EQ(raw.find("\ncost ") != std::string::npos, c.expect_cost);
    // And the compacted image keeps the same purity.
    store::ArtifactStore reopened(dir, policy_of(c.ep, 4000));
    reopened.open();
    const std::string compacted = read_file(dir + "/manifest.sfstore");
    EXPECT_EQ(compacted.find("\ntouch ") != std::string::npos, c.expect_touch);
    EXPECT_EQ(compacted.find("\ncost ") != std::string::npos, c.expect_cost);
  }
}

}  // namespace
}  // namespace sf
