// One journal -> store -> compute resolution for every science loop.
//
// Each per-item science loop -- inference's measured targets,
// relaxation's kept models, the cluster stage's pair alignments and
// novel-fold scans, the pair screen's pairs -- gets every item's result
// record (its store artifact) from resolve(), serially and in the loop's
// canonical item order, with one fixed call sequence:
//   1. a usable journal row ends the lookup (no store traffic);
//   2. otherwise one store get + decode; a usable hit is re-journaled
//      (first write wins, so this is always safe) and never re-put;
//   3. otherwise compute(), then journal the result, then put(result).
// The store's manifest, eviction order, and stats are a function of
// this call sequence, so it lives here once: the same journal state
// yields the same store traffic in every loop, on every rerun and
// resume.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "core/journal.hpp"
#include "store/artifact_store.hpp"

namespace sf {

enum class ResolveSource { kJournal, kStore, kComputed };

template <class Artifact>
struct Resolved {
  Artifact artifact;
  ResolveSource source = ResolveSource::kComputed;
};

// Every row and artifact is usable except where the caller says
// otherwise (a measured row without the structure a relax-kept target
// needs).
struct AlwaysUsable {
  template <class Artifact>
  bool operator()(const Artifact&) const {
    return true;
  }
};

// Resolves the item journaled under `row_key` and stored under
// `store_key`. `journal` and `store` may each be null. `compute()`
// returns the artifact; `put(artifact)` encodes it into `store`.
template <class Artifact, class Compute, class Put, class Usable = AlwaysUsable>
Resolved<Artifact> resolve(CampaignJournal* journal, std::uint64_t row_key,
                           store::ArtifactStore* store, const store::ArtifactKey& store_key,
                           bool (*decode)(const std::string&, Artifact&), Compute&& compute,
                           Put&& put, Usable&& usable = Usable()) {
  if (journal != nullptr) {
    const Artifact* row = journal->find<Artifact>(row_key);
    if (row != nullptr && usable(*row)) return {*row, ResolveSource::kJournal};
  }
  Resolved<Artifact> out;
  if (store != nullptr) {
    const auto payload = store->get(store_key);
    if (payload && decode(*payload, out.artifact) && usable(out.artifact)) {
      if (journal != nullptr) journal->record(row_key, out.artifact);
      out.source = ResolveSource::kStore;
      return out;
    }
  }
  out.artifact = compute();
  if (journal != nullptr) journal->record(row_key, out.artifact);
  if (store != nullptr) put(out.artifact);
  return out;
}

// Whether resolve() with these arguments, and every row and artifact
// usable, would reach compute(): no journal row and no store entry.
// Side-effect free (no store get, no stats), so a loop can pick its
// misses before it resolves anything. A listed object that then fails
// to read or decode still makes resolve() compute, so the loop's
// compute step must handle an item this said would not compute.
template <class Artifact>
bool resolve_would_compute(const CampaignJournal* journal, std::uint64_t row_key,
                           const store::ArtifactStore* store, const store::ArtifactKey& store_key) {
  if (journal != nullptr && journal->find<Artifact>(row_key) != nullptr) return false;
  return store == nullptr || !store->contains(store_key);
}

// The journal-only forms, for results no store holds.
template <class Artifact, class Compute>
Resolved<Artifact> resolve(CampaignJournal* journal, std::uint64_t row_key, Compute&& compute) {
  return resolve<Artifact>(journal, row_key, nullptr, store::ArtifactKey{}, nullptr,
                           std::forward<Compute>(compute), [](const Artifact&) {});
}

template <class Artifact>
bool resolve_would_compute(const CampaignJournal* journal, std::uint64_t row_key) {
  return resolve_would_compute<Artifact>(journal, row_key, nullptr, store::ArtifactKey{});
}

}  // namespace sf
