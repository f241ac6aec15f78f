#include "dist/node_runtime.hpp"

#include <cassert>

namespace sf::dist {
namespace {

// Holder-side lookup and serialization before a kFetchReply leaves.
constexpr double kFetchServeS = 1e-4;

}  // namespace

void NodeRuntime::begin_round(const RoundSetup& setup) {
  s_ = setup;
  stats_.workers = setup.workers;
  queue_.clear();
  waiting_.clear();
  flights_.assign(static_cast<std::size_t>(setup.workers), Flight{});
  idle_.clear();
  for (int w = 0; w < setup.workers; ++w) idle_.insert(w);
  completed_ = 0;
  dead_ = false;
}

void NodeRuntime::drain() {
  Message msg;
  while (inbox_.try_pop(msg)) handle(msg);
}

NodeStats NodeRuntime::stats() const {
  NodeStats out = stats_;
  out.replica_entries = replica_.size();
  out.replica_bytes = replica_bytes_;
  return out;
}

const ArtifactRef* NodeRuntime::need_ref(std::size_t task, const store::ArtifactKey& key) const {
  for (const ArtifactRef& ref : (*s_.locality)[task].needs) {
    if (ref.key == key) return &ref;
  }
  return nullptr;
}

int NodeRuntime::take_waiter(const store::ArtifactKey& key) {
  const auto it = waiting_.find(key);
  assert(it != waiting_.end() && !it->second.empty());
  const int worker = it->second.front();
  it->second.pop_front();
  if (it->second.empty()) waiting_.erase(it);
  return worker;
}

void NodeRuntime::handle(const Message& msg) {
  switch (msg.kind) {
    case MsgKind::kTaskAssign: {
      if (dead_) {
        // Assigned after the drain-stop: bounce straight back.
        s_.net->send({.kind = MsgKind::kTaskReturn, .src = id(), .dst = s_.coordinator,
                      .task = msg.task});
        return;
      }
      queue_.push_back(msg.task);
      try_dispatch();
      return;
    }
    case MsgKind::kFetchForward: {
      if (!replica_.contains(msg.key)) {
        // The directory was stale (an invalidation or a crash in
        // flight): the requester recomputes, exactly as if nobody had
        // held the key.
        s_.net->send({.kind = MsgKind::kFetchMiss, .src = id(), .dst = msg.requester,
                      .key = msg.key});
        return;
      }
      ++stats_.migrations_out;
      stats_.bytes_out += msg.artifact_bytes;
      // The payload pays its bytes on the wire.
      const Message reply{.kind = MsgKind::kFetchReply,
                          .src = id(),
                          .dst = msg.requester,
                          .bytes = msg.artifact_bytes,
                          .key = msg.key,
                          .artifact_bytes = msg.artifact_bytes};
      s_.engine->schedule_after(kFetchServeS, [net = s_.net, reply] { net->send(reply); });
      return;
    }
    case MsgKind::kFetchReply: {
      const int worker = take_waiter(msg.key);
      Flight& f = flights_[static_cast<std::size_t>(worker)];
      ++stats_.migrations_in;
      stats_.bytes_in += msg.artifact_bytes;
      ++s_.win->migrations;
      s_.win->bytes_migrated += msg.artifact_bytes;
      if (!dead_) {
        const ArtifactRef* ref = need_ref(f.task, msg.key);
        assert(ref != nullptr);
        insert_artifact(*ref, /*exclusive=*/false);
      }
      if (--f.pending_fetches == 0) start_run(worker);
      return;
    }
    case MsgKind::kFetchMiss: {
      const int worker = take_waiter(msg.key);
      Flight& f = flights_[static_cast<std::size_t>(worker)];
      const ArtifactRef* ref = need_ref(f.task, msg.key);
      assert(ref != nullptr);
      f.extra_s += ref->recompute_s;
      f.recomputed.push_back(*ref);
      ++stats_.recomputes;
      ++s_.win->recomputes;
      s_.win->recompute_s += ref->recompute_s;
      if (--f.pending_fetches == 0) start_run(worker);
      return;
    }
    case MsgKind::kInvalidate: {
      const auto it = replica_.find(msg.key);
      if (it != replica_.end()) {
        replica_bytes_ -= it->second;
        replica_.erase(it);
        ++stats_.invalidations;
        ++s_.win->invalidations;
      }
      return;
    }
    default:
      assert(false && "message kind not addressed to a node");
      return;
  }
}

void NodeRuntime::try_dispatch() {
  while (!queue_.empty() && !idle_.empty()) {
    maybe_crash();
    if (dead_) return;  // die() already drained the queue
    const std::size_t task = queue_.front();
    queue_.pop_front();
    const int worker = *idle_.begin();
    idle_.erase(idle_.begin());
    Flight& f = flights_[static_cast<std::size_t>(worker)];
    f.task = task;
    f.seized_s = s_.engine->now();
    f.pending_fetches = 0;
    f.extra_s = 0.0;
    f.recomputed.clear();
    for (const ArtifactRef& ref : (*s_.locality)[task].needs) {
      if (replica_.contains(ref.key)) {
        ++stats_.local_hits;
        ++s_.win->local_hits;
        continue;
      }
      ++f.pending_fetches;
      waiting_[ref.key].push_back(worker);
      s_.net->send({.kind = MsgKind::kFetchRequest, .src = id(), .dst = s_.coordinator,
                    .key = ref.key, .artifact_bytes = ref.bytes});
    }
    if (f.pending_fetches == 0) start_run(worker);
  }
}

void NodeRuntime::start_run(int worker) {
  const Flight& f = flights_[static_cast<std::size_t>(worker)];
  const double speed = s_.worker_speed > 0.0 ? s_.worker_speed : 1.0;
  // Same shape as the canonical DES: dispatch overhead, then modeled
  // duration over worker speed -- plus the recompute surcharge for
  // artifacts no replica could serve.
  const double run_s =
      s_.dispatch_overhead_s + ((*s_.duration_s)[f.task] + f.extra_s) / speed;
  s_.engine->schedule_after(run_s, [this, worker] { complete(worker); });
}

void NodeRuntime::complete(int worker) {
  Flight& f = flights_[static_cast<std::size_t>(worker)];
  const double now = s_.engine->now();
  ++stats_.tasks;
  ++completed_;
  stats_.busy_s += now - f.seized_s;
  stats_.finish_s = now;
  if ((*s_.ok)[f.task] && !dead_) {
    for (const ArtifactRef& ref : f.recomputed) insert_artifact(ref, /*exclusive=*/true);
    for (const ArtifactRef& ref : (*s_.locality)[f.task].produces) {
      insert_artifact(ref, /*exclusive=*/true);
    }
  }
  s_.net->send(
      {.kind = MsgKind::kTaskDone, .src = id(), .dst = s_.coordinator, .task = f.task});
  idle_.insert(worker);
  try_dispatch();
}

// Place `ref` here (a re-insert refreshes its bytes) and announce it.
void NodeRuntime::insert_artifact(const ArtifactRef& ref, bool exclusive) {
  double& held = replica_[ref.key];
  replica_bytes_ += ref.bytes - held;
  held = ref.bytes;
  s_.net->send({.kind = exclusive ? MsgKind::kPutNotice : MsgKind::kShareNotice,
                .src = id(),
                .dst = s_.coordinator,
                .key = ref.key});
}

void NodeRuntime::maybe_crash() {
  if (!dead_ && s_.crash && completed_ >= s_.crash_after) die();
}

void NodeRuntime::die() {
  dead_ = true;
  ++stats_.crashes;
  ++s_.win->node_crashes;
  replica_.clear();
  replica_bytes_ = 0.0;
  for (const std::size_t task : queue_) {
    s_.net->send(
        {.kind = MsgKind::kTaskReturn, .src = id(), .dst = s_.coordinator, .task = task});
  }
  queue_.clear();
  s_.net->send({.kind = MsgKind::kNodeDown, .src = id(), .dst = s_.coordinator});
}

}  // namespace sf::dist
