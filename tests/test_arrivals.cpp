// The arrival stream is part of a campaign's reproducible identity:
// regenerating it must yield the same bytes, regardless of how much
// concurrency the consumer later uses (the generator never sees worker
// counts at all -- these tests pin that property down).
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "sim/arrivals.hpp"
#include "util/string_util.hpp"

namespace sf {
namespace {

// One line per event with %.17g times: the byte stream the determinism
// cases compare.
std::string format_arrivals(const std::vector<ArrivalEvent>& events) {
  std::string out;
  for (const auto& ev : events) {
    out += format("%d %.17g %zu %zu\n", ev.request_id, ev.time_s, ev.tenant, ev.record);
  }
  return out;
}

ArrivalProcessParams three_tenant_params() {
  ArrivalProcessParams p;
  p.requests = 200;
  p.mean_interarrival_s = 45.0;
  p.seed = 17;
  p.tenants = {
      {"genomics", 3.0, 0.5, 4},
      {"screening", 1.0, 0.0, 0},
      {"refolding", 2.0, 0.25, 2},
  };
  return p;
}

TEST(Arrivals, RegenerationIsByteIdentical) {
  const auto params = three_tenant_params();
  const auto a = generate_arrivals(params, 64);
  const auto b = generate_arrivals(params, 64);
  EXPECT_EQ(format_arrivals(a), format_arrivals(b));
  EXPECT_EQ(arrivals_fingerprint(a), arrivals_fingerprint(b));
}

TEST(Arrivals, ByteIdenticalAcrossConcurrentGeneration) {
  // Generate the same stream from several threads at once; every copy
  // must match the serial reference byte for byte.
  const auto params = three_tenant_params();
  const std::string reference = format_arrivals(generate_arrivals(params, 64));
  std::vector<std::string> results(8);
  std::vector<std::thread> threads;
  threads.reserve(results.size());
  for (auto& slot : results) {
    threads.emplace_back(
        [&params, &slot] { slot = format_arrivals(generate_arrivals(params, 64)); });
  }
  for (auto& t : threads) t.join();
  for (const auto& r : results) EXPECT_EQ(r, reference);
}

TEST(Arrivals, TimesAreMonotoneAndTenantsWeighted) {
  const auto params = three_tenant_params();
  const auto events = generate_arrivals(params, 64);
  ASSERT_EQ(events.size(), 200u);
  std::vector<int> per_tenant(3, 0);
  double prev = 0.0;
  for (const auto& ev : events) {
    EXPECT_GE(ev.time_s, prev);
    prev = ev.time_s;
    ASSERT_LT(ev.tenant, 3u);
    ASSERT_LT(ev.record, 64u);
    // Tenant slices never overlap: record % 3 identifies the owner.
    EXPECT_EQ(ev.record % 3, ev.tenant);
    ++per_tenant[ev.tenant];
  }
  // 3:1:2 weights; the heavy tenant must dominate the light one.
  EXPECT_GT(per_tenant[0], per_tenant[1]);
  EXPECT_GT(per_tenant[2], per_tenant[1]);
}

TEST(Arrivals, HotSetConcentratesRepeats) {
  ArrivalProcessParams p;
  p.requests = 400;
  p.mean_interarrival_s = 10.0;
  p.seed = 5;
  p.tenants = {{"hot", 1.0, 0.9, 2}};
  const auto events = generate_arrivals(p, 60);
  std::set<std::size_t> distinct;
  for (const auto& ev : events) distinct.insert(ev.record);
  // 400 draws at 90% hot traffic over a 2-record hot set touch far fewer
  // distinct records than the 60-record subset.
  EXPECT_LT(distinct.size(), 30u);
  EXPECT_GE(distinct.size(), 2u);
}

TEST(Arrivals, DegenerateStreamIsTheBatch) {
  const auto events = degenerate_arrivals(5);
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t r = 0; r < events.size(); ++r) {
    EXPECT_EQ(events[r].time_s, 0.0);
    EXPECT_EQ(events[r].record, r);
    EXPECT_EQ(events[r].tenant, 0u);
    EXPECT_EQ(events[r].request_id, static_cast<int>(r));
  }
}

TEST(Arrivals, FingerprintSeesOrderAndContent) {
  const auto params = three_tenant_params();
  auto events = generate_arrivals(params, 64);
  const std::uint64_t fp = arrivals_fingerprint(events);
  std::swap(events[0], events[1]);
  EXPECT_NE(arrivals_fingerprint(events), fp);
  std::swap(events[0], events[1]);
  events[5].record = (events[5].record + 3) % 64;
  EXPECT_NE(arrivals_fingerprint(events), fp);
}

}  // namespace
}  // namespace sf
