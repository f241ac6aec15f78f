#include "sim/arrivals.hpp"

#include <algorithm>

#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace sf {

namespace {

// Records owned by tenant t: the t-th residue-class slice of the
// proteome. Stable under record-count growth at the tail, which is what
// a tenant's "own proteome subset" should be.
std::vector<std::size_t> tenant_subset(std::size_t tenant, std::size_t num_tenants,
                                       std::size_t num_records) {
  std::vector<std::size_t> subset;
  for (std::size_t r = tenant; r < num_records; r += num_tenants) subset.push_back(r);
  return subset;
}

}  // namespace

std::vector<ArrivalEvent> generate_arrivals(const ArrivalProcessParams& params,
                                            std::size_t num_records) {
  std::vector<ArrivalEvent> events;
  if (params.requests <= 0 || num_records == 0) return events;
  events.reserve(static_cast<std::size_t>(params.requests));

  // Default tenant when none are configured: all traffic, no hot set.
  std::vector<TenantSpec> tenants = params.tenants;
  if (tenants.empty()) tenants.push_back({"default", 1.0, 0.0, 0});
  const std::size_t nt = tenants.size();

  Rng rng(params.seed, 0xA221);

  // Per-tenant proteome slices and hot sets, drawn before the arrival
  // walk so stream identity never depends on arrival order.
  std::vector<std::vector<std::size_t>> subsets(nt);
  std::vector<std::vector<std::size_t>> hot(nt);
  std::vector<double> weights(nt);
  for (std::size_t t = 0; t < nt; ++t) {
    subsets[t] = tenant_subset(t, nt, num_records);
    weights[t] = std::max(0.0, tenants[t].weight);
    Rng hot_rng = rng.split(mix64(0x407, static_cast<std::uint64_t>(t)));
    std::vector<std::size_t> pool = subsets[t];
    hot_rng.shuffle(pool);
    const std::size_t hs = std::min<std::size_t>(
        pool.size(), static_cast<std::size_t>(std::max(0, tenants[t].hot_set_size)));
    hot[t].assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(hs));
  }

  const double rate = params.mean_interarrival_s > 0.0 ? 1.0 / params.mean_interarrival_s : 0.0;
  double clock = 0.0;
  for (int i = 0; i < params.requests; ++i) {
    if (rate > 0.0) clock += rng.exponential(rate);
    ArrivalEvent ev;
    ev.time_s = clock;
    ev.request_id = i;
    ev.tenant = rng.weighted_index(weights);
    const TenantSpec& spec = tenants[ev.tenant];
    const auto& subset = subsets[ev.tenant];
    const auto& hotset = hot[ev.tenant];
    if (!hotset.empty() && rng.chance(spec.hot_fraction)) {
      ev.record = hotset[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hotset.size()) - 1))];
    } else if (!subset.empty()) {
      ev.record = subset[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(subset.size()) - 1))];
    } else {
      ev.record = ev.tenant % num_records;
    }
    events.push_back(ev);
  }
  return events;
}

std::vector<ArrivalEvent> degenerate_arrivals(std::size_t num_records) {
  std::vector<ArrivalEvent> events;
  events.reserve(num_records);
  for (std::size_t r = 0; r < num_records; ++r) {
    ArrivalEvent ev;
    ev.time_s = 0.0;
    ev.request_id = static_cast<int>(r);
    ev.tenant = 0;
    ev.record = r;
    events.push_back(ev);
  }
  return events;
}

std::uint64_t arrivals_fingerprint(const std::vector<ArrivalEvent>& events) {
  std::uint64_t fp = 0xA221A221A221A221ULL;
  for (const auto& ev : events) {
    fp = mix64(fp, static_cast<std::uint64_t>(ev.request_id));
    fp = mix64(fp, stable_hash64(format("%.17g", ev.time_s)));
    fp = mix64(fp, static_cast<std::uint64_t>(ev.tenant));
    fp = mix64(fp, static_cast<std::uint64_t>(ev.record));
  }
  return fp;
}

}  // namespace sf
