// Deterministic arrival-process traffic generator.
//
// The paper's campaign is batch-shaped: the whole proteome is known up
// front. A production service is not -- requests arrive over time, from
// several tenants, with heavy repeat traffic on popular targets (the
// APACE "AlphaFold as a service" regime). This module synthesizes that
// traffic deterministically: Poisson-like inter-arrivals drawn from
// util/rng, tenants picked by weight, and each tenant submitting from
// its own slice of the proteome with a small "hot set" of records it
// re-submits at a configurable rate. The same (params, num_records)
// always yields the same stream, byte for byte -- arrival traces are part
// of a campaign's reproducible identity, not an external input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sf {

struct TenantSpec {
  std::string name;
  double weight = 1.0;        // arrival share and fair-share weight
  double hot_fraction = 0.0;  // probability a request re-submits from the hot set
  int hot_set_size = 4;       // distinct records kept hot per tenant
};

// One request: `record` indexes the campaign's record vector, `tenant`
// indexes the params' tenant list. Events are emitted in non-decreasing
// time order; `request_id` is the arrival rank.
struct ArrivalEvent {
  double time_s = 0.0;
  int request_id = 0;
  std::size_t tenant = 0;
  std::size_t record = 0;
};

struct ArrivalProcessParams {
  int requests = 0;                  // number of arrival events to emit
  double mean_interarrival_s = 30.0; // exponential inter-arrival mean
  std::uint64_t seed = 7;
  std::vector<TenantSpec> tenants;   // empty -> one anonymous tenant
};

// Synthesize the stream. Tenant t draws from the record subset
// { r : r % num_tenants == t } (every tenant owns a proteome slice);
// hot sets are drawn per tenant from that subset. Deterministic in
// (params, num_records) and independent of any execution concurrency.
std::vector<ArrivalEvent> generate_arrivals(const ArrivalProcessParams& params,
                                            std::size_t num_records);

// The degenerate stream the batch pipeline is equivalent to: every
// record arrives exactly once, at t=0, from a single tenant, in record
// order.
std::vector<ArrivalEvent> degenerate_arrivals(std::size_t num_records);

// Order-sensitive 64-bit digest of a stream; mixed into the journal
// fingerprint so a journal can only resume the campaign it belongs to.
std::uint64_t arrivals_fingerprint(const std::vector<ArrivalEvent>& events);

}  // namespace sf
