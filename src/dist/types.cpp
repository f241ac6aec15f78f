#include "dist/types.hpp"

#include "util/string_util.hpp"

namespace sf::dist {

// Routing policy names, indexed by RoutingPolicy.
constexpr const char* kRoutingNames[] = {"locality", "random"};

const char* routing_policy_name(RoutingPolicy policy) { return enum_name(kRoutingNames, policy); }

bool routing_policy_from_name(const std::string& name, RoutingPolicy& out) {
  return enum_from_name(name, kRoutingNames, out);
}

}  // namespace sf::dist
