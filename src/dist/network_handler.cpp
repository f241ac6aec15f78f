#include "dist/network_handler.hpp"

#include <cassert>

namespace sf::dist {

void NetworkHandler::begin_round(SimEngine* engine, int endpoints, WindowStats* win) {
  engine_ = engine;
  endpoints_ = endpoints;
  win_ = win;
  endpoints_by_id_.assign(static_cast<std::size_t>(endpoints), nullptr);
}

void NetworkHandler::connect(int id, Endpoint* endpoint) {
  endpoints_by_id_[static_cast<std::size_t>(id)] = endpoint;
}

int NetworkHandler::hops(int from, int to) const { return model_.hops(from, to, endpoints_); }

void NetworkHandler::send(const Message& msg) {
  assert(engine_ != nullptr);
  const double seconds = model_.message_seconds(msg.src, msg.dst, endpoints_, msg.bytes);
  ++win_->messages;
  win_->message_bytes += msg.bytes;
  win_->network_s += seconds;
  engine_->schedule_after(seconds, [this, msg] {
    Endpoint* ep = endpoints_by_id_[static_cast<std::size_t>(msg.dst)];
    assert(ep != nullptr);
    ep->inbox().push(msg);
    ep->drain();
  });
}

}  // namespace sf::dist
