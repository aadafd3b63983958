#include "net/node.hpp"

#include <utility>

#include "util/assert.hpp"

namespace lsl::net {

void Node::set_route(NodeId dst, Link* out) {
  LSL_ASSERT(out != nullptr);
  routes_[dst] = out;
}

Link* Node::route_for(NodeId dst) const {
  const auto it = routes_.find(dst);
  return it != routes_.end() ? it->second : nullptr;
}

void Node::handle_packet(Packet&& packet) {
  if (packet.dst == id_) {
    ++packets_delivered_;
    LSL_ASSERT_MSG(static_cast<bool>(local_),
                   "packet addressed to node without a protocol stack");
    local_(std::move(packet));
    return;
  }
  Link* out = route_for(packet.dst);
  if (out == nullptr) {
    ++packets_unroutable_;
    return;
  }
  ++packets_forwarded_;
  out->enqueue(std::move(packet));
}

}  // namespace lsl::net
