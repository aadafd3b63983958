#include "net/topology.hpp"

#include <limits>
#include <queue>
#include <utility>

#include "flow/fluid.hpp"
#include "util/assert.hpp"

namespace lsl::net {

Topology::Topology(sim::Simulator& simulator, std::uint64_t seed)
    : sim_(simulator), link_rng_(seed) {}

Topology::~Topology() = default;

NodeId Topology::add_node(std::string name, std::string site) {
  const auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::make_unique<Node>(id, std::move(name), std::move(site)));
  adjacency_.emplace_back();
  return id;
}

std::size_t Topology::add_link(NodeId a, NodeId b, const LinkConfig& config) {
  LSL_ASSERT(a < nodes_.size() && b < nodes_.size() && a != b);
  const std::size_t index = links_.size();
  links_.push_back(
      std::make_unique<Link>(sim_, config, link_rng_.fork(index + 1)));
  Link* link = links_.back().get();
  Node* receiver = nodes_[b].get();
  link->set_deliver(
      [receiver](Packet&& p) { receiver->handle_packet(std::move(p)); });
  adjacency_[a].push_back(Edge{b, link});
  if (fluid_ != nullptr) {
    const auto fid =
        fluid_->add_link(link->fluid_capacity_bps(), config.loss_rate);
    link->bind_fluid(fluid_.get(), fid);
  }
  return index;
}

std::size_t Topology::add_duplex_link(NodeId a, NodeId b,
                                      const LinkConfig& config) {
  const std::size_t forward = add_link(a, b, config);
  add_link(b, a, config);
  return forward;
}

void Topology::compute_routes() {
  const std::size_t n = nodes_.size();
  for (NodeId source = 0; source < n; ++source) {
    // Dijkstra over propagation delay from `source`.
    std::vector<std::int64_t> dist(n, std::numeric_limits<std::int64_t>::max());
    std::vector<Link*> first_hop(n, nullptr);
    using Item = std::pair<std::int64_t, NodeId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[source] = 0;
    heap.emplace(0, source);
    while (!heap.empty()) {
      const auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) {
        continue;
      }
      for (const Edge& e : adjacency_[u]) {
        const std::int64_t nd = d + e.link->config().propagation_delay.ns();
        if (nd < dist[e.to]) {
          dist[e.to] = nd;
          first_hop[e.to] = (u == source) ? e.link : first_hop[u];
          heap.emplace(nd, e.to);
        }
      }
    }
    for (NodeId dst = 0; dst < n; ++dst) {
      if (dst != source && first_hop[dst] != nullptr) {
        nodes_[source]->set_route(dst, first_hop[dst]);
      }
    }
  }
  // Intermediate nodes also need routes, which the per-source pass above
  // already provides because it runs from every node.
}

Node& Topology::node(NodeId id) {
  LSL_ASSERT(id < nodes_.size());
  return *nodes_[id];
}

const Node& Topology::node(NodeId id) const {
  LSL_ASSERT(id < nodes_.size());
  return *nodes_[id];
}

Link* Topology::link_between(NodeId a, NodeId b) {
  LSL_ASSERT(a < nodes_.size() && b < nodes_.size());
  for (const Edge& e : adjacency_[a]) {
    if (e.to == b) {
      return e.link;
    }
  }
  return nullptr;
}

NodeId Topology::find(const std::string& name) const {
  for (const auto& node : nodes_) {
    if (node->name() == name) {
      return node->id();
    }
  }
  LSL_ASSERT_MSG(false, "node name not found");
  return kInvalidNode;
}

void Topology::enable_fluid() {
  if (fluid_ != nullptr) {
    return;
  }
  fluid_ = std::make_unique<flow::FluidNetwork>(sim_);
  for (const auto& link : links_) {
    const auto fid = fluid_->add_link(link->fluid_capacity_bps(),
                                      link->config().loss_rate);
    link->bind_fluid(fluid_.get(), fid);
  }
}

void Topology::set_protocol_handle(NodeId id, ProtocolStack* stack) {
  LSL_ASSERT(id < nodes_.size());
  if (protocol_handles_.size() < nodes_.size()) {
    protocol_handles_.resize(nodes_.size(), nullptr);
  }
  protocol_handles_[id] = stack;
}

ProtocolStack* Topology::protocol_handle(NodeId id) const {
  if (id >= protocol_handles_.size()) {
    return nullptr;
  }
  return protocol_handles_[id];
}

Topology::FluidPathInfo Topology::fluid_path(NodeId src, NodeId dst) const {
  FluidPathInfo info;
  if (fluid_ == nullptr || src >= nodes_.size() || dst >= nodes_.size()) {
    return info;
  }
  if (src == dst) {
    info.found = true;
    return info;
  }
  constexpr std::uint64_t kMtuBytes = 1500;
  NodeId cur = src;
  while (cur != dst) {
    Link* out = nodes_[cur]->route_for(dst);
    if (out == nullptr) {
      return FluidPathInfo{};
    }
    NodeId next = kInvalidNode;
    for (const Edge& e : adjacency_[cur]) {
      if (e.link == out) {
        next = e.to;
        break;
      }
    }
    if (next == kInvalidNode || info.links.size() >= nodes_.size()) {
      return FluidPathInfo{};  // broken table or routing loop
    }
    info.links.push_back(out->fluid_link_id());
    info.latency += out->config().propagation_delay;
    info.serialization += out->config().rate.transmit_time(kMtuBytes);
    cur = next;
  }
  info.found = true;
  return info;
}

void Topology::send(Packet packet) {
  LSL_ASSERT(packet.src < nodes_.size() && packet.dst < nodes_.size());
  if (packet.dst == packet.src) {
    // Loopback: deliver through the event loop, never synchronously --
    // otherwise a self-connection's whole handshake would complete inside
    // the caller's connect() before it can install callbacks.
    Node* node = nodes_[packet.src].get();
    sim_.schedule_after(
        SimTime::zero(),
        [node, p = std::move(packet)]() mutable {
          node->handle_packet(std::move(p));
        },
        "net.loopback");
    return;
  }
  nodes_[packet.src]->handle_packet(std::move(packet));
}

}  // namespace lsl::net
