#include <gtest/gtest.h>

#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace lsl::net {
namespace {

using namespace lsl::time_literals;

Packet make_packet(NodeId src, NodeId dst, std::uint32_t payload,
                   std::uint64_t uid = 0) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.payload_bytes = payload;
  p.uid = uid;
  return p;
}

TEST(PacketTest, WireBytesIncludesOverhead) {
  EXPECT_EQ(make_packet(0, 1, 1460).wire_bytes(), 1500u);
  EXPECT_EQ(make_packet(0, 1, 0).wire_bytes(), kPacketOverheadBytes);
}

TEST(LinkTest, DeliversAfterSerializationPlusPropagation) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(100);
  cfg.propagation_delay = 10_ms;
  Link link(sim, cfg, Rng(1));
  SimTime arrival = SimTime::zero();
  link.set_deliver([&](Packet) { arrival = sim.now(); });
  link.enqueue(make_packet(0, 1, 1460));
  sim.run();
  // 1500B at 100Mbit = 120us serialization + 10ms propagation.
  EXPECT_EQ(arrival, 10_ms + 120_us);
}

TEST(LinkTest, SerializesBackToBack) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(100);
  cfg.propagation_delay = SimTime::zero();
  Link link(sim, cfg, Rng(1));
  std::vector<SimTime> arrivals;
  link.set_deliver([&](Packet) { arrivals.push_back(sim.now()); });
  link.enqueue(make_packet(0, 1, 1460));
  link.enqueue(make_packet(0, 1, 1460));
  sim.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], 120_us);
  EXPECT_EQ(arrivals[1], 240_us);
}

TEST(LinkTest, DropTailWhenQueueFull) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(1);  // slow, so the queue backs up
  cfg.queue_capacity_bytes = 3000;
  Link link(sim, cfg, Rng(1));
  int delivered = 0;
  link.set_deliver([&](Packet) { ++delivered; });
  for (int i = 0; i < 5; ++i) {
    link.enqueue(make_packet(0, 1, 1460));
  }
  sim.run();
  EXPECT_EQ(delivered, 2);  // 2 x 1500B fit in 3000B
  EXPECT_EQ(link.stats().packets_dropped_queue, 3u);
}

TEST(LinkTest, BernoulliLossDropsRoughlyAtRate) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate = Bandwidth::gbps(10);
  cfg.propagation_delay = SimTime::zero();
  cfg.queue_capacity_bytes = 1ULL << 40;
  cfg.loss_rate = 0.1;
  Link link(sim, cfg, Rng(99));
  int delivered = 0;
  link.set_deliver([&](Packet) { ++delivered; });
  constexpr int kPackets = 5000;
  for (int i = 0; i < kPackets; ++i) {
    link.enqueue(make_packet(0, 1, 100));
  }
  sim.run();
  const double loss =
      1.0 - static_cast<double>(delivered) / static_cast<double>(kPackets);
  EXPECT_NEAR(loss, 0.1, 0.02);
  EXPECT_EQ(link.stats().packets_dropped_loss,
            static_cast<std::uint64_t>(kPackets - delivered));
}

TEST(LinkTest, StatsCountBytes) {
  sim::Simulator sim;
  LinkConfig cfg;
  Link link(sim, cfg, Rng(1));
  link.set_deliver([](Packet) {});
  link.enqueue(make_packet(0, 1, 960));
  sim.run();
  EXPECT_EQ(link.stats().packets_sent, 1u);
  EXPECT_EQ(link.stats().bytes_sent, 1000u);
}

// One seeded link driven through every queue transition the packet engine
// relies on: jitter, Bernoulli loss, drop-tail drops, offers at exactly a
// departure instant, a brownout (rate x0.25) set while the queue is full and
// its restore, and a link-down (loss 1.0) set mid-queue and its restore.
// Every offer is logged with its queue outcome, every delivery as (uid,
// arrival ns), and the final LinkStats; the log must match the golden byte
// for byte. All driving events are scheduled before the link schedules
// anything, so at a shared instant they run ahead of the link's own events --
// the order the packet engine sees, where the event that offers a packet was
// scheduled before the departure it coincides with.
TEST(LinkTest, DeliveriesMatchGolden) {
  sim::Simulator sim;
  LinkConfig cfg;
  cfg.rate = Bandwidth::mbps(10);
  cfg.propagation_delay = 5_ms;
  cfg.queue_capacity_bytes = 8 * 1500;
  cfg.loss_rate = 0.05;
  cfg.jitter = 2_ms;
  Link link(sim, cfg, Rng(2024));

  std::string log;
  const auto append = [&log](const char* fmt, ...) {
    char buf[160];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    log += buf;
  };
  link.set_deliver([&](Packet p) {
    append("deliver uid=%llu t=%lld\n", static_cast<unsigned long long>(p.uid),
           static_cast<long long>(sim.now().ns()));
  });
  std::uint64_t next_uid = 0;
  const auto offer = [&](std::uint32_t payload) {
    const std::uint64_t drops = link.stats().packets_dropped_queue;
    link.enqueue(make_packet(0, 1, payload, ++next_uid));
    append("offer uid=%llu t=%lld %s queued=%llu\n",
           static_cast<unsigned long long>(next_uid),
           static_cast<long long>(sim.now().ns()),
           link.stats().packets_dropped_queue == drops ? "queued" : "dropped",
           static_cast<unsigned long long>(link.queued_bytes()));
  };
  const auto burst = [&](SimTime at) {
    sim.schedule_at(at, [&] {
      for (int i = 0; i < 10; ++i) {
        offer(1460);  // 8 of 10 fit an empty queue
      }
    });
  };
  const auto stream = [&](SimTime from, SimTime to, SimTime every) {
    constexpr std::uint32_t kPayloads[] = {1460, 536, 0};
    std::size_t i = 0;
    for (SimTime t = from; t < to; t += every) {
      const std::uint32_t payload = kPayloads[i++ % 3];
      sim.schedule_at(t, [&offer, payload] { offer(payload); });
    }
  };
  const auto log_stats = [&](const char* label) {
    const LinkStats s = link.stats();
    append("%s t=%lld sent=%llu bytes=%llu drop_queue=%llu drop_loss=%llu "
           "max_queue=%llu observed=%llu queued=%llu\n",
           label, static_cast<long long>(sim.now().ns()),
           static_cast<unsigned long long>(s.packets_sent),
           static_cast<unsigned long long>(s.bytes_sent),
           static_cast<unsigned long long>(s.packets_dropped_queue),
           static_cast<unsigned long long>(s.packets_dropped_loss),
           static_cast<unsigned long long>(s.max_queue_bytes),
           static_cast<unsigned long long>(s.queue_bytes_observed),
           static_cast<unsigned long long>(link.queued_bytes()));
  };
  const SimTime tx = cfg.rate.transmit_time(1500);  // 1.2 ms

  // A full queue at t=0; offers at exactly the first two departures, when
  // the departing packet still occupies the queue.
  burst(SimTime::zero());
  sim.schedule_at(tx, [&] { offer(1460); });
  sim.schedule_at(2 * tx, [&] { offer(0); });
  stream(10_ms, 50_ms, 900_us);
  // Brownout at the third packet's start (a departure instant) of a full
  // queue, overloaded by a stream, restored mid-queue.
  burst(58_ms);
  sim.schedule_at(58_ms + 2 * tx, [&] {
    link.set_rate(Bandwidth{cfg.rate.bits_per_second() * 0.25});
  });
  stream(60_ms, 76_ms, 1_ms);
  sim.schedule_at(80_ms, [&] { link.set_rate(cfg.rate); });
  stream(100_ms, 140_ms, 900_us);
  // Link down mid-serialization of a full queue; restored exactly at a
  // departure, which still draws at the restored rate.
  burst(150_ms);
  sim.schedule_at(150_ms + 2 * tx + tx / 2, [&] { link.set_loss_rate(1.0); });
  sim.schedule_at(150_ms + 5 * tx, [&] { link.set_loss_rate(cfg.loss_rate); });
  stream(170_ms, 250_ms, 700_us);
  sim.schedule_at(1_s, [&] { log_stats("probe"); });
  sim.run();
  log_stats("final");

  std::ifstream golden(std::string(LSL_GOLDEN_DIR) + "/link_deliveries.txt");
  ASSERT_TRUE(golden.good()) << "missing tests/golden/link_deliveries.txt";
  std::stringstream expected;
  expected << golden.rdbuf();
  EXPECT_EQ(expected.str(), log);
}

TEST(TopologyTest, DirectDelivery) {
  sim::Simulator sim;
  Topology topo(sim, 7);
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  topo.add_duplex_link(a, b, LinkConfig{});
  topo.compute_routes();
  int delivered = 0;
  topo.node(b).set_local_deliver([&](Packet) { ++delivered; });
  topo.send(make_packet(a, b, 100));
  sim.run();
  EXPECT_EQ(delivered, 1);
}

TEST(TopologyTest, MultiHopForwarding) {
  sim::Simulator sim;
  Topology topo(sim, 7);
  const NodeId a = topo.add_node("a");
  const NodeId r = topo.add_node("router");
  const NodeId b = topo.add_node("b");
  LinkConfig cfg;
  cfg.propagation_delay = 5_ms;
  topo.add_duplex_link(a, r, cfg);
  topo.add_duplex_link(r, b, cfg);
  topo.compute_routes();
  SimTime arrival = SimTime::zero();
  topo.node(b).set_local_deliver([&](Packet) { arrival = sim.now(); });
  topo.send(make_packet(a, b, 0));
  sim.run();
  EXPECT_GT(arrival, 10_ms);  // two propagation hops
  EXPECT_EQ(topo.node(r).packets_forwarded(), 1u);
}

TEST(TopologyTest, ShortestDelayPathChosen) {
  sim::Simulator sim;
  Topology topo(sim, 7);
  const NodeId a = topo.add_node("a");
  const NodeId slow = topo.add_node("slow");
  const NodeId fast = topo.add_node("fast");
  const NodeId b = topo.add_node("b");
  LinkConfig slow_cfg;
  slow_cfg.propagation_delay = 50_ms;
  LinkConfig fast_cfg;
  fast_cfg.propagation_delay = 5_ms;
  topo.add_duplex_link(a, slow, slow_cfg);
  topo.add_duplex_link(slow, b, slow_cfg);
  topo.add_duplex_link(a, fast, fast_cfg);
  topo.add_duplex_link(fast, b, fast_cfg);
  topo.compute_routes();
  topo.node(b).set_local_deliver([](Packet) {});
  topo.send(make_packet(a, b, 0));
  sim.run();
  EXPECT_EQ(topo.node(fast).packets_forwarded(), 1u);
  EXPECT_EQ(topo.node(slow).packets_forwarded(), 0u);
}

TEST(TopologyTest, ExplicitRouteOverride) {
  sim::Simulator sim;
  Topology topo(sim, 7);
  const NodeId a = topo.add_node("a");
  const NodeId r1 = topo.add_node("r1");
  const NodeId r2 = topo.add_node("r2");
  const NodeId b = topo.add_node("b");
  LinkConfig cfg;
  topo.add_duplex_link(a, r1, cfg);
  topo.add_duplex_link(r1, b, cfg);
  topo.add_duplex_link(a, r2, cfg);
  topo.add_duplex_link(r2, b, cfg);
  topo.compute_routes();
  // Pin a->b through r2 regardless of what Dijkstra chose.
  topo.node(a).set_route(b, topo.link_between(a, r2));
  topo.node(b).set_local_deliver([](Packet) {});
  topo.send(make_packet(a, b, 0));
  sim.run();
  EXPECT_EQ(topo.node(r2).packets_forwarded(), 1u);
}

TEST(TopologyTest, FindByName) {
  sim::Simulator sim;
  Topology topo(sim, 7);
  topo.add_node("ash.ucsb.edu", "ucsb.edu");
  const NodeId b = topo.add_node("bell.uiuc.edu", "uiuc.edu");
  EXPECT_EQ(topo.find("bell.uiuc.edu"), b);
  EXPECT_EQ(topo.node(b).site(), "uiuc.edu");
}

TEST(TopologyTest, LinkBetweenReturnsNullWhenNotAdjacent) {
  sim::Simulator sim;
  Topology topo(sim, 7);
  const NodeId a = topo.add_node("a");
  const NodeId b = topo.add_node("b");
  const NodeId c = topo.add_node("c");
  topo.add_duplex_link(a, b, LinkConfig{});
  EXPECT_NE(topo.link_between(a, b), nullptr);
  EXPECT_EQ(topo.link_between(a, c), nullptr);
}

}  // namespace
}  // namespace lsl::net
