// Adaptive hop-by-hop routing: the paper's section 4.2 deployment mode.
//
// Instead of loose source routes computed once, every depot consumes a
// destination/next-hop route table, and a Rescheduler re-measures the
// network and reinstalls fresh tables on a fixed cadence (the paper used
// 5-minute intervals). Mid-run, a link degrades; the next scheduling round
// routes around it without the sources changing anything.
//
//   $ ./adaptive_routing
#include <cstdio>

#include "exp/harness.hpp"
#include "nws/rescheduler.hpp"
#include "testbed/grid.hpp"

using namespace lsl;
using namespace lsl::time_literals;

int main() {
  // Packet-level 4-host line + shortcut topology.
  exp::SimHarness net(/*seed=*/21);
  const auto src = net.add_host("src.a.edu", "a.edu");
  const auto d1 = net.add_host("depot1.net", "d1.net");
  const auto d2 = net.add_host("depot2.net", "d2.net");
  const auto dst = net.add_host("dst.b.edu", "b.edu");

  net::LinkConfig good;
  good.rate = Bandwidth::mbps(100);
  good.propagation_delay = 8_ms;
  net.add_link(src, d1, good);
  net.add_link(d1, dst, good);
  net.add_link(src, d2, good);
  net.add_link(d2, dst, good);
  net.add_link(src, dst, good);

  session::DepotConfig cfg;
  cfg.tcp = tcp::TcpOptions{}.with_buffers(mib(2));
  net.deploy(cfg);
  auto& topo = net.topology();
  topo.node(src).set_route(dst, topo.link_between(src, dst));
  topo.node(dst).set_route(src, topo.link_between(dst, src));

  // Ground truth the monitor probes: direct path healthy at first.
  double direct_mbps = 60.0;
  const auto truth = [&](std::size_t a, std::size_t b) -> Bandwidth {
    const bool is_direct = (a == src && b == dst) || (a == dst && b == src);
    return Bandwidth::mbps(is_direct ? direct_mbps : 55.0);
  };

  // Rescheduler: one epoch + fresh route tables every 5 minutes.
  std::size_t installs = 0;
  nws::Rescheduler rescheduler(
      net.simulator(),
      nws::PerformanceMonitor({"a.edu", "d1.net", "d2.net", "b.edu"},
                              nws::NoiseModel{.lognormal_sigma = 0.05}, 3),
      truth, SimTime::seconds(300), {.epsilon = 0.15},
      [&](const sched::Scheduler& scheduler, std::size_t /*changed_edges*/) {
        for (std::size_t node = 0; node < net.host_count(); ++node) {
          net.depot(node).set_route_table(scheduler.route_table_for(node));
        }
        ++installs;
        const auto decision = scheduler.route(src, dst);
        std::printf("[t=%8s] schedule #%zu: src->dst %s\n",
                    net.simulator().now().str().c_str(), installs,
                    decision.uses_depots() ? "via depot" : "direct");
      });
  rescheduler.start();

  // The source always hands its sessions to depot1's routing fabric; the
  // tables decide the rest hop by hop.
  const auto send_one = [&](const char* label) {
    session::TransferSpec spec;
    spec.dst = dst;
    spec.via = {d1};
    spec.payload_bytes = mib(8);
    spec.tcp = tcp::TcpOptions{}.with_buffers(mib(2));
    const auto r = net.run_transfer(src, spec,
                                    net.simulator().now() + 600_s);
    std::printf("[t=%8s] %-22s %s in %s (%.1f Mbit/s)\n",
                net.simulator().now().str().c_str(), label,
                format_bytes(r.bytes).c_str(), r.elapsed.str().c_str(),
                r.goodput.megabits_per_second());
  };

  send_one("transfer (healthy)");

  // Degrade the direct path -- physically (heavy loss on the link) and in
  // the monitor's probes; after the next epochs the forecast catches up
  // and the tables flip.
  net.simulator().schedule_at(500_s, [&] {
    direct_mbps = 3.0;
    topo.link_between(src, dst)->set_loss_rate(0.02);
    topo.link_between(dst, src)->set_loss_rate(0.02);
    std::printf("[t=%8s] *** direct path degrades (heavy loss) ***\n",
                net.simulator().now().str().c_str());
  });
  net.simulator().run(2500_s);

  send_one("transfer (rerouted)");
  std::printf("\n%zu scheduling rounds ran; the depots' tables were the only "
              "thing that changed.\n", installs);
  return 0;
}
