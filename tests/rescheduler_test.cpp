#include <gtest/gtest.h>

#include "nws/rescheduler.hpp"
#include "sim/simulator.hpp"

namespace lsl::nws {
namespace {

using namespace lsl::time_literals;

const std::vector<std::string> kSites{"a.edu", "b.edu", "c.edu"};

TEST(ReschedulerTest, TicksAtEveryInterval) {
  sim::Simulator sim;
  std::size_t callbacks = 0;
  Rescheduler rescheduler(
      sim, PerformanceMonitor(kSites, NoiseModel{}, 1),
      [](std::size_t, std::size_t) { return Bandwidth::mbps(50); },
      SimTime::seconds(300), {.epsilon = 0.1},
      [&](const sched::Scheduler&, std::size_t) { ++callbacks; });
  rescheduler.start();
  sim.run(SimTime::seconds(1501));
  // t=0, 300, 600, 900, 1200, 1500.
  EXPECT_EQ(callbacks, 6u);
  EXPECT_EQ(rescheduler.ticks(), 6u);
  ASSERT_NE(rescheduler.current(), nullptr);
  EXPECT_EQ(rescheduler.current()->matrix().size(), kSites.size());
}

TEST(ReschedulerTest, StopHaltsTheLoop) {
  sim::Simulator sim;
  std::size_t callbacks = 0;
  Rescheduler rescheduler(
      sim, PerformanceMonitor(kSites, NoiseModel{}, 2),
      [](std::size_t, std::size_t) { return Bandwidth::mbps(50); },
      SimTime::seconds(300), {}, [&](const sched::Scheduler&, std::size_t) {
        ++callbacks;
      });
  rescheduler.start();
  sim.run(SimTime::seconds(301));
  rescheduler.stop();
  sim.run(SimTime::seconds(5000));
  EXPECT_EQ(callbacks, 2u);
}

TEST(ReschedulerTest, AdaptsToChangedNetworkConditions) {
  // The a<->c pair starts fast and degrades at t=600s; the rescheduler's
  // decisions must flip from direct to relayed once enough fresh epochs
  // outweigh the history.
  sim::Simulator sim;
  bool degraded = false;
  sim.schedule_at(SimTime::seconds(600), [&] { degraded = true; });

  std::vector<bool> decisions;  // uses_depots per rebuild for a->c
  Rescheduler rescheduler(
      sim, PerformanceMonitor(kSites, NoiseModel{.lognormal_sigma = 0.02},
                              3),
      [&](std::size_t i, std::size_t j) {
        const bool ac = (i == 0 && j == 2) || (i == 2 && j == 0);
        if (ac) {
          return Bandwidth::mbps(degraded ? 4.0 : 60.0);
        }
        return Bandwidth::mbps(60.0);
      },
      SimTime::seconds(300), {.epsilon = 0.1},
      [&](const sched::Scheduler& scheduler, std::size_t) {
        decisions.push_back(scheduler.route(0, 2).uses_depots());
      });
  rescheduler.start();
  sim.run(SimTime::seconds(20'000));
  ASSERT_GE(decisions.size(), 10u);
  EXPECT_FALSE(decisions.front());  // initially direct
  EXPECT_TRUE(decisions.back());    // eventually routes around the damage
}

}  // namespace
}  // namespace lsl::nws
