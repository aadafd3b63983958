#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/action.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace lsl::sim {
namespace {

using namespace lsl::time_literals;

/// The slot index packed into an EventId's low half (see simulator.hpp);
/// lets tests assert that a freed slot really was recycled.
std::uint32_t slot_part(EventId id) {
  return static_cast<std::uint32_t>(id.raw & 0xFFFFFFFFULL);
}

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30_ms, [&] { order.push_back(3); });
  sim.schedule_at(10_ms, [&] { order.push_back(1); });
  sim.schedule_at(20_ms, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30_ms);
}

TEST(SimulatorTest, TieBreaksByScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(5_ms, [&] { order.push_back(1); });
  sim.schedule_at(5_ms, [&] { order.push_back(2); });
  sim.schedule_at(5_ms, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  sim.schedule_at(10_ms, [&] {
    sim.schedule_after(5_ms, [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired, 15_ms);
}

TEST(SimulatorTest, EventsCanScheduleMoreEvents) {
  Simulator sim;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) {
      sim.schedule_after(1_ms, chain);
    }
  };
  sim.schedule_after(1_ms, chain);
  sim.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sim.now(), 100_ms);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(10_ms, [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(SimulatorTest, CancelTwiceReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(10_ms, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventId{}));
  EXPECT_FALSE(sim.cancel(EventId{9999}));
}

TEST(SimulatorTest, RunWithLimitStopsAtLimit) {
  Simulator sim;
  bool late_ran = false;
  sim.schedule_at(10_ms, [] {});
  sim.schedule_at(100_ms, [&] { late_ran = true; });
  const auto executed = sim.run(50_ms);
  EXPECT_EQ(executed, 1u);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(sim.now(), 50_ms);
  // Resuming runs the remaining event.
  sim.run();
  EXPECT_TRUE(late_ran);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1_ms, [&] { ++count; });
  sim.schedule_at(2_ms, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, RequestStopHaltsRun) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1_ms, [&] {
    ++count;
    sim.request_stop();
  });
  sim.schedule_at(2_ms, [&] { ++count; });
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(SimulatorTest, PendingEventsAccountsForCancellation) {
  Simulator sim;
  const EventId a = sim.schedule_at(1_ms, [] {});
  sim.schedule_at(2_ms, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulatorTest, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(SimTime::milliseconds(i + 1), [] {});
  }
  sim.run();
  EXPECT_EQ(sim.events_executed(), 10u);
}

TEST(SimulatorTest, CancelAfterFireReturnsFalse) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(10_ms, [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  // The slot's generation advanced when the event fired.
  EXPECT_FALSE(sim.cancel(id));
}

TEST(SimulatorTest, StaleIdCannotCancelEventOnRecycledSlot) {
  Simulator sim;
  const EventId stale = sim.schedule_at(10_ms, [] {});
  EXPECT_TRUE(sim.cancel(stale));
  // While the dead entry is still in the heap its slot stays out of use.
  const EventId other = sim.schedule_at(30_ms, [] {});
  EXPECT_NE(slot_part(stale), slot_part(other));
  EXPECT_FALSE(sim.cancel(stale));
  // Running past the dead entry drops it and frees the slot, which the next
  // schedule reuses under a new generation.
  sim.run(15_ms);
  bool ran = false;
  const EventId fresh = sim.schedule_at(20_ms, [&] { ran = true; });
  EXPECT_EQ(slot_part(stale), slot_part(fresh));
  EXPECT_FALSE(sim.cancel(stale));  // stale generation: a no-op
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, StaleIdAfterFireCannotCancelRecycledSlot) {
  Simulator sim;
  const EventId stale = sim.schedule_at(1_ms, [] {});
  sim.run();
  bool ran = false;
  const EventId fresh = sim.schedule_at(2_ms, [&] { ran = true; });
  EXPECT_EQ(slot_part(stale), slot_part(fresh));
  EXPECT_FALSE(sim.cancel(stale));
  sim.run();
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, EventCanCancelAnotherDuringDispatch) {
  Simulator sim;
  bool victim_ran = false;
  const EventId victim = sim.schedule_at(20_ms, [&] { victim_ran = true; });
  bool cancelled = false;
  sim.schedule_at(10_ms, [&] { cancelled = sim.cancel(victim); });
  sim.run();
  EXPECT_TRUE(cancelled);
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(SimulatorTest, ReservedSeqFiresWhereItWasReserved) {
  Simulator sim;
  std::vector<char> order;
  const auto push = [&](char c) { return [&order, c] { order.push_back(c); }; };
  // Reservations interleaved with same-timestamp schedules; the reserved
  // events enter the heap last, one of them from inside another event.
  const std::uint64_t first = sim.reserve_seq();
  sim.schedule_at(5_ms, push('a'));
  const std::uint64_t second = sim.reserve_seq();
  sim.schedule_at(5_ms, push('b'));
  const std::uint64_t third = sim.reserve_seq();
  sim.schedule_at(2_ms, [&] { sim.schedule_reserved(5_ms, third, push('T')); });
  sim.schedule_at(1_ms, push('e'));
  sim.schedule_reserved(5_ms, second, push('S'));
  sim.schedule_reserved(5_ms, first, push('F'));
  EXPECT_EQ(sim.pending_events(), 6u);  // reservations are not entries
  sim.run();
  // Exactly the order with every event scheduled at its reservation.
  EXPECT_EQ(order, (std::vector<char>{'e', 'F', 'a', 'S', 'b', 'T'}));
  const KernelProfile profile = sim.profile();
  EXPECT_EQ(profile.events_scheduled, 7u);  // 4 schedules + 3 reservations
  EXPECT_EQ(profile.events_executed, 7u);
  EXPECT_EQ(profile.events_cancelled, 0u);
}

TEST(SimulatorTest, UnscheduledReservedEventReenteredFiresOnce) {
  // The re-entered event reuses the seq of its own dead heap entry; were
  // the cancelled slot recycled at once, the new key would equal the dead
  // one and the entry would be dispatched twice.
  Simulator sim;
  int fired = 0;
  const std::uint64_t seq = sim.reserve_seq();
  const EventId first = sim.schedule_reserved(10_ms, seq, [&] { fired += 100; });
  EXPECT_TRUE(sim.unschedule(first));
  EXPECT_FALSE(sim.unschedule(first));
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.schedule_reserved(10_ms, seq, [&] { ++fired; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 0u);
  const KernelProfile profile = sim.profile();
  EXPECT_EQ(profile.events_scheduled, 1u);
  EXPECT_EQ(profile.events_executed, 1u);
  EXPECT_EQ(profile.events_cancelled, 0u);  // unschedule is not a cancel
}

TEST(SimulatorTest, WithdrawnReservationCountsAsCancelled) {
  Simulator sim;
  sim.set_profiling(true);
  const std::uint64_t seq = sim.reserve_seq("test.lane");
  const EventId id =
      sim.schedule_reserved(10_ms, seq, [] { FAIL(); }, "test.lane");
  EXPECT_TRUE(sim.unschedule(id));
  sim.withdraw_reserved("test.lane");
  EXPECT_EQ(sim.run(), 0u);
  const KernelProfile profile = sim.profile();
  EXPECT_EQ(profile.events_scheduled, 1u);
  EXPECT_EQ(profile.events_cancelled, 1u);
  ASSERT_EQ(profile.category_cancelled.size(), 1u);
  EXPECT_EQ(profile.category_cancelled[0],
            (std::pair<std::string, std::uint64_t>{"test.lane", 1}));
}

TEST(SimulatorTest, HighWaterTracksLiveEventsNotTombstones) {
  Simulator sim;
  const EventId a = sim.schedule_at(1_ms, [] {});
  sim.schedule_at(2_ms, [] {});
  sim.cancel(a);
  // The dead heap entry must not count: replacing a cancelled event keeps
  // the live depth at 2.
  sim.schedule_at(3_ms, [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  const auto profile = sim.profile();
  EXPECT_EQ(profile.queue_high_water, 2u);
  EXPECT_EQ(profile.events_scheduled, 3u);
  EXPECT_EQ(profile.events_cancelled, 1u);
}

TEST(SimulatorTest, ManyCancelledEventsDrainWithoutDispatch) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(sim.schedule_at(SimTime::milliseconds(i + 1), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(sim.cancel(ids[i]));
  }
  EXPECT_EQ(sim.pending_events(), 500u);
  EXPECT_EQ(sim.run(), 500u);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(ActionTest, SmallTriviallyCopyableCaptureStaysInline) {
  struct Small {
    std::uint64_t a, b;
  };
  Small payload{7, 35};
  std::uint64_t out = 0;
  auto fn = [payload, &out] { out = payload.a + payload.b; };
  static_assert(Action::fits_inline<decltype(fn)>());
  Action action(fn);
  Action moved(std::move(action));
  moved();
  EXPECT_EQ(out, 42u);
}

TEST(ActionTest, LargeCaptureFallsBackToHeapAndStillRuns) {
  struct Large {
    unsigned char bytes[Action::kInlineCapacity + 16] = {};
  };
  static_assert(!Action::fits_inline<Large>());
  Large payload;
  payload.bytes[0] = 9;
  int out = 0;
  Action action([payload, &out] { out = payload.bytes[0]; });
  Action moved(std::move(action));
  EXPECT_FALSE(static_cast<bool>(action));
  moved();
  EXPECT_EQ(out, 9);
}

TEST(ActionTest, NonTrivialCaptureDestroysExactlyOnce) {
  auto alive = std::make_shared<int>(1);
  std::weak_ptr<int> watch = alive;
  {
    Action action([keep = std::move(alive)] { (void)*keep; });
    Action moved(std::move(action));
    Action assigned;
    assigned = std::move(moved);
    assigned();
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(TimerTest, FiresAtDeadline) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  Timer t(sim, [&] { fired = sim.now(); });
  t.arm(25_ms);
  EXPECT_TRUE(t.armed());
  sim.run();
  EXPECT_EQ(fired, 25_ms);
  EXPECT_FALSE(t.armed());
}

TEST(TimerTest, RearmReplacesDeadline) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.arm(10_ms);
  t.arm(20_ms);
  sim.run();
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.now(), 20_ms);
}

TEST(TimerTest, CancelStopsFire) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.arm(10_ms);
  t.cancel();
  sim.run();
  EXPECT_EQ(fires, 0);
}

TEST(TimerTest, ArmIfIdleKeepsEarlierDeadline) {
  Simulator sim;
  SimTime fired = SimTime::zero();
  Timer t(sim, [&] { fired = sim.now(); });
  t.arm(10_ms);
  t.arm_if_idle(50_ms);  // ignored: already armed
  sim.run();
  EXPECT_EQ(fired, 10_ms);
}

TEST(TimerTest, CanRearmFromCallback) {
  Simulator sim;
  int fires = 0;
  Timer* tp = nullptr;
  Timer t(sim, [&] {
    if (++fires < 3) {
      tp->arm(5_ms);
    }
  });
  tp = &t;
  t.arm(5_ms);
  sim.run();
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(sim.now(), 15_ms);
}

/// Kernel schedules made by timers tagged "test.timer".
std::uint64_t timer_schedules(const Simulator& sim) {
  for (const auto& [category, count] : sim.profile().category_counts) {
    if (category == "test.timer") {
      return count;
    }
  }
  return 0;
}

TEST(TimerTest, AdvancingRearmsScheduleAtMostTwiceAndFireOnceAtLastDeadline) {
  Simulator sim;
  std::vector<SimTime> fired;
  Timer t(sim, [&] { fired.push_back(sim.now()); }, "test.timer");
  // An RTO-style pattern: re-armed every millisecond, each deadline later
  // than the last, all inside the first wake-up's interval.
  constexpr int kRearms = 50;
  for (int i = 0; i < kRearms; ++i) {
    sim.schedule_at(SimTime::milliseconds(i), [&t] { t.arm(100_ms); });
  }
  sim.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], SimTime::milliseconds(kRearms - 1) + 100_ms);
  EXPECT_LE(timer_schedules(sim), 2u);
  EXPECT_EQ(sim.profile().events_cancelled, 0u);
}

TEST(TimerTest, EarlierDeadlineFiresEarly) {
  Simulator sim;
  std::vector<SimTime> fired;
  Timer t(sim, [&] { fired.push_back(sim.now()); });
  t.arm(50_ms);
  sim.schedule_at(5_ms, [&t] { t.arm(10_ms); });  // deadline 15 ms < 50 ms
  sim.run();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 15_ms);
  EXPECT_EQ(sim.now(), 15_ms);  // the replaced 50 ms wake-up never ran
}

TEST(TimerTest, CancelAfterLazyPushNeverFires) {
  Simulator sim;
  int fires = 0;
  Timer t(sim, [&] { ++fires; });
  t.arm(10_ms);
  sim.schedule_at(5_ms, [&t] { t.arm(20_ms); });  // pushed to 25 ms lazily
  sim.schedule_at(12_ms, [&t] {
    // The 10 ms wake-up has come and gone; the timer is still armed.
    EXPECT_TRUE(t.armed());
    EXPECT_EQ(t.deadline(), 25_ms);
    t.cancel();
  });
  sim.run();
  EXPECT_EQ(fires, 0);
  EXPECT_FALSE(t.armed());
  EXPECT_EQ(sim.now(), 12_ms);
}

TEST(TimerTest, LazyRearmFromCallback) {
  Simulator sim;
  std::vector<SimTime> fired;
  Timer* tp = nullptr;
  Timer t(sim, [&] {
    fired.push_back(sim.now());
    if (fired.size() < 3) {
      tp->arm(5_ms);
      tp->arm(8_ms);  // a lazy push of the wake-up just scheduled
    }
  });
  tp = &t;
  t.arm(5_ms);
  sim.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{5_ms, 13_ms, 21_ms}));
  EXPECT_FALSE(t.armed());
}

TEST(TimerTest, DestructionCancelsPendingEvent) {
  Simulator sim;
  int fires = 0;
  {
    Timer t(sim, [&] { ++fires; });
    t.arm(10_ms);
  }
  sim.run();
  EXPECT_EQ(fires, 0);
}

}  // namespace
}  // namespace lsl::sim
