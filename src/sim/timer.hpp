// Restartable one-shot timer built on the Simulator.
//
// TCP needs retransmission / persist timers that are armed, re-armed, and
// cancelled constantly; Timer wraps the generation-counted cancellation
// dance so the protocol code can't leak stale events. The callback is fixed
// at construction; arming only chooses the deadline.
//
// Re-arming is lazy. An RTO is pushed later on nearly every ACK, so arm()
// with a deadline at or after the pending wake-up only moves deadline_; the
// wake-up, when it comes, sees the deadline still ahead and re-schedules for
// the remainder. A TCP flow therefore schedules about one RTO event per RTO
// interval rather than one arm/cancel pair per ACK. An earlier deadline
// cancels the wake-up and schedules anew. The callback runs exactly once, at
// the last deadline set.
#pragma once

#include <functional>
#include <utility>

#include "sim/simulator.hpp"

namespace lsl::sim {

class Timer {
 public:
  /// `category` is an optional static-string tag for the kernel profile's
  /// per-category event counts (e.g. "tcp.rto").
  Timer(Simulator& simulator, std::function<void()> on_fire,
        const char* category = nullptr)
      : sim_(simulator), on_fire_(std::move(on_fire)), category_(category) {}

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  ~Timer() { cancel(); }

  /// (Re)arm the timer to fire `delay` from now. A pending arm is replaced.
  void arm(SimTime delay) {
    deadline_ = sim_.now() + delay;
    if (pending_.valid()) {
      if (deadline_ >= wake_) {
        return;  // the pending wake-up re-checks deadline_
      }
      sim_.cancel(pending_);
    }
    schedule(deadline_);
  }

  /// Arm only if not already armed.
  void arm_if_idle(SimTime delay) {
    if (!armed()) {
      arm(delay);
    }
  }

  void cancel() {
    if (pending_.valid()) {
      sim_.cancel(pending_);
      pending_ = EventId{};
    }
  }

  [[nodiscard]] bool armed() const { return pending_.valid(); }

  /// Deadline of the most recent arm (meaningful only while armed()).
  [[nodiscard]] SimTime deadline() const { return deadline_; }

 private:
  void schedule(SimTime when) {
    wake_ = when;
    pending_ = sim_.schedule_at(
        when,
        [this] {
          pending_ = EventId{};
          if (deadline_ > sim_.now()) {
            schedule(deadline_);  // pushed back since this wake-up was set
          } else {
            on_fire_();
          }
        },
        category_);
  }

  Simulator& sim_;
  std::function<void()> on_fire_;
  const char* category_ = nullptr;
  EventId pending_{};
  SimTime deadline_ = SimTime::zero();
  SimTime wake_ = SimTime::zero();  ///< when the pending event fires
};

}  // namespace lsl::sim
