// Periodic re-scheduling (paper section 4.2: "the scheduler was re-run at
// 5 minute intervals and was based on relatively current information").
//
// The Rescheduler owns the measure -> matrix -> schedule loop: on every
// tick it takes one measurement epoch and diff-applies the accumulated
// forecasts onto its one live scheduler. An unchanged edge costs one
// compare, and a cached MMP tree is rebuilt on its next use only if the
// matrix moved. It then hands the scheduler to its one consumer -- a
// route-table installer, a sched::RouteAdvisor, a sched::RouteService --
// through the constructor callback.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

#include "nws/monitor.hpp"
#include "sched/scheduler.hpp"
#include "sim/timer.hpp"

namespace lsl::nws {

class Rescheduler {
 public:
  /// Invoked after every tick with the refreshed scheduler and how many
  /// directed edges the tick moved (0 on the first tick, which builds it).
  using OnSchedule =
      std::function<void(const sched::Scheduler&, std::size_t changed_edges)>;

  Rescheduler(sim::Simulator& simulator, PerformanceMonitor monitor,
              TruthFn truth, SimTime interval,
              sched::SchedulerOptions options, OnSchedule on_schedule);

  Rescheduler(const Rescheduler&) = delete;
  Rescheduler& operator=(const Rescheduler&) = delete;

  /// Take the first measurement epoch and start the periodic loop.
  void start();
  void stop();

  /// The live scheduler; null before the first tick.
  [[nodiscard]] const sched::Scheduler* current() const { return current_.get(); }
  /// Ticks taken so far, the first (which builds the scheduler) included.
  [[nodiscard]] std::size_t ticks() const { return ticks_; }

  /// The owned monitor (fault injection flips its measurement blackout).
  [[nodiscard]] PerformanceMonitor& monitor() { return monitor_; }

 private:
  void tick();

  sim::Simulator& sim_;
  PerformanceMonitor monitor_;
  TruthFn truth_;
  SimTime interval_;
  sched::SchedulerOptions options_;
  OnSchedule on_schedule_;
  std::unique_ptr<sched::Scheduler> current_;
  sim::Timer timer_;
  std::size_t ticks_ = 0;
};

}  // namespace lsl::nws
