// control_plane: the NWS -> MMP rescheduling loop on a ~256-host pool from
// scaled_planetlab_config, scheduled with the grid's calibrated sweep
// epsilon as `lslsim --pool-size` does. Set-up runs the initial monitor
// epochs, builds the matrix and prebuilds a one-shard sched::RouteService.
// Each op is one tick: PerformanceMonitor::observe_epoch -> build_matrix ->
// RouteService::apply_matrix (which publishes a new snapshot when edges
// moved) are the writes. The reads follow the analytic pool sweep
// (testbed::run_sweep), which after every schedule looks up each eligible
// pair once and times the depot-routed pairs it found:
//   * every cross-site ordered pair, in a seeded order, through
//     lookup_batch in batches of 256 (bench/micro_route_service's batch);
//   * SweepConfig::max_cases (400) seeded depot-routed pairs, each resolved
//     and timed analytically (flow::relay_transfer_time) at one seeded
//     sweep size, 2^n MiB for n < SweepConfig::max_size_exp. The sweep
//     times every case at every size over several iterations; one timing
//     per case per tick keeps the writes the bulk of a tick.
// No simulation kernel runs here.
#include <algorithm>
#include <span>

#include "bench.hpp"
#include "flow/path_model.hpp"
#include "nws/monitor.hpp"
#include "obs/metrics.hpp"
#include "sched/route_service.hpp"
#include "sched/scheduler.hpp"
#include "testbed/grid.hpp"
#include "testbed/sweep.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lslbench {
namespace {

using lsl::sched::RouteAnswer;
using lsl::sched::RouteQuery;

constexpr std::size_t kPoolHosts = 256;
constexpr std::uint64_t kGridSeed = 2004;  ///< fixed pool, as lslsim uses
/// Pre-generated tick inputs; ticks cycle through them.
constexpr std::size_t kTickInputs = 64;
constexpr std::size_t kBatch = 256;   ///< queries per lookup_batch call
constexpr std::size_t kChecks = 8;    ///< answers checked per tick

struct AnalyticCase {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t bytes = 0;
  std::uint64_t seed = 0;  ///< realization noise for relay_params
};

struct TickInput {
  std::vector<AnalyticCase> cases;
  std::vector<std::size_t> checks;  ///< indices into the queries
};

class ControlPlane final : public Workload {
 public:
  explicit ControlPlane(WorkloadArgs args) : args_(std::move(args)) {}

  void setup() override {
    const lsl::testbed::SweepConfig sweep;
    grid_ = std::make_unique<lsl::testbed::SyntheticGrid>(
        lsl::testbed::SyntheticGrid::planetlab(
            lsl::testbed::scaled_planetlab_config(kPoolHosts), kGridSeed));
    const std::size_t n = grid_->size();
    lsl::Rng rng(args_.seed);
    monitor_ = std::make_unique<lsl::nws::PerformanceMonitor>(
        grid_->sites(), lsl::nws::NoiseModel{}, rng.fork(1).next_u64());
    truth_ = grid_->truth();
    for (std::size_t e = 0; e < sweep.monitor_epochs; ++e) {
      monitor_->observe_epoch(truth_);
    }
    options_ = {};
    options_.epsilon = grid_->noise().sweep_epsilon;
    lsl::sched::RouteServiceOptions service_options;
    service_options.shards = 1;
    service_options.scheduler = options_;
    service_options.prebuild_jobs = 1;
    const auto t0 = Clock::now();
    service_ = std::make_unique<lsl::sched::RouteService>(
        monitor_->build_matrix(), service_options);
    prebuild_s_.push_back(seconds_between(t0, Clock::now()));

    // The sweep's eligible pairs: ordered, on different sites.
    lsl::Rng input_rng = rng.fork(2);
    queries_.clear();
    for (std::uint32_t src = 0; src < n; ++src) {
      for (std::uint32_t dst = 0; dst < n; ++dst) {
        if (grid_->host(src).site != grid_->host(dst).site) {
          queries_.push_back({src, dst});
        }
      }
    }
    input_rng.shuffle(queries_);
    answers_.assign(queries_.size(), {});

    // Depot-routed pairs of the first schedule: the analytic sample draws
    // from these (a later tick may route some of them directly again).
    service_->lookup_batch(queries_, answers_);
    std::vector<RouteQuery> relayed;
    for (std::size_t k = 0; k < queries_.size(); ++k) {
      if (answers_[k].relayed != 0) {
        relayed.push_back(queries_[k]);
      }
    }
    if (relayed.empty()) {
      relayed = queries_;
    }

    ticks_.assign(kTickInputs, {});
    for (TickInput& tick : ticks_) {
      for (std::size_t c = 0; c < sweep.max_cases; ++c) {
        const RouteQuery& pair = relayed[input_rng.pick_index(relayed.size())];
        const auto exp = input_rng.pick_index(
            static_cast<std::size_t>(sweep.max_size_exp));
        tick.cases.push_back(
            {pair.src, pair.dst, lsl::mib(1) << exp, input_rng.next_u64()});
      }
      for (std::size_t c = 0; c < kChecks; ++c) {
        tick.checks.push_back(input_rng.pick_index(queries_.size()));
      }
    }
    times_.assign(sweep.max_cases, lsl::SimTime::zero());
  }

  [[nodiscard]] std::size_t repeat_period() const override { return 0; }
  [[nodiscard]] std::size_t digest_ops() const override { return 8; }

  OpResult run_op(std::size_t i, Tracer* tracer) override {
    const TickInput& tick = ticks_[i % ticks_.size()];
    {
      Span span(tracer, "nws.observe_epoch");
      monitor_->observe_epoch(truth_);
    }
    {
      Span span(tracer, "nws.build_matrix");
      fresh_ = monitor_->build_matrix();
    }
    {
      Span span(tracer, "sched.apply_matrix");
      changed_ = service_->apply_matrix(fresh_);
    }
    for (std::size_t k = 0; k < queries_.size(); k += kBatch) {
      const std::size_t size = std::min(kBatch, queries_.size() - k);
      Span span(tracer, "sched.lookup_batch");
      service_->lookup_batch(
          std::span<const RouteQuery>(queries_).subspan(k, size),
          std::span<RouteAnswer>(answers_).subspan(k, size));
    }
    for (std::size_t c = 0; c < tick.cases.size(); ++c) {
      const AnalyticCase& ac = tick.cases[c];
      lsl::sched::ResolvedRoute route;
      {
        Span span(tracer, "sched.resolve");
        route = service_->resolve(ac.src, ac.dst);
      }
      if (route.path.size() < 2) {
        times_[c] = lsl::SimTime::zero();
        continue;
      }
      lsl::Rng trial(ac.seed);
      std::vector<lsl::flow::ConnectionParams> hops;
      {
        Span span(tracer, "testbed.relay_params");
        hops = grid_->relay_params(route.path, ac.bytes, trial);
      }
      Span span(tracer, "flow.relay_transfer_time");
      lsl::flow::RelayPathParams path;
      path.hops = hops;
      times_[c] = lsl::flow::relay_transfer_time(path, ac.bytes);
    }
    return {};
  }

  void check_op(std::size_t i, OpResult& result) override {
    const TickInput& tick = ticks_[i % ticks_.size()];
    mix(result.digest, changed_);
    mix(result.digest, service_->epoch());
    for (const RouteAnswer& a : answers_) {
      mix_double(result.digest, a.cost);
      mix(result.digest, (std::uint64_t{a.next_hop} << 32U) | a.relayed);
    }
    for (std::size_t c = 0; c < tick.cases.size(); ++c) {
      mix(result.digest, static_cast<std::uint64_t>(times_[c].ns()));
      if (times_[c] <= lsl::SimTime::zero()) {
        result.fail("analytic case " + std::to_string(c) + " has no route");
      } else {
        result.payload_bytes += tick.cases[c].bytes;
      }
    }
    // A seeded sample of this tick's answers must equal a fresh
    // Scheduler::route on the same matrix. The reference's own
    // instrumentation goes to a scratch registry so it cannot pollute the
    // traced counters.
    lsl::obs::Registry scratch;
    const lsl::obs::ScopedRegistry guard(scratch);
    const lsl::sched::Scheduler reference(fresh_, options_);
    for (const std::size_t k : tick.checks) {
      const RouteQuery& q = queries_[k];
      const RouteAnswer& got = answers_[k];
      const lsl::sched::Scheduler::Decision want =
          reference.route(q.src, q.dst);
      const bool same =
          want.path.size() >= 2
              ? got.next_hop == want.path[1] &&
                    (got.relayed != 0) == want.uses_depots() &&
                    got.cost == want.scheduled_cost
              : got.next_hop == lsl::sched::kNoRoute;
      if (!same ||
          service_->resolve(q.src, q.dst).path != want.path) {
        result.fail("route " + std::to_string(q.src) + "->" +
                    std::to_string(q.dst) +
                    " differs from Scheduler::route");
        break;
      }
    }
    if (traced_) {
      counts_.changed_edges += changed_;
      counts_.queries += queries_.size();
    }
  }

 private:
  WorkloadArgs args_;
  std::unique_ptr<lsl::testbed::SyntheticGrid> grid_;
  std::unique_ptr<lsl::nws::PerformanceMonitor> monitor_;
  lsl::nws::TruthFn truth_;
  lsl::sched::SchedulerOptions options_;
  std::unique_ptr<lsl::sched::RouteService> service_;
  std::vector<RouteQuery> queries_;  ///< every tick asks all of them
  std::vector<TickInput> ticks_;

  // Raw outputs of the last tick, checked by check_op.
  lsl::sched::CostMatrix fresh_{0};
  std::size_t changed_ = 0;
  std::vector<RouteAnswer> answers_;
  std::vector<lsl::SimTime> times_;
};

}  // namespace

std::unique_ptr<Workload> make_control_plane(const WorkloadArgs& args) {
  return std::make_unique<ControlPlane>(args);
}

}  // namespace lslbench
