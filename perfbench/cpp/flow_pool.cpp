// flow_pool: each op is one scale_sweep-style case on the 10k-host
// SyntheticGrid::planetlab pool -- testbed::materialize_path, then
// SimHarness::run_transfer at flow fidelity -- for 16/32/64 MiB payloads,
// alternating direct and one-depot relay, with 1 MiB socket buffers. The
// payload rides the fluid pump, so per-segment packet work is absent and
// the fluid solver plus per-op harness set-up dominate.
#include "bench.hpp"
#include "flow/fluid.hpp"
#include "testbed/grid.hpp"
#include "testbed/materialize.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lslbench {
namespace {

using lsl::SimTime;

constexpr std::size_t kPoolHosts = 10000;
/// The pool topology is fixed, as in bench/scale_sweep; the seed draws the
/// cases.
constexpr std::uint64_t kGridSeed = 2004;
/// Pre-generated cases; ops cycle through them.
constexpr std::size_t kCases = 4096;
constexpr SimTime kDeadline = SimTime::seconds(86400);
/// Simulated time left for connection teardown before the leak check
/// (TIME_WAIT lingers 500 ms).
constexpr SimTime kTeardownDrain = SimTime::seconds(5);

struct Case {
  std::vector<std::size_t> path;  ///< 2 nodes = direct, 3 = one-depot relay
  std::vector<lsl::testbed::PairRealization> hops;
  std::uint64_t bytes = 0;
  std::uint64_t seed = 0;
};

class FlowPool final : public Workload {
 public:
  explicit FlowPool(WorkloadArgs args) : args_(std::move(args)) {}

  void setup() override {
    auto config = lsl::testbed::scaled_planetlab_config(kPoolHosts);
    config.host_tcp_buffer = lsl::kMiB;
    grid_ = std::make_unique<lsl::testbed::SyntheticGrid>(
        lsl::testbed::SyntheticGrid::planetlab(config, kGridSeed));
    const lsl::testbed::SyntheticGrid& grid = *grid_;
    lsl::Rng rng(args_.seed);
    cases_.clear();
    cases_.reserve(kCases);
    for (std::size_t i = 0; i < kCases; ++i) {
      const std::size_t src = rng.pick_index(grid.size());
      std::size_t dst = rng.pick_index(grid.size());
      while (dst == src) {
        dst = rng.pick_index(grid.size());
      }
      Case c;
      c.bytes = lsl::mib(16) << rng.pick_index(3);
      if (i % 2 == 0) {
        c.path = {src, dst};
        c.hops = {grid.realize_direct(src, dst, c.bytes, rng)};
      } else {
        std::size_t via = rng.pick_index(grid.size());
        while (via == src || via == dst) {
          via = rng.pick_index(grid.size());
        }
        c.path = {src, via, dst};
        c.hops = grid.realize_relay_hops(c.path, c.bytes, rng);
      }
      c.seed = rng.next_u64();
      cases_.push_back(std::move(c));
    }
  }

  [[nodiscard]] std::size_t repeat_period() const override {
    return cases_.size();
  }
  /// A round and the digest both cover every case once, so every window
  /// prices the same work and every timed op replays a checked input.
  [[nodiscard]] std::size_t round() const override { return cases_.size(); }
  [[nodiscard]] std::size_t digest_ops() const override {
    return cases_.size();
  }

  OpResult run_op(std::size_t i, Tracer* tracer) override {
    const Case& c = cases_[i % cases_.size()];
    lsl::testbed::Materialized m;
    {
      Span span(tracer, "testbed.materialize_path");
      m = lsl::testbed::materialize_path(*grid_, c.path, c.hops, c.seed,
                                         lsl::exp::Fidelity::kFlow);
    }
    lsl::exp::SimHarness& harness = *m.harness;
    harness.simulator().set_profiling(traced_);
    lsl::session::TransferSpec spec;
    spec.dst = m.nodes.back();
    for (std::size_t h = 1; h + 1 < m.nodes.size(); ++h) {
      spec.via.push_back(m.nodes[h]);
    }
    spec.payload_bytes = c.bytes;
    spec.tcp = lsl::tcp::TcpOptions{}.with_buffers(
        grid_->host(c.path.front()).tcp_buffer);
    {
      Span span(tracer, "exp.run_transfer");
      outcome_ = harness.run_transfer(m.nodes.front(), spec, kDeadline);
    }
    {
      Span span(tracer, "sim.run");
      harness.simulator().run(harness.simulator().now() + kTeardownDrain);
    }
    {
      Span span(tracer, "exp.open_connection_count");
      leaked_ = harness.open_connection_count();
    }
    if (traced_) {
      counts_.kernel.merge_from(harness.simulator().profile());
      const lsl::flow::FluidStats& fluid = harness.topology().fluid()->stats();
      counts_.solves += fluid.solves;
      counts_.flows_rated += fluid.flows_rated;
      counts_.markers += fluid.markers_fired;
    }
    Span span(tracer, "exp.~SimHarness");
    m = {};
    return {};
  }

  void check_op(std::size_t i, OpResult& result) override {
    const Case& c = cases_[i % cases_.size()];
    mix(result.digest, i % cases_.size());
    mix(result.digest, outcome_.completed);
    mix(result.digest, outcome_.failed);
    mix(result.digest, static_cast<std::uint64_t>(outcome_.retries));
    mix(result.digest, static_cast<std::uint64_t>(outcome_.reroutes));
    mix(result.digest, outcome_.bytes);
    mix(result.digest, static_cast<std::uint64_t>(outcome_.elapsed.ns()));
    mix(result.digest, leaked_);
    if (!outcome_.completed || outcome_.failed) {
      result.fail("transfer did not complete");
    } else if (outcome_.bytes != c.bytes) {
      result.fail("delivered " + std::to_string(outcome_.bytes) + " of " +
                  std::to_string(c.bytes) + " bytes");
    } else if (leaked_ != 0) {
      result.fail(std::to_string(leaked_) + " leaked connections");
    } else {
      result.payload_bytes = outcome_.bytes;
    }
    if (traced_) {
      counts_.transfers += result.ok ? 1 : 0;
      counts_.payload_bytes += result.payload_bytes;
      counts_.retries += static_cast<std::uint64_t>(outcome_.retries);
      counts_.reroutes += static_cast<std::uint64_t>(outcome_.reroutes);
    }
  }

 private:
  WorkloadArgs args_;
  std::unique_ptr<lsl::testbed::SyntheticGrid> grid_;
  std::vector<Case> cases_;

  // Raw outputs of the last op, checked by check_op.
  lsl::exp::SimHarness::TransferOutcome outcome_;
  std::size_t leaked_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_flow_pool(const WorkloadArgs& args) {
  return std::make_unique<FlowPool>(args);
}

}  // namespace lslbench
