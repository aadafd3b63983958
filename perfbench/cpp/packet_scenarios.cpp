// packet_scenarios: each op runs one transfer of one committed
// explicit-topology scenario through exp::run_scenario at packet fidelity,
// with that scenario's topology and its depot/pin/cca/fault/churn/recovery/
// reroute directives. sim, net, tcp and lsl do nearly all the work.
//
// Ops come in rounds: each round is a seeded permutation of all twelve
// (scenario, transfer) entries with a fresh simulation seed per op, so
// every run prices the same mix and only the order and the seeds vary.
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "exp/scenario.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lslbench {
namespace {

using lsl::SimTime;

constexpr const char* kScenarios[] = {"abilene_uiuc", "two_depot_chain",
                                      "high_bdp", "depot_churn",
                                      "forecast_drift"};
/// Pre-generated rounds; ops cycle through them (a 60 s run needs ~30).
constexpr std::size_t kRounds = 48;
constexpr SimTime kDeadline = SimTime::seconds(3600);

struct Op {
  std::size_t entry = 0;
  std::uint64_t sim_seed = 0;
};

class PacketScenarios final : public Workload {
 public:
  explicit PacketScenarios(WorkloadArgs args) : args_(std::move(args)) {}

  void setup() override {
    entries_.clear();
    for (const char* name : kScenarios) {
      const std::string path = args_.scenario_dir + "/" + name + ".lsl";
      std::ifstream in(path);
      if (!in) {
        throw std::runtime_error("cannot read " + path);
      }
      std::stringstream text;
      text << in.rdbuf();
      const lsl::exp::ParseResult parsed =
          lsl::exp::parse_scenario(text.str());
      if (!parsed.ok()) {
        throw std::runtime_error(path + ": " + parsed.error);
      }
      for (const lsl::exp::ScenarioTransfer& transfer :
           parsed.scenario->transfers) {
        lsl::exp::Scenario entry = *parsed.scenario;
        entry.transfers = {transfer};
        entries_.push_back(std::move(entry));
      }
    }
    lsl::Rng rng(args_.seed);
    ops_.clear();
    for (std::size_t r = 0; r < kRounds; ++r) {
      std::vector<std::size_t> order(entries_.size());
      for (std::size_t e = 0; e < order.size(); ++e) {
        order[e] = e;
      }
      rng.shuffle(order);
      for (const std::size_t e : order) {
        ops_.push_back(Op{e, rng.next_u64()});
      }
    }
  }

  [[nodiscard]] std::size_t repeat_period() const override {
    return ops_.size();
  }
  [[nodiscard]] std::size_t round() const override { return entries_.size(); }
  [[nodiscard]] std::size_t digest_ops() const override {
    return entries_.size();
  }

  OpResult run_op(std::size_t i, Tracer* tracer) override {
    const Op& op = ops_[i % ops_.size()];
    Span span(tracer, "exp.run_scenario");
    outcomes_ = lsl::exp::run_scenario(entries_[op.entry],
                                       op.sim_seed, kDeadline,
                                       traced_ ? &profile_ : nullptr, &leaked_);
    return {};
  }

  void check_op(std::size_t i, OpResult& result) override {
    const Op& op = ops_[i % ops_.size()];
    mix(result.digest, op.entry);
    mix(result.digest, leaked_);
    if (outcomes_.size() != 1) {
      result.fail("run_scenario returned " + std::to_string(outcomes_.size()) +
                  " outcomes for one transfer");
      return;
    }
    const lsl::exp::SimHarness::TransferOutcome& out = outcomes_[0].outcome;
    const std::uint64_t want = outcomes_[0].transfer.bytes;
    mix(result.digest, out.completed);
    mix(result.digest, out.failed);
    mix(result.digest, static_cast<std::uint64_t>(out.retries));
    mix(result.digest, static_cast<std::uint64_t>(out.reroutes));
    mix(result.digest, out.bytes);
    mix(result.digest, static_cast<std::uint64_t>(out.elapsed.ns()));
    if (!out.completed || out.failed) {
      result.fail("transfer did not complete");
    } else if (out.bytes != want) {
      result.fail("delivered " + std::to_string(out.bytes) + " of " +
                  std::to_string(want) + " bytes");
    } else if (leaked_ != 0) {
      result.fail(std::to_string(leaked_) + " leaked connections");
    } else {
      result.payload_bytes = out.bytes;
    }
    if (traced_) {
      counts_.kernel.merge_from(profile_);
      counts_.transfers += result.ok ? 1 : 0;
      counts_.payload_bytes += result.payload_bytes;
      counts_.retries += static_cast<std::uint64_t>(out.retries);
      counts_.reroutes += static_cast<std::uint64_t>(out.reroutes);
    }
  }

 private:
  WorkloadArgs args_;
  /// Each scenario file's scenario with one of its transfers.
  std::vector<lsl::exp::Scenario> entries_;
  std::vector<Op> ops_;

  // Raw outputs of the last op, checked by check_op.
  std::vector<lsl::exp::ScenarioOutcome> outcomes_;
  std::size_t leaked_ = 0;
  lsl::sim::KernelProfile profile_;
};

}  // namespace

std::unique_ptr<Workload> make_packet_scenarios(const WorkloadArgs& args) {
  return std::make_unique<PacketScenarios>(args);
}

}  // namespace lslbench
