// Micro-benchmarks for the scheduling core: the paper claims the MMP
// algorithm "can be solved quickly" (O(N log N) with sorted edges; our
// dense-matrix variant is O(N^2) per tree, which must still be fast enough
// to re-run at 5-minute scheduling intervals for hundreds of hosts).
//
// The reroute pair measures the bitmask-overlay route_avoiding against
// the copy-the-matrix baseline, and the advisor pair the per-session
// reroute decision against a plain route(). With --json the run also
// emits the speedup and ratio records that results/BENCH_sched.json
// tracks across PRs.
#include <benchmark/benchmark.h>

#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sched/minimax.hpp"
#include "sched/route_advisor.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace {

using namespace lsl;
using namespace lsl::sched;

CostMatrix random_matrix(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CostMatrix m(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        m.set_cost(i, j, rng.uniform(1.0, 100.0));
      }
    }
  }
  return m;
}

void BM_BuildMmpTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto matrix = random_matrix(n, 42);
  for (auto _ : state) {
    auto tree = build_mmp_tree(matrix, 0, {.epsilon = 0.1});
    benchmark::DoNotOptimize(tree);
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BuildMmpTree)->RangeMultiplier(2)->Range(16, 1024)->Complexity();

void BM_BuildShortestPathTree(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto matrix = random_matrix(n, 42);
  for (auto _ : state) {
    auto tree = build_shortest_path_tree(matrix, 0);
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_BuildShortestPathTree)->RangeMultiplier(4)->Range(16, 1024);

void BM_RouteTableForNode(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scheduler scheduler(random_matrix(n, 7), {.epsilon = 0.1});
  std::size_t node = 0;
  for (auto _ : state) {
    auto table = scheduler.route_table_for(node);
    benchmark::DoNotOptimize(table);
    node = (node + 1) % n;
  }
}
BENCHMARK(BM_RouteTableForNode)->Arg(64)->Arg(142)->Arg(256);

void BM_FullSchedule142Hosts(benchmark::State& state) {
  // The paper's deployment size: all-pairs decisions for 142 hosts.
  const auto matrix = random_matrix(142, 9);
  for (auto _ : state) {
    const Scheduler scheduler(CostMatrix(matrix), {.epsilon = 0.1});
    double checksum = 0.0;
    for (std::size_t s = 0; s < 142; ++s) {
      checksum += scheduler.tree_from(s).cost[(s + 1) % 142];
    }
    benchmark::DoNotOptimize(checksum);
  }
}
BENCHMARK(BM_FullSchedule142Hosts);

void BM_MinimaxOracle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto matrix = random_matrix(n, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(minimax_cost_oracle(matrix, 0, n - 1));
  }
}
BENCHMARK(BM_MinimaxOracle)->Arg(16)->Arg(64);

void BM_RouteAvoidingMasked(benchmark::State& state) {
  // Blacklist reroute through the bitmask overlay at the production
  // epsilon (0.1): one masked from-scratch build and no second matrix --
  // the win over the copy baseline is the skipped n x n copy, not a
  // skipped build.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scheduler scheduler(random_matrix(n, 7), {.epsilon = 0.1});
  const std::size_t src = 0;
  const std::size_t dst = n - 1;
  const std::vector<std::size_t> excluded = {n / 4, n / 2, 3 * n / 4};
  for (auto _ : state) {
    auto decision = scheduler.route_avoiding(src, dst, excluded);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_RouteAvoidingMasked)->Arg(142)->Arg(512)->Arg(1024);

void BM_RouteAvoidingMatrixCopy(benchmark::State& state) {
  // The old reroute: copy the whole matrix, blacklist in the copy, rebuild
  // the source tree from scratch (an n x n allocation per reroute).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto matrix = random_matrix(n, 7);
  const std::size_t src = 0;
  const std::vector<std::size_t> excluded = {n / 4, n / 2, 3 * n / 4};
  for (auto _ : state) {
    CostMatrix pruned(matrix);
    for (const std::size_t node : excluded) {
      pruned.exclude_node(node);
    }
    auto tree = build_mmp_tree(pruned, src, {.epsilon = 0.1});
    benchmark::DoNotOptimize(tree);
  }
}
BENCHMARK(BM_RouteAvoidingMatrixCopy)->Arg(142)->Arg(512)->Arg(1024);

void BM_SchedulerRoute(benchmark::State& state) {
  // A single route decision against a warm cached tree: the denominator
  // for the advisor-overhead ratio below.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scheduler scheduler(random_matrix(n, 7), {.epsilon = 0.1});
  (void)scheduler.route(0, n - 1);  // warm the cached tree
  for (auto _ : state) {
    auto decision = scheduler.route(0, n - 1);
    benchmark::DoNotOptimize(decision);
  }
}
BENCHMARK(BM_SchedulerRoute)->Arg(142)->Arg(512)->Arg(1024);

void BM_AdvisorEvaluate(benchmark::State& state) {
  // One watched session's per-tick reroute decision: current-path cost,
  // best-candidate route, hysteresis/dwell rule. This is what every live
  // session pays on every rescheduler tick, so it must stay within a small
  // constant factor of a plain route() (advisor_evaluate_vs_route_ratio).
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scheduler scheduler(random_matrix(n, 7), {.epsilon = 0.1});
  const RouteAdvisor advisor;
  SessionView view;
  view.src = 0;
  view.dst = n - 1;
  view.current_via = {static_cast<net::NodeId>(n / 3)};
  view.remaining_bytes = 64ull << 20;
  (void)scheduler.route(0, n - 1);  // warm the cached tree
  for (auto _ : state) {
    auto advice = advisor.evaluate(scheduler, view, SimTime::seconds(100),
                                   SimTime::zero());
    benchmark::DoNotOptimize(advice);
  }
}
BENCHMARK(BM_AdvisorEvaluate)->Arg(142)->Arg(512)->Arg(1024);

void BM_AdvisorEvaluateBlacklisted(benchmark::State& state) {
  // The same decision for a session whose recovery loop has blacklisted
  // depots: the candidate comes from the bitmask-overlay route_avoiding.
  const auto n = static_cast<std::size_t>(state.range(0));
  const Scheduler scheduler(random_matrix(n, 7), {.epsilon = 0.1});
  const RouteAdvisor advisor;
  SessionView view;
  view.src = 0;
  view.dst = n - 1;
  view.current_via = {static_cast<net::NodeId>(n / 3)};
  view.remaining_bytes = 64ull << 20;
  view.blacklist = {static_cast<net::NodeId>(n / 4),
                    static_cast<net::NodeId>(n / 2),
                    static_cast<net::NodeId>(3 * n / 4)};
  (void)scheduler.route(0, n - 1);  // warm the cached tree
  for (auto _ : state) {
    auto advice = advisor.evaluate(scheduler, view, SimTime::seconds(100),
                                   SimTime::zero());
    benchmark::DoNotOptimize(advice);
  }
}
BENCHMARK(BM_AdvisorEvaluateBlacklisted)->Arg(142)->Arg(512)->Arg(1024);

/// Console output as usual, plus one JsonRecords entry per benchmark and
/// derived mask-vs-copy speedup / advisor-vs-route ratio records. All names end
/// in _wall_seconds / _per_second / _speedup: perf-trajectory numbers, not
/// determinism-checked ones.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(lsl::bench::JsonRecords& records)
      : records_(records) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) {
        continue;
      }
      const double seconds =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : run.real_accumulated_time;
      records_.add(run.benchmark_name() + "_wall_seconds", seconds);
      seconds_by_name_[run.benchmark_name()] = seconds;
    }
    ConsoleReporter::ReportRuns(runs);
  }

  /// Mean per-iteration seconds of `name`, or 0 when it did not run.
  [[nodiscard]] double seconds(const std::string& name) const {
    const auto it = seconds_by_name_.find(name);
    return it == seconds_by_name_.end() ? 0.0 : it->second;
  }

 private:
  lsl::bench::JsonRecords& records_;
  std::map<std::string, double> seconds_by_name_;
};

}  // namespace

int main(int argc, char** argv) {
  const auto opts = lsl::bench::parse_options(argc, argv);
  lsl::bench::BenchmarkArgs args(argc, argv);
  benchmark::Initialize(&args.argc, args.argv());
  lsl::bench::JsonRecords records("micro_scheduler");
  RecordingReporter reporter(records);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  // Headline trajectory records: what the copy-free reroute saves and
  // what the advisor costs on top of a plain route.
  for (const char* n : {"142", "512", "1024"}) {
    const std::string size(n);
    const double masked = reporter.seconds("BM_RouteAvoidingMasked/" + size);
    const double copied =
        reporter.seconds("BM_RouteAvoidingMatrixCopy/" + size);
    if (masked > 0.0 && copied > 0.0) {
      records.add("mask_vs_copy_speedup_" + size, copied / masked);
    }
    const double route = reporter.seconds("BM_SchedulerRoute/" + size);
    const double evaluate = reporter.seconds("BM_AdvisorEvaluate/" + size);
    if (route > 0.0 && evaluate > 0.0) {
      records.add("advisor_evaluate_vs_route_ratio_" + size,
                  evaluate / route);
    }
  }
  return records.write(opts.json_path) ? 0 : 1;
}
