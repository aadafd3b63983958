// Figure 9: average speedup per transfer size over all host pairs where the
// scheduler chose a depot route, on the PlanetLab-like pool.
//
// Paper: 142-host pool, scheduler picked depots for 26% of paths, 362,895
// total measurements, average speedup between 5.75% and 9% by size.
//
// Usage: fig09_planetlab_speedup [--jobs N] [--json <file>]
//                                [--fidelity=analytic|flow|packet]
//   --jobs parallelizes the measurement sweep over the trial engine; the
//   tables and figures are bitwise identical for every N (the perf-smoke CI
//   step diffs N=1 against N=2). --json records the series plus the sweep's
//   wall time for the perf trajectory (results/BENCH_fig09.json).
//   --fidelity=flow|packet replaces the analytic measurement with a real
//   simulation of every transfer at that fidelity (on a reduced case/size
//   grid -- simulation is orders of magnitude slower) and additionally runs
//   the analytic reference on the identical cases and realizations,
//   reporting per-size agreement. The flow-validate CI job gates on those
//   agreement records (scripts/check_fidelity_agreement.py).
#include <chrono>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "testbed/sweep.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace lsl;
  const auto opts = bench::parse_options(argc, argv);
  bench::banner(
      "Figure 9 -- Average speedup per transfer size over all host pairs",
      "Paper claim: 5.75%-9% average speedup for 1-64 MB transfers; the "
      "scheduler identified depot routes for 26% of paths.");

  const bool simulated = opts.fidelity.has_value();
  const std::string measurement = testbed::measurement_name(opts.fidelity);
  const auto grid =
      testbed::SyntheticGrid::planetlab(testbed::PlanetLabConfig{}, 2004);
  testbed::SweepConfig config;
  config.max_size_exp = 7;  // 1, 2, 4, ..., 64 MB
  // Full paper-scale measurement count by default (the parallel trial
  // engine + kernel fast path made it cheap); LSL_BENCH_SCALE still shrinks
  // smoke runs.
  config.iterations = bench::scaled(5, 2);
  config.max_cases = 0;  // all scheduled pairs
  config.epsilon = grid.noise().sweep_epsilon;
  config.jobs = opts.jobs;
  if (simulated) {
    // Simulating every measurement is orders of magnitude slower than the
    // closed form; shrink the grid while keeping it statistically useful.
    config.max_size_exp = 4;  // 1, 2, 4, 8 MB
    config.max_cases = bench::scaled(12, 4);
    config.iterations = bench::scaled(2, 1);
    config.fidelity = opts.fidelity;
  }
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = testbed::run_speedup_sweep(grid, config, 42);
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::printf("Pool: %zu hosts, %s measurement. Scheduler chose depot routes "
              "for %.1f%% of pairs (paper: 26%%).\n",
              grid.size(), measurement.c_str(),
              100.0 * result.fraction_scheduled);
  std::printf("Total measurements: %zu (paper: 362,895). Mean depot hops: "
              "%.2f.\n\n",
              result.total_measurements, result.mean_path_hops);

  bench::JsonRecords records("fig09_planetlab_speedup");
  records.add("hosts", static_cast<double>(grid.size()));
  records.add("fraction_scheduled", result.fraction_scheduled);
  records.add("total_measurements",
              static_cast<double>(result.total_measurements));
  records.add("mean_path_hops", result.mean_path_hops);
  records.add("jobs", static_cast<double>(opts.jobs));

  Table table({"size", "cases", "mean speedup", "gain %"});
  FigureData fig("Average speedup per transfer size", "size_mb", {"speedup"});
  for (const auto& [size, xs] : result.speedups_by_size) {
    const double mean = mean_of(xs);
    table.add_row({format_bytes(size), Table::num_int(static_cast<long long>(xs.size())),
                   Table::num(mean, 4), Table::num(100.0 * (mean - 1.0), 2)});
    fig.add_point(static_cast<double>(size) / static_cast<double>(kMiB),
                  {mean});
    records.add("mean_speedup_" + format_bytes(size), mean);
  }
  table.print(std::cout);
  std::printf("\n");
  fig.print(std::cout);

  if (simulated) {
    // Analytic reference over the identical cases: the discovery phase and
    // the per-iteration PairRealization draws do not depend on the
    // measurement back end, so each simulated speedup has an analytic twin
    // computed from the very same realized networks. Agreement = simulated
    // mean / analytic mean per size (1.0 = perfect).
    testbed::SweepConfig reference = config;
    reference.fidelity.reset();
    const auto analytic = testbed::run_speedup_sweep(grid, reference, 42);
    Table agree({"size", measurement + " mean", "analytic mean",
                 "agreement"});
    for (const auto& [size, xs] : result.speedups_by_size) {
      const double sim_mean = mean_of(xs);
      const auto it = analytic.speedups_by_size.find(size);
      const double ref_mean =
          it != analytic.speedups_by_size.end() ? mean_of(it->second) : 0.0;
      const double agreement = ref_mean > 0.0 ? sim_mean / ref_mean : 0.0;
      agree.add_row({format_bytes(size), Table::num(sim_mean, 4),
                     Table::num(ref_mean, 4), Table::num(agreement, 4)});
      // "agreement", not "*speedup*": the perf gate treats speedup metrics
      // as higher-is-better, but agreement is gated toward 1.0
      // (scripts/check_fidelity_agreement.py).
      records.add("fidelity_agreement_" + format_bytes(size), agreement);
    }
    std::printf("\nCross-validation vs the analytic model (same cases and "
                "realizations):\n");
    agree.print(std::cout);
  }

  // stderr, not stdout: the perf-smoke CI step diffs stdout across --jobs
  // values byte for byte, and wall time is inherently nondeterministic.
  std::fprintf(stderr, "\nSweep wall time: %.3fs (jobs=%zu)\n", sweep_seconds,
               opts.jobs);
  // Wall-clock metrics carry the _wall_seconds suffix so determinism diffs
  // can filter them (see .github/workflows/ci.yml perf-smoke).
  records.add("sweep_wall_seconds", sweep_seconds);
  records.add("measurements_per_second",
              static_cast<double>(result.total_measurements) / sweep_seconds);
  return records.write(opts.json_path) ? 0 : 1;
}
