// Figure 10: median, 25th and 75th percentile of absolute speedup per
// transfer size over all host pairs (the variance behind Figure 9's means).
//
// Usage: fig10_percentiles [--jobs N] [--json <file>]
//                          [--fidelity=analytic|flow|packet]
//   --fidelity=flow|packet simulates every measurement at that fidelity on
//   a reduced case/size grid and also computes the analytic reference on
//   the identical realizations, reporting median agreement per size (the
//   flow-validate CI job gates on those records).
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
      "Figure 10 -- Median / 25th / 75th percentile of speedup per size",
      "Paper claim: acceptable speedup in many cases but quite a few where "
      "LSL made performance worse; improvements up to 4x exist.");

  const bool simulated = opts.fidelity.has_value();
  const auto grid =
      testbed::SyntheticGrid::planetlab(testbed::PlanetLabConfig{}, 2004);
  testbed::SweepConfig config;
  config.max_size_exp = 7;
  config.iterations = bench::scaled(5, 2);
  config.max_cases = 0;
  config.epsilon = grid.noise().sweep_epsilon;
  config.jobs = opts.jobs;
  if (simulated) {
    config.max_size_exp = 4;
    config.max_cases = bench::scaled(12, 4);
    config.iterations = bench::scaled(2, 1);
    config.fidelity = opts.fidelity;
  }
  const auto result = testbed::run_speedup_sweep(grid, config, 42);

  bench::JsonRecords records("fig10_percentiles");
  records.add("scheduled_cases", static_cast<double>(result.scheduled_cases));

  Table table({"size", "p25", "median", "p75", "min", "max"});
  FigureData fig("Speedup quartiles per transfer size", "size_mb",
                 {"p25", "median", "p75"});
  for (const auto& [size, xs] : result.speedups_by_size) {
    const auto box = BoxStats::of(xs);
    table.add_row({format_bytes(size), Table::num(box.q25, 3),
                   Table::num(box.median, 3), Table::num(box.q75, 3),
                   Table::num(box.min, 2), Table::num(box.max, 2)});
    fig.add_point(static_cast<double>(size) / static_cast<double>(kMiB),
                  {box.q25, box.median, box.q75});
    records.add("median_speedup_" + format_bytes(size), box.median);
  }
  table.print(std::cout);
  std::printf("\n");
  fig.print(std::cout);

  if (simulated) {
    // Analytic twin of the same sweep (identical cases and realizations;
    // see fig09). Gate metric: simulated median / analytic median per size.
    testbed::SweepConfig reference = config;
    reference.fidelity.reset();
    const auto analytic = testbed::run_speedup_sweep(grid, reference, 42);
    const std::string measurement = testbed::measurement_name(opts.fidelity);
    Table agree({"size", measurement + " median", "analytic median",
                 "agreement"});
    for (const auto& [size, xs] : result.speedups_by_size) {
      const double sim_median = BoxStats::of(xs).median;
      const auto it = analytic.speedups_by_size.find(size);
      const double ref_median = it != analytic.speedups_by_size.end()
                                    ? BoxStats::of(it->second).median
                                    : 0.0;
      const double agreement =
          ref_median > 0.0 ? sim_median / ref_median : 0.0;
      agree.add_row({format_bytes(size), Table::num(sim_median, 4),
                     Table::num(ref_median, 4), Table::num(agreement, 4)});
      records.add("fidelity_agreement_" + format_bytes(size), agreement);
    }
    std::printf("\nCross-validation vs the analytic model (same cases and "
                "realizations):\n");
    agree.print(std::cout);
  }
  return records.write(opts.json_path) ? 0 : 1;
}
