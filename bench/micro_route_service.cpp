// RouteService microbenchmark -- the ISSUE 9 perf gate.
//
// Builds a scaled PlanetLab pool, shards it across a RouteService, and
// measures batched snapshot lookups from concurrent reader threads in two
// phases: unloaded (no writer) and under forecast-drift churn (a writer
// thread diff-applies drifted matrices and publishes new snapshot epochs
// continuously). The gate: aggregate lookup throughput stays >= 10M/sec
// and the per-lookup p99 under churn stays within 2x of unloaded --
// i.e. publication genuinely never blocks readers.
//
// Emits results/BENCH_route_service.json records via --json; the
// `churn_vs_unloaded_p99_ratio` and `batch_vs_single_speedup` metrics are
// wired into scripts/check_perf_gate.py.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "nws/monitor.hpp"
#include "sched/route_service.hpp"
#include "testbed/grid.hpp"
#include "util/rng.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBatch = 256;
constexpr double kTargetLookupsPerSec = 10e6;

struct PhaseResult {
  double lookups_per_second = 0.0;
  double p99_ns_per_lookup = 0.0;
};

double percentile(std::vector<double>& xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  const std::size_t k = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1));
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(k),
                   xs.end());
  return xs[k];
}

/// Run `readers` threads, each answering `batches` batches of kBatch
/// random queries against one service snapshot load per batch. Returns
/// aggregate throughput and the p99 per-lookup batch latency.
PhaseResult run_readers(const lsl::sched::RouteService& service,
                        std::size_t readers, std::size_t batches,
                        std::uint64_t seed) {
  const std::size_t n = service.layout().host_count;
  std::vector<std::vector<double>> batch_ns(readers);
  std::vector<std::thread> threads;
  std::atomic<bool> go{false};
  std::atomic<std::size_t> ready{0};
  threads.reserve(readers);
  for (std::size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      // Private registry: the built-in sched instruments are plain stores,
      // so each reader thread gets its own (the parallel-trial pattern).
      lsl::obs::Registry registry;
      lsl::obs::ScopedRegistry scope(registry);
      // Queries are pre-generated so the timed region measures lookups,
      // not random-number generation.
      lsl::Rng rng(seed + 0x9E3779B97F4A7C15ULL * (r + 1));
      std::vector<lsl::sched::RouteQuery> queries(batches * kBatch);
      for (auto& q : queries) {
        q.src = static_cast<std::uint32_t>(rng.next_u64() % n);
        q.dst = static_cast<std::uint32_t>(rng.next_u64() % n);
      }
      std::vector<lsl::sched::RouteAnswer> answers(kBatch);
      batch_ns[r].reserve(batches);
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::size_t b = 0; b < batches; ++b) {
        const std::span<const lsl::sched::RouteQuery> batch(
            queries.data() + b * kBatch, kBatch);
        const auto t0 = Clock::now();
        service.lookup_batch(batch, answers);
        const auto t1 = Clock::now();
        batch_ns[r].push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count());
      }
    });
  }
  while (ready.load(std::memory_order_acquire) < readers) {
    std::this_thread::yield();
  }
  const auto t0 = Clock::now();
  go.store(true, std::memory_order_release);
  for (auto& t : threads) {
    t.join();
  }
  const double wall_s = std::chrono::duration<double>(Clock::now() - t0)
                            .count();
  std::vector<double> per_lookup;
  per_lookup.reserve(readers * batches);
  for (const auto& xs : batch_ns) {
    for (const double ns : xs) {
      per_lookup.push_back(ns / static_cast<double>(kBatch));
    }
  }
  PhaseResult out;
  out.lookups_per_second =
      static_cast<double>(readers * batches * kBatch) / wall_s;
  out.p99_ns_per_lookup = percentile(per_lookup, 0.99);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = lsl::bench::parse_options(argc, argv);
  lsl::bench::banner(
      "RouteService -- sharded snapshot lookups under churn",
      "lock-free batched route lookups vs live forecast-drift publishes");

  const std::size_t pool = lsl::bench::scaled(512, 64);
  const auto grid = lsl::testbed::SyntheticGrid::planetlab(
      lsl::testbed::scaled_planetlab_config(pool), 2004);
  lsl::nws::PerformanceMonitor monitor(grid.sites(), lsl::nws::NoiseModel{},
                                       2004);
  for (std::size_t epoch = 0; epoch < 20; ++epoch) {
    monitor.observe_epoch(grid.truth());
  }

  lsl::sched::RouteServiceOptions service_options;
  service_options.shards = 8;
  service_options.scheduler.epsilon = grid.noise().sweep_epsilon;
  service_options.prebuild_jobs = 1;
  lsl::sched::RouteService service(monitor.build_matrix(), service_options);

  const std::size_t readers = std::min<std::size_t>(
      8, std::max(2u, std::thread::hardware_concurrency()));
  const std::size_t batches = lsl::bench::scaled(4000, 50);
  std::printf("pool %zu hosts, %zu shards, %zu readers x %zu batches x %zu "
              "lookups\n\n",
              grid.size(), service.shard_count(), readers, batches, kBatch);

  // Phase 1: unloaded (snapshot never changes).
  const PhaseResult unloaded = run_readers(service, readers, batches, 42);
  std::printf("unloaded: %8.2fM lookups/s, p99 %6.1f ns/lookup (epoch %llu)\n",
              unloaded.lookups_per_second / 1e6, unloaded.p99_ns_per_lookup,
              static_cast<unsigned long long>(service.epoch()));

  // Phase 2: forecast-drift churn. A writer thread perturbs ~1% of pairs
  // per tick (persistent lognormal random walk, the sweep's drift model)
  // and publishes a fresh snapshot epoch each time.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    lsl::obs::Registry registry;
    lsl::obs::ScopedRegistry scope(registry);
    lsl::Rng rng(7);
    lsl::sched::CostMatrix fresh = service.matrix();
    const std::size_t n = fresh.size();
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t k = 0; k < std::max<std::size_t>(1, n / 8); ++k) {
        const std::size_t i = rng.next_u64() % n;
        const std::size_t j = rng.next_u64() % n;
        if (i == j || fresh.cost(i, j) == lsl::sched::kInfiniteCost) {
          continue;
        }
        const double factor = rng.lognormal(0.0, 0.2);
        fresh.set_cost(i, j, fresh.cost(i, j) * factor);
        fresh.set_cost(j, i, fresh.cost(j, i) * factor);
      }
      service.apply_matrix(fresh);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  const std::uint64_t epoch_before = service.epoch();
  const PhaseResult churn = run_readers(service, readers, batches, 43);
  stop.store(true, std::memory_order_release);
  writer.join();
  const std::uint64_t epochs_published = service.epoch() - epoch_before;
  std::printf("churn:    %8.2fM lookups/s, p99 %6.1f ns/lookup "
              "(%llu epochs published)\n",
              churn.lookups_per_second / 1e6, churn.p99_ns_per_lookup,
              static_cast<unsigned long long>(epochs_published));

  // Phase 3: batch amortization, single-threaded. lookup() pays the
  // snapshot load + accounting per query; lookup_batch pays it per batch.
  const std::size_t single_lookups = lsl::bench::scaled(1'000'000, 10'000);
  {
    lsl::Rng rng(99);
    std::vector<lsl::sched::RouteQuery> queries(kBatch);
    std::vector<lsl::sched::RouteAnswer> answers(kBatch);
    double sink = 0.0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < single_lookups; ++i) {
      const lsl::sched::RouteQuery q{
          static_cast<std::uint32_t>(rng.next_u64() % grid.size()),
          static_cast<std::uint32_t>(rng.next_u64() % grid.size())};
      sink += service.lookup(q).next_hop;
    }
    const double single_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
        static_cast<double>(single_lookups);
    lsl::Rng rng2(99);
    const auto t1 = Clock::now();
    for (std::size_t b = 0; b < single_lookups / kBatch; ++b) {
      for (auto& q : queries) {
        q.src = static_cast<std::uint32_t>(rng2.next_u64() % grid.size());
        q.dst = static_cast<std::uint32_t>(rng2.next_u64() % grid.size());
      }
      service.lookup_batch(queries, answers);
      sink += answers[0].next_hop;
    }
    const double batch_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t1).count() /
        static_cast<double>(single_lookups / kBatch * kBatch);
    const double ratio = churn.p99_ns_per_lookup /
                         std::max(unloaded.p99_ns_per_lookup, 1e-9);
    const double batch_speedup = single_ns / std::max(batch_ns, 1e-9);
    std::printf("batch:    %6.1f ns/lookup single, %6.1f ns/lookup batched "
                "(%.2fx)\n\n",
                single_ns, batch_ns, batch_speedup);

    const bool throughput_ok =
        unloaded.lookups_per_second >= kTargetLookupsPerSec &&
        churn.lookups_per_second >= kTargetLookupsPerSec;
    const bool p99_ok = ratio <= 2.0;
    std::printf("gate: throughput >= 10M/s %s, churn p99 ratio %.2f <= 2.0 "
                "%s\n",
                throughput_ok ? "PASS" : "FAIL", ratio,
                p99_ok ? "PASS" : "FAIL");
    if (sink == 12345.678) {  // defeat dead-code elimination
      std::printf("%f\n", sink);
    }

    lsl::bench::JsonRecords records("micro_route_service");
    records.add("route_service_lookups_per_second",
                unloaded.lookups_per_second);
    records.add("route_service_churn_lookups_per_second",
                churn.lookups_per_second);
    records.add("route_service_unloaded_p99_ns", unloaded.p99_ns_per_lookup);
    records.add("route_service_churn_p99_ns", churn.p99_ns_per_lookup);
    records.add("churn_vs_unloaded_p99_ratio", ratio);
    records.add("batch_vs_single_speedup", batch_speedup);
    records.add("route_service_churn_epochs",
                static_cast<double>(epochs_published));
    if (!records.write(opts.json_path)) {
      return 1;
    }
    return throughput_ok && p99_ok ? 0 : 1;
  }
}
