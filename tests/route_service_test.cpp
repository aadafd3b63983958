// RouteService: sharded, epoch-versioned, lock-free route lookups.
//
// Covers the single-shard parity contract (the service is a pure
// re-encoding of one Scheduler), sharded route validity, epoch/publish
// semantics, rescheduler attachment, batch consistency, the prom export
// of the route_service.* instruments, and a TSan-visible reader/writer
// stress: concurrent batched lookups against live snapshot publication,
// with every answered batch validated against a published epoch.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "nws/monitor.hpp"
#include "nws/rescheduler.hpp"
#include "sched/route_service.hpp"
#include "sim/simulator.hpp"
#include "testbed/grid.hpp"
#include "util/rng.hpp"

namespace lsl::sched {
namespace {

/// A realistic mid-size pool matrix (PlanetLab-like, ~60 hosts).
CostMatrix pool_matrix(std::size_t pool, std::uint64_t seed) {
  const auto grid = testbed::SyntheticGrid::planetlab(
      testbed::scaled_planetlab_config(pool), seed);
  nws::PerformanceMonitor monitor(grid.sites(), nws::NoiseModel{}, seed);
  for (std::size_t epoch = 0; epoch < 10; ++epoch) {
    monitor.observe_epoch(grid.truth());
  }
  return monitor.build_matrix();
}

TEST(ShardLayoutTest, PartitionsContiguouslyAndDeterministically) {
  const CostMatrix matrix = pool_matrix(40, 11);
  const ShardLayout layout = ShardLayout::build(matrix, 4);
  EXPECT_EQ(layout.shard_count, 4u);
  EXPECT_EQ(layout.members.size(), matrix.size());
  std::size_t total = 0;
  for (std::size_t s = 0; s < layout.shard_count; ++s) {
    total += layout.shard_size(s);
    EXPECT_GE(layout.shard_size(s), 1u);
    // The gateway is a member of its own shard.
    EXPECT_EQ(layout.shard_of[layout.gateway[s]], s);
  }
  EXPECT_EQ(total, matrix.size());
  for (std::size_t h = 0; h < matrix.size(); ++h) {
    const std::size_t s = layout.shard_of[h];
    EXPECT_EQ(layout.shard_members(s)[layout.local_index[h]], h);
  }
  // Pure function of (matrix, count).
  const ShardLayout again = ShardLayout::build(matrix, 4);
  EXPECT_EQ(again.gateway, layout.gateway);
  EXPECT_EQ(again.members, layout.members);

  // More shards than hosts clamps.
  EXPECT_EQ(ShardLayout::build(matrix, 1000).shard_count, matrix.size());
}

TEST(RouteServiceTest, SingleShardMatchesSchedulerExactly) {
  CostMatrix matrix = pool_matrix(50, 21);
  SchedulerOptions options;
  options.epsilon = 0.25;
  const Scheduler scheduler(matrix, options);

  RouteServiceOptions service_options;
  service_options.shards = 1;
  service_options.scheduler = options;
  const RouteService service(std::move(matrix), service_options);

  const std::size_t n = service.matrix().size();
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      const Scheduler::Decision decision = scheduler.route(src, dst);
      const ResolvedRoute resolved = service.resolve(src, dst);
      ASSERT_EQ(resolved.path, decision.path) << src << "->" << dst;
      const RouteAnswer answer = service.lookup(
          {static_cast<std::uint32_t>(src), static_cast<std::uint32_t>(dst)});
      if (decision.path.empty()) {
        EXPECT_EQ(answer.next_hop, kNoRoute);
      } else {
        EXPECT_DOUBLE_EQ(answer.cost, decision.scheduled_cost);
        EXPECT_DOUBLE_EQ(resolved.cost, decision.scheduled_cost);
        EXPECT_EQ(resolved.uses_depots(), decision.uses_depots());
        if (src != dst) {
          EXPECT_EQ(answer.next_hop, decision.path[1]);
          EXPECT_EQ(answer.relayed != 0, decision.uses_depots());
        }
      }
    }
  }
}

TEST(RouteServiceTest, ShardedRoutesAreValidRelayChains) {
  CostMatrix matrix = pool_matrix(60, 31);
  const CostMatrix reference = matrix;  // service consumes the original
  RouteServiceOptions service_options;
  service_options.shards = 4;
  service_options.scheduler.epsilon = 0.25;
  const RouteService service(std::move(matrix), service_options);
  const ShardLayout& layout = service.layout();

  const std::size_t n = reference.size();
  std::size_t cross_shard = 0;
  for (std::size_t src = 0; src < n; ++src) {
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (src == dst) {
        continue;
      }
      const ResolvedRoute route = service.resolve(src, dst);
      const RouteAnswer answer = service.lookup(
          {static_cast<std::uint32_t>(src), static_cast<std::uint32_t>(dst)});
      if (route.path.empty()) {
        EXPECT_EQ(answer.next_hop, kNoRoute);
        continue;
      }
      ASSERT_GE(route.path.size(), 2u);
      EXPECT_EQ(route.path.front(), src);
      EXPECT_EQ(route.path.back(), dst);
      EXPECT_DOUBLE_EQ(answer.cost, route.cost);
      EXPECT_EQ(answer.next_hop, route.path[1]);
      EXPECT_EQ(answer.relayed != 0, route.path.size() > 2);
      // Every hop is a real finite edge, the path never repeats a node,
      // and the reported cost is exactly the path's bottleneck edge.
      double bottleneck = 0.0;
      for (std::size_t i = 0; i + 1 < route.path.size(); ++i) {
        const double edge = reference.cost(route.path[i], route.path[i + 1]);
        ASSERT_NE(edge, kInfiniteCost)
            << src << "->" << dst << " hop " << route.path[i];
        bottleneck = std::max(bottleneck, edge);
      }
      std::vector<std::size_t> sorted = route.path;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end());
      EXPECT_DOUBLE_EQ(route.cost, bottleneck);
      // Inter-shard paths relay through both gateways.
      const std::size_t s = layout.shard_of[src];
      const std::size_t d = layout.shard_of[dst];
      if (s != d) {
        ++cross_shard;
        const std::uint32_t gw_s = layout.gateway[s];
        const std::uint32_t gw_d = layout.gateway[d];
        EXPECT_NE(std::find(route.path.begin(), route.path.end(), gw_s),
                  route.path.end());
        EXPECT_NE(std::find(route.path.begin(), route.path.end(), gw_d),
                  route.path.end());
      }
    }
  }
  EXPECT_GT(cross_shard, 0u);
}

TEST(RouteServiceTest, PublishesOnChangeAndSkipsNoChangeTicks) {
  CostMatrix matrix = pool_matrix(40, 41);
  const CostMatrix frozen = matrix;
  RouteServiceOptions service_options;
  service_options.shards = 4;
  RouteService service(std::move(matrix), service_options);
  EXPECT_EQ(service.epoch(), 1u);
  const auto snap1 = service.snapshot();

  // Identical matrix: nothing changed, nothing published.
  EXPECT_EQ(service.apply_matrix(frozen), 0u);
  EXPECT_EQ(service.epoch(), 1u);
  EXPECT_EQ(service.snapshot().get(), snap1.get());

  // One intra-shard edge halves: a new epoch serves the new cost, and the
  // old snapshot still serves the old one (immutability).
  const ShardLayout& layout = service.layout();
  std::uint32_t a = 0, b = 0;
  for (std::uint32_t j = 1; j < frozen.size(); ++j) {
    if (layout.shard_of[j] == layout.shard_of[0] &&
        frozen.cost(0, j) != kInfiniteCost) {
      b = j;
      break;
    }
  }
  ASSERT_NE(b, 0u);
  CostMatrix drifted = frozen;
  drifted.set_cost(a, b, frozen.cost(a, b) * 0.5);
  EXPECT_EQ(service.apply_matrix(drifted), 1u);
  EXPECT_EQ(service.epoch(), 2u);
  const auto snap2 = service.snapshot();
  EXPECT_EQ(snap2->epoch(), 2u);
  EXPECT_NE(snap1->lookup({a, b}).cost, 0.0);
  EXPECT_LE(snap2->lookup({a, b}).cost, snap1->lookup({a, b}).cost);
}

TEST(RouteServiceTest, AttachFollowsReschedulerTicks) {
  using namespace lsl::time_literals;
  const std::vector<std::string> sites{"a.edu", "b.edu", "c.edu", "d.edu"};
  sim::Simulator sim;
  RouteServiceOptions service_options;
  service_options.shards = 2;
  RouteService service(CostMatrix(sites.size()), service_options);
  nws::Rescheduler rescheduler(
      sim, nws::PerformanceMonitor(sites, nws::NoiseModel{}, 5),
      [](std::size_t, std::size_t) { return Bandwidth::mbps(50); },
      SimTime::seconds(300), {.epsilon = 0.1},
      [&service](const Scheduler& s, std::size_t /*changed_edges*/) {
        service.apply_matrix(s.matrix());
      });
  EXPECT_EQ(service.epoch(), 1u);
  rescheduler.start();
  sim.run(SimTime::seconds(1501));
  // Measurement noise moves some forecast every tick, so the service
  // republished; its matrix now mirrors the rescheduler's.
  EXPECT_GT(service.epoch(), 1u);
  ASSERT_NE(rescheduler.current(), nullptr);
  const CostMatrix& fresh = rescheduler.current()->matrix();
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    for (std::size_t j = 0; j < fresh.size(); ++j) {
      EXPECT_EQ(service.matrix().cost(i, j), fresh.cost(i, j));
    }
  }
}

TEST(RouteServiceTest, BatchLookupMatchesSingleLookups) {
  CostMatrix matrix = pool_matrix(50, 51);
  RouteServiceOptions service_options;
  service_options.shards = 4;
  const RouteService service(std::move(matrix), service_options);
  const std::size_t n = service.matrix().size();
  Rng rng(7);
  std::vector<RouteQuery> queries(1024);
  for (auto& q : queries) {
    q.src = static_cast<std::uint32_t>(rng.next_u64() % n);
    q.dst = static_cast<std::uint32_t>(rng.next_u64() % n);
  }
  std::vector<RouteAnswer> answers(queries.size());
  service.lookup_batch(queries, answers);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const RouteAnswer single = service.lookup(queries[i]);
    EXPECT_DOUBLE_EQ(answers[i].cost, single.cost);
    EXPECT_EQ(answers[i].next_hop, single.next_hop);
    EXPECT_EQ(answers[i].relayed, single.relayed);
  }
}

TEST(RouteServiceTest, ExportsPromMetrics) {
  obs::Registry registry;
  obs::ScopedRegistry scope(registry);
  CostMatrix matrix = pool_matrix(40, 61);
  const CostMatrix frozen = matrix;
  RouteServiceOptions service_options;
  service_options.shards = 2;
  RouteService service(std::move(matrix), service_options);
  std::vector<RouteQuery> queries(64, RouteQuery{1, 2});
  std::vector<RouteAnswer> answers(queries.size());
  service.lookup_batch(queries, answers);
  EXPECT_EQ(service.apply_matrix(frozen), 0u);  // age tick

  const std::string prom = registry.to_prom();
  EXPECT_NE(prom.find("sched_route_service_snapshot_swaps 1"),
            std::string::npos);
  EXPECT_NE(prom.find("sched_route_service_lookups 64"), std::string::npos);
  EXPECT_NE(prom.find("sched_route_service_epoch 1"), std::string::npos);
  EXPECT_NE(prom.find("sched_route_service_epoch_age_ticks 1"),
            std::string::npos);
  EXPECT_NE(prom.find("sched_route_service_batch_size_count 1"),
            std::string::npos);
}

// The ISSUE 9 concurrency contract, TSan-visible: reader threads answer
// batched lookups while a writer continuously diff-applies drift and
// publishes new epochs. No lock is taken on the read path; a batch whose
// surrounding snapshot observations agree on the epoch must match that
// published snapshot answer for answer (no torn state), and every epoch a
// reader ever saw must be one the writer actually published.
TEST(RouteServiceTest, ConcurrentReadersSeeOnlyPublishedEpochs) {
  CostMatrix matrix = pool_matrix(40, 71);
  RouteServiceOptions service_options;
  service_options.shards = 4;
  RouteService service(std::move(matrix), service_options);
  const std::size_t n = service.matrix().size();

  // Writer-side record of every published snapshot, keyed by epoch.
  std::mutex published_mutex;
  std::map<std::uint64_t, std::shared_ptr<const RouteSnapshot>> published;
  published[service.epoch()] = service.snapshot();

  struct Sample {
    RouteQuery query;
    RouteAnswer answer;
    std::uint64_t epoch;
  };
  constexpr std::size_t kReaders = 8;
  constexpr std::size_t kBatches = 60;
  constexpr std::size_t kBatch = 64;
  std::vector<std::vector<Sample>> samples(kReaders);
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    obs::Registry registry;
    obs::ScopedRegistry scope(registry);
    Rng rng(3);
    CostMatrix fresh = service.matrix();
    while (!stop.load(std::memory_order_acquire)) {
      for (std::size_t k = 0; k < 8; ++k) {
        const std::size_t i = rng.next_u64() % n;
        const std::size_t j = rng.next_u64() % n;
        if (i != j && fresh.cost(i, j) != kInfiniteCost) {
          fresh.set_cost(i, j, fresh.cost(i, j) * rng.lognormal(0.0, 0.2));
        }
      }
      if (service.apply_matrix(fresh) > 0) {
        const std::lock_guard<std::mutex> lock(published_mutex);
        published[service.epoch()] = service.snapshot();
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      obs::Registry registry;
      obs::ScopedRegistry scope(registry);
      Rng rng(100 + r);
      std::vector<RouteQuery> queries(kBatch);
      std::vector<RouteAnswer> answers(kBatch);
      samples[r].reserve(kBatches);
      for (std::size_t b = 0; b < kBatches; ++b) {
        for (auto& q : queries) {
          q.src = static_cast<std::uint32_t>(rng.next_u64() % n);
          q.dst = static_cast<std::uint32_t>(rng.next_u64() % n);
        }
        // Bracket the batch with snapshot observations: when both agree,
        // the whole batch is attributable to that single epoch.
        const auto before = service.snapshot();
        service.lookup_batch(queries, answers);
        const auto after = service.snapshot();
        if (before->epoch() == after->epoch()) {
          for (std::size_t i = 0; i < kBatch; ++i) {
            samples[r].push_back(
                Sample{queries[i], answers[i], before->epoch()});
          }
        }
      }
    });
  }
  for (auto& t : readers) {
    t.join();
  }
  stop.store(true, std::memory_order_release);
  writer.join();

  // Post-hoc validation against the writer's publication record.
  std::size_t validated = 0;
  for (const auto& reader_samples : samples) {
    for (const Sample& sample : reader_samples) {
      const auto it = published.find(sample.epoch);
      ASSERT_NE(it, published.end())
          << "reader saw unpublished epoch " << sample.epoch;
      const RouteAnswer expect = it->second->lookup(sample.query);
      ASSERT_DOUBLE_EQ(sample.answer.cost, expect.cost);
      ASSERT_EQ(sample.answer.next_hop, expect.next_hop);
      ASSERT_EQ(sample.answer.relayed, expect.relayed);
      ++validated;
    }
  }
  EXPECT_GT(validated, 0u);
}

}  // namespace
}  // namespace lsl::sched
