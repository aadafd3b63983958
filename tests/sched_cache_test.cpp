// Property tests for the scheduler's tree cache: the exclusion-bitmask
// overlay against pruned-copy builds, the parallel prebuild against the
// lazy serial path, and stale-tree refresh after in-place matrix updates.
// The contract under test everywhere: the cached, masked and parallel
// paths must produce exactly the trees and decisions a fresh scheduler
// over the equivalent matrix produces.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "sched/cost_matrix.hpp"
#include "sched/minimax.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace lsl::sched {
namespace {

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

void expect_trees_equal(const MmpTree& got, const MmpTree& want,
                        const char* what) {
  ASSERT_EQ(got.start, want.start) << what;
  ASSERT_EQ(got.cost, want.cost) << what;
  ASSERT_EQ(got.parent, want.parent) << what;
  ASSERT_EQ(got.order, want.order) << what;
}

// The exclusion bitmask must behave exactly like building over a copied
// matrix with the nodes exclude_node()ed -- including the collapse count.
TEST(MaskedBuildTest, MaskEquivalentToPrunedCopy) {
  for (const std::size_t n : {16u, 142u}) {
    for (const double epsilon : {0.0, 0.1, 0.25}) {
      const CostMatrix matrix = random_matrix(n, 0xCAFE + n);
      Rng rng(99 * n);
      std::vector<std::uint8_t> mask(n, 0);
      std::vector<std::size_t> excluded;
      for (int k = 0; k < 3; ++k) {
        const auto v = static_cast<std::size_t>(
            rng.uniform_int(1, static_cast<std::int64_t>(n) - 1));
        if (mask[v] == 0) {
          mask[v] = 1;
          excluded.push_back(v);
        }
      }
      MmpOptions options;
      options.epsilon = epsilon;
      options.excluded = mask;
      const MmpTree masked = build_mmp_tree(matrix, 0, options);

      CostMatrix pruned(matrix);
      for (const std::size_t v : excluded) {
        pruned.exclude_node(v);
      }
      const MmpTree copied =
          build_mmp_tree(pruned, 0, {.epsilon = epsilon});
      expect_trees_equal(masked, copied, "mask vs pruned copy");
      EXPECT_EQ(masked.epsilon_collapses, copied.epsilon_collapses);
    }
  }
}

// route_avoiding must give the same decision as the reference
// implementation: copy the matrix, blacklist the failed depots, reroute
// from scratch. Both epsilon regimes are covered: at 0 final costs are
// order-independent, at > 0 the damping makes parents history-dependent.
class RouteAvoidingTest : public ::testing::TestWithParam<double> {};

TEST_P(RouteAvoidingTest, MatchesMatrixCopyBaseline) {
  const double epsilon = GetParam();
  const std::size_t n = 64;
  const CostMatrix matrix = random_matrix(n, 0xF00D);
  const Scheduler scheduler(CostMatrix(matrix), {.epsilon = epsilon});
  Rng rng(31337);
  for (int round = 0; round < 50; ++round) {
    const auto src = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto dst = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    if (dst >= src) {
      ++dst;
    }
    std::vector<std::size_t> excluded;
    for (int k = 0; k < round % 4; ++k) {
      excluded.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1)));
    }
    const auto got = scheduler.route_avoiding(src, dst, excluded);

    CostMatrix pruned(matrix);
    for (const std::size_t v : excluded) {
      if (v != src && v != dst && v < n) {
        pruned.exclude_node(v);
      }
    }
    const Scheduler baseline(std::move(pruned), {.epsilon = epsilon});
    const auto want = baseline.route(src, dst);
    EXPECT_EQ(got.path, want.path) << "round " << round;
    EXPECT_EQ(got.scheduled_cost, want.scheduled_cost) << "round " << round;
    EXPECT_EQ(got.direct_cost, want.direct_cost) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, RouteAvoidingTest,
                         ::testing::Values(0.0, 0.1));

// Lazy serial use and an up-front parallel prebuild must serve identical
// trees and decisions for any job count.
TEST(PrebuildTest, PrebuildMatchesLazySerialTrees) {
  const std::size_t n = 96;
  const CostMatrix matrix = random_matrix(n, 0xABBA);
  const Scheduler lazy(CostMatrix(matrix), {.epsilon = 0.1});
  for (const std::size_t jobs : {1u, 4u}) {
    Scheduler pre(CostMatrix(matrix), {.epsilon = 0.1});
    pre.prebuild_trees(jobs);
    for (std::size_t s = 0; s < n; ++s) {
      expect_trees_equal(pre.tree_from(s), lazy.tree_from(s), "prebuild");
    }
    EXPECT_EQ(pre.fraction_scheduled(), lazy.fraction_scheduled());
  }
}

TEST(PrebuildTest, PrebuildSubsetThenMutateThenRefresh) {
  const std::size_t n = 48;
  CostMatrix matrix = random_matrix(n, 0x5EED);
  Scheduler scheduler(CostMatrix(matrix), {.epsilon = 0.1});
  const std::vector<std::size_t> sources = {0, 7, 7, 13, 0};
  scheduler.prebuild_trees(2, sources);
  // Drift one edge, then blacklist a node by diff-applying a matrix with
  // it excluded -- both through the scheduler's mutation API...
  scheduler.set_cost(1, 2, 250.0);
  matrix.set_cost(1, 2, 250.0);
  matrix.exclude_node(5);
  EXPECT_EQ(scheduler.apply_matrix(matrix), 2 * (n - 1));
  // ...then refresh everything in parallel and compare against a fresh
  // scheduler over the equivalent matrix.
  scheduler.prebuild_trees(3);
  const Scheduler fresh(std::move(matrix), {.epsilon = 0.1});
  for (std::size_t s = 0; s < n; ++s) {
    expect_trees_equal(scheduler.tree_from(s), fresh.tree_from(s),
                       "post-mutation refresh");
  }
}

TEST(ApplyMatrixTest, DiffApplyMatchesFreshScheduler) {
  const std::size_t n = 64;
  const CostMatrix original = random_matrix(n, 0x1DEA);
  CostMatrix drifted(original);
  Rng rng(4242);
  for (std::size_t k = 0; k < 200; ++k) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto j = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    if (j >= i) {
      ++j;
    }
    drifted.set_cost(i, j, rng.uniform(1.0, 200.0));
  }

  Scheduler incremental(CostMatrix(original), {.epsilon = 0.1});
  // Warm some cached trees so apply_matrix leaves real stale slots behind.
  for (std::size_t s = 0; s < n; s += 3) {
    (void)incremental.tree_from(s);
  }
  const std::size_t changed = incremental.apply_matrix(drifted);
  EXPECT_GT(changed, 0u);
  EXPECT_LE(changed, 200u);

  const Scheduler fresh(CostMatrix(drifted), {.epsilon = 0.1});
  for (std::size_t s = 0; s < n; ++s) {
    expect_trees_equal(incremental.tree_from(s), fresh.tree_from(s),
                       "apply_matrix");
  }
  // Re-applying the same matrix is a no-op.
  EXPECT_EQ(incremental.apply_matrix(drifted), 0u);
}

}  // namespace
}  // namespace lsl::sched
