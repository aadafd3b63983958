// The LSL scheduler: turns a (noisy, forecast-derived) performance matrix
// into logistical forwarding decisions.
//
// For each source it builds an epsilon-damped MMP tree (paper section 4) and
// walks it per destination. A decision "uses depots" when the chosen path
// has intermediate nodes; such paths are handed to sources as loose source
// routes, or reduced to destination/next-hop route tables for hop-by-hop
// forwarding at depots (section 4.2).
//
// Ownership: a Scheduler has one owner thread. Its const members still
// fill the lazy tree cache, so it is not safe to share across threads;
// readers on other threads go through an immutable sched::RouteSnapshot.
// The one threaded path is prebuild_trees, whose workers refresh disjoint
// slots and are joined before it returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "lsl/route_table.hpp"
#include "obs/metrics.hpp"
#include "sched/cost_matrix.hpp"
#include "sched/minimax.hpp"

namespace lsl::sched {

/// Process-wide scheduler instruments in the global metrics registry.
struct SchedMetrics {
  obs::Counter* trees_built;       ///< sched.mmp.trees_built
  /// sched.mmp.repair_fallbacks: rebuilds of a stale cached tree (a
  /// legacy name, kept because perfbench reads it).
  obs::Counter* repair_fallbacks;
  obs::Counter* epsilon_collapses; ///< sched.mmp.epsilon_collapses
  obs::Counter* route_decisions;   ///< sched.mmp.route_decisions
  obs::Counter* relays_chosen;     ///< sched.mmp.relays_chosen
  obs::Counter* reroutes;          ///< sched.mmp.reroutes (masked builds)
  obs::Histogram* tree_build_us;   ///< sched.mmp.tree_build_us (wall clock)

  // Route-service instruments (readers touch these through their own
  // thread's registry; see obs::ScopedRegistry).
  obs::Counter* rs_snapshot_swaps;  ///< sched.route_service.snapshot_swaps
  obs::Counter* rs_lookups;         ///< sched.route_service.lookups
  obs::Counter* rs_stale_epochs;    ///< sched.route_service.stale_epochs
  obs::Gauge* rs_epoch;             ///< sched.route_service.epoch
  obs::Gauge* rs_epoch_age_ticks;   ///< sched.route_service.epoch_age_ticks
  obs::Histogram* rs_batch_size;    ///< sched.route_service.batch_size

  /// nullptr while obs::metrics_enabled() is false.
  static SchedMetrics* get();
};

struct SchedulerOptions {
  /// Edge-equivalence margin. The paper computed epsilon as 10% of the edge
  /// value and notes clusters coalesced around 10%.
  double epsilon = 0.10;
  /// Host-throughput extension: per-node traversal costs (empty = off).
  std::vector<double> host_costs;
};

class Scheduler {
 public:
  Scheduler(CostMatrix matrix, SchedulerOptions options = {});
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  struct Decision {
    /// Full node path source..destination (empty when unreachable).
    std::vector<std::size_t> path;
    /// Minimax cost of the scheduled path and of the direct edge.
    double scheduled_cost = kInfiniteCost;
    double direct_cost = kInfiniteCost;

    [[nodiscard]] bool uses_depots() const { return path.size() > 2; }
    /// Intermediate hops, as a loose source route.
    [[nodiscard]] std::vector<net::NodeId> via() const;
  };

  [[nodiscard]] Decision route(std::size_t src, std::size_t dst) const;

  /// Route with the given nodes blacklisted (failed depots): one MMP build
  /// from `src` with the exclusions as a bitmask overlay (MmpOptions::
  /// excluded), so a recovery reroute costs O(n^2) with no n x n matrix
  /// copy. The source's cached tree is neither read nor refreshed. The
  /// decision degrades gracefully to the direct path -- or to an empty
  /// path when the destination itself is unreachable.
  [[nodiscard]] Decision route_avoiding(
      std::size_t src, std::size_t dst,
      const std::vector<std::size_t>& excluded) const;

  /// The full MMP tree rooted at `src` (cached; built on first use and
  /// rebuilt on the first use after the matrix changed).
  [[nodiscard]] const MmpTree& tree_from(std::size_t src) const;

  /// Destination -> next-hop table for hop-by-hop forwarding at `node`,
  /// built from the node's own tree.
  [[nodiscard]] session::RouteTable route_table_for(std::size_t node) const;

  /// Fraction of ordered (src, dst) pairs routed through at least one depot
  /// (the paper reports 26% on its PlanetLab pool).
  [[nodiscard]] double fraction_scheduled() const;

  // ---- in-place topology updates --------------------------------------------

  /// Update one directed edge; cached trees rebuild lazily on next use.
  void set_cost(std::size_t i, std::size_t j, double cost);

  /// Diff-apply a freshly measured matrix of the same size: set_cost on
  /// every changed directed edge (the periodic rescheduler's drift path).
  /// Returns the number of changed edges.
  std::size_t apply_matrix(const CostMatrix& fresh);

  /// Build or refresh the trees for every source (or just `sources`) up
  /// front on `jobs` worker threads (0 = one per hardware thread). Each
  /// source's tree depends only on the matrix, so the result is identical
  /// for any job count; see docs/performance.md.
  void prebuild_trees(std::size_t jobs = 0,
                      std::span<const std::size_t> sources = {});

  [[nodiscard]] const CostMatrix& matrix() const { return matrix_; }
  [[nodiscard]] const SchedulerOptions& options() const { return options_; }

 private:
  struct SlotOutcome {
    enum Kind : std::uint8_t { kUntouched, kBuilt, kRebuilt };
    Kind kind = kUntouched;
    std::uint64_t collapses = 0;  ///< tree's collapse count after the work
  };

  [[nodiscard]] MmpOptions mmp_options() const;
  /// Build slot `src` if it is missing or stale; a current slot is left
  /// untouched. Touches no metrics.
  SlotOutcome refresh_slot(std::size_t src) const;
  /// Add one slot's outcome to the sched.mmp.* counters.
  static void account(SchedMetrics& m, const SlotOutcome& out);

  CostMatrix matrix_;
  SchedulerOptions options_;
  mutable std::vector<std::optional<MmpTree>> trees_;
  /// Matrix generation each cached tree reflects.
  mutable std::vector<std::uint64_t> tree_gen_;
};

}  // namespace lsl::sched
