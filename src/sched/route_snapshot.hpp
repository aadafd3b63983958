// Immutable, epoch-versioned route snapshot: the read side of the
// RouteService's RCU scheme.
//
// A snapshot freezes every shard's MMP trees into flat, contiguous arrays
// (per-source parent / minimax-cost / first-hop tables in one allocation
// per kind, indexed arithmetically) plus a small gateway-overlay table for
// inter-shard legs. Answering a route query touches a handful of loads and
// no pointers-to-pointers, which is what lets lookup_batch stream millions
// of queries per second straight out of cache. Once published a snapshot
// never mutates; readers that still hold a shared_ptr to an old epoch keep
// a consistent view until they drop it.
//
// Single-shard snapshots reproduce the owning Scheduler's decisions
// exactly (same trees, same parents, same costs); route_service_test
// checks them against Scheduler::route.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "sched/cost_matrix.hpp"
#include "sched/shard.hpp"

namespace lsl::sched {

class Scheduler;

/// One route question: global host ids.
struct RouteQuery {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

constexpr std::uint32_t kNoRoute = std::numeric_limits<std::uint32_t>::max();

/// One route answer, sized for bulk in-cache production (16 bytes).
struct RouteAnswer {
  /// Minimax cost of the served path (kInfiniteCost when unreachable).
  double cost = kInfiniteCost;
  /// First hop from src toward dst (kNoRoute when unreachable; == dst when
  /// the route is the direct edge).
  std::uint32_t next_hop = kNoRoute;
  /// True when the served route relays through at least one depot.
  std::uint32_t relayed = 0;
};

/// A fully resolved decision (control-plane shape, allocates the path).
struct ResolvedRoute {
  /// Node path src..dst; empty when unreachable.
  std::vector<std::size_t> path;
  double cost = kInfiniteCost;

  [[nodiscard]] bool uses_depots() const { return path.size() > 2; }
};

class RouteSnapshot {
 public:
  /// Freeze the per-shard schedulers' current trees (plus the gateway
  /// overlay derived from `matrix`) into a new snapshot tagged `epoch`.
  /// `shards[s]` must schedule exactly layout.shard_size(s) hosts, in
  /// member order; `epsilon` is the overlay tree's edge-equivalence margin
  /// (the same value the shard schedulers damp with).
  [[nodiscard]] static std::shared_ptr<const RouteSnapshot> build(
      const ShardLayout& layout,
      std::span<const std::unique_ptr<Scheduler>> shards,
      const CostMatrix& matrix, double epsilon, std::uint64_t epoch);

  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t host_count() const { return layout_.host_count; }
  [[nodiscard]] const ShardLayout& layout() const { return layout_; }

  /// Answer one query from the flat tables (no allocation, no locks).
  [[nodiscard]] RouteAnswer lookup(const RouteQuery& query) const;

  /// Answer queries[i] into answers[i] for every i. One pass, same tables.
  void lookup_batch(std::span<const RouteQuery> queries,
                    std::span<RouteAnswer> answers) const;

  /// Materialize the full node path for (src, dst). Single-shard snapshots
  /// return exactly Scheduler::route's path; inter-shard paths are the
  /// src -> home-gateway -> ... -> dst-gateway -> dst composition.
  [[nodiscard]] ResolvedRoute resolve(std::size_t src, std::size_t dst) const;

 private:
  RouteSnapshot() = default;

  /// Flat index of the (a -> b) cell of shard s (both global ids).
  [[nodiscard]] std::size_t slot_index(std::size_t s, std::uint32_t a,
                                       std::uint32_t b) const {
    return block_offset_[s] +
           layout_.local_index[a] * layout_.shard_size(s) +
           layout_.local_index[b];
  }
  /// Pull the query's (up to two) shard-block cells toward cache before
  /// the answer pass; the batch loop runs this a chunk ahead.
  void prefetch(const RouteQuery& query) const;
  /// Append the intra-shard tree path a..b (global ids) to `out`; returns
  /// false when unreachable. Skips the leading `a` when out is non-empty.
  bool append_leg(std::size_t s, std::uint32_t a, std::uint32_t b,
                  std::vector<std::size_t>& out) const;

  /// One (source, destination) cell of a shard block: minimax cost, first
  /// hop (global id, kNoRoute unreachable), and MMP parent (local id, -1
  /// unreachable). Packed to 16 bytes so a lookup's cost + next-hop reads
  /// land in one cache line.
  struct Slot {
    double cost = kInfiniteCost;
    std::uint32_t first_hop = kNoRoute;
    std::int32_t parent = -1;
  };
  static_assert(sizeof(Slot) == 16);

  std::uint64_t epoch_ = 0;
  ShardLayout layout_;
  /// Per-shard n_s x n_s Slot blocks at block_offset_[s], row-major by
  /// local source index.
  std::vector<std::size_t> block_offset_;
  std::vector<Slot> slot_;
  /// Gateway overlay, S x S row-major by source shard: minimax cost over
  /// the gateway graph, the MMP parent (shard index, -1 unreachable), and
  /// the first gateway hop (shard index, -1 unreachable).
  std::vector<double> overlay_cost_;
  std::vector<std::int32_t> overlay_parent_;
  std::vector<std::int32_t> overlay_first_;
};

}  // namespace lsl::sched
