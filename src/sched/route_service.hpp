// Sharded, epoch-versioned route service: lock-free route lookups under
// live forecast churn.
//
// The host pool is partitioned across N scheduler shards (ShardLayout);
// each shard runs its own epsilon-damped MMP Scheduler over the shard's
// submatrix, and inter-shard routes relay through per-shard gateway depots
// (src -> home gateway -> ... -> dst gateway -> dst). The write side --
// one writer thread applying fresh forecast matrices, e.g. from an
// nws::Rescheduler tick callback -- repairs the shard schedulers
// incrementally, then freezes everything into an immutable RouteSnapshot
// and publishes it RCU-style through one std::atomic<std::shared_ptr>.
// The shard Schedulers are single-owner writer state; only snapshots
// cross threads. Readers resolve from whatever snapshot they load: zero
// locks, zero writer coordination, and a torn view is impossible because
// snapshots never mutate after publication.
//
// With a single shard the service is a pure re-encoding of one Scheduler:
// identical trees, identical decisions, identical sweep output (pinned by
// the CI determinism smoke). Sharding trades a bounded detour (routes
// cross shards only via gateways) for rebuild cost that scales with
// shard size, not pool size.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sched/route_snapshot.hpp"
#include "sched/scheduler.hpp"
#include "sched/shard.hpp"

namespace lsl::sched {

struct RouteServiceOptions {
  /// Scheduler shards to split the pool across (clamped to [1, hosts]).
  std::size_t shards = 1;
  /// Per-shard scheduler knobs (epsilon also damps the gateway overlay).
  SchedulerOptions scheduler;
  /// Worker threads for the pre-publish tree refresh (0 = one per
  /// hardware thread). Trees are identical for any value; this is purely
  /// a publish-latency knob.
  std::size_t prebuild_jobs = 1;
};

class RouteService {
 public:
  explicit RouteService(CostMatrix matrix, RouteServiceOptions options = {});
  RouteService(const RouteService&) = delete;
  RouteService& operator=(const RouteService&) = delete;

  // ---- read side (any thread, lock-free) ---------------------------------

  /// The current published snapshot (acquire load; never null). Callers
  /// holding the shared_ptr keep a consistent epoch for as long as they
  /// like -- publication never invalidates it.
  [[nodiscard]] std::shared_ptr<const RouteSnapshot> snapshot() const {
    return snapshot_.load(std::memory_order_acquire);
  }

  /// Answer one query from the current snapshot.
  [[nodiscard]] RouteAnswer lookup(const RouteQuery& query) const;

  /// Answer a batch of queries against ONE snapshot load: every answer in
  /// the batch is consistent with the same epoch even if the writer
  /// publishes mid-batch. This is the hot path -- amortizes the atomic
  /// load and streams the flat tables through cache.
  void lookup_batch(std::span<const RouteQuery> queries,
                    std::span<RouteAnswer> answers) const;

  /// Materialize the full node path (control-plane shape; allocates).
  [[nodiscard]] ResolvedRoute resolve(std::size_t src, std::size_t dst) const;

  /// Epoch of the most recently published snapshot.
  [[nodiscard]] std::uint64_t epoch() const {
    return published_epoch_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const ShardLayout& layout() const { return layout_; }
  [[nodiscard]] std::size_t shard_count() const { return layout_.shard_count; }
  [[nodiscard]] const CostMatrix& matrix() const { return matrix_; }
  /// The shard schedulers (writer-side state; exposed for tests).
  [[nodiscard]] const Scheduler& shard(std::size_t s) const {
    return *shards_[s];
  }

  // ---- write side (one writer thread; no concurrent writers) -------------

  /// Diff-apply a freshly measured full-pool matrix: changed intra-shard
  /// edges repair the owning shard's scheduler incrementally, cross-shard
  /// edges feed the gateway overlay, and a changed tick publishes a new
  /// snapshot epoch. A no-change tick publishes nothing (readers keep the
  /// current epoch; its age gauge climbs). Returns changed directed edges.
  std::size_t apply_matrix(const CostMatrix& fresh);

  /// Rebuild every shard's stale trees and publish a new snapshot epoch.
  void publish();

 private:
  void account_batch(std::size_t batch, const RouteSnapshot& snap) const;

  CostMatrix matrix_;  ///< full-pool writer matrix (overlay source)
  RouteServiceOptions options_;
  ShardLayout layout_;
  std::vector<std::unique_ptr<Scheduler>> shards_;
  std::atomic<std::shared_ptr<const RouteSnapshot>> snapshot_;
  std::atomic<std::uint64_t> published_epoch_{0};
  std::uint64_t ticks_since_publish_ = 0;
};

}  // namespace lsl::sched
