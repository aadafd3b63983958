#include "sched/route_service.hpp"

#include <utility>

#include "util/assert.hpp"

namespace lsl::sched {

RouteService::RouteService(CostMatrix matrix, RouteServiceOptions options)
    : matrix_(std::move(matrix)), options_(std::move(options)) {
  LSL_ASSERT(options_.scheduler.host_costs.empty() ||
             options_.scheduler.host_costs.size() == matrix_.size());
  layout_ = ShardLayout::build(matrix_, options_.shards);
  shards_.reserve(layout_.shard_count);
  for (std::size_t s = 0; s < layout_.shard_count; ++s) {
    const std::size_t ns = layout_.shard_size(s);
    const std::uint32_t* member = layout_.shard_members(s);
    CostMatrix sub(ns);
    for (std::size_t i = 0; i < ns; ++i) {
      for (std::size_t j = 0; j < ns; ++j) {
        if (i != j) {
          sub.set_cost(i, j, matrix_.cost(member[i], member[j]));
        }
      }
    }
    SchedulerOptions shard_options = options_.scheduler;
    if (!options_.scheduler.host_costs.empty()) {
      shard_options.host_costs.resize(ns);
      for (std::size_t i = 0; i < ns; ++i) {
        shard_options.host_costs[i] = options_.scheduler.host_costs[member[i]];
      }
    }
    shards_.push_back(
        std::make_unique<Scheduler>(std::move(sub), std::move(shard_options)));
  }
  publish();
}

RouteAnswer RouteService::lookup(const RouteQuery& query) const {
  const std::shared_ptr<const RouteSnapshot> snap = snapshot();
  const RouteAnswer answer = snap->lookup(query);
  account_batch(1, *snap);
  return answer;
}

void RouteService::lookup_batch(std::span<const RouteQuery> queries,
                                std::span<RouteAnswer> answers) const {
  const std::shared_ptr<const RouteSnapshot> snap = snapshot();
  snap->lookup_batch(queries, answers);
  account_batch(queries.size(), *snap);
}

ResolvedRoute RouteService::resolve(std::size_t src, std::size_t dst) const {
  return snapshot()->resolve(src, dst);
}

void RouteService::account_batch(std::size_t batch,
                                 const RouteSnapshot& snap) const {
  if (batch == 0) {
    return;
  }
  SchedMetrics& m = SchedMetrics::get();
  m.rs_lookups->inc(batch);
  m.rs_batch_size->observe(static_cast<double>(batch));
  if (snap.epoch() != epoch()) {
    // The writer published while this batch was being answered; the batch
    // is still internally consistent (all answers came from one epoch).
    m.rs_stale_epochs->inc();
  }
}

std::size_t RouteService::apply_matrix(const CostMatrix& fresh) {
  LSL_ASSERT_MSG(fresh.size() == matrix_.size(),
                 "route service matrix size changed");
  const std::size_t n = matrix_.size();
  std::size_t changed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* have = matrix_.row(i);
    const double* want = fresh.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j || have[j] == want[j]) {
        continue;
      }
      matrix_.set_cost(i, j, want[j]);
      ++changed;
      // Intra-shard edges go to the owning scheduler (its trees go stale);
      // cross-shard edges only feed the gateway overlay, which publish()
      // re-derives from matrix_ wholesale.
      const std::uint32_t si = layout_.shard_of[i];
      if (si == layout_.shard_of[j]) {
        shards_[si]->set_cost(layout_.local_index[i], layout_.local_index[j],
                              want[j]);
      }
    }
  }
  if (changed == 0) {
    ++ticks_since_publish_;
    SchedMetrics::get().rs_epoch_age_ticks->set(
        static_cast<double>(ticks_since_publish_));
    return 0;
  }
  publish();
  return changed;
}

void RouteService::publish() {
  for (const std::unique_ptr<Scheduler>& shard : shards_) {
    shard->prebuild_trees(options_.prebuild_jobs);
  }
  const std::uint64_t epoch =
      published_epoch_.load(std::memory_order_relaxed) + 1;
  std::shared_ptr<const RouteSnapshot> snap = RouteSnapshot::build(
      layout_, shards_, matrix_, options_.scheduler.epsilon, epoch);
  // Epoch first, snapshot second: a reader that already sees the new
  // snapshot must never observe the old epoch (spurious stale count).
  published_epoch_.store(epoch, std::memory_order_relaxed);
  snapshot_.store(std::move(snap), std::memory_order_release);
  ticks_since_publish_ = 0;
  SchedMetrics& m = SchedMetrics::get();
  m.rs_snapshot_swaps->inc();
  m.rs_epoch->set(static_cast<double>(epoch));
  m.rs_epoch_age_ticks->set(0.0);
}

}  // namespace lsl::sched
