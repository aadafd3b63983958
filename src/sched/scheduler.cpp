#include "sched/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <utility>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace lsl::sched {

SchedMetrics* SchedMetrics::get() {
  if (!obs::metrics_enabled()) {
    return nullptr;
  }
  // Thread-local, revalidated by registry uid (parallel trials swap the
  // thread's registry via obs::ScopedRegistry).
  thread_local SchedMetrics metrics;
  thread_local std::uint64_t bound_uid = 0;
  auto& reg = obs::Registry::global();
  if (bound_uid != reg.uid()) {
    bound_uid = reg.uid();
    metrics.trees_built = &reg.counter("sched.mmp.trees_built");
    metrics.repair_fallbacks = &reg.counter("sched.mmp.repair_fallbacks");
    metrics.epsilon_collapses = &reg.counter("sched.mmp.epsilon_collapses");
    metrics.route_decisions = &reg.counter("sched.mmp.route_decisions");
    metrics.relays_chosen = &reg.counter("sched.mmp.relays_chosen");
    metrics.reroutes = &reg.counter("sched.mmp.reroutes");
    metrics.tree_build_us = &reg.histogram(
        "sched.mmp.tree_build_us", obs::exponential_buckets(1.0, 4.0, 10));
    metrics.rs_snapshot_swaps =
        &reg.counter("sched.route_service.snapshot_swaps");
    metrics.rs_lookups = &reg.counter("sched.route_service.lookups");
    metrics.rs_stale_epochs = &reg.counter("sched.route_service.stale_epochs");
    metrics.rs_epoch = &reg.gauge("sched.route_service.epoch");
    metrics.rs_epoch_age_ticks =
        &reg.gauge("sched.route_service.epoch_age_ticks");
    metrics.rs_batch_size = &reg.histogram(
        "sched.route_service.batch_size", obs::exponential_buckets(1.0, 2.0, 12));
  }
  return &metrics;
}

Scheduler::Scheduler(CostMatrix matrix, SchedulerOptions options)
    : matrix_(std::move(matrix)),
      options_(std::move(options)),
      trees_(matrix_.size()) {
  LSL_ASSERT(options_.host_costs.empty() ||
             options_.host_costs.size() == matrix_.size());
  tree_gen_.assign(matrix_.size(), matrix_.generation());
}

MmpOptions Scheduler::mmp_options() const {
  MmpOptions mmp;
  mmp.epsilon = options_.epsilon;
  mmp.node_costs = options_.host_costs;
  return mmp;
}

Scheduler::SlotOutcome Scheduler::refresh_slot(std::size_t src) const {
  const std::uint64_t gen = matrix_.generation();
  SlotOutcome out;
  if (!trees_[src].has_value()) {
    out.kind = SlotOutcome::kBuilt;
  } else if (tree_gen_[src] != gen) {
    out.kind = SlotOutcome::kRebuilt;
  } else {
    return out;  // kUntouched
  }
  trees_[src] = build_mmp_tree(matrix_, src, mmp_options());
  out.collapses = trees_[src]->epsilon_collapses;
  tree_gen_[src] = gen;
  return out;
}

void Scheduler::account(SchedMetrics& m, const SlotOutcome& out) {
  switch (out.kind) {
    case SlotOutcome::kUntouched:
      break;
    case SlotOutcome::kRebuilt:
      m.repair_fallbacks->inc();
      [[fallthrough]];
    case SlotOutcome::kBuilt:
      m.trees_built->inc();
      m.epsilon_collapses->inc(out.collapses);
      break;
  }
}

const MmpTree& Scheduler::tree_from(std::size_t src) const {
  LSL_ASSERT(src < trees_.size());
  if (trees_[src].has_value() && tree_gen_[src] == matrix_.generation()) {
    return *trees_[src];
  }
  SchedMetrics* m = SchedMetrics::get();
  if (m == nullptr) {
    (void)refresh_slot(src);
    return *trees_[src];
  }
  const auto t0 = std::chrono::steady_clock::now();
  const SlotOutcome out = refresh_slot(src);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  account(*m, out);
  if (out.kind != SlotOutcome::kUntouched) {
    m->tree_build_us->observe(
        std::chrono::duration<double, std::micro>(elapsed).count());
  }
  return *trees_[src];
}

std::vector<net::NodeId> Scheduler::Decision::via() const {
  std::vector<net::NodeId> hops;
  if (path.size() > 2) {
    for (std::size_t i = 1; i + 1 < path.size(); ++i) {
      hops.push_back(static_cast<net::NodeId>(path[i]));
    }
  }
  return hops;
}

Scheduler::Decision Scheduler::route(std::size_t src, std::size_t dst) const {
  LSL_ASSERT(src < matrix_.size() && dst < matrix_.size());
  Decision decision;
  decision.direct_cost = matrix_.cost(src, dst);
  const MmpTree& tree = tree_from(src);
  decision.path = tree.path_to(dst);
  if (!decision.path.empty()) {
    decision.scheduled_cost = tree.cost[dst];
  }
  if (SchedMetrics* m = SchedMetrics::get(); m != nullptr) {
    m->route_decisions->inc();
    if (decision.uses_depots()) {
      m->relays_chosen->inc();
    }
  }
  return decision;
}

Scheduler::Decision Scheduler::route_avoiding(
    std::size_t src, std::size_t dst,
    const std::vector<std::size_t>& excluded) const {
  LSL_ASSERT(src < matrix_.size() && dst < matrix_.size());
  if (excluded.empty()) {
    return route(src, dst);
  }
  // Exclusion overlay: the masked nodes never enter the tree, so the
  // reroute needs no n x n matrix copy.
  const std::size_t n = matrix_.size();
  std::vector<std::uint8_t> mask(n, 0);
  for (const std::size_t node : excluded) {
    if (node < n && node != src && node != dst) {
      mask[node] = 1;
    }
  }
  MmpOptions mmp = mmp_options();
  mmp.excluded = mask;
  const MmpTree tree = build_mmp_tree(matrix_, src, mmp);
  Decision decision;
  decision.direct_cost = matrix_.cost(src, dst);
  decision.path = tree.path_to(dst);
  if (!decision.path.empty()) {
    decision.scheduled_cost = tree.cost[dst];
  }
  if (SchedMetrics* m = SchedMetrics::get(); m != nullptr) {
    m->route_decisions->inc();
    m->reroutes->inc();
    if (decision.uses_depots()) {
      m->relays_chosen->inc();
    }
  }
  return decision;
}

session::RouteTable Scheduler::route_table_for(std::size_t node) const {
  const MmpTree& tree = tree_from(node);
  session::RouteTable table;
  for (std::size_t dst = 0; dst < matrix_.size(); ++dst) {
    if (dst == node) {
      continue;
    }
    const auto path = tree.path_to(dst);
    if (path.size() >= 2) {
      table.set(static_cast<net::NodeId>(dst),
                static_cast<net::NodeId>(path[1]));
    }
  }
  return table;
}

double Scheduler::fraction_scheduled() const {
  const std::size_t n = matrix_.size();
  if (n < 2) {
    return 0.0;
  }
  std::size_t scheduled = 0;
  std::size_t total = 0;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t t = 0; t < n; ++t) {
      if (s == t) {
        continue;
      }
      ++total;
      if (route(s, t).uses_depots()) {
        ++scheduled;
      }
    }
  }
  return static_cast<double>(scheduled) / static_cast<double>(total);
}

void Scheduler::set_cost(std::size_t i, std::size_t j, double cost) {
  matrix_.set_cost(i, j, cost);
}

std::size_t Scheduler::apply_matrix(const CostMatrix& fresh) {
  LSL_ASSERT_MSG(fresh.size() == matrix_.size(),
                 "apply_matrix needs a same-size matrix");
  const std::size_t n = matrix_.size();
  std::size_t changed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double* want = fresh.row(i);
    for (std::size_t j = 0; j < n; ++j) {
      // inf == inf compares equal, so untouched absent edges are skipped.
      if (matrix_.row(i)[j] != want[j]) {
        matrix_.set_cost(i, j, want[j]);
        ++changed;
      }
    }
  }
  return changed;
}

void Scheduler::prebuild_trees(std::size_t jobs,
                               std::span<const std::size_t> sources) {
  const std::size_t n = trees_.size();
  // Deduplicated worklist: each slot has exactly one owner among the
  // workers, so they refresh disjoint slots without any lock.
  std::vector<std::size_t> work;
  if (sources.empty()) {
    work.resize(n);
    std::iota(work.begin(), work.end(), std::size_t{0});
  } else {
    std::vector<std::uint8_t> seen(n, 0);
    work.reserve(sources.size());
    for (const std::size_t src : sources) {
      if (src < n && seen[src] == 0) {
        seen[src] = 1;
        work.push_back(src);
      }
    }
  }
  // Workers touch no shared instruments; metrics are accounted afterwards
  // in slot order so the totals are identical for any job count (the
  // per-build wall-clock histogram is deliberately skipped: it could never
  // be deterministic across workers).
  std::vector<SlotOutcome> outcomes(work.size());
  std::atomic<std::size_t> cursor{0};
  ThreadPool pool((jobs == 0 ? ThreadPool::default_jobs() : jobs) - 1);
  pool.run_on_all([&](std::size_t) {
    for (std::size_t w = cursor.fetch_add(1, std::memory_order_relaxed);
         w < work.size(); w = cursor.fetch_add(1, std::memory_order_relaxed)) {
      outcomes[w] = refresh_slot(work[w]);
    }
  });
  if (SchedMetrics* m = SchedMetrics::get(); m != nullptr) {
    for (const SlotOutcome& out : outcomes) {
      account(*m, out);
    }
  }
}

}  // namespace lsl::sched
