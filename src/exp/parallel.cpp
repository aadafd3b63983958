#include "exp/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace lsl::exp {

void for_each_trial(std::size_t n, const TrialOptions& options,
                    const std::function<void(std::size_t)>& body) {
  if (n == 0) {
    return;
  }
  std::size_t jobs =
      options.jobs == 0 ? ThreadPool::default_jobs() : options.jobs;
  jobs = std::min(jobs, n);
  if (jobs <= 1) {
    // The reference serial loop: no threads, but the same per-trial sink
    // scoping as the workers use. Without it, gauges would accumulate their
    // value (and therefore their high-water mark) ACROSS trials in serial
    // runs while parallel runs reset them per trial -- the merged output
    // would depend on --jobs. Scoping here and merging immediately in loop
    // order makes every jobs value reproduce this exact stream.
    obs::Registry& parent_registry = obs::Registry::global();
    obs::SpanRecorder* parent_spans = obs::spans();
    for (std::size_t trial = 0; trial < n; ++trial) {
      std::unique_ptr<obs::Registry> trial_registry;
      std::unique_ptr<obs::SpanRecorder> trial_spans;
      {
        std::optional<obs::ScopedRegistry> registry_scope;
        std::optional<obs::ScopedSpanRecorder> span_scope;
        if (options.scope_metrics) {
          trial_registry = std::make_unique<obs::Registry>();
          registry_scope.emplace(*trial_registry);
        }
        if (parent_spans != nullptr) {
          trial_spans = std::make_unique<obs::SpanRecorder>(
              parent_spans->per_session_capacity());
          span_scope.emplace(trial_spans.get());
        }
        body(trial);
      }
      if (trial_registry != nullptr) {
        parent_registry.merge_from(*trial_registry);
      }
      if (trial_spans != nullptr) {
        parent_spans->append_from(*trial_spans);
      }
    }
    return;
  }

  std::size_t chunk = options.chunk;
  if (chunk == 0) {
    // Small enough to balance uneven trial costs, large enough that the
    // cursor bump is noise. ~8 claims per worker.
    chunk = std::max<std::size_t>(1, n / (jobs * 8));
  }

  // Caller-side observability sinks, captured before workers start.
  obs::Registry& parent_registry = obs::Registry::global();
  obs::SpanRecorder* parent_spans = obs::spans();
  std::vector<std::unique_ptr<obs::Registry>> trial_registries;
  std::vector<std::unique_ptr<obs::SpanRecorder>> trial_spans;
  if (options.scope_metrics) {
    trial_registries.resize(n);
  }
  if (parent_spans != nullptr) {
    trial_spans.resize(n);
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  std::size_t first_error_trial = n;

  ThreadPool pool(jobs - 1);
  pool.run_on_all([&](std::size_t) {
    for (;;) {
      const std::size_t begin =
          cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (begin >= n || failed.load(std::memory_order_relaxed)) {
        return;
      }
      const std::size_t end = std::min(begin + chunk, n);
      for (std::size_t trial = begin; trial < end; ++trial) {
        // Scope this trial's built-in instrumentation to private sinks so
        // the shared registry/recorder are never touched concurrently.
        std::optional<obs::ScopedRegistry> registry_scope;
        std::optional<obs::ScopedSpanRecorder> span_scope;
        if (options.scope_metrics) {
          trial_registries[trial] = std::make_unique<obs::Registry>();
          registry_scope.emplace(*trial_registries[trial]);
        }
        if (parent_spans != nullptr) {
          trial_spans[trial] = std::make_unique<obs::SpanRecorder>(
              parent_spans->per_session_capacity());
          span_scope.emplace(trial_spans[trial].get());
        }
        try {
          body(trial);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          // Keep the lowest-index failure so the rethrown exception does
          // not depend on worker scheduling.
          if (trial < first_error_trial) {
            first_error_trial = trial;
            first_error = std::current_exception();
          }
          failed.store(true, std::memory_order_relaxed);
        }
      }
    }
  });

  if (first_error != nullptr) {
    std::rethrow_exception(first_error);
  }

  // Post-hoc, ordered merge: totals and span streams come out exactly as
  // the serial loop would have produced them.
  for (std::size_t trial = 0; trial < n; ++trial) {
    if (options.scope_metrics && trial_registries[trial] != nullptr) {
      parent_registry.merge_from(*trial_registries[trial]);
    }
    if (parent_spans != nullptr && trial_spans[trial] != nullptr) {
      parent_spans->append_from(*trial_spans[trial]);
    }
  }
}

}  // namespace lsl::exp
