// Shared pieces of the repository benchmark (lslbench): the workload
// interface main.cpp runs, an in-memory span tracer the workloads wrap
// around their calls into the simulator's modules, result digests, and
// small statistics helpers.
//
// Layers are the src/ modules. A span is named "<module>.<call>" for the
// public function it times (e.g. "testbed.materialize_path"); main.cpp's
// per-op root span is "bench.op", so a layer's self time is its spans'
// durations minus the parts their child spans cover, and the bench layer's
// self time is the benchmark's own remainder.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace lslbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- digests ---------------------------------------------------------------

constexpr std::uint64_t kDigestBasis = 0xcbf29ce484222325ULL;

/// Fold one 64-bit value into an FNV-1a digest.
void mix(std::uint64_t& digest, std::uint64_t value);
void mix_double(std::uint64_t& digest, double value);

// ---- metrics ---------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Metrics by name; std::map keeps the printed order stable.
using Metrics = std::map<std::string, Metric>;

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples.
[[nodiscard]] double quantile(std::vector<double> samples, double q);

// ---- host speed -----------------------------------------------------------

/// A shared host's memory system is contended by its other tenants: on the
/// 4-vCPU x86-64 VM this benchmark was tuned on, cache- and pointer-heavy
/// code ran 1.5-2.5x slower for stretches of seconds to minutes, while
/// register-only code held within 6%. The benchmark therefore runs a fixed
/// reference kernel of that character (a bounded binary heap, like an
/// event queue, plus scattered updates of a 1 MiB table, all in memory of
/// its own) between ops, and reports host times scaled to the kernel's
/// nominal speed: t * kReferenceNominalS / (kernel time measured alongside
/// t). A change to the program moves only t; the host's swings move both.
/// kReferenceNominalS is the kernel's time on that VM when uncontended, so
/// scaled figures there read as uncontended host times.
constexpr double kReferenceNominalS = 3.0e-3;

/// Run the reference kernel once; its host seconds.
[[nodiscard]] double reference_kernel_s();

// ---- spans -----------------------------------------------------------------

struct SpanRecord {
  const char* name = nullptr;  ///< static string
  std::int64_t start_ns = 0;   ///< since the tracer was created
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint32_t op = 0;      ///< op the span belongs to (shared by its tree)
};

/// Records nested spans in memory; nothing is written until write_chrome().
class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}

  void set_op(std::uint32_t op) { op_ = op; }
  std::int32_t begin(const char* name);
  void end(std::int32_t index);

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  /// Durations (ns) of every span with this name.
  [[nodiscard]] std::vector<double> durations_ns(std::string_view name) const;
  /// Self time (ns) summed per layer, the span-name prefix before '.'.
  [[nodiscard]] std::map<std::string, double> self_ns_by_layer() const;
  /// Chrome trace_event JSON (complete "X" events, microsecond times) of
  /// the spans of ops below `op_limit`.
  bool write_chrome(const std::string& path, std::uint32_t op_limit) const;

 private:
  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::int32_t open_ = -1;
  std::uint32_t op_ = 0;
};

/// RAII span; a null tracer makes it free apart from one branch.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->begin(name) : -1) {}
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->end(index_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

// ---- workloads -------------------------------------------------------------

/// Outcome of one op, as the output checks and the digest see it.
struct OpResult {
  bool ok = true;
  std::string failure;  ///< first failed check, for the log
  /// Simulated payload the op delivered (or, analytically, timed).
  std::uint64_t payload_bytes = 0;
  std::uint64_t digest = kDigestBasis;

  void fail(std::string why) {
    if (ok) {
      failure = std::move(why);
    }
    ok = false;
  }
};

/// Raw per-layer counts of a traced pass; layer_metrics() turns them,
/// the pass's obs::Registry counters and its spans into the per-layer
/// metrics. A workload adds only what its layers produce; the rest stays 0.
struct LayerCounts {
  lsl::sim::KernelProfile kernel;  ///< summed over the pass's simulators
  std::uint64_t transfers = 0;      ///< ops that passed their checks
  std::uint64_t payload_bytes = 0;  ///< delivered by those ops
  std::uint64_t retries = 0;        ///< TransferOutcome::retries
  std::uint64_t reroutes = 0;       ///< TransferOutcome::reroutes
  std::uint64_t solves = 0;         ///< FluidStats
  std::uint64_t flows_rated = 0;
  std::uint64_t markers = 0;
  std::uint64_t changed_edges = 0;  ///< RouteService::apply_matrix
  std::uint64_t queries = 0;        ///< routes asked of lookup_batch

  /// Schedules of every kernel category whose tag starts with `prefix`.
  [[nodiscard]] std::uint64_t schedules(std::string_view prefix) const;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generate every input from the seed and build a fresh run state. The
  /// benchmark times each call as set-up and may call it several times.
  virtual void setup() = 0;

  /// Pre-generated inputs that ops cycle through when ops are pure
  /// functions of their input: op i and op i + repeat_period() must then
  /// produce the same digest. 0 for stateful workloads.
  [[nodiscard]] virtual std::size_t repeat_period() const = 0;
  /// The timed loop stops only after a whole multiple of this many ops.
  [[nodiscard]] virtual std::size_t round() const { return 1; }
  /// Ops whose digests are compared between passes of one seed.
  [[nodiscard]] virtual std::size_t digest_ops() const = 0;

  /// Op i: the calls into the simulator, which the benchmark times.
  virtual OpResult run_op(std::size_t i, Tracer* tracer) = 0;
  /// Output checks on op i, run untimed right after it.
  virtual void check_op(std::size_t i, OpResult& result) = 0;

  /// Traced passes turn on kernel profiling and per-layer counting;
  /// turning it on zeroes the counts.
  void set_traced(bool traced) {
    traced_ = traced;
    if (traced) {
      counts_ = {};
    }
  }
  [[nodiscard]] const LayerCounts& counts() const { return counts_; }
  /// RouteService construction time of each set-up (control_plane only).
  [[nodiscard]] const std::vector<double>& prebuild_s() const {
    return prebuild_s_;
  }

 protected:
  bool traced_ = false;
  LayerCounts counts_;
  std::vector<double> prebuild_s_;
};

/// Inputs the workloads read from the checkout.
struct WorkloadArgs {
  std::uint64_t seed = 1;
  std::string scenario_dir = "scenarios";
};

[[nodiscard]] std::unique_ptr<Workload> make_packet_scenarios(
    const WorkloadArgs& args);
[[nodiscard]] std::unique_ptr<Workload> make_flow_pool(
    const WorkloadArgs& args);
[[nodiscard]] std::unique_ptr<Workload> make_control_plane(
    const WorkloadArgs& args);

// ---- per-layer metrics ----------------------------------------------------

/// Every per-layer metric a workload's traced pass reports except the
/// obs.* and self.* ones main.cpp derives from both passes: from the
/// workload's counts, the pass's registry and its spans over `ops` ops. A
/// layer the workload does not use reads 0.
void layer_metrics(const Workload& workload, lsl::obs::Registry& registry,
                   const Tracer& tracer, std::size_t ops, Metrics& out);

}  // namespace lslbench
