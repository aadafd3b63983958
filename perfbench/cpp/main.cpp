// lslbench: the repository benchmark binary (run it through perfbench/run.py,
// which builds it).
//
//   lslbench --workload packet_scenarios|flow_pool|control_plane
//            --seed N --seconds S --trace 0|1
//            [--scenarios DIR] [--spans FILE]
//
// One run is closed-loop and single-threaded: each op starts when the last
// one returned. lslbench
//   1. sets the workload up several times (inputs generated from --seed,
//      timed, each after one run of the reference kernel; setup_s is the
//      median, scaled to the kernel's nominal speed) and replays the first
//      digest_ops() ops on the first set-up as a warm-up;
//   2. runs a timed pass on a fresh set-up for --seconds (whole rounds, at
//      least one window of >= 100 ops so p90 has >= 10 samples above it),
//      checking every op's output and timing the reference kernel every
//      25 ms between ops; each end-to-end timing is the median over the
//      pass's windows, scaled to the kernel's nominal speed (bench.hpp),
//      and peak_rss_mib the peak up to the end of the first window;
//   3. with --trace 1, splits --seconds between an untraced pass and a
//      traced pass (spans + kernel profiling + per-layer counters) on a
//      fresh set-up, and reports per-layer metrics instead of end-to-end
//      ones.
// The digest of the first digest_ops() ops must agree between all passes,
// and ops that replay an input must reproduce its first digest; otherwise
// the run fails with exit code 3 and prints no result. The last stdout line
// is the JSON result.
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"

namespace lslbench {
namespace {

constexpr const char* kLayers[] = {"bench", "exp", "testbed", "sim",
                                   "flow", "nws", "sched"};

/// Set-up repeats: at least kMinSetups, then until kSetupBudgetS of set-up
/// time or kMaxSetups, so cheap set-ups get a steadier median.
constexpr std::size_t kMinSetups = 5;
constexpr std::size_t kMaxSetups = 51;
constexpr double kSetupBudgetS = 0.5;
/// Ops per window (rounded up to whole rounds): enough that a window's p90
/// has at least ten samples above it. Every pass runs at least one window.
constexpr std::size_t kWindowOps = 100;
/// Host time between two runs of the reference kernel in a pass; each run
/// takes ~3 ms, outside every op's timing.
constexpr auto kReferenceEvery = std::chrono::milliseconds(25);
/// The span file holds the first ops' spans only (all spans feed the
/// metrics); a flow_pool pass runs ~10^5 ops.
constexpr std::uint32_t kSpanFileOps = 2000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scenario_dir = "scenarios";
  std::string spans_path;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "lslbench: %s\nusage: lslbench --workload "
               "packet_scenarios|flow_pool|control_plane --seed N "
               "--seconds S --trace 0|1 [--scenarios DIR] [--spans FILE]\n",
               why);
  return 2;
}

std::optional<Options> parse(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (i + 1 >= argc) {
      return std::nullopt;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(arg, "--workload") == 0) {
      opts.workload = value;
      have_workload = true;
    } else if (std::strcmp(arg, "--seed") == 0) {
      opts.seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(arg, "--seconds") == 0) {
      opts.seconds = std::strtod(value, &end);
      if (!(opts.seconds > 0.0)) {
        return std::nullopt;
      }
    } else if (std::strcmp(arg, "--trace") == 0) {
      opts.trace = std::strcmp(value, "1") == 0;
      if (!opts.trace && std::strcmp(value, "0") != 0) {
        return std::nullopt;
      }
    } else if (std::strcmp(arg, "--scenarios") == 0) {
      opts.scenario_dir = value;
    } else if (std::strcmp(arg, "--spans") == 0) {
      opts.spans_path = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') {
      return std::nullopt;
    }
  }
  if (!have_workload) {
    return std::nullopt;
  }
  return opts;
}

/// What one pass over the workload's ops produced.
struct Pass {
  std::vector<double> op_s;  ///< per-op host seconds (the timed calls)
  /// Per-op payload; 0 for an op that failed its checks.
  std::vector<std::uint64_t> op_payload;
  std::size_t failed = 0;
  std::uint64_t prefix_digest = kDigestBasis;
  bool replay_mismatch = false;
  /// Process peak RSS once the pass's first min_ops ops had run.
  double rss_mib = 0.0;
  /// Reference kernel runs: the op they preceded, and their host seconds.
  std::vector<std::size_t> reference_op;
  std::vector<double> reference_s;

  [[nodiscard]] std::size_t ops() const { return op_s.size(); }
};

/// End-to-end timing metrics of a pass: each is the median of its values
/// over the pass's windows of whole rounds (identical work in every window
/// when a round covers all inputs), with every window's host times scaled
/// to the reference kernel's nominal speed by the kernel runs inside it. A
/// median, unlike an extreme, does not drift with how many windows the
/// host's speed fits into the pass.
struct WindowStats {
  double ops_per_s = 0.0;
  double op_s_p50 = 0.0;
  double op_s_p90 = 0.0;
  double payload_mib_per_s = 0.0;
  std::size_t windows = 0;
};

WindowStats window_medians(const Pass& pass, std::size_t window_ops,
                           bool scaled) {
  const std::size_t n = pass.ops();
  const std::size_t windows = std::max<std::size_t>(n / window_ops, 1);
  std::vector<double> ops_per_s;
  std::vector<double> p50;
  std::vector<double> p90;
  std::vector<double> payload_mib_per_s;
  for (std::size_t w = 0; w < windows; ++w) {
    // The trailing partial window joins the last full one.
    const std::size_t begin = w * window_ops;
    const std::size_t end = w + 1 == windows ? n : begin + window_ops;
    std::vector<double> reference;
    for (std::size_t r = 0; r < pass.reference_op.size(); ++r) {
      if (pass.reference_op[r] >= begin && pass.reference_op[r] < end) {
        reference.push_back(pass.reference_s[r]);
      }
    }
    const double scale =
        scaled ? kReferenceNominalS /
                     quantile(reference.empty() ? pass.reference_s : reference,
                              0.5)
               : 1.0;
    std::vector<double> op_s(pass.op_s.begin() + begin,
                             pass.op_s.begin() + end);
    double busy = 0.0;
    std::uint64_t payload = 0;
    std::size_t ok = 0;
    for (std::size_t i = begin; i < end; ++i) {
      op_s[i - begin] *= scale;
      busy += op_s[i - begin];
      payload += pass.op_payload[i];
      ok += pass.op_payload[i] > 0 ? 1 : 0;
    }
    ops_per_s.push_back(static_cast<double>(ok) / busy);
    p50.push_back(quantile(op_s, 0.5));
    p90.push_back(quantile(op_s, 0.9));
    payload_mib_per_s.push_back(static_cast<double>(payload) /
                                (1024.0 * 1024.0) / busy);
  }
  return {quantile(ops_per_s, 0.5), quantile(p50, 0.5), quantile(p90, 0.5),
          quantile(payload_mib_per_s, 0.5), windows};
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// First digest of each replayable input (shared by every pass).
struct ReplayTable {
  std::vector<std::uint64_t> digest;
  std::vector<bool> seen;
};

Pass run_pass(Workload& workload, Tracer* tracer, double seconds,
              std::size_t min_ops, ReplayTable& replay) {
  Pass pass;
  const std::size_t prefix = workload.digest_ops();
  const std::size_t round = std::max<std::size_t>(workload.round(), 1);
  const std::size_t period = workload.repeat_period();
  const auto start = Clock::now();
  auto reference_due = start;
  for (std::size_t i = 0;; ++i) {
    if (i >= min_ops && i % round == 0 &&
        seconds_between(start, Clock::now()) >= seconds) {
      break;
    }
    if (Clock::now() >= reference_due) {
      pass.reference_op.push_back(i);
      pass.reference_s.push_back(reference_kernel_s());
      reference_due = Clock::now() + kReferenceEvery;
    }
    std::int32_t root = -1;
    if (tracer != nullptr) {
      tracer->set_op(static_cast<std::uint32_t>(i));
      root = tracer->begin("bench.op");
    }
    const auto t0 = Clock::now();
    OpResult result = workload.run_op(i, tracer);
    const auto t1 = Clock::now();
    if (tracer != nullptr) {
      tracer->end(root);
    }
    pass.op_s.push_back(seconds_between(t0, t1));
    if (i + 1 == min_ops) {
      pass.rss_mib = peak_rss_mib();
    }
    workload.check_op(i, result);
    if (!result.ok) {
      if (pass.failed < 5) {
        std::fprintf(stderr, "lslbench: op %zu failed: %s\n", i,
                     result.failure.c_str());
      }
      ++pass.failed;
    }
    pass.op_payload.push_back(result.ok ? result.payload_bytes : 0);
    if (i < prefix) {
      mix(pass.prefix_digest, result.digest);
    }
    if (period > 0) {
      const std::size_t input = i % period;
      if (!replay.seen[input]) {
        replay.seen[input] = true;
        replay.digest[input] = result.digest;
      } else if (replay.digest[input] != result.digest) {
        if (!pass.replay_mismatch) {
          std::fprintf(stderr, "lslbench: op %zu replayed input %zu with a "
                               "different result\n", i, input);
        }
        pass.replay_mismatch = true;
      }
    }
  }
  return pass;
}

std::string number(double value) {
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

std::unique_ptr<Workload> make_workload(const Options& opts) {
  WorkloadArgs args;
  args.seed = opts.seed;
  args.scenario_dir = opts.scenario_dir;
  if (opts.workload == "packet_scenarios") {
    return make_packet_scenarios(args);
  }
  if (opts.workload == "flow_pool") {
    return make_flow_pool(args);
  }
  if (opts.workload == "control_plane") {
    return make_control_plane(args);
  }
  return nullptr;
}

void print_metrics(const Metrics& metrics) {
  for (const auto& [name, m] : metrics) {
    std::printf("  %-42s %14.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
}

int run(const Options& opts) {
  std::unique_ptr<Workload> workload = make_workload(opts);
  if (workload == nullptr) {
    return usage(("unknown workload " + opts.workload).c_str());
  }
  std::printf("lslbench %s seed=%llu seconds=%g trace=%d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);

  // 1. Set-up, repeated for a steady median; the first instance also runs
  // the warm-up replay of the digest prefix.
  ReplayTable replay;
  std::vector<double> setup_s;
  std::vector<double> setup_reference_s;  ///< one kernel run per set-up
  Pass warm;
  double setup_total = 0.0;
  while (setup_s.size() < kMinSetups ||
         (setup_total < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
    setup_reference_s.push_back(reference_kernel_s());
    const auto t0 = Clock::now();
    workload->setup();
    setup_s.push_back(seconds_between(t0, Clock::now()));
    setup_total += setup_s.back();
    if (setup_s.size() == 1) {
      replay.digest.assign(workload->repeat_period(), 0);
      replay.seen.assign(workload->repeat_period(), false);
      warm = run_pass(*workload, nullptr, 0.0, workload->digest_ops(), replay);
    }
  }

  // 2. The untraced pass on the last (fresh) set-up. Its first window ends
  // the memory measurement: a fixed amount of work, so the figure does not
  // scale with how many ops the host managed, yet one that includes timed
  // ops, so memory that grows per op shows.
  const std::size_t round = std::max<std::size_t>(workload->round(), 1);
  const std::size_t window_ops = (kWindowOps + round - 1) / round * round;
  const std::size_t min_ops = std::max(
      window_ops, (workload->digest_ops() + round - 1) / round * round);
  const double pass_s = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  const Pass untraced =
      run_pass(*workload, nullptr, pass_s, min_ops, replay);

  bool consistent = !warm.replay_mismatch && !untraced.replay_mismatch &&
                    untraced.prefix_digest == warm.prefix_digest;
  std::size_t attempted = warm.ops() + untraced.ops();
  std::size_t failed = warm.failed + untraced.failed;
  Metrics metrics;

  if (!opts.trace) {
    const WindowStats stats = window_medians(untraced, window_ops, true);
    const double setup_scale =
        kReferenceNominalS / quantile(setup_reference_s, 0.5);
    metrics["ops_per_s"] = {stats.ops_per_s, "1/s"};
    metrics["op_ms_p50"] = {stats.op_s_p50 * 1e3, "ms"};
    metrics["op_ms_p90"] = {stats.op_s_p90 * 1e3, "ms"};
    metrics["payload_mib_per_s"] = {stats.payload_mib_per_s, "MiB/s"};
    metrics["setup_s"] = {quantile(setup_s, 0.5) * setup_scale, "s"};
    metrics["peak_rss_mib"] = {untraced.rss_mib, "MiB"};
    std::printf("end to end (%zu timed ops in %zu windows of >= %zu, median "
                "over windows; %zu set-ups; host times scaled to the "
                "reference speed):\n",
                untraced.ops(), stats.windows, window_ops, setup_s.size());
    print_metrics(metrics);
    std::printf("  %-42s %14.6g ratio\n", "failed_op_ratio",
                static_cast<double>(failed) / static_cast<double>(attempted));
    std::printf("  %-42s %14.6g MiB\n", "process peak RSS at exit",
                peak_rss_mib());
    const WindowStats raw = window_medians(untraced, window_ops, false);
    std::printf("unscaled host times (reference kernel: median %.4g ms in "
                "the pass, %.4g ms in set-up, nominal %.4g ms):\n",
                quantile(untraced.reference_s, 0.5) * 1e3,
                quantile(setup_reference_s, 0.5) * 1e3,
                kReferenceNominalS * 1e3);
    std::printf("  %-42s %14.6g 1/s\n", "ops_per_s", raw.ops_per_s);
    std::printf("  %-42s %14.6g ms\n", "op_ms_p50", raw.op_s_p50 * 1e3);
    std::printf("  %-42s %14.6g ms\n", "op_ms_p90", raw.op_s_p90 * 1e3);
    std::printf("  %-42s %14.6g s\n", "setup_s", quantile(setup_s, 0.5));
  } else {
    // 3. The traced pass on a fresh set-up, counting into its own registry.
    workload->setup();
    lsl::obs::Registry registry;
    Tracer tracer;
    Pass traced;
    {
      const lsl::obs::ScopedRegistry scope(registry);
      workload->set_traced(true);
      traced = run_pass(*workload, &tracer, pass_s, min_ops, replay);
      workload->set_traced(false);
    }
    consistent = consistent && !traced.replay_mismatch &&
                 traced.prefix_digest == warm.prefix_digest;
    attempted += traced.ops();
    failed += traced.failed;

    layer_metrics(*workload, registry, tracer, traced.ops(), metrics);
    const double n = static_cast<double>(traced.ops());
    const std::map<std::string, double> self_ns = tracer.self_ns_by_layer();
    for (const char* layer : kLayers) {
      const auto it = self_ns.find(layer);
      metrics[std::string("self.") + layer + "_ms_per_op"] = {
          it != self_ns.end() ? it->second / 1e6 / n : 0.0, "ms"};
    }
    double root_ns = 0.0;
    for (const double d : tracer.durations_ns("bench.op")) {
      root_ns += d;
    }
    metrics["self.op_ms_mean"] = {root_ns / 1e6 / n, "ms"};
    const double untraced_ops_per_s =
        window_medians(untraced, window_ops, true).ops_per_s;
    metrics["obs.trace_overhead_ratio"] = {
        untraced_ops_per_s > 0.0
            ? window_medians(traced, window_ops, true).ops_per_s /
                  untraced_ops_per_s
            : 0.0,
        "ratio"};
    std::printf("per layer (%zu traced ops, %zu untraced):\n", traced.ops(),
                untraced.ops());
    print_metrics(metrics);
    std::printf("self time per layer (share of traced op time):\n");
    for (const char* layer : kLayers) {
      const double ms =
          metrics[std::string("self.") + layer + "_ms_per_op"].value;
      std::printf("  %-10s %10.4f ms/op %6.2f%%\n", layer, ms,
                  100.0 * ms / metrics["self.op_ms_mean"].value);
    }
    if (!opts.spans_path.empty()) {
      if (!tracer.write_chrome(opts.spans_path, kSpanFileOps)) {
        std::fprintf(stderr, "lslbench: cannot write %s\n",
                     opts.spans_path.c_str());
        return 2;
      }
      std::printf("spans: %zu recorded, those of the first %u ops written to "
                  "%s\n", tracer.spans().size(), kSpanFileOps,
                  opts.spans_path.c_str());
    }
  }

  std::printf("digest %s seed %llu: %016llx over the first %zu ops\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed),
              static_cast<unsigned long long>(warm.prefix_digest),
              workload->digest_ops());
  if (!consistent) {
    std::fprintf(stderr,
                 "lslbench: results differ between passes of one seed "
                 "(nondeterminism, or tracing changed a result)\n");
    return 3;
  }

  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace lslbench

int main(int argc, char** argv) {
  const std::optional<lslbench::Options> opts = lslbench::parse(argc, argv);
  if (!opts.has_value()) {
    return lslbench::usage("bad arguments");
  }
  try {
    return lslbench::run(*opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lslbench: %s\n", e.what());
    return 2;
  }
}
