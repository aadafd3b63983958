// Shared helpers for the figure/table regeneration binaries.
//
// Every binary prints: a banner naming the paper artifact it regenerates,
// the data series (CSV-friendly), and a short interpretation line comparing
// against the paper's qualitative claim. Iteration counts can be scaled
// down with LSL_BENCH_SCALE (e.g. 0.2 for smoke runs).
//
// Each bench also drops a metrics sidecar at exit: a JSON snapshot of the
// global metrics registry named <binary>.metrics.json after the bench
// binary (LSL_BENCH_BINARY, defined per target in bench/CMakeLists.txt),
// in the working directory or under LSL_BENCH_METRICS_DIR;
// LSL_BENCH_METRICS=off skips it. See docs/observability.md.
// Perf-trajectory output: --json <file> (or LSL_BENCH_JSON=<file>) makes a
// bench write machine-readable {bench, metric, value} records through
// JsonRecords, so successive PRs can diff results/BENCH_*.json. Wall-clock
// metrics are named *_wall_seconds / *_per_second so determinism checks can
// filter them out. --jobs N (or LSL_BENCH_JOBS=N) sets the trial-engine
// parallelism for benches that sweep.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "exp/harness.hpp"
#include "obs/metrics.hpp"

namespace lsl::bench {

inline double scale_factor() {
  if (const char* v = std::getenv("LSL_BENCH_SCALE")) {
    const double s = std::atof(v);
    if (s > 0.0) {
      return s;
    }
  }
  return 1.0;
}

inline std::size_t scaled(std::size_t n, std::size_t min_value = 1) {
  const auto s = static_cast<std::size_t>(static_cast<double>(n) *
                                          scale_factor());
  return s < min_value ? min_value : s;
}

/// Command-line options shared by the figure/ablation binaries.
struct BenchOptions {
  /// Trial-engine workers (--jobs N / LSL_BENCH_JOBS). Default 1: a bench
  /// must opt into parallelism explicitly so published figures stay
  /// attributable to a known configuration. 0 = hardware concurrency.
  std::size_t jobs = 1;
  /// When non-empty, write {bench, metric, value} records here at the
  /// bench's discretion (--json <file> / LSL_BENCH_JSON).
  std::string json_path;
  /// Measurement fidelity for benches that sweep (--fidelity=... /
  /// LSL_BENCH_FIDELITY): "analytic" (default, unset), "flow", or
  /// "packet". The sweep benches pass it to testbed::SweepConfig; other
  /// benches ignore it. See docs/flow_fidelity.md.
  std::optional<exp::Fidelity> fidelity;
};

/// Parses the shared options. --help / -h prints them and exits 0, before
/// the bench does any work.
inline BenchOptions parse_options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      std::printf(
          "usage: %s [--jobs N] [--json <file>]\n"
          "          [--fidelity=analytic|flow|packet]\n"
          "  --jobs N        trial-engine workers (LSL_BENCH_JOBS; default 1,\n"
          "                  0 = one per hardware thread)\n"
          "  --json <file>   write {bench, metric, value} records\n"
          "                  (LSL_BENCH_JSON)\n"
          "  --fidelity=...  measurement back end of sweeping benches\n"
          "                  (LSL_BENCH_FIDELITY; default analytic)\n"
          "  LSL_BENCH_SCALE=F scales iteration counts (0.05 for a smoke\n"
          "  run); LSL_BENCH_METRICS_DIR / LSL_BENCH_METRICS=off place or\n"
          "  skip the metrics sidecar.\n",
          argv[0]);
      std::exit(0);
    }
  }
  BenchOptions opts;
  if (const char* v = std::getenv("LSL_BENCH_JOBS")) {
    opts.jobs = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
  }
  if (const char* v = std::getenv("LSL_BENCH_JSON")) {
    opts.json_path = v;
  }
  std::string fidelity = "analytic";
  if (const char* v = std::getenv("LSL_BENCH_FIDELITY")) {
    fidelity = v;
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      opts.jobs = static_cast<std::size_t>(
          std::strtoull(argv[++i], nullptr, 10));
    } else if (std::strncmp(argv[i], "--jobs=", 7) == 0) {
      opts.jobs = static_cast<std::size_t>(
          std::strtoull(argv[i] + 7, nullptr, 10));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      opts.json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      opts.json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--fidelity") == 0 && i + 1 < argc) {
      fidelity = argv[++i];
    } else if (std::strncmp(argv[i], "--fidelity=", 11) == 0) {
      fidelity = argv[i] + 11;
    }
  }
  exp::Fidelity parsed = exp::Fidelity::kPacket;
  if (exp::parse_fidelity(fidelity, parsed)) {
    opts.fidelity = parsed;
  } else if (fidelity != "analytic") {
    std::fprintf(stderr,
                 "bench: unknown fidelity '%s' (analytic|flow|packet), "
                 "using analytic\n",
                 fidelity.c_str());
  }
  return opts;
}

/// argv minus the shared --jobs/--json options and their values, for
/// google-benchmark, which rejects flags it does not know:
///   lsl::bench::BenchmarkArgs args(argc, argv);
///   benchmark::Initialize(&args.argc, args.argv());
/// Everything else (--benchmark_*) passes through in order.
class BenchmarkArgs {
 public:
  BenchmarkArgs(int argc, char** argv) {
    args_.reserve(static_cast<std::size_t>(argc) + 1);
    for (int i = 0; i < argc; ++i) {
      if ((std::strcmp(argv[i], "--jobs") == 0 ||
           std::strcmp(argv[i], "--json") == 0) &&
          i + 1 < argc) {
        ++i;  // skip the option's value too
      } else if (std::strncmp(argv[i], "--jobs=", 7) != 0 &&
                 std::strncmp(argv[i], "--json=", 7) != 0) {
        args_.push_back(argv[i]);
      }
    }
    this->argc = static_cast<int>(args_.size());
    args_.push_back(nullptr);
  }

  /// Count of the kept arguments; benchmark::Initialize updates it.
  int argc = 0;
  [[nodiscard]] char** argv() { return args_.data(); }

 private:
  std::vector<char*> args_;
};

/// Accumulates {bench, metric, value} records and writes them as a JSON
/// array, one record per line (so text diffs and greps work record-wise).
class JsonRecords {
 public:
  explicit JsonRecords(std::string bench) : bench_(std::move(bench)) {}

  void add(const std::string& metric, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", value);
    records_.push_back("{\"bench\": \"" + bench_ + "\", \"metric\": \"" +
                       metric + "\", \"value\": " + buf + "}");
  }

  /// No-op (returning true) when path is empty.
  bool write(const std::string& path) const {
    if (path.empty()) {
      return true;
    }
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
      return false;
    }
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < records_.size(); ++i) {
      std::fputs(records_[i].c_str(), f);
      std::fputs(i + 1 < records_.size() ? ",\n" : "\n", f);
    }
    std::fputs("]\n", f);
    std::fclose(f);
    return true;
  }

 private:
  std::string bench_;
  std::vector<std::string> records_;
};

namespace detail {

inline std::string& sidecar_path() {
  static std::string path;
  return path;
}

inline void write_sidecar() {
  const std::string& path = sidecar_path();
  if (path.empty()) {
    return;
  }
  if (!obs::Registry::global().write_json(path)) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
  }
}

}  // namespace detail

inline void banner(const char* artifact, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n", artifact);
  std::printf("  %s\n", description);
  std::printf("==============================================================\n");
  if (const char* v = std::getenv("LSL_BENCH_METRICS");
      v != nullptr && (std::string(v) == "off" || std::string(v) == "0")) {
    return;
  }
  // Named after the binary, not the artifact text: the eleven ablations
  // share one artifact prefix but must not overwrite each other's sidecar.
  std::string path = LSL_BENCH_BINARY ".metrics.json";
  if (const char* dir = std::getenv("LSL_BENCH_METRICS_DIR")) {
    path = std::string(dir) + "/" + path;
  }
  // Touch the registry before registering the atexit hook: function-local
  // statics are destroyed in reverse construction order, so this guarantees
  // it still exists when the hook fires.
  (void)obs::Registry::global();
  const bool first = detail::sidecar_path().empty();
  detail::sidecar_path() = std::move(path);
  if (first) {
    std::atexit(&detail::write_sidecar);
  }
}

}  // namespace lsl::bench
