#include "bench.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <functional>

namespace lslbench {

void mix(std::uint64_t& digest, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    digest ^= (value >> (8 * byte)) & 0xFFU;
    digest *= 0x100000001b3ULL;
  }
}

void mix_double(std::uint64_t& digest, double value) {
  mix(digest, std::bit_cast<std::uint64_t>(value));
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

namespace {
/// Keeps the compiler from dropping the reference kernel's work.
volatile std::uint64_t reference_sink = 0;
}  // namespace

double reference_kernel_s() {
  constexpr std::size_t kHeapCap = 4000;
  constexpr std::size_t kTableSize = std::size_t{1} << 17;  // 1 MiB
  static std::vector<std::uint64_t> heap(kHeapCap + 1);
  static std::vector<std::uint64_t> table(kTableSize);
  const auto t0 = Clock::now();
  std::size_t size = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t i = 0; i < 60000; ++i) {
    x ^= x << 13U;
    x ^= x >> 7U;
    x ^= x << 17U;
    heap[size++] = x;
    std::push_heap(heap.begin(), heap.begin() + static_cast<long>(size),
                   std::greater<>());
    table[x & (kTableSize - 1)] += i;
    if (size > kHeapCap) {
      std::pop_heap(heap.begin(), heap.begin() + static_cast<long>(size),
                    std::greater<>());
      --size;
    }
  }
  reference_sink = heap[0] + table[x & (kTableSize - 1)];
  return seconds_between(t0, Clock::now());
}

std::int32_t Tracer::begin(const char* name) {
  SpanRecord span;
  span.name = name;
  span.parent = open_;
  span.op = op_;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - epoch_)
                      .count();
  spans_.push_back(span);
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::end(std::int32_t index) {
  SpanRecord& span = spans_[static_cast<std::size_t>(index)];
  span.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    Clock::now() - epoch_)
                    .count();
  open_ = span.parent;
}

std::vector<double> Tracer::durations_ns(std::string_view name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

std::map<std::string, double> Tracer::self_ns_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const std::string_view name = spans_[i].name;
    const std::string layer(name.substr(0, name.find('.')));
    self[layer] += static_cast<double>(spans_[i].end_ns -
                                       spans_[i].start_ns - child_ns[i]);
  }
  return self;
}

bool Tracer::write_chrome(const std::string& path,
                          std::uint32_t op_limit) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fputs("{\"traceEvents\":[\n", out);
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.op >= op_limit) {
      continue;
    }
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                 "\"span\":%zu,\"parent\":%d}}\n",
                 first ? "" : ",", span.name,
                 static_cast<int>(std::string_view(span.name).find('.')),
                 span.name, static_cast<double>(span.start_ns) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                 span.op, i, span.parent);
    first = false;
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

std::uint64_t LayerCounts::schedules(std::string_view prefix) const {
  std::uint64_t total = 0;
  for (const auto& [category, count] : kernel.category_counts) {
    if (category.starts_with(prefix)) {
      total += count;
    }
  }
  return total;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double sum(const std::vector<double>& xs) {
  double total = 0.0;
  for (const double x : xs) {
    total += x;
  }
  return total;
}

/// The sim.* metrics. KernelProfile::category_counts counts schedules
/// (arm/cancel pairs included), not executions; the names say so.
void kernel_metrics(const LayerCounts& c, double ops, Metrics& out) {
  const lsl::sim::KernelProfile& p = c.kernel;
  const auto scheduled = static_cast<double>(p.events_scheduled);
  const auto executed = static_cast<double>(p.events_executed);
  out["sim.events_executed_per_op"] = {executed / ops, "events/op"};
  out["sim.events_scheduled_per_op"] = {scheduled / ops, "events/op"};
  out["sim.cancelled_per_scheduled"] = {
      ratio(static_cast<double>(p.events_cancelled), scheduled), "ratio"};
  out["sim.ns_per_event"] = {ratio(p.wall_seconds * 1e9, executed), "ns"};
  out["sim.queue_high_water"] = {static_cast<double>(p.queue_high_water),
                                 "events"};
  static const char* const kCategories[] = {
      "net.link.tx",  "net.link.propagate", "net.loopback",
      "net.fluid.ack", "net.fluid.deliver", "fluid.marker",
      "fluid.ramp",    "tcp.rto",           "tcp.delack",
      "tcp.persist",   "tcp.time_wait",     "tcp.eof",
      "lsl.depot",     "lsl.recovery",      "fault."};
  for (const char* category : kCategories) {
    std::string name = std::string("sim.schedules_per_op.") + category;
    if (name.back() == '.') {
      name.pop_back();
    }
    out[name] = {static_cast<double>(c.schedules(category)) / ops,
                 "schedules/op"};
  }
  out["sim.schedules_per_op.untagged"] = {
      static_cast<double>(p.events_scheduled - c.schedules("")) / ops,
      "schedules/op"};
}

}  // namespace

void layer_metrics(const Workload& workload, lsl::obs::Registry& registry,
                   const Tracer& tracer, std::size_t ops, Metrics& out) {
  const LayerCounts& c = workload.counts();
  const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
  const double transfers = static_cast<double>(c.transfers);
  const double payload = static_cast<double>(c.payload_bytes);
  const double payload_mib = payload / (1024.0 * 1024.0);
  const auto counter = [&registry](const char* name) {
    return static_cast<double>(registry.counter(name).value());
  };
  const auto p50 = [&tracer](const char* span) {
    return quantile(tracer.durations_ns(span), 0.5);
  };
  const auto mean = [&tracer](const char* span) {
    const std::vector<double> ns = tracer.durations_ns(span);
    return ratio(sum(ns), static_cast<double>(ns.size()));
  };

  kernel_metrics(c, n, out);

  out["net.link_events_per_mib"] = {
      ratio(static_cast<double>(c.schedules("net.link.")), payload_mib),
      "schedules/MiB"};
  out["tcp.timer_schedules_per_mib"] = {
      ratio(static_cast<double>(c.schedules("tcp.rto")), payload_mib),
      "schedules/MiB"};
  out["tcp.retransmit_ratio"] = {
      ratio(counter("tcp.conn.retransmits"), counter("tcp.conn.segments_sent")),
      "ratio"};

  out["lsl.relayed_bytes_per_payload_byte"] = {
      ratio(counter("lsl.depot.bytes_relayed"), payload), "B/B"};
  out["lsl.recovery_retries_per_op"] = {static_cast<double>(c.retries) / n,
                                        "retries/op"};
  out["lsl.planned_handovers_per_op"] = {static_cast<double>(c.reroutes) / n,
                                         "handovers/op"};
  out["lsl.depot_stall_ms_per_op"] = {counter("lsl.depot.stall_us") / 1e3 / n,
                                      "sim-ms/op"};

  // The fluid engine's own kernel events: marker, ramp, and the
  // fluid-delivery/ack events it posts to TCP.
  out["flow.events_per_transfer"] = {
      ratio(static_cast<double>(c.schedules("fluid.") +
                                c.schedules("net.fluid.")),
            transfers),
      "events/transfer"};
  out["flow.solves_per_transfer"] = {
      ratio(static_cast<double>(c.solves), transfers), "solves/transfer"};
  out["flow.flows_rated_per_solve"] = {
      ratio(static_cast<double>(c.flows_rated), static_cast<double>(c.solves)),
      "flows/solve"};
  out["flow.markers_per_transfer"] = {
      ratio(static_cast<double>(c.markers), transfers), "markers/transfer"};
  out["flow.analytic_us_per_case"] = {mean("flow.relay_transfer_time") / 1e3,
                                      "us"};

  out["testbed.materialize_us_p50"] = {p50("testbed.materialize_path") / 1e3,
                                       "us"};
  out["exp.run_transfer_us_p50"] = {p50("exp.run_transfer") / 1e3, "us"};

  out["nws.observe_epoch_ms_p50"] = {p50("nws.observe_epoch") / 1e6, "ms"};
  out["nws.build_matrix_ms_p50"] = {p50("nws.build_matrix") / 1e6, "ms"};

  out["sched.apply_matrix_ms_p50"] = {p50("sched.apply_matrix") / 1e6, "ms"};
  out["sched.changed_edges_per_tick"] = {
      static_cast<double>(c.changed_edges) / n, "edges/tick"};
  const double fallbacks = counter("sched.mmp.repair_fallbacks");
  out["sched.repair_fallback_ratio"] = {
      ratio(fallbacks, counter("sched.mmp.tree_repairs") + fallbacks),
      "ratio"};
  out["sched.lookup_ns"] = {
      ratio(sum(tracer.durations_ns("sched.lookup_batch")),
            static_cast<double>(c.queries)),
      "ns"};
  out["sched.prebuild_ms"] = {quantile(workload.prebuild_s(), 0.5) * 1e3,
                              "ms"};
}

}  // namespace lslbench
