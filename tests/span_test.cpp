// Causal span layer: well-formedness of the span stream under failover and
// planned handover, exact sum-to-wall time accounting (--explain), flight
// recorder bounds + post-mortem content, --jobs determinism of the merged
// stream, and inertness: recording spans or metrics never changes a result.
#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/harness.hpp"
#include "exp/parallel.hpp"
#include "exp/scenario.hpp"
#include "fault/injector.hpp"
#include "obs/explain.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/units.hpp"

namespace lsl {
namespace {

using namespace lsl::time_literals;

// ---------------------------------------------------------------------------
// Fixtures

/// UCSB->UIUC style triangle with a depot crash mid-transfer: recovery
/// blacklists the dead depot and fails over to the direct path, producing a
/// multi-attempt failover chain. `crash_duration` zero = permanent crash;
/// `retries` bounds the recovery loop (0 keeps the default).
struct FailoverRun {
  exp::SimHarness::TransferOutcome outcome;
  std::uint64_t session = 0;
};

FailoverRun run_failover(obs::SpanRecorder& spans, std::uint64_t seed,
                         SimTime crash_at, SimTime crash_duration,
                         int retries = 0, bool cut_direct = false,
                         bool blackhole = false) {
  obs::ScopedSpanRecorder scope(&spans);
  exp::SimHarness harness(seed);
  const auto src = harness.add_host("ash.ucsb.edu", "ucsb.edu");
  const auto depot = harness.add_host("depot.denver", "core");
  const auto dst = harness.add_host("bell.uiuc.edu", "uiuc.edu");

  const auto wan = [](double delay_ms, double loss) {
    net::LinkConfig config;
    config.rate = Bandwidth::mbps(155);
    config.propagation_delay = SimTime::from_seconds(delay_ms * 1e-3);
    config.queue_capacity_bytes = mib(8);
    config.loss_rate = loss;
    return config;
  };
  harness.add_link(src, depot, wan(23.0, 1e-5));
  harness.add_link(depot, dst, wan(22.5, 1e-5));
  harness.add_link(src, dst, wan(35.0, 1e-5));

  session::DepotConfig config;
  config.tcp = config.tcp.with_buffers(mib(4));
  config.user_buffer_bytes = mib(8);
  harness.deploy(config);

  auto& topo = harness.topology();
  topo.node(src).set_route(dst, topo.link_between(src, dst));
  topo.node(dst).set_route(src, topo.link_between(dst, src));

  fault::FaultInjector injector(harness.simulator(), topo);
  injector.set_depot_control([&harness](net::NodeId node, bool up) {
    if (up) {
      harness.depot(node).restart();
    } else {
      harness.depot(node).shutdown();
    }
  });
  fault::FaultPlan plan;
  fault::FaultSpec crash;
  if (blackhole) {
    // Silent packet loss on the depot leg: the watchdog has to notice the
    // stall (no connection error arrives), so the failure path runs
    // through kStall -> backoff -> failover.
    crash.kind = fault::FaultKind::kLinkDown;
    crash.link_a = src;
    crash.link_b = depot;
  } else {
    crash.kind = fault::FaultKind::kDepotCrash;
    crash.node = depot;
  }
  crash.at = crash_at;
  crash.duration = crash_duration;
  plan.add(crash);
  if (cut_direct) {
    fault::FaultSpec down;
    down.kind = fault::FaultKind::kLinkDown;
    down.at = crash_at;
    down.link_a = src;
    down.link_b = dst;
    plan.add(down);  // permanent: the failover path dies too
  }
  injector.schedule(plan);

  session::TransferSpec spec;
  spec.dst = dst;
  spec.via.push_back(depot);
  spec.payload_bytes = mib(16);
  spec.tcp = tcp::TcpOptions{}.with_buffers(mib(4));

  session::RecoveryConfig recovery;
  recovery.stall_timeout = 2_s;
  recovery.max_backoff = 1_s;
  if (retries > 0) {
    recovery.max_retries = retries;
  }

  const auto handle = harness.launch_reliable(src, spec, recovery);
  FailoverRun run;
  run.outcome = harness.wait(handle, 600_s);
  run.session = session::SessionIdHash{}(handle.id);
  // Drain pending fault heals so transient fault windows close.
  if (crash_duration != SimTime::zero()) {
    harness.simulator().run(crash_at + crash_duration + 1_s);
  }
  return run;
}

/// Brownout + adaptive reroute scenario (the ablate_reroute shape): the
/// scheduled path's WAN hop throttles to 5% at t=2s and the RouteAdvisor
/// hands the live session over to depot.b, producing kHandover/kResume.
exp::Scenario reroute_scenario() {
  exp::Scenario s;
  s.hosts = {{"src", "site-a"},
             {"depot.a", "core-a"},
             {"depot.b", "core-b"},
             {"sink", "site-b"}};
  const auto link = [&s](const char* a, const char* b, double mbps,
                         double delay_ms) {
    exp::ScenarioLink l;
    l.a = a;
    l.b = b;
    l.config.rate = Bandwidth::mbps(mbps);
    l.config.propagation_delay = SimTime::from_seconds(delay_ms * 1e-3);
    l.config.queue_capacity_bytes = mib(4);
    l.config.loss_rate = 1e-5;
    s.links.push_back(std::move(l));
  };
  link("src", "depot.a", 100, 10);
  link("depot.a", "sink", 100, 10);
  link("src", "depot.b", 80, 12);
  link("depot.b", "sink", 80, 12);
  link("src", "sink", 20, 40);
  s.pins.push_back({"src", "sink"});
  s.depot.tcp = s.depot.tcp.with_buffers(mib(4));
  s.depot.user_buffer_bytes = mib(8);
  s.recovery = session::RecoveryConfig{};

  exp::ScenarioFault f;
  f.kind = fault::FaultKind::kLinkBrownout;
  f.a = "depot.a";
  f.b = "sink";
  f.at_s = 2.0;
  f.for_s = 120.0;
  f.loss = 0.0;
  f.rate_factor = 0.05;
  s.faults.push_back(std::move(f));

  exp::ScenarioReroute rr;
  rr.interval_s = 1.0;
  rr.hysteresis = 0.2;
  rr.dwell_s = 3.0;
  rr.penalty_s = 0.5;
  rr.sigma = 0.02;
  s.reroute = rr;

  exp::ScenarioTransfer t;
  t.src = "src";
  t.dst = "sink";
  t.via = {"depot.a"};
  t.bytes = mib(48);
  t.buffer_bytes = mib(4);
  s.transfers.push_back(std::move(t));
  return s;
}

// ---------------------------------------------------------------------------
// Well-formedness checks over an event stream

struct SpanIndex {
  std::map<std::uint64_t, obs::SpanEvent> begins;
  std::map<std::uint64_t, obs::SpanEvent> ends;  ///< keyed by span id
  std::vector<obs::SpanEvent> events;
};

SpanIndex index_spans(const std::vector<obs::SpanEvent>& events) {
  SpanIndex idx;
  idx.events = events;
  for (const auto& e : events) {
    if (e.phase == obs::SpanPhase::kBegin) {
      EXPECT_EQ(idx.begins.count(e.span_id), 0u)
          << "span id " << e.span_id << " begun twice";
      idx.begins[e.span_id] = e;
    } else if (e.phase == obs::SpanPhase::kEnd) {
      EXPECT_EQ(idx.ends.count(e.span_id), 0u)
          << "span id " << e.span_id << " ended twice";
      idx.ends[e.span_id] = e;
    }
  }
  return idx;
}

/// The invariants every complete span stream must satisfy: begins paired
/// with ends of the same kind/session, parents close at-or-after their
/// children, and parent/follows links resolve to spans that exist.
void expect_well_formed(const SpanIndex& idx) {
  for (const auto& [id, begin] : idx.begins) {
    const auto end = idx.ends.find(id);
    if (end == idx.ends.end() && begin.kind == obs::SpanKind::kFaultWindow) {
      // Fault windows may outlive the log: permanent faults never heal,
      // and transient ones can heal after the last transfer completes.
      continue;
    }
    ASSERT_NE(end, idx.ends.end())
        << obs::to_string(begin.kind) << " span " << id << " never ended";
    EXPECT_EQ(end->second.kind, begin.kind) << "span " << id;
    EXPECT_EQ(end->second.session, begin.session) << "span " << id;
    EXPECT_GE(end->second.ts, begin.ts) << "span " << id;
    if (begin.parent != 0) {
      const auto parent = idx.begins.find(begin.parent);
      ASSERT_NE(parent, idx.begins.end())
          << "span " << id << " parent " << begin.parent << " unknown";
      EXPECT_LE(parent->second.ts, begin.ts)
          << "child " << id << " began before parent " << begin.parent;
      const auto parent_end = idx.ends.find(begin.parent);
      ASSERT_NE(parent_end, idx.ends.end());
      EXPECT_GE(parent_end->second.ts, end->second.ts)
          << "parent " << begin.parent << " closed before child " << id;
    }
  }
  for (const auto& e : idx.events) {
    if (e.follows != 0) {
      EXPECT_EQ(idx.begins.count(e.follows), 1u)
          << "follows-from " << e.follows << " does not resolve";
    }
  }
}

std::vector<obs::SpanEvent> spans_of_kind(const SpanIndex& idx,
                                          obs::SpanKind kind,
                                          obs::SpanPhase phase) {
  std::vector<obs::SpanEvent> out;
  for (const auto& e : idx.events) {
    if (e.kind == kind && e.phase == phase) {
      out.push_back(e);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Failover chain

TEST(SpanTest, FailoverStreamIsWellFormed) {
  obs::SpanRecorder spans(0);
  const auto run = run_failover(spans, 42, 1_s, 3_s, /*retries=*/0,
                                /*cut_direct=*/false, /*blackhole=*/true);
  ASSERT_TRUE(run.outcome.completed);
  ASSERT_GE(run.outcome.retries, 1);

  const auto idx = index_spans(spans.snapshot());
  expect_well_formed(idx);

  // The transfer span exists, is parented by the harness session span, and
  // completed.
  const auto transfers =
      spans_of_kind(idx, obs::SpanKind::kTransfer, obs::SpanPhase::kBegin);
  ASSERT_EQ(transfers.size(), 1u);
  EXPECT_EQ(transfers[0].session, run.session);
  ASSERT_NE(transfers[0].parent, 0u);
  EXPECT_EQ(idx.begins.at(transfers[0].parent).kind, obs::SpanKind::kSession);
  EXPECT_STREQ(idx.ends.at(transfers[0].span_id).reason, "completed");

  // The failover chain: at least two attempts, each after the first
  // follows-from an earlier attempt of the same transfer.
  const auto attempts =
      spans_of_kind(idx, obs::SpanKind::kAttempt, obs::SpanPhase::kBegin);
  ASSERT_GE(attempts.size(), 2u);
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    EXPECT_EQ(attempts[i].parent, transfers[0].span_id);
    if (i == 0) {
      EXPECT_EQ(attempts[i].follows, 0u);
    } else {
      ASSERT_NE(attempts[i].follows, 0u);
      EXPECT_EQ(idx.begins.at(attempts[i].follows).kind,
                obs::SpanKind::kAttempt);
    }
  }

  // The injected crash shows up as a fault window, and the crash made the
  // recovery loop wait: stall + backoff evidence in the stream.
  EXPECT_FALSE(
      spans_of_kind(idx, obs::SpanKind::kFaultWindow, obs::SpanPhase::kBegin)
          .empty());
  EXPECT_FALSE(
      spans_of_kind(idx, obs::SpanKind::kBackoff, obs::SpanPhase::kBegin)
          .empty());
  EXPECT_FALSE(
      spans_of_kind(idx, obs::SpanKind::kStall, obs::SpanPhase::kComplete)
          .empty());
}

TEST(SpanTest, ExplainCategoriesSumToWallExactly) {
  obs::SpanRecorder spans(0);
  const auto run = run_failover(spans, 7, 1_s, 3_s, /*retries=*/0,
                                /*cut_direct=*/false, /*blackhole=*/true);
  ASSERT_TRUE(run.outcome.completed);

  const auto breakdowns = obs::account_spans(spans.snapshot());
  ASSERT_EQ(breakdowns.size(), 1u);
  const auto& b = breakdowns[0];
  EXPECT_EQ(b.session, run.session);
  EXPECT_TRUE(b.completed);
  EXPECT_GE(b.attempts, 2);
  // The invariant --explain rests on: categories sum to wall time exactly
  // (integer nanoseconds, not approximately).
  EXPECT_EQ(b.categorized(), b.wall());
  EXPECT_GT(b.wall(), SimTime::zero());
  // A depot crash mid-transfer cannot be all stream time.
  EXPECT_GT(b.stall + b.backoff + b.connect + b.probe, SimTime::zero());
  EXPECT_GT(b.stream, SimTime::zero());

  // Rendering is total: every transfer block prints, the filter selects.
  const std::string all = obs::render_breakdowns(breakdowns);
  EXPECT_NE(all.find("completed"), std::string::npos);
  EXPECT_NE(all.find("stall"), std::string::npos);
  const std::string none = obs::render_breakdowns(breakdowns, ~b.session);
  EXPECT_NE(none.find("no transfers recorded"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Planned handover (adaptive reroute)

TEST(SpanTest, HandoverFollowsFromResolvesAcrossReroute) {
  obs::SpanRecorder spans(0);
  obs::ScopedSpanRecorder scope(&spans);
  const auto outcomes = exp::run_scenario(reroute_scenario(), 5013, 600_s);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].outcome.completed);
  ASSERT_GE(outcomes[0].outcome.reroutes, 1);

  const auto idx = index_spans(spans.snapshot());
  expect_well_formed(idx);

  const auto handovers =
      spans_of_kind(idx, obs::SpanKind::kHandover, obs::SpanPhase::kBegin);
  ASSERT_GE(handovers.size(), 1u);
  EXPECT_STREQ(idx.ends.at(handovers[0].span_id).reason, "spliced");

  // The splice point: a kResume instant inside the handover span whose
  // follows-from link walks back to the drained attempt.
  bool found_resume = false;
  for (const auto& e : idx.events) {
    if (e.kind == obs::SpanKind::kResume && e.parent == handovers[0].span_id) {
      found_resume = true;
      EXPECT_STREQ(e.reason, "handover");
      ASSERT_NE(e.follows, 0u);
      EXPECT_EQ(idx.begins.at(e.follows).kind, obs::SpanKind::kAttempt);
      EXPECT_GT(e.value, 0.0);  // sink-committed offset
    }
  }
  EXPECT_TRUE(found_resume);

  // The advisor's verdicts are in the stream, and the one that triggered
  // the handover says so.
  bool saw_reroute_verdict = false;
  for (const auto& e : idx.events) {
    if (e.kind == obs::SpanKind::kRouteDecision) {
      EXPECT_EQ(e.phase, obs::SpanPhase::kInstant);
      saw_reroute_verdict |= std::strcmp(e.reason, "reroute") == 0;
    }
  }
  EXPECT_TRUE(saw_reroute_verdict);

  // Handover drain time is charged to the handover bucket.
  const auto breakdowns = obs::account_spans(spans.snapshot());
  ASSERT_EQ(breakdowns.size(), 1u);
  EXPECT_EQ(breakdowns[0].categorized(), breakdowns[0].wall());
  EXPECT_GE(breakdowns[0].handovers, 1);
  EXPECT_GT(breakdowns[0].handover, SimTime::zero());
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(SpanTest, FlightRecorderBoundsMemoryAndDumpsFailoverChain) {
  // Bounded ring, forced failure: the depot dies for good, the direct
  // fallback is cut too, and retries are capped -- the transfer must fail
  // and the ring must still hold the tail of the failover chain.
  obs::SpanRecorder spans(24);
  const auto run = run_failover(spans, 11, 500_ms, SimTime::zero(),
                                /*retries=*/2, /*cut_direct=*/true);
  ASSERT_FALSE(run.outcome.completed);
  ASSERT_TRUE(run.outcome.failed);

  EXPECT_TRUE(spans.bounded());
  EXPECT_EQ(spans.per_session_capacity(), 24u);
  // Per-session ring + global ring, each capped.
  EXPECT_LE(spans.size(), 24u * (spans.sessions().size() + 1));
  EXPECT_GT(spans.total_recorded(), 0u);

  const std::string dump = spans.post_mortem(run.session);
  EXPECT_NE(dump.find("attempt"), std::string::npos) << dump;
  EXPECT_NE(dump.find("transfer"), std::string::npos) << dump;
  EXPECT_NE(dump.find("failed"), std::string::npos) << dump;
}

TEST(SpanTest, SessionEventsIncludeGlobalContext) {
  obs::SpanRecorder spans(0);
  const auto run = run_failover(spans, 3, 1_s, 3_s);
  ASSERT_TRUE(run.outcome.completed);
  const auto events = spans.session_events(run.session);
  ASSERT_FALSE(events.empty());
  bool saw_fault = false;
  for (const auto& e : events) {
    EXPECT_TRUE(e.session == run.session || e.session == 0);
    saw_fault |= e.kind == obs::SpanKind::kFaultWindow;
  }
  // Fault windows are session-less context events; session_events must
  // interleave them so the post-mortem shows what was broken at the time.
  EXPECT_TRUE(saw_fault);
}

// ---------------------------------------------------------------------------
// --jobs determinism

void expect_same_events(const std::vector<obs::SpanEvent>& a,
                        const std::vector<obs::SpanEvent>& b,
                        std::size_t jobs) {
  ASSERT_EQ(a.size(), b.size()) << "jobs=" << jobs;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ts, b[i].ts) << "jobs=" << jobs << " event " << i;
    EXPECT_EQ(a[i].dur, b[i].dur) << "jobs=" << jobs << " event " << i;
    EXPECT_EQ(a[i].span_id, b[i].span_id) << "jobs=" << jobs << " event " << i;
    EXPECT_EQ(a[i].parent, b[i].parent) << "jobs=" << jobs << " event " << i;
    EXPECT_EQ(a[i].follows, b[i].follows) << "jobs=" << jobs << " event " << i;
    EXPECT_EQ(a[i].session, b[i].session) << "jobs=" << jobs << " event " << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << "jobs=" << jobs << " event " << i;
    EXPECT_EQ(a[i].phase, b[i].phase) << "jobs=" << jobs << " event " << i;
    EXPECT_STREQ(a[i].reason, b[i].reason)
        << "jobs=" << jobs << " event " << i;
    EXPECT_EQ(a[i].value, b[i].value) << "jobs=" << jobs << " event " << i;
  }
}

TEST(SpanTest, MergedStreamAndExplainAreIdenticalForAnyJobs) {
  constexpr std::size_t kTrials = 6;
  const auto run_sweep = [&](std::size_t jobs, obs::SpanRecorder& parent) {
    obs::set_spans(&parent);
    exp::TrialOptions options;
    options.jobs = jobs;
    exp::for_each_trial(kTrials, options, [](std::size_t trial) {
      exp::SimHarness harness(1000 + trial);
      const auto a = harness.add_host("a");
      const auto b = harness.add_host("b");
      net::LinkConfig link;
      link.rate = Bandwidth::mbps(100);
      link.propagation_delay = 5_ms;
      link.queue_capacity_bytes = mib(1);
      harness.add_link(a, b, link);
      harness.deploy(session::DepotConfig{});
      session::TransferSpec spec;
      spec.dst = b;
      spec.payload_bytes = mib(1) + 4096 * trial;
      (void)harness.launch_reliable(a, spec);
      harness.wait_all(60_s);
    });
    obs::set_spans(nullptr);
  };

  obs::SpanRecorder serial(0);
  run_sweep(1, serial);
  const auto serial_events = serial.snapshot();
  ASSERT_FALSE(serial_events.empty());
  const std::string serial_explain =
      obs::render_breakdowns(obs::account_spans(serial_events));

  for (const std::size_t jobs : {std::size_t{2}, std::size_t{8}}) {
    obs::SpanRecorder parallel(0);
    run_sweep(jobs, parallel);
    expect_same_events(serial_events, parallel.snapshot(), jobs);
    EXPECT_EQ(serial_explain,
              obs::render_breakdowns(obs::account_spans(parallel.snapshot())))
        << "jobs=" << jobs;
  }
}

// ---------------------------------------------------------------------------
// Inertness

/// One committed scenario run under one instrumentation configuration.
struct InstrumentedRun {
  std::vector<exp::ScenarioOutcome> outcomes;
  sim::KernelProfile profile;
  std::size_t spans = 0;
  std::size_t relay_spans = 0;
};

/// Metrics are always on; what varies is kernel profiling (--profile) and
/// the unbounded span recorder that --explain and --trace install.
enum class Probes { kPlain, kProfiled, kProfiledAndSpans };

InstrumentedRun run_instrumented(const exp::Scenario& scenario,
                                 Probes probes) {
  InstrumentedRun run;
  obs::Registry registry;
  obs::SpanRecorder recorder(0);
  {
    const obs::ScopedRegistry registry_scope(registry);
    const obs::ScopedSpanRecorder span_scope(
        probes == Probes::kProfiledAndSpans ? &recorder : nullptr);
    // The profile out-parameter turns profiling on; the plain run switches
    // it straight back off so only the always-on event counts remain.
    run.outcomes = exp::run_scenario(
        scenario, /*seed=*/7, SimTime::seconds(3600), &run.profile, nullptr,
        nullptr, [probes](exp::SimHarness& harness) {
          harness.simulator().set_profiling(probes != Probes::kPlain);
        });
  }
  for (const obs::SpanEvent& event : recorder.snapshot()) {
    ++run.spans;
    run.relay_spans += event.kind == obs::SpanKind::kRelay ? 1 : 0;
  }
  return run;
}

void expect_same_outcomes(const InstrumentedRun& a, const InstrumentedRun& b,
                          const std::string& where) {
  EXPECT_EQ(a.profile.events_executed, b.profile.events_executed) << where;
  EXPECT_EQ(a.profile.events_scheduled, b.profile.events_scheduled) << where;
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << where;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& x = a.outcomes[i].outcome;
    const auto& y = b.outcomes[i].outcome;
    const std::string row = where + " row " + std::to_string(i);
    EXPECT_EQ(x.completed, y.completed) << row;
    EXPECT_EQ(x.failed, y.failed) << row;
    EXPECT_EQ(x.retries, y.retries) << row;
    EXPECT_EQ(x.recovered, y.recovered) << row;
    EXPECT_EQ(x.reroutes, y.reroutes) << row;
    EXPECT_EQ(x.bytes, y.bytes) << row;
    EXPECT_EQ(x.elapsed, y.elapsed) << row;
    EXPECT_EQ(x.goodput, y.goodput) << row;
    EXPECT_EQ(x.session_hash, y.session_hash) << row;
  }
}

TEST(SpanTest, InstrumentationNeverChangesScenarioResults) {
  for (const char* name : {"abilene_uiuc", "two_depot_chain", "high_bdp",
                           "depot_churn", "forecast_drift"}) {
    std::ifstream file(std::string(LSL_SCENARIO_DIR) + "/" + name + ".lsl");
    ASSERT_TRUE(file) << name;
    std::ostringstream text;
    text << file.rdbuf();
    const exp::ParseResult parsed = exp::parse_scenario(text.str());
    ASSERT_TRUE(parsed.ok()) << name << ": " << parsed.error;
    for (const exp::Fidelity fidelity :
         {exp::Fidelity::kPacket, exp::Fidelity::kFlow}) {
      exp::Scenario scenario = *parsed.scenario;
      scenario.fidelity = fidelity;
      const std::string where =
          std::string(name) +
          (fidelity == exp::Fidelity::kPacket ? " packet" : " flow");
      const InstrumentedRun plain = run_instrumented(scenario, Probes::kPlain);
      const InstrumentedRun profiled =
          run_instrumented(scenario, Probes::kProfiled);
      const InstrumentedRun traced =
          run_instrumented(scenario, Probes::kProfiledAndSpans);
      ASSERT_FALSE(plain.outcomes.empty()) << where;
      EXPECT_EQ(plain.profile.wall_seconds, 0.0) << where;
      EXPECT_TRUE(plain.profile.category_executed.empty()) << where;
      EXPECT_GT(profiled.profile.wall_seconds, 0.0) << where;
      EXPECT_FALSE(profiled.profile.category_executed.empty()) << where;
      EXPECT_EQ(plain.spans, 0u) << where;
      EXPECT_GT(traced.spans, 0u) << where;
      EXPECT_GT(traced.relay_spans, 0u) << where;  // every scenario relays
      expect_same_outcomes(plain, profiled, where + " (profiling)");
      expect_same_outcomes(plain, traced, where + " (profiling + spans)");
    }
  }
}

}  // namespace
}  // namespace lsl
