#include "obs/explain.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>

namespace lsl::obs {

namespace {

/// What the accountant charges time to between events.
enum class Mode : std::uint8_t {
  kOther,
  kConnect,
  kStream,
  kBackoff,
  kProbe,
  kHandover,
};

struct Acct {
  std::size_t index = 0;  ///< slot in the output vector
  Mode mode = Mode::kOther;
  Mode probe_return = Mode::kOther;  ///< mode to restore when a probe ends
  SimTime last;                      ///< attribution frontier
  /// Opened by a kSession span (plain launches have no recovery wrapper and
  /// therefore no kTransfer span); a kTransfer begin supersedes it.
  bool session_level = false;
};

SimTime& bucket(TransferBreakdown& b, Mode mode) {
  switch (mode) {
    case Mode::kConnect:
      return b.connect;
    case Mode::kStream:
      return b.stream;
    case Mode::kBackoff:
      return b.backoff;
    case Mode::kProbe:
      return b.probe;
    case Mode::kHandover:
      return b.handover;
    case Mode::kOther:
      break;
  }
  return b.other;
}

void flush(Acct& acct, TransferBreakdown& b, SimTime t) {
  if (t > acct.last) {
    bucket(b, acct.mode) += t - acct.last;
    acct.last = t;
  }
}

/// Move up to `amount` of already-attributed time from `sources` (tried in
/// order) into `into`. The transfer's total is conserved: time is shifted
/// between categories, never created, so the sum-to-wall invariant holds.
void shift(SimTime amount, std::initializer_list<SimTime*> sources,
           SimTime& into) {
  for (SimTime* source : sources) {
    if (amount <= SimTime::zero()) {
      return;
    }
    const SimTime take = std::min(amount, *source);
    if (take > SimTime::zero()) {
      *source -= take;
      into += take;
      amount -= take;
    }
  }
}

}  // namespace

const char* TransferBreakdown::dominant() const {
  const char* name = "other";
  SimTime best = other;
  const auto consider = [&](const char* n, SimTime v) {
    if (v > best) {
      best = v;
      name = n;
    }
  };
  // Declaration order; first category wins ties via strict >.
  consider("connect", connect);
  consider("stream", stream);
  consider("retransmit", retransmit);
  consider("stall", stall);
  consider("backoff", backoff);
  consider("probe", probe);
  consider("handover", handover);
  return name;
}

std::vector<TransferBreakdown> account_spans(
    const std::vector<SpanEvent>& events) {
  std::vector<TransferBreakdown> out;
  std::map<std::uint64_t, Acct> open;  ///< session -> accountant state

  const auto open_acct = [&](const SpanEvent& e, bool session_level) {
    Acct acct;
    acct.index = out.size();
    acct.last = e.ts;
    acct.session_level = session_level;
    TransferBreakdown b;
    b.session = e.session;
    b.transfer_span = e.span_id;
    b.start = e.ts;
    b.end = e.ts;
    out.push_back(b);
    open[e.session] = acct;
  };

  for (const SpanEvent& e : events) {
    if (e.kind == SpanKind::kSession && e.phase == SpanPhase::kBegin) {
      if (open.find(e.session) == open.end()) {
        open_acct(e, /*session_level=*/true);
      }
      continue;
    }
    if (e.kind == SpanKind::kTransfer && e.phase == SpanPhase::kBegin) {
      if (const auto it = open.find(e.session);
          it != open.end() && it->second.session_level) {
        // The recovery wrapper's transfer span supersedes the harness
        // session span: same wall clock, richer lifecycle events.
        flush(it->second, out[it->second.index], e.ts);
        it->second.session_level = false;
        out[it->second.index].transfer_span = e.span_id;
      } else {
        open_acct(e, /*session_level=*/false);
      }
      continue;
    }
    const auto it = open.find(e.session);
    if (it == open.end()) {
      continue;  // context event for a session we are not accounting
    }
    Acct& acct = it->second;
    TransferBreakdown& b = out[acct.index];
    switch (e.kind) {
      case SpanKind::kAttempt:
        flush(acct, b, e.ts);
        if (e.phase == SpanPhase::kBegin) {
          acct.mode = Mode::kConnect;
          ++b.attempts;
        } else if (e.phase == SpanPhase::kEnd) {
          acct.mode = Mode::kOther;
        }
        break;
      case SpanKind::kConnect:
        if (e.phase == SpanPhase::kBegin) {
          flush(acct, b, e.ts);
          acct.mode = Mode::kConnect;
        }
        break;
      case SpanKind::kStream:
        if (e.phase == SpanPhase::kBegin) {
          flush(acct, b, e.ts);
          acct.mode = Mode::kStream;
        }
        // Stream end changes nothing: post-send drain keeps charging the
        // stream bucket until the attempt closes or a probe starts.
        break;
      case SpanKind::kBackoff:
        flush(acct, b, e.ts);
        acct.mode =
            e.phase == SpanPhase::kBegin ? Mode::kBackoff : Mode::kOther;
        break;
      case SpanKind::kProbe:
        if (e.phase == SpanPhase::kBegin) {
          if (acct.mode != Mode::kHandover) {
            // Handover probes stay in the handover bucket; everything else
            // (watchdog, relaunch) is accounted as probe time.
            flush(acct, b, e.ts);
            acct.probe_return = acct.mode;
            acct.mode = Mode::kProbe;
          }
        } else if (e.phase == SpanPhase::kEnd &&
                   acct.mode == Mode::kProbe) {
          flush(acct, b, e.ts);
          acct.mode = acct.probe_return;
        }
        break;
      case SpanKind::kHandover:
        flush(acct, b, e.ts);
        if (e.phase == SpanPhase::kBegin) {
          acct.mode = Mode::kHandover;
          ++b.handovers;
        } else if (e.phase == SpanPhase::kEnd) {
          acct.mode = Mode::kOther;
        }
        break;
      case SpanKind::kStall:
        if (e.phase == SpanPhase::kComplete) {
          // Retroactive: the watchdog window [ts, ts+dur] produced no
          // progress. Reclassify it out of whatever it was charged to.
          flush(acct, b, e.ts + e.dur);
          shift(e.dur, {&b.stream, &b.connect, &b.probe, &b.other}, b.stall);
        }
        break;
      case SpanKind::kRtoWait:
        if (e.phase == SpanPhase::kComplete) {
          // Retroactive: dead air ended by a retransmission timeout while
          // the connection was established -- retransmit-dominated time.
          flush(acct, b, e.ts + e.dur);
          shift(e.dur, {&b.stream}, b.retransmit);
        }
        break;
      case SpanKind::kTransfer:
        if (e.phase == SpanPhase::kEnd) {
          flush(acct, b, e.ts);
          b.end = e.ts;
          b.completed = std::strcmp(e.reason, "completed") == 0;
          b.failed = std::strcmp(e.reason, "failed") == 0;
          open.erase(it);
        }
        break;
      case SpanKind::kSession:
        // Closes the account only while it is still session-level; when a
        // kTransfer span took over, its own end already settled the books.
        if (e.phase == SpanPhase::kEnd && acct.session_level) {
          flush(acct, b, e.ts);
          b.end = e.ts;
          b.completed = std::strcmp(e.reason, "completed") == 0;
          b.failed = std::strcmp(e.reason, "failed") == 0;
          open.erase(it);
        }
        break;
      case SpanKind::kResume:
      case SpanKind::kRouteDecision:
      case SpanKind::kFaultWindow:
      case SpanKind::kForecastEpoch:
      case SpanKind::kRelay:
        break;  // informational; no mode change
    }
  }
  // Transfers still open when the log ended: close at the attribution
  // frontier so categories still sum to wall time.
  for (auto& [session, acct] : open) {
    out[acct.index].end = acct.last;
  }
  return out;
}

void BreakdownTotals::add(const TransferBreakdown& b) {
  wall += b.wall();
  connect += b.connect;
  stream += b.stream;
  retransmit += b.retransmit;
  stall += b.stall;
  backoff += b.backoff;
  probe += b.probe;
  handover += b.handover;
  other += b.other;
  ++transfers;
  attempts += static_cast<std::uint64_t>(b.attempts);
  handovers += static_cast<std::uint64_t>(b.handovers);
  if (b.completed) {
    ++completed;
  }
  if (b.failed) {
    ++failed;
  }
}

std::string render_breakdowns(
    const std::vector<TransferBreakdown>& breakdowns,
    std::uint64_t session_filter) {
  std::string out;
  char buf[256];
  bool any = false;
  for (const TransferBreakdown& b : breakdowns) {
    if (session_filter != 0 && b.session != session_filter) {
      continue;
    }
    any = true;
    const char* outcome =
        b.completed ? "completed" : (b.failed ? "FAILED" : "unfinished");
    std::snprintf(buf, sizeof buf,
                  "transfer %016" PRIx64
                  "  %s  wall=%.6fs  attempts=%d  handovers=%d  "
                  "dominant=%s\n",
                  b.session, outcome, b.wall().to_seconds(), b.attempts,
                  b.handovers, b.dominant());
    out += buf;
    const double wall_s = b.wall().to_seconds();
    const auto row = [&](const char* name, SimTime v) {
      const double share =
          wall_s > 0.0 ? 100.0 * v.to_seconds() / wall_s : 0.0;
      std::snprintf(buf, sizeof buf, "  %-12s %14.6fs  %5.1f%%\n", name,
                    v.to_seconds(), share);
      out += buf;
    };
    row("connect", b.connect);
    row("stream", b.stream);
    row("retransmit", b.retransmit);
    row("stall", b.stall);
    row("backoff", b.backoff);
    row("probe", b.probe);
    row("handover", b.handover);
    row("other", b.other);
    std::snprintf(buf, sizeof buf, "  %-12s %14.6fs\n", "total",
                  b.categorized().to_seconds());
    out += buf;
  }
  if (!any) {
    out += "no transfers recorded\n";
  }
  return out;
}

}  // namespace lsl::obs
