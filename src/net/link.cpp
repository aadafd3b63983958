#include "net/link.hpp"

#include <algorithm>

#include <utility>

#include "flow/fluid.hpp"

namespace lsl::net {

namespace {

constexpr const char* kPropagate = "net.link.propagate";

}  // namespace

Link::Link(sim::Simulator& simulator, LinkConfig config, Rng rng)
    : sim_(simulator), config_(config), rng_(rng), serial_rng_(rng) {}

void Link::set_loss_rate(double p) {
  if (p != config_.loss_rate) {
    retire();  // departures before now keep the old rate's draws
    config_.loss_rate = p;
    rng_ = serial_rng_;
    bool redrawn = false;
    for (std::size_t i = serializing_; i < flight_.size(); ++i) {
      InFlight& entry = flight_[i];
      const Fate fate = draw(rng_);
      if (fate.lost != entry.fate.lost || fate.delay != entry.fate.delay) {
        entry.fate = fate;
        reserve_arrival(entry);
        redrawn = true;
      }
    }
    if (redrawn) {
      reschedule_head();
    }
  }
  sync_fluid();
}

void Link::set_rate(Bandwidth rate) {
  config_.rate = rate;
  const SimTime now = sim_.now();
  bool retimed = false;
  for (std::size_t i = serializing_; i < flight_.size(); ++i) {
    InFlight& entry = flight_[i];
    // In service: started before now, or starts now on an idle link (its
    // predecessor, if any, already departed). Both keep their departure.
    if (entry.start < now ||
        (entry.start == now && (i == 0 || departed(flight_[i - 1])))) {
      continue;
    }
    entry.start = flight_[i - 1].depart;
    const SimTime depart =
        entry.start + rate.transmit_time(entry.packet.wire_bytes());
    if (depart != entry.depart) {
      entry.depart = depart;
      reserve_arrival(entry);
      retimed = true;
    }
  }
  if (retimed) {
    reschedule_head();
  }
  sync_fluid();
}

double Link::fluid_capacity_bps() const {
  // Headers ride every packet: at the default MSS a 1500-byte frame carries
  // 1460 payload bytes, so goodput is rate * mss / (mss + overhead). The
  // fluid engine shares this payload capacity directly (it never sees
  // headers), matching what a saturating TCP flow achieves in packet mode.
  constexpr double kDefaultMss = 1460.0;
  return config_.rate.bits_per_second() * kDefaultMss /
         (kDefaultMss + kPacketOverheadBytes);
}

void Link::bind_fluid(flow::FluidNetwork* net, std::uint32_t fluid_id) {
  fluid_ = net;
  fluid_id_ = fluid_id;
  sync_fluid();
}

void Link::sync_fluid() {
  if (fluid_ != nullptr) {
    fluid_->set_link(fluid_id_, fluid_capacity_bps(), config_.loss_rate);
  }
}

LinkStats Link::stats() const {
  LinkStats stats = stats_;
  for (std::size_t i = serializing_;
       i < flight_.size() && flight_[i].depart <= sim_.now(); ++i) {
    count_departure(flight_[i], stats);
  }
  return stats;
}

std::uint64_t Link::queued_bytes() const {
  std::uint64_t bytes = queued_bytes_;
  for (std::size_t i = serializing_;
       i < flight_.size() && departed(flight_[i]); ++i) {
    bytes -= flight_[i].packet.wire_bytes();
  }
  return bytes;
}

void Link::enqueue(Packet&& packet) {
  retire();
  const std::uint32_t size = packet.wire_bytes();
  if (queued_bytes_ + size > config_.queue_capacity_bytes) {
    ++stats_.packets_dropped_queue;
    return;
  }
  stats_.queue_bytes_observed += queued_bytes_;  // depth found on arrival
  queued_bytes_ += size;
  stats_.max_queue_bytes = std::max(stats_.max_queue_bytes, queued_bytes_);

  const SimTime now = sim_.now();
  const SimTime start =
      flight_.empty() ? now : std::max(now, flight_.back().depart);
  InFlight& entry = flight_.emplace_back();
  entry.start = start;
  entry.depart = entry.start + config_.rate.transmit_time(size);
  entry.packet = std::move(packet);
  entry.fate = draw(rng_);
  reserve_arrival(entry);
  if (entry.arrival_seq == 0) {
    return;  // lost: no arrival
  }
  if (head_.valid()) {
    // Only jitter lets a later packet undercut the head (its seq is larger).
    const InFlight& head = flight_[head_index_ - front_index_];
    if (entry.arrival() >= head.arrival()) {
      return;
    }
    sim_.unschedule(head_);
  }
  schedule_head(flight_.size() - 1);
}

Link::Fate Link::draw(Rng& rng) const {
  Fate fate{config_.propagation_delay, rng.chance(config_.loss_rate)};
  if (!fate.lost && config_.jitter > SimTime::zero()) {
    fate.delay += SimTime::nanoseconds(static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(config_.jitter.ns()))));
  }
  return fate;
}

void Link::reserve_arrival(InFlight& entry) {
  if (entry.arrival_seq != 0) {
    sim_.withdraw_reserved(kPropagate);  // re-timed or redrawn
  }
  entry.arrival_seq = entry.fate.lost ? 0 : sim_.reserve_seq(kPropagate);
}

void Link::schedule_head(std::size_t index) {
  const InFlight& entry = flight_[index];
  head_index_ = front_index_ + index;
  head_seq_ = entry.arrival_seq;
  head_ = sim_.schedule_reserved(entry.arrival(), entry.arrival_seq,
                                 [this] { arrive(); }, kPropagate);
}

void Link::reschedule_head() {
  // Least (arrival, seq) over pending arrivals. Departures never decrease
  // along the FIFO and every arrival is at least depart + propagation, so
  // no entry past the first that starts later than the best can beat it.
  std::size_t best = flight_.size();
  for (std::size_t i = 0; i < flight_.size(); ++i) {
    const InFlight& entry = flight_[i];
    if (best < flight_.size() &&
        entry.depart + config_.propagation_delay > flight_[best].arrival()) {
      break;
    }
    if (entry.arrival_seq != 0 &&
        (best == flight_.size() ||
         entry.arrival() < flight_[best].arrival() ||
         (entry.arrival() == flight_[best].arrival() &&
          entry.arrival_seq < flight_[best].arrival_seq))) {
      best = i;
    }
  }
  if (head_.valid()) {
    if (best < flight_.size() && flight_[best].arrival_seq == head_seq_) {
      return;  // a seq is reserved once per timing, so the head is unchanged
    }
    sim_.unschedule(head_);
    head_ = sim::EventId{};
  }
  if (best < flight_.size()) {
    schedule_head(best);
  }
}

void Link::arrive() {
  InFlight& entry = flight_[head_index_ - front_index_];
  head_ = sim::EventId{};
  entry.arrival_seq = 0;
  entry.delivered = true;
  Packet packet = std::move(entry.packet);
  retire();
  // Hand the kernel the next arrival before delivering: the receiver may
  // enqueue on this link again.
  reschedule_head();
  LSL_ASSERT_MSG(static_cast<bool>(deliver_), "link has no receiver");
  deliver_(std::move(packet));
}

void Link::count_departure(const InFlight& entry, LinkStats& stats) {
  ++stats.packets_sent;
  stats.bytes_sent += entry.packet.wire_bytes();
  if (entry.fate.lost) {
    ++stats.packets_dropped_loss;
  }
}

void Link::retire() {
  for (; serializing_ < flight_.size() && departed(flight_[serializing_]);
       ++serializing_) {
    const InFlight& entry = flight_[serializing_];
    const Fate replay = draw(serial_rng_);
    LSL_ASSERT_MSG(
        replay.lost == entry.fate.lost && replay.delay == entry.fate.delay,
        "link RNG replay diverged from the recorded draw");
    queued_bytes_ -= entry.packet.wire_bytes();
    count_departure(entry, stats_);
  }
  // Departed entries are finished once lost or delivered.
  while (serializing_ > 0 &&
         (flight_.front().fate.lost || flight_.front().delivered)) {
    flight_.pop_front();
    ++front_index_;
    --serializing_;
  }
}

}  // namespace lsl::net
