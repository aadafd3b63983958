#include "net/link.hpp"

#include <algorithm>

#include <utility>

#include "flow/fluid.hpp"
#include "util/log.hpp"

namespace lsl::net {

Link::Link(sim::Simulator& simulator, LinkConfig config, Rng rng)
    : sim_(simulator), config_(config), rng_(rng), serial_rng_(rng) {}

void Link::set_loss_rate(double p) {
  if (p != config_.loss_rate) {
    retire();  // departures before now keep the old rate's draws
    config_.loss_rate = p;
    rng_ = serial_rng_;
    for (std::size_t i = serializing_; i < flight_.size(); ++i) {
      InFlight& entry = flight_[i];
      const Fate fate = draw(rng_);
      if (fate.lost != entry.fate.lost || fate.delay != entry.fate.delay) {
        entry.fate = fate;
        schedule_arrival(i);
      }
    }
  }
  sync_fluid();
}

void Link::set_rate(Bandwidth rate) {
  config_.rate = rate;
  const SimTime now = sim_.now();
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
      schedule_arrival(i);
    }
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

void Link::enqueue(Packet packet) {
  retire();
  const std::uint32_t size = packet.wire_bytes();
  if (queued_bytes_ + size > config_.queue_capacity_bytes) {
    ++stats_.packets_dropped_queue;
    LSL_TRACE("link: queue drop uid=%llu seq=%llu",
              static_cast<unsigned long long>(packet.uid),
              static_cast<unsigned long long>(packet.tcp.seq));
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
  schedule_arrival(flight_.size() - 1);
}

Link::Fate Link::draw(Rng& rng) const {
  Fate fate{config_.propagation_delay, rng.chance(config_.loss_rate)};
  if (!fate.lost && config_.jitter > SimTime::zero()) {
    fate.delay += SimTime::nanoseconds(static_cast<std::int64_t>(
        rng.next_below(static_cast<std::uint64_t>(config_.jitter.ns()))));
  }
  return fate;
}

void Link::schedule_arrival(std::size_t index) {
  InFlight& entry = flight_[index];
  if (entry.arrival.valid()) {
    sim_.cancel(entry.arrival);  // re-timed or redrawn
  }
  entry.arrival = entry.fate.lost
                      ? sim::EventId{}
                      : sim_.schedule_at(
                            entry.depart + entry.fate.delay,
                            [this, seq = front_seq_ + index] { arrive(seq); },
                            "net.link.propagate");
}

void Link::arrive(std::uint64_t seq) {
  InFlight& entry = flight_[seq - front_seq_];
  entry.arrival = sim::EventId{};
  entry.delivered = true;
  Packet packet = std::move(entry.packet);
  retire();
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
    if (entry.fate.lost) {
      LSL_TRACE("link: loss drop uid=%llu seq=%llu",
                static_cast<unsigned long long>(entry.packet.uid),
                static_cast<unsigned long long>(entry.packet.tcp.seq));
    }
  }
  // Departed entries are finished once lost or delivered.
  while (serializing_ > 0 &&
         (flight_.front().fate.lost || flight_.front().delivered)) {
    flight_.pop_front();
    ++front_seq_;
    --serializing_;
  }
}

}  // namespace lsl::net
