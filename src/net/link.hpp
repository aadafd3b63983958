// Unidirectional link with a drop-tail byte-bounded queue, store-and-forward
// serialization, fixed propagation delay, and Bernoulli packet loss.
//
// One kernel event per packet: on a drop-tail FIFO a packet's departure,
// max(now, previous departure) + serialization time, is known when it is
// enqueued, so enqueue() draws its fate and reserves the kernel sequence
// number its arrival event ("net.link.propagate") would take. Departures
// are settled lazily against the clock:
//
// - Tie rule. A packet whose serialization ends exactly at now() still
//   occupies the queue (and is still subject to set_rate / set_loss_rate);
//   only departures strictly before now() have happened. That is the order
//   a link with separate transmit and propagate events produces whenever
//   the caller's event was scheduled before the departure it coincides with.
// - Draws. Loss, then jitter, come from the link RNG in FIFO order, as if
//   drawn at transmit completion. The RNG is checkpointed at the oldest
//   packet still serializing; set_loss_rate() rewinds to that checkpoint and
//   redraws every packet not yet departed, so a loss-rate change applies to
//   exactly the packets that complete transmission after it.
// - set_rate() re-times every packet that has not started serializing; the
//   one in service keeps its departure.
//
// Arrival lane: the link holds exactly one kernel heap entry, for the
// earliest pending arrival by (arrival time, reserved seq), and its later
// arrivals wait in flight_ itself. Each arrival enters the heap under the
// seq it reserved at enqueue (sim::Simulator::schedule_reserved), so the
// kernel dispatches every arrival in the same (when, seq) order, and counts
// it the same, as if all of them were in the heap. When the head fires, the
// link hands the kernel its next arrival; an arrival that undercuts the head
// (jitter) displaces it. A re-timed or redrawn arrival withdraws its old
// reservation (counted as a cancel) and reserves anew. The head is the
// minimum over undelivered survivors, scanned in FIFO order up to the first
// entry whose depart + propagation_delay exceeds the best arrival found;
// departures only grow along the FIFO, so on a jitter-free link that is
// about one entry.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace lsl::flow {
class FluidNetwork;
}  // namespace lsl::flow

namespace lsl::net {

struct LinkConfig {
  Bandwidth rate = Bandwidth::mbps(100);
  SimTime propagation_delay = SimTime::milliseconds(1);
  /// Drop-tail queue capacity in bytes (including the packet in service).
  std::uint64_t queue_capacity_bytes = 512 * 1024;
  /// Per-packet Bernoulli loss probability, applied at transmit completion.
  double loss_rate = 0.0;
  /// Maximum extra per-packet propagation delay, drawn uniformly from
  /// [0, jitter]. Nonzero jitter reorders packets (delivery order is by
  /// arrival time), exercising receivers' reassembly and dup-ACK logic.
  SimTime jitter = SimTime::zero();
};

struct LinkStats {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_dropped_queue = 0;
  std::uint64_t packets_dropped_loss = 0;
  /// High-water mark of queued bytes (buffer-bloat diagnostics).
  std::uint64_t max_queue_bytes = 0;
  /// Sum over transmitted packets of the queue depth they found on
  /// arrival; divide by packets_sent for the mean standing queue.
  std::uint64_t queue_bytes_observed = 0;

  [[nodiscard]] double mean_queue_bytes() const {
    return packets_sent > 0 ? static_cast<double>(queue_bytes_observed) /
                                  static_cast<double>(packets_sent)
                            : 0.0;
  }
};

class Link {
 public:
  using DeliverFn = std::function<void(Packet&&)>;

  Link(sim::Simulator& simulator, LinkConfig config, Rng rng);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Install the receiver-side delivery callback (the destination node).
  void set_deliver(DeliverFn deliver) { deliver_ = std::move(deliver); }

  /// Remove and return the current delivery callback (for taps that wrap
  /// it, e.g. exp::PacketLog).
  [[nodiscard]] DeliverFn take_deliver() { return std::move(deliver_); }

  /// Offer a packet to the link; drops silently if the queue is full.
  void enqueue(Packet&& packet);

  [[nodiscard]] const LinkConfig& config() const { return config_; }
  /// Counts as of now(): a packet is sent (and lost) once its serialization
  /// has ended, at or before now(). A lost packet schedules no event, so a
  /// run that drains before a lost packet departs never counts it.
  [[nodiscard]] LinkStats stats() const;
  /// Bytes waiting or serializing, by the tie rule above.
  [[nodiscard]] std::uint64_t queued_bytes() const;

  /// Mutable loss-rate knob; experiments vary path quality mid-run. Applies
  /// to every packet whose transmission has not completed yet.
  void set_loss_rate(double p);

  /// Mutable rate knob (brownouts throttle links mid-run). Takes effect at
  /// the next packet's serialization; the one in service is unaffected.
  void set_rate(Bandwidth rate);

  /// Mirror this link into the fluid engine: set_rate / set_loss_rate keep
  /// the fluid link's capacity and loss in sync from now on.
  void bind_fluid(flow::FluidNetwork* net, std::uint32_t fluid_id);
  [[nodiscard]] std::uint32_t fluid_link_id() const { return fluid_id_; }

  /// Payload goodput this link sustains at the default MSS: the raw rate
  /// discounted by per-packet header overhead. This is the capacity the
  /// fluid engine shares among flows.
  [[nodiscard]] double fluid_capacity_bps() const;

 private:
  /// A packet's draws: lost at transmit completion, else its total delay.
  struct Fate {
    SimTime delay;  ///< propagation plus drawn jitter
    bool lost = false;
  };

  /// A packet from enqueue until its arrival (or, if lost, its departure).
  struct InFlight {
    Packet packet;
    SimTime start;   ///< serialization start
    SimTime depart;  ///< serialization end
    Fate fate;
    /// Kernel seq reserved for the arrival; 0 once lost or delivered.
    std::uint64_t arrival_seq = 0;
    bool delivered = false;

    [[nodiscard]] SimTime arrival() const { return depart + fate.delay; }
  };

  /// Draw loss, then (for a survivor) jitter, from `rng`.
  [[nodiscard]] Fate draw(Rng& rng) const;
  /// True once `entry` has left the queue by the tie rule.
  [[nodiscard]] bool departed(const InFlight& entry) const {
    return entry.depart < sim_.now() || entry.delivered;
  }
  /// Reserve `entry`'s arrival seq from its fate, withdrawing the one it
  /// held (re-timed or redrawn).
  void reserve_arrival(InFlight& entry);
  /// Make flight_[index] the lane's heap entry.
  void schedule_head(std::size_t index);
  /// Re-point the heap entry at the earliest pending arrival, if it moved.
  void reschedule_head();
  void arrive();
  /// Settle every departed entry: count it, replay its draws on the
  /// checkpoint RNG, and free entries that are finished.
  void retire();
  static void count_departure(const InFlight& entry, LinkStats& stats);
  void sync_fluid();

  sim::Simulator& sim_;
  LinkConfig config_;
  Rng rng_;         ///< state after the draws of every entry
  Rng serial_rng_;  ///< state before the draws of flight_[serializing_]
  DeliverFn deliver_;
  /// Entries in enqueue order; [0, serializing_) have departed and are
  /// awaiting arrival, the rest are waiting or serializing.
  std::deque<InFlight> flight_;
  std::uint64_t front_index_ = 0;  ///< enqueue count at flight_.front()
  /// The lane's one kernel entry: the arrival of flight_ entry
  /// head_index_ - front_index_, reserved under head_seq_ (0: none).
  sim::EventId head_;
  std::uint64_t head_index_ = 0;
  std::uint64_t head_seq_ = 0;
  std::size_t serializing_ = 0;
  std::uint64_t queued_bytes_ = 0;  ///< bytes of entries not yet departed
  LinkStats stats_;  ///< settled departures only (see stats())
  flow::FluidNetwork* fluid_ = nullptr;
  std::uint32_t fluid_id_ = 0;
};

}  // namespace lsl::net
