// Raw TCP bulk-transfer driver (no LSL layer): used for baselines such as
// PSockets-style parallel sockets and for SACK on/off ablations.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "tcp/stack.hpp"
#include "util/units.hpp"

namespace lsl::exp {

struct RawTransferResult {
  bool completed = false;
  std::uint64_t bytes_delivered = 0;
  SimTime elapsed = SimTime::zero();
  Bandwidth goodput;
  tcp::ConnectionStats sender_stats;
};

/// Drives one bulk transfer of `bytes` from `src` to a sink listening on
/// `dst`, running the simulation until the receiver sees EOF or `deadline`
/// passes. With `streams` > 1 it stripes PSockets-style: that many parallel
/// connections (ports port, port + 1, ...) each carry bytes/streams, and
/// the transfer completes when every stripe has fully arrived.
/// `sender_stats` are the first connection's.
RawTransferResult run_raw_transfer(sim::Simulator& sim, tcp::TcpStack& src,
                                   tcp::TcpStack& dst, std::uint64_t bytes,
                                   const tcp::TcpOptions& options,
                                   std::size_t streams = 1,
                                   SimTime deadline = SimTime::seconds(3600),
                                   net::Port port = 5001);

}  // namespace lsl::exp
