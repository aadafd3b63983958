// Async-session store capacity management at depots.
#include <gtest/gtest.h>

#include <string_view>

#include "exp/harness.hpp"
#include "lsl/endpoint.hpp"
#include "obs/span.hpp"

namespace lsl::session {
namespace {

using namespace lsl::time_literals;
using exp::SimHarness;

struct StoreNet {
  SimHarness h{51};
  net::NodeId a, d, b;

  explicit StoreNet(std::uint64_t store_cap) {
    a = h.add_host("a");
    d = h.add_host("d");
    b = h.add_host("b");
    net::LinkConfig link;
    link.rate = Bandwidth::mbps(200);
    link.propagation_delay = 3_ms;
    h.add_link(a, d, link);
    h.add_link(d, b, link);
    DepotConfig cfg;
    cfg.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
    cfg.max_store_bytes = store_cap;
    h.deploy(cfg);
  }

  SessionId park(std::uint64_t bytes) {
    TransferSpec spec;
    spec.dst = b;
    spec.via = {d};
    spec.async_session = true;
    spec.payload_bytes = bytes;
    spec.tcp = tcp::TcpOptions{}.with_buffers(mib(1));
    auto source = LslSource::start(h.stack(a), spec, h.rng());
    const auto id = source->session_id();
    h.simulator().run(h.simulator().now() + 30_s);
    return id;
  }
};

TEST(DepotStoreTest, StoreAccountsBytes) {
  StoreNet net(mib(16));
  const auto id = net.park(mib(2));
  EXPECT_EQ(net.h.depot(net.d).store_bytes_used(), mib(2));
  EXPECT_EQ(*net.h.depot(net.d).stored_bytes(id), mib(2));
}

TEST(DepotStoreTest, OldestSessionEvictedPastCapacity) {
  StoreNet net(mib(5));
  const auto first = net.park(mib(2));
  const auto second = net.park(mib(2));
  EXPECT_TRUE(net.h.depot(net.d).stored_bytes(first).has_value());
  EXPECT_TRUE(net.h.depot(net.d).stored_bytes(second).has_value());
  const auto third = net.park(mib(2));  // 6 MB > 5 MB: evict `first`
  EXPECT_FALSE(net.h.depot(net.d).stored_bytes(first).has_value());
  EXPECT_TRUE(net.h.depot(net.d).stored_bytes(second).has_value());
  EXPECT_TRUE(net.h.depot(net.d).stored_bytes(third).has_value());
  EXPECT_EQ(net.h.depot(net.d).stats().sessions_evicted, 1u);
  EXPECT_LE(net.h.depot(net.d).store_bytes_used(), mib(5));
}

TEST(DepotStoreTest, OversizeSessionNeverStored) {
  StoreNet net(mib(1));
  const auto id = net.park(mib(2));
  EXPECT_FALSE(net.h.depot(net.d).stored_bytes(id).has_value());
  EXPECT_EQ(net.h.depot(net.d).stats().sessions_evicted, 1u);
  EXPECT_EQ(net.h.depot(net.d).store_bytes_used(), 0u);
}

TEST(DepotStoreTest, FetchOfEvictedSessionFails) {
  StoreNet net(mib(3));
  const auto first = net.park(mib(2));
  net.park(mib(2));  // evicts `first`
  obs::SpanRecorder recorder(0);
  const obs::ScopedSpanRecorder scope(&recorder);
  bool errored = false;
  auto fetcher = AsyncFetcher::start(net.h.stack(net.b), net.d, first,
                                     tcp::TcpOptions{});
  fetcher->on_error = [&] { errored = true; };
  net.h.simulator().run(net.h.simulator().now() + 30_s);
  EXPECT_TRUE(errored);
  // The depot's relay span tells the miss apart from a served fetch.
  std::size_t misses = 0;
  for (const obs::SpanEvent& e : recorder.snapshot()) {
    if (e.kind == obs::SpanKind::kRelay) {
      EXPECT_NE(std::string_view(e.reason), "fetch");
      misses += std::string_view(e.reason) == "fetch_miss" ? 1 : 0;
    }
  }
  EXPECT_EQ(misses, 1u);
}

TEST(DepotStoreTest, SurvivorStillFetchable) {
  StoreNet net(mib(3));
  net.park(mib(2));
  const auto second = net.park(mib(2));
  bool fetched = false;
  std::uint64_t got = 0;
  auto fetcher = AsyncFetcher::start(net.h.stack(net.b), net.d, second,
                                     tcp::TcpOptions{}.with_buffers(mib(1)));
  fetcher->on_complete = [&](const AsyncFetcher::Result& r) {
    fetched = true;
    got = r.bytes;
  };
  net.h.simulator().run(net.h.simulator().now() + 60_s);
  EXPECT_TRUE(fetched);
  EXPECT_EQ(got, mib(2));
}

}  // namespace
}  // namespace lsl::session
