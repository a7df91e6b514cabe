// Transport-layer tests: the injected clock, the seeded fault oracle, and
// the framed socket codec over real loopback connections.
#include "net/frame.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "net/clock.h"
#include "net/fault_injector.h"
#include "net/socket.h"

namespace geored::net {
namespace {

/// A connected loopback pair: .first is the client end, .second the
/// accepted server end.
std::pair<Socket, Socket> local_pair() {
  Listener listener;
  Socket client = connect_local(listener.port(), 1000);
  auto server = listener.accept(1000);
  EXPECT_TRUE(server.has_value());
  return {std::move(client), std::move(*server)};
}

std::vector<std::uint8_t> bytes_of(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

TEST(VirtualClock, SleepsAdvanceNow) {
  VirtualClock clock;
  EXPECT_EQ(clock.now_ms(), 0u);
  clock.sleep_ms(7);
  clock.sleep_ms(3);
  EXPECT_EQ(clock.now_ms(), 10u);
  EXPECT_EQ(clock.elapsed_ms(), 10u);
}

TEST(SystemClock, NowIsMonotonic) {
  SystemClock clock;
  const std::uint64_t a = clock.now_ms();
  const std::uint64_t b = clock.now_ms();
  EXPECT_LE(a, b);
}

TEST(FaultInjector, DisabledByDefault) {
  const FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
  for (std::uint64_t attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(injector.plan(1, 2, attempt).action, FaultAction::kNone);
  }
}

TEST(FaultInjector, RejectsBadProbabilities) {
  FaultConfig negative;
  negative.drop = -0.1;
  EXPECT_THROW(FaultInjector{negative}, std::invalid_argument);
  FaultConfig above_one;
  above_one.delay = 1.5;
  EXPECT_THROW(FaultInjector{above_one}, std::invalid_argument);
  FaultConfig oversum;
  oversum.drop = 0.6;
  oversum.disconnect = 0.6;
  EXPECT_THROW(FaultInjector{oversum}, std::invalid_argument);
}

TEST(FaultInjector, PlansArePureFunctionsOfSeedAndTriple) {
  FaultConfig config;
  config.drop = config.delay = config.duplicate = config.truncate = config.disconnect = 0.19;
  config.seed = 42;
  const FaultInjector first(config);
  const FaultInjector second(config);  // independent instance, same config
  ASSERT_TRUE(first.enabled());
  bool any_differs_across_seeds = false;
  config.seed = 43;
  const FaultInjector reseeded(config);
  for (std::uint64_t salt = 0; salt < 4; ++salt) {
    for (std::uint64_t source = 0; source < 8; ++source) {
      for (std::uint64_t attempt = 0; attempt < 4; ++attempt) {
        const FaultPlan a = first.plan(salt, source, attempt);
        const FaultPlan b = second.plan(salt, source, attempt);
        EXPECT_EQ(a.action, b.action);
        EXPECT_EQ(a.delay_ms, b.delay_ms);
        if (reseeded.plan(salt, source, attempt).action != a.action) {
          any_differs_across_seeds = true;
        }
      }
    }
  }
  EXPECT_TRUE(any_differs_across_seeds);
}

TEST(FaultInjector, LadderReachesEveryActionAtItsConfiguredRate) {
  FaultConfig config;
  config.drop = config.delay = config.duplicate = config.truncate = config.disconnect = 0.15;
  config.seed = 7;
  const FaultInjector injector(config);
  std::map<FaultAction, int> counts;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    counts[injector.plan(0, static_cast<std::uint64_t>(i), 0).action]++;
  }
  for (const FaultAction action :
       {FaultAction::kDrop, FaultAction::kDelay, FaultAction::kDuplicate,
        FaultAction::kTruncate, FaultAction::kDisconnect}) {
    const double rate = static_cast<double>(counts[action]) / trials;
    EXPECT_NEAR(rate, 0.15, 0.02) << static_cast<int>(action);
  }
  EXPECT_NEAR(static_cast<double>(counts[FaultAction::kNone]) / trials, 0.25, 0.02);
}

TEST(FaultInjector, DelayPlansCarryTheConfiguredDelay) {
  FaultConfig config;
  config.delay = 1.0;
  config.delay_ms = 9;
  const FaultInjector injector(config);
  const FaultPlan plan = injector.plan(3, 1, 0);
  EXPECT_EQ(plan.action, FaultAction::kDelay);
  EXPECT_EQ(plan.delay_ms, 9u);
}

TEST(Frame, RoundTripsPayload) {
  auto [client, server] = local_pair();
  const std::vector<std::uint8_t> sent = bytes_of({1, 2, 3, 250, 251, 252});
  write_frame(client, sent);
  std::vector<std::uint8_t> received;
  ASSERT_EQ(read_frame(server, received, 1000), IoStatus::kOk);
  EXPECT_EQ(received, sent);
}

TEST(Frame, EmptyPayloadRoundTrips) {
  auto [client, server] = local_pair();
  write_frame(client, {});
  std::vector<std::uint8_t> received{9};  // must be cleared by the read
  ASSERT_EQ(read_frame(server, received, 1000), IoStatus::kOk);
  EXPECT_TRUE(received.empty());
}

TEST(Frame, BackToBackFramesStayDelimited) {
  auto [client, server] = local_pair();
  const auto first = bytes_of({1, 1, 1});
  const auto second = bytes_of({2, 2});
  write_frame(client, first);
  write_frame(client, second);
  std::vector<std::uint8_t> received;
  ASSERT_EQ(read_frame(server, received, 1000), IoStatus::kOk);
  EXPECT_EQ(received, first);
  ASSERT_EQ(read_frame(server, received, 1000), IoStatus::kOk);
  EXPECT_EQ(received, second);
}

TEST(Frame, CleanCloseBetweenFramesIsClosedNotError) {
  auto [client, server] = local_pair();
  write_frame(client, bytes_of({5}));
  client.close();
  std::vector<std::uint8_t> received;
  ASSERT_EQ(read_frame(server, received, 1000), IoStatus::kOk);
  EXPECT_EQ(read_frame(server, received, 1000), IoStatus::kClosed);
}

TEST(Frame, SilenceIsTimeoutNotError) {
  auto [client, server] = local_pair();
  std::vector<std::uint8_t> received;
  EXPECT_EQ(read_frame(server, received, 20), IoStatus::kTimeout);
  (void)client;
}

TEST(Frame, WrongMagicThrows) {
  auto [client, server] = local_pair();
  const std::uint8_t garbage[8] = {0xde, 0xad, 0xbe, 0xef, 1, 0, 0, 0};
  client.send_all(garbage, sizeof garbage);
  std::vector<std::uint8_t> received;
  EXPECT_THROW(read_frame(server, received, 1000), FrameError);
}

TEST(Frame, OversizedLengthThrows) {
  auto [client, server] = local_pair();
  std::uint8_t header[8];
  const std::uint32_t magic = kFrameMagic;
  const std::uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(header, &magic, 4);
  std::memcpy(header + 4, &huge, 4);
  client.send_all(header, sizeof header);
  std::vector<std::uint8_t> received;
  EXPECT_THROW(read_frame(server, received, 1000), FrameError);
}

TEST(Frame, TruncatedBodyThrowsOnClose) {
  auto [client, server] = local_pair();
  const auto payload = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  write_truncated_frame(client, payload, 3);
  client.close();
  std::vector<std::uint8_t> received;
  EXPECT_THROW(read_frame(server, received, 1000), FrameError);
}

TEST(Frame, StalledBodyThrowsOnTimeout) {
  auto [client, server] = local_pair();
  const auto payload = bytes_of({1, 2, 3, 4, 5, 6, 7, 8});
  write_truncated_frame(client, payload, 3);  // header promises 8, sends 3
  std::vector<std::uint8_t> received;
  EXPECT_THROW(read_frame(server, received, 20), FrameError);
  (void)client;
}

TEST(Frame, TruncationMustStopShortOfDeclaredLength) {
  auto [client, server] = local_pair();
  const auto payload = bytes_of({1, 2});
  EXPECT_THROW(write_truncated_frame(client, payload, 2), std::invalid_argument);
  (void)server;
}

TEST(Socket, RecvExactTimesOutWithoutData) {
  auto [client, server] = local_pair();
  std::uint8_t buffer[4];
  EXPECT_EQ(server.recv_exact(buffer, sizeof buffer, 20), IoStatus::kTimeout);
  (void)client;
}

TEST(Socket, DrainUntilClosedReturnsWhenPeerCloses) {
  auto [client, server] = local_pair();
  const auto noise = bytes_of({1, 2, 3});
  client.send_all(noise.data(), noise.size());
  client.close();
  server.drain_until_closed(1000);  // must not hang or throw
}

TEST(Listener, AcceptTimesOutWithoutClients) {
  Listener listener;
  EXPECT_FALSE(listener.accept(20).has_value());
}

// The bound is generous on purpose: the wake is one pipe write, so any
// return within seconds (not the 60 s accept budget) proves it happened.
constexpr std::uint64_t kWakeBoundMs = 5000;

TEST(Listener, InterruptWakesABlockedAcceptFromAnotherThread) {
  Listener listener;
  SystemClock clock;
  std::atomic<bool> returned{false};
  std::optional<Socket> accepted;
  std::thread acceptor([&] {
    accepted = listener.accept(60000);
    returned.store(true);
  });
  clock.sleep_ms(50);  // let the acceptor reach its wait
  EXPECT_FALSE(returned.load());
  const std::uint64_t start = clock.now_ms();
  listener.interrupt();
  acceptor.join();
  EXPECT_LE(clock.now_ms() - start, kWakeBoundMs);
  EXPECT_FALSE(accepted.has_value());
}

TEST(Listener, AcceptAfterInterruptReturnsAtOnce) {
  Listener listener;
  SystemClock clock;
  // A client already queued does not outrank the interrupt: stop means stop.
  Socket client = connect_local(listener.port(), 1000);
  listener.interrupt();
  listener.interrupt();  // idempotent
  const std::uint64_t start = clock.now_ms();
  EXPECT_FALSE(listener.accept(60000).has_value());
  EXPECT_FALSE(listener.accept(60000).has_value());  // and sticky
  EXPECT_LE(clock.now_ms() - start, kWakeBoundMs);
}

}  // namespace
}  // namespace geored::net
