// Fault-injection and graceful-degradation tests: the FaultInjector fault
// plane, the RpcClient circuit breaker, the client's stale-cache / offline
// outbox / re-login machinery, and a scripted end-to-end chaos schedule
// (partition + crash/restart + lossy-corrupt window) checked against a
// no-fault control run of the same seed.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/client_app.h"
#include "client/file_image.h"
#include "net/event_loop.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "server/reputation_server.h"
#include "storage/database.h"
#include "xml/xml_node.h"

namespace pisrep {
namespace {

using util::kHour;
using util::kMillisecond;
using util::kMinute;
using util::kSecond;
using xml::XmlNode;

net::NetworkConfig QuietNet() {
  net::NetworkConfig config;
  config.base_latency = 5 * kMillisecond;
  config.jitter = 0;
  return config;
}

// --- FaultInjector mechanics -------------------------------------------

TEST(FaultInjectorTest, PartitionCutsBothDirectionsUntilHeal) {
  net::EventLoop loop;
  net::FaultInjector injector(&loop);
  injector.Partition("a", "b");
  EXPECT_TRUE(injector.IsCut("a", "b"));
  EXPECT_TRUE(injector.IsCut("b", "a"));
  EXPECT_FALSE(injector.IsCut("a", "c"));
  injector.Heal();
  EXPECT_FALSE(injector.IsCut("a", "b"));
}

TEST(FaultInjectorTest, IsolateCutsEveryLinkOfOneNode) {
  net::EventLoop loop;
  net::FaultInjector injector(&loop);
  injector.Isolate("server");
  EXPECT_TRUE(injector.IsCut("client1", "server"));
  EXPECT_TRUE(injector.IsCut("server", "client2"));
  EXPECT_FALSE(injector.IsCut("client1", "client2"));
  injector.Heal();
  EXPECT_FALSE(injector.IsCut("client1", "server"));
}

TEST(FaultInjectorTest, OneWayPartitionCutsOnlyTheNamedDirection) {
  net::EventLoop loop;
  net::FaultInjector injector(&loop);
  injector.PartitionOneWay("a", "b");
  EXPECT_TRUE(injector.IsCut("a", "b"));
  EXPECT_FALSE(injector.IsCut("b", "a"));  // asymmetric: replies still flow
  injector.HealLink("a", "b");
  EXPECT_FALSE(injector.IsCut("a", "b"));
}

TEST(FaultInjectorTest, HealLinkUndoesHalfOfASymmetricPartition) {
  net::EventLoop loop;
  net::FaultInjector injector(&loop);
  injector.Partition("a", "b");
  injector.HealLink("a", "b");
  EXPECT_FALSE(injector.IsCut("a", "b"));
  EXPECT_TRUE(injector.IsCut("b", "a"));  // the other direction stays dark
  injector.Heal();
  EXPECT_FALSE(injector.IsCut("b", "a"));
}

TEST(FaultInjectorTest, OneWayPartitionWindowAppliesAndExpiresOnSchedule) {
  net::EventLoop loop;
  net::FaultInjector injector(&loop);
  injector.PartitionOneWayWindow(loop.Now() + 2 * kSecond,
                                 loop.Now() + 5 * kSecond, "a", "b");
  EXPECT_FALSE(injector.IsCut("a", "b"));
  loop.RunUntil(loop.Now() + 3 * kSecond);
  EXPECT_TRUE(injector.IsCut("a", "b"));
  EXPECT_FALSE(injector.IsCut("b", "a"));
  loop.RunUntil(loop.Now() + 3 * kSecond);
  EXPECT_FALSE(injector.IsCut("a", "b"));
}

TEST(FaultInjectorTest, LostAckStillMeansTheServerDidTheWork) {
  // The scenario symmetric cuts cannot express: the request arrives and is
  // applied, only the response dies. Any caller that treats the timeout as
  // "not applied" double-applies on retry — which is exactly why the
  // cluster's durable writers treat already-exists on a retry as an ack.
  net::EventLoop loop;
  net::SimNetwork network(&loop, QuietNet());
  net::FaultInjector injector(&loop);
  network.AttachFaultInjector(&injector);
  net::RpcServer server(&network, "server");
  ASSERT_TRUE(server.Start().ok());
  int applied = 0;
  server.RegisterMethod("Apply",
                        [&](const XmlNode&) -> util::Result<XmlNode> {
                          ++applied;
                          return XmlNode("result");
                        });
  net::RpcClient client(&network, &loop, "client", "server");
  ASSERT_TRUE(client.Start().ok());

  injector.PartitionOneWay("server", "client");
  std::optional<util::Status> seen;
  client.Call(
      "Apply", XmlNode("request"),
      [&](util::Result<XmlNode> response) { seen = response.status(); },
      /*timeout=*/2 * kSecond);
  loop.RunUntil(loop.Now() + 5 * kSecond);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(applied, 1);  // the work happened; only the ack was lost
}

TEST(FaultInjectorTest, ExtraLossDropsConfiguredFraction) {
  net::EventLoop loop;
  net::SimNetwork network(&loop, QuietNet());
  net::FaultInjector injector(&loop, 11);
  network.AttachFaultInjector(&injector);
  injector.SetLoss(0.5);
  int received = 0;
  ASSERT_TRUE(network.Bind("b", [&](const net::Message&) { ++received; }).ok());
  const int kSends = 2000;
  for (int i = 0; i < kSends; ++i) network.Send("a", "b", "x");
  loop.RunAll();
  EXPECT_NEAR(received / static_cast<double>(kSends), 0.5, 0.05);
  EXPECT_EQ(injector.dropped_by_fault(),
            static_cast<std::uint64_t>(kSends - received));
}

TEST(FaultInjectorTest, DirectionalLinkLossOnlyHitsThatLink) {
  net::EventLoop loop;
  net::SimNetwork network(&loop, QuietNet());
  net::FaultInjector injector(&loop, 12);
  network.AttachFaultInjector(&injector);
  injector.SetLinkLoss("a", "b", 1.0);  // a→b dead, b→a untouched
  int at_b = 0, at_a = 0;
  ASSERT_TRUE(network.Bind("a", [&](const net::Message&) { ++at_a; }).ok());
  ASSERT_TRUE(network.Bind("b", [&](const net::Message&) { ++at_b; }).ok());
  for (int i = 0; i < 50; ++i) {
    network.Send("a", "b", "req");
    network.Send("b", "a", "resp");
  }
  loop.RunAll();
  EXPECT_EQ(at_b, 0);
  EXPECT_EQ(at_a, 50);
}

TEST(FaultInjectorTest, DuplicationDeliversExtraCopies) {
  net::EventLoop loop;
  net::SimNetwork network(&loop, QuietNet());
  net::FaultInjector injector(&loop, 13);
  network.AttachFaultInjector(&injector);
  injector.SetDuplication(1.0);
  int received = 0;
  ASSERT_TRUE(network.Bind("b", [&](const net::Message&) { ++received; }).ok());
  for (int i = 0; i < 100; ++i) network.Send("a", "b", "x");
  loop.RunAll();
  EXPECT_EQ(received, 200);
  EXPECT_EQ(injector.duplicated(), 100u);
}

TEST(FaultInjectorTest, CorruptionMutatesEveryPayload) {
  net::EventLoop loop;
  net::SimNetwork network(&loop, QuietNet());
  net::FaultInjector injector(&loop, 14);
  network.AttachFaultInjector(&injector);
  injector.SetCorruption(1.0);
  const std::string original = "payload-under-test";
  int received = 0, mutated = 0;
  ASSERT_TRUE(network.Bind("b", [&](const net::Message& m) {
    ++received;
    if (m.payload != original) ++mutated;
  }).ok());
  for (int i = 0; i < 100; ++i) network.Send("a", "b", original);
  loop.RunAll();
  EXPECT_EQ(received, 100);
  EXPECT_EQ(mutated, 100);
  EXPECT_EQ(injector.corrupted(), 100u);
}

TEST(FaultInjectorTest, DegradeWindowAppliesAndRevertsOnSchedule) {
  net::EventLoop loop;
  net::SimNetwork network(&loop, QuietNet());
  net::FaultInjector injector(&loop, 15);
  network.AttachFaultInjector(&injector);
  injector.DegradeWindow(100, 200, /*loss=*/1.0, /*duplication=*/0.0,
                         /*corruption=*/0.0);
  std::vector<util::TimePoint> arrivals;
  ASSERT_TRUE(network.Bind("b", [&](const net::Message&) {
    arrivals.push_back(loop.Now());
  }).ok());
  loop.ScheduleAt(50, [&] { network.Send("a", "b", "before"); });
  loop.ScheduleAt(150, [&] { network.Send("a", "b", "during"); });
  loop.ScheduleAt(250, [&] { network.Send("a", "b", "after"); });
  loop.RunAll();
  // Only the in-window send is lost.
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_LT(arrivals[0], util::TimePoint{100});
  EXPECT_GT(arrivals[1], util::TimePoint{200});
  EXPECT_EQ(injector.dropped_by_fault(), 1u);
}

TEST(FaultInjectorTest, ReorderBurstsDelaySomeDeliveries) {
  net::EventLoop loop;
  net::SimNetwork network(&loop, QuietNet());
  net::FaultInjector injector(&loop, 16);
  network.AttachFaultInjector(&injector);
  injector.SetReorderBursts(0.5, 100 * kMillisecond);
  int received = 0;
  ASSERT_TRUE(network.Bind("b", [&](const net::Message&) { ++received; }).ok());
  for (int i = 0; i < 200; ++i) network.Send("a", "b", "x");
  loop.RunAll();
  EXPECT_EQ(received, 200);  // delayed, never lost
  EXPECT_NEAR(injector.reordered() / 200.0, 0.5, 0.15);
}

// --- RpcClient circuit breaker -----------------------------------------

struct BreakerFixture : ::testing::Test {
  BreakerFixture()
      : network(&loop, QuietNet()),
        injector(&loop, 21),
        server(&network, "server"),
        client(&network, &loop, "client", "server") {
    network.AttachFaultInjector(&injector);
    EXPECT_TRUE(server.Start().ok());
    server.RegisterMethod("Ping", [](const XmlNode&) -> util::Result<XmlNode> {
      return XmlNode("result");
    });
    EXPECT_TRUE(client.Start().ok());
    net::RpcClient::BreakerConfig breaker;
    breaker.failure_threshold = 3;
    breaker.cooldown = 10 * kSecond;
    client.set_breaker(breaker);
  }

  /// One call with a 1 s timeout; drives the loop until it resolves.
  util::Status CallOnce() {
    std::optional<util::Status> seen;
    client.Call(
        "Ping", XmlNode("request"),
        [&](util::Result<XmlNode> response) { seen = response.status(); },
        /*timeout=*/1 * kSecond);
    if (!seen.has_value()) loop.RunUntil(loop.Now() + 5 * kSecond);
    EXPECT_TRUE(seen.has_value());
    return seen.value_or(util::Status::Internal("callback never fired"));
  }

  net::EventLoop loop;
  net::SimNetwork network;
  net::FaultInjector injector;
  net::RpcServer server;
  net::RpcClient client;
};

TEST_F(BreakerFixture, OpensAfterConsecutiveFailuresThenFailsFast) {
  injector.Isolate("server");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(CallOnce().code(), util::StatusCode::kUnavailable);
  }
  EXPECT_EQ(client.breaker_state(), net::RpcClient::BreakerState::kOpen);
  EXPECT_EQ(client.breaker_opens(), 1u);

  // While open, calls fail synchronously — no timeout burned, no message
  // put on the wire.
  std::uint64_t sent_before = client.calls_sent();
  bool fired = false;
  client.Call("Ping", XmlNode("request"),
              [&](util::Result<XmlNode> response) {
                fired = true;
                EXPECT_EQ(response.status().code(),
                          util::StatusCode::kUnavailable);
              });
  EXPECT_TRUE(fired);  // without running the loop
  EXPECT_EQ(client.calls_sent(), sent_before);
  EXPECT_GE(client.fast_failures(), 1u);
}

TEST_F(BreakerFixture, HalfOpenProbeClosesBreakerAfterRecovery) {
  injector.Isolate("server");
  // Failures are the point here: drive the breaker to its open state.
  for (int i = 0; i < 3; ++i) (void)CallOnce();
  ASSERT_EQ(client.breaker_state(), net::RpcClient::BreakerState::kOpen);

  injector.Heal();
  loop.RunUntil(loop.Now() + 11 * kSecond);  // past the cooldown

  // The next call is the half-open probe; its success closes the breaker.
  EXPECT_TRUE(CallOnce().ok());
  EXPECT_EQ(client.breaker_state(), net::RpcClient::BreakerState::kClosed);
  EXPECT_TRUE(CallOnce().ok());
  EXPECT_EQ(client.breaker_opens(), 1u);  // never re-opened
}

TEST_F(BreakerFixture, BreakerIsScopedPerServerNotPerClient) {
  // Regression: the breaker used to be a single client-wide state, so one
  // dead shard fast-failed CallTo() traffic to every healthy shard. The
  // state is keyed by destination address now.
  net::RpcServer healthy(&network, "server2");
  ASSERT_TRUE(healthy.Start().ok());
  healthy.RegisterMethod("Ping", [](const XmlNode&) -> util::Result<XmlNode> {
    return XmlNode("result");
  });

  injector.Isolate("server");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(CallOnce().code(), util::StatusCode::kUnavailable);
  }
  ASSERT_EQ(client.breaker_state_for("server"),
            net::RpcClient::BreakerState::kOpen);

  // The dead server's open breaker must not bleed into server2's calls:
  // they go on the wire and succeed, and server2's own breaker stays shut.
  std::uint64_t fast_failures_before = client.fast_failures();
  std::optional<util::Status> seen;
  client.CallTo(
      "server2", "Ping", XmlNode("request"),
      [&](util::Result<XmlNode> response) { seen = response.status(); },
      /*timeout=*/1 * kSecond);
  loop.RunUntil(loop.Now() + 5 * kSecond);
  ASSERT_TRUE(seen.has_value());
  EXPECT_TRUE(seen->ok()) << seen->ToString();
  EXPECT_EQ(client.fast_failures(), fast_failures_before);
  EXPECT_EQ(client.breaker_state_for("server2"),
            net::RpcClient::BreakerState::kClosed);
  EXPECT_EQ(client.breaker_state_for("server"),
            net::RpcClient::BreakerState::kOpen);
}

TEST_F(BreakerFixture, FailedProbeReopensForAnotherCooldown) {
  injector.Isolate("server");
  // Failures are the point here: drive the breaker to its open state.
  for (int i = 0; i < 3; ++i) (void)CallOnce();
  ASSERT_EQ(client.breaker_state(), net::RpcClient::BreakerState::kOpen);

  loop.RunUntil(loop.Now() + 11 * kSecond);
  // Server still cut: the probe times out and the breaker re-opens.
  EXPECT_EQ(CallOnce().code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(client.breaker_state(), net::RpcClient::BreakerState::kOpen);
  EXPECT_EQ(client.breaker_opens(), 2u);
}

// --- Client graceful degradation ---------------------------------------

client::FileImage Program(int j) {
  return client::FileImage("p" + std::to_string(j) + ".exe",
                           "content-" + std::to_string(j),
                           "Vendor" + std::to_string(j), "1.0");
}

server::ReputationServer::Config OpenServerConfig() {
  server::ReputationServer::Config config;
  config.flood.registration_puzzle_bits = 0;
  config.flood.max_registrations_per_source_per_day = 0;
  config.flood.max_votes_per_user_per_day = 0;
  return config;
}

class DegradationTest : public ::testing::Test {
 protected:
  DegradationTest()
      : injector_(&loop_, 31),
        network_(&loop_, QuietNet()),
        db_(storage::Database::Open("").value()) {
    network_.AttachFaultInjector(&injector_);
    server_ = std::make_unique<server::ReputationServer>(db_.get(), &loop_,
                                                         OpenServerConfig());
    EXPECT_TRUE(server_->AttachRpc(&network_, "server").ok());
  }

  std::unique_ptr<client::ClientApp> MakeClient(
      const std::string& name, client::ClientApp::Config overrides = {}) {
    client::ClientApp::Config config = std::move(overrides);
    config.address = name;
    config.server_address = "server";
    config.username = name;
    config.password = "pw-" + name;
    config.email = name + "@example.com";
    auto app = std::make_unique<client::ClientApp>(&network_, &loop_,
                                                   std::move(config));
    EXPECT_TRUE(app->Start().ok());
    return app;
  }

  void Onboard(client::ClientApp& app) {
    bool done = false;
    app.Register([&](util::Status status) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      auto mail = server_->FetchMail(app.config().email);
      ASSERT_TRUE(mail.ok());
      app.Activate(mail->token, [&](util::Status activated) {
        ASSERT_TRUE(activated.ok());
        app.Login([&](util::Status logged_in) {
          ASSERT_TRUE(logged_in.ok());
          done = true;
        });
      });
    });
    loop_.RunUntil(loop_.Now() + kMinute);
    ASSERT_TRUE(done);
  }

  void Drain(util::Duration window = kMinute) {
    loop_.RunUntil(loop_.Now() + window);
  }

  net::EventLoop loop_;
  net::FaultInjector injector_;
  net::SimNetwork network_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::ReputationServer> server_;
};

TEST_F(DegradationTest, StaleCacheAnswersOfflineWithinStaleTtl) {
  client::ClientApp::Config overrides;
  overrides.cache_ttl = 10 * kMinute;
  overrides.rpc_timeout = 2 * kSecond;
  auto app = MakeClient("alice", std::move(overrides));
  Onboard(*app);

  // Prime the cache with a healthy query.
  client::FileImage image = Program(0);
  app->HandleExecution(image, [](client::ExecDecision) {});
  Drain();
  ASSERT_EQ(app->stats().server_queries, 1u);

  // Let the entry expire past its fresh TTL, then cut the server.
  loop_.RunUntil(loop_.Now() + kHour);
  injector_.Isolate("server");

  std::optional<client::PromptInfo> seen;
  app->SetPromptHandler(
      [&](const client::PromptInfo& info,
          std::function<void(client::UserDecision)> done) {
        seen = info;
        done(client::UserDecision{/*allow=*/false, /*remember=*/false});
      });
  std::optional<client::ExecDecision> decision;
  app->HandleExecution(image, [&](client::ExecDecision d) { decision = d; });
  Drain(2 * kMinute);

  ASSERT_TRUE(decision.has_value());
  ASSERT_TRUE(seen.has_value());
  EXPECT_TRUE(seen->offline);  // served, but flagged as possibly stale
  EXPECT_EQ(app->stats().stale_served, 1u);
  EXPECT_EQ(app->cache().stale_hits(), 1u);

  // Beyond the stale TTL nothing is served: the offline fallback applies.
  loop_.RunUntil(loop_.Now() + 25 * kHour);
  seen.reset();
  decision.reset();
  app->HandleExecution(image, [&](client::ExecDecision d) { decision = d; });
  Drain(2 * kMinute);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(app->stats().stale_served, 1u);  // unchanged
}

TEST_F(DegradationTest, OfflineRatingsQueueAndReplayAfterHeal) {
  auto app = MakeClient("bob");
  Onboard(*app);
  injector_.Isolate("server");

  client::RatingSubmission submission;
  submission.score = 8;
  submission.comment = "helpful: solid tool";
  std::optional<util::Status> acked;
  app->SubmitRating(Program(1).Meta(), submission,
                    [&](util::Status status) { acked = status; });
  Drain();

  // The submission is accepted locally (the user said their piece) and
  // parked in the outbox; nothing reached the server.
  ASSERT_TRUE(acked.has_value());
  EXPECT_TRUE(acked->ok());
  EXPECT_EQ(app->stats().ratings_queued, 1u);
  EXPECT_EQ(app->offline_queue().size(), 1u);
  EXPECT_EQ(server_->votes().TotalVotes(), 0u);

  injector_.Heal();
  loop_.RunUntil(loop_.Now() + kHour);  // replay backoff gets its turn

  EXPECT_EQ(app->offline_queue().size(), 0u);
  EXPECT_EQ(app->stats().ratings_replayed, 1u);
  EXPECT_EQ(app->offline_queue().replayed(), 1u);
  EXPECT_EQ(server_->votes().TotalVotes(), 1u);
}

TEST_F(DegradationTest, ReplayedDuplicateIsRejectedNotDoubleCounted) {
  auto app = MakeClient("carol");
  Onboard(*app);

  // First rating lands normally.
  client::RatingSubmission submission;
  submission.score = 4;
  app->SubmitRating(Program(2).Meta(), submission, [](util::Status) {});
  Drain();
  ASSERT_EQ(server_->votes().TotalVotes(), 1u);

  // Same rating again while the server is dark: queued, then replayed into
  // the server's one-vote-per-(user, software) rule.
  injector_.Isolate("server");
  app->SubmitRating(Program(2).Meta(), submission, [](util::Status) {});
  Drain();
  EXPECT_EQ(app->offline_queue().size(), 1u);
  injector_.Heal();
  loop_.RunUntil(loop_.Now() + kHour);

  EXPECT_EQ(app->offline_queue().size(), 0u);
  EXPECT_EQ(app->offline_queue().replayed_duplicate(), 1u);
  EXPECT_EQ(server_->votes().TotalVotes(), 1u);  // still exactly one
}

TEST_F(DegradationTest, ChaosCountersSurfaceInOneRegistry) {
  // One registry observes the whole incident: the fault plane (injected
  // drops), the client RPC path (timeouts, breaker trips), and the cache
  // (stale serves) all report into it.
  obs::MetricsRegistry registry;
  injector_.AttachMetrics(&registry);

  client::ClientApp::Config overrides;
  overrides.metrics = &registry;
  overrides.cache_ttl = 10 * kMinute;
  overrides.rpc_timeout = 2 * kSecond;
  overrides.breaker.failure_threshold = 3;
  overrides.breaker.cooldown = 10 * kMinute;
  auto app = MakeClient("erin", std::move(overrides));
  Onboard(*app);

  // Healthy query primes the cache and the RPC call counter.
  client::FileImage image = Program(0);
  app->HandleExecution(image, [](client::ExecDecision) {});
  Drain();
  std::uint64_t healthy_calls =
      registry.GetCounter("pisrep_net_rpc_client_calls_total")->Value();
  EXPECT_GT(healthy_calls, 0u);

  // Entry goes past its fresh TTL, then the server drops off the network.
  loop_.RunUntil(loop_.Now() + kHour);
  injector_.Isolate("server");
  app->SetPromptHandler(
      [&](const client::PromptInfo&,
          std::function<void(client::UserDecision)> done) {
        done(client::UserDecision{/*allow=*/false, /*remember=*/false});
      });
  for (int i = 0; i < 3; ++i) {
    app->HandleExecution(image, [](client::ExecDecision) {});
    Drain(2 * kMinute);
  }

  // Isolation shows up as injected drops; the failed queries as timeouts;
  // enough consecutive failures as a breaker trip; and the cache served
  // the stale entry in the meantime.
  EXPECT_GT(registry
                .GetCounter(obs::WithLabel("pisrep_net_faults_total", "kind",
                                           "drop"))
                ->Value(),
            0u);
  EXPECT_GT(registry.GetCounter("pisrep_net_rpc_client_timeouts_total")
                ->Value(),
            0u);
  EXPECT_GE(registry.GetCounter("pisrep_net_rpc_client_breaker_opens_total")
                ->Value(),
            1u);
  EXPECT_GE(
      registry.GetCounter("pisrep_client_cache_stale_served_total")->Value(),
      1u);
  EXPECT_EQ(
      registry.GetCounter("pisrep_client_cache_stale_served_total")->Value(),
      app->cache().stale_hits());
  EXPECT_EQ(registry.GetCounter("pisrep_net_rpc_client_breaker_opens_total")
                ->Value(),
            app->rpc().breaker_opens());
}

TEST_F(DegradationTest, CrashRestartLosesSessionsAndClientsRelogin) {
  auto app = MakeClient("dave");
  Onboard(*app);
  client::RatingSubmission submission;
  submission.score = 9;
  app->SubmitRating(Program(3).Meta(), submission, [](util::Status) {});
  Drain();
  ASSERT_EQ(server_->votes().TotalVotes(), 1u);

  // Crash: RPC endpoint gone, sessions gone; durable state stays in db_.
  server_->Stop();
  std::optional<util::Status> acked;
  client::RatingSubmission second;
  second.score = 2;
  app->SubmitRating(Program(0).Meta(), second,
                    [&](util::Status status) { acked = status; });
  Drain();
  ASSERT_TRUE(acked.has_value());
  EXPECT_TRUE(acked->ok());  // queued while the server is down
  EXPECT_EQ(app->offline_queue().size(), 1u);

  // Restart: a fresh server process over the same database. The replay
  // presents the dead session, gets kUnauthenticated, re-logs-in and
  // delivers.
  server_ = std::make_unique<server::ReputationServer>(db_.get(), &loop_,
                                                       OpenServerConfig());
  ASSERT_TRUE(server_->AttachRpc(&network_, "server").ok());
  EXPECT_EQ(server_->accounts().AccountCount(), 1u);  // recovered from db
  loop_.RunUntil(loop_.Now() + kHour);

  EXPECT_EQ(app->offline_queue().size(), 0u);
  EXPECT_GE(app->stats().relogins, 1u);
  EXPECT_EQ(server_->votes().TotalVotes(), 2u);
}

// --- Scripted chaos schedule vs. no-fault control -----------------------

struct WorldOutcome {
  int executions_issued = 0;
  int decisions_resolved = 0;
  std::size_t total_votes = 0;
  std::size_t still_queued = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t relogins = 0;
  std::vector<double> scores;  // per program; -1 when unscored
};

/// Runs a fixed deterministic world — 3 clients, 4 programs, scripted
/// executions and exactly one rating per (client, program) pair — either
/// healthy or through a partition + crash/restart + degraded-network
/// schedule. Identical votes must land either way.
WorldOutcome RunWorld(bool chaos) {
  constexpr int kClients = 3;
  constexpr int kPrograms = 4;

  net::EventLoop loop;
  net::FaultInjector injector(&loop, 0xc4a05);
  net::NetworkConfig net_config;
  net_config.base_latency = 10 * kMillisecond;
  net_config.jitter = 5 * kMillisecond;
  net_config.seed = 77;
  net::SimNetwork network(&loop, net_config);
  network.AttachFaultInjector(&injector);

  auto db = storage::Database::Open("").value();
  auto server = std::make_unique<server::ReputationServer>(
      db.get(), &loop, OpenServerConfig());
  EXPECT_TRUE(server->AttachRpc(&network, "server").ok());

  std::vector<std::unique_ptr<client::ClientApp>> apps;
  for (int i = 0; i < kClients; ++i) {
    client::ClientApp::Config config;
    std::string name = "c" + std::to_string(i);
    config.address = name;
    config.server_address = "server";
    config.username = name;
    config.password = "pw-" + name;
    config.email = name + "@example.com";
    config.cache_ttl = 10 * kMinute;
    config.rpc_timeout = 2 * kSecond;
    auto app =
        std::make_unique<client::ClientApp>(&network, &loop, std::move(config));
    EXPECT_TRUE(app->Start().ok());
    apps.push_back(std::move(app));
  }
  for (auto& app : apps) {
    bool done = false;
    app->Register([&](util::Status status) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      auto mail = server->FetchMail(app->config().email);
      ASSERT_TRUE(mail.ok());
      app->Activate(mail->token, [&](util::Status activated) {
        ASSERT_TRUE(activated.ok());
        app->Login([&](util::Status logged_in) {
          ASSERT_TRUE(logged_in.ok());
          done = true;
        });
      });
    });
    loop.RunUntil(loop.Now() + kMinute);  // fixed step → identical t0
    EXPECT_TRUE(done);
  }
  const util::TimePoint t0 = loop.Now();

  if (chaos) {
    // The acceptance schedule: a 40-minute total partition, a crash with a
    // 20-minute outage and restart over the same database, then a
    // 40-minute window of 10% loss + duplication + corruption.
    injector.IsolateWindow(t0 + 40 * kMinute, t0 + 80 * kMinute, "server");
    loop.ScheduleAt(t0 + 90 * kMinute, [&server] { server->Stop(); });
    loop.ScheduleAt(t0 + 110 * kMinute, [&] {
      server = std::make_unique<server::ReputationServer>(db.get(), &loop,
                                                          OpenServerConfig());
      EXPECT_TRUE(server->AttachRpc(&network, "server").ok());
    });
    injector.DegradeWindow(t0 + 120 * kMinute, t0 + 160 * kMinute,
                           /*loss=*/0.10, /*duplication=*/0.02,
                           /*corruption=*/0.05);
  }

  WorldOutcome out;
  // Three rounds of executions per (client, program): round 0 primes the
  // caches before any fault, later rounds land inside the fault windows.
  for (int i = 0; i < kClients; ++i) {
    for (int j = 0; j < kPrograms; ++j) {
      for (int round = 0; round < 3; ++round) {
        util::TimePoint t =
            t0 + (i * kPrograms + j) * 3 * kMinute + round * 55 * kMinute;
        loop.ScheduleAt(t, [&out, &apps, i, j] {
          ++out.executions_issued;
          apps[i]->HandleExecution(Program(j), [&out](client::ExecDecision) {
            ++out.decisions_resolved;
          });
        });
      }
    }
  }
  // Exactly one rating per (client, program), at fixed times spread across
  // all three fault windows, with a fixed score.
  for (int i = 0; i < kClients; ++i) {
    for (int j = 0; j < kPrograms; ++j) {
      util::TimePoint t = t0 + 20 * kMinute + (i * kPrograms + j) * 11 * kMinute;
      loop.ScheduleAt(t, [&apps, i, j] {
        client::RatingSubmission submission;
        submission.score = 1 + (i * 3 + j * 2) % 10;
        submission.comment = "helpful: scripted vote";
        apps[i]->SubmitRating(Program(j).Meta(), submission,
                              [](util::Status) {});
      });
    }
  }

  loop.RunUntil(t0 + 12 * kHour);  // heal + drain every replay backoff
  server->aggregation().RunOnce(loop.Now());

  out.total_votes = server->votes().TotalVotes();
  for (int j = 0; j < kPrograms; ++j) {
    auto score = server->registry().GetScore(Program(j).Digest());
    out.scores.push_back(score.ok() ? score->score : -1.0);
  }
  for (auto& app : apps) {
    out.still_queued += app->offline_queue().size();
    out.stale_served += app->stats().stale_served;
    out.relogins += app->stats().relogins;
  }
  return out;
}

TEST(ChaosScheduleTest, PostHealStateMatchesNoFaultControlRun) {
  WorldOutcome chaos = RunWorld(/*chaos=*/true);
  WorldOutcome control = RunWorld(/*chaos=*/false);

  // Liveness: every execution callback fired exactly once, faults or not.
  EXPECT_EQ(chaos.decisions_resolved, chaos.executions_issued);
  EXPECT_EQ(control.decisions_resolved, control.executions_issued);
  EXPECT_EQ(chaos.executions_issued, control.executions_issued);

  // The degradation machinery actually engaged during the chaos run...
  EXPECT_GT(chaos.stale_served, 0u);
  EXPECT_GE(chaos.relogins, 1u);
  EXPECT_EQ(control.stale_served, 0u);
  EXPECT_EQ(control.relogins, 0u);

  // ...and fully recovered: outboxes drained, every scripted vote landed
  // exactly once, and the aggregated scores agree with the healthy run.
  EXPECT_EQ(chaos.still_queued, 0u);
  EXPECT_EQ(chaos.total_votes, control.total_votes);
  EXPECT_EQ(control.total_votes, 12u);
  ASSERT_EQ(chaos.scores.size(), control.scores.size());
  for (std::size_t j = 0; j < chaos.scores.size(); ++j) {
    EXPECT_NEAR(chaos.scores[j], control.scores[j], 1e-9) << "program " << j;
  }
}

}  // namespace
}  // namespace pisrep
