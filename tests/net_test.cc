#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "proto/binary_codec.h"
#include "xml/xml_node.h"
#include "xml/xml_writer.h"

namespace pisrep::net {
namespace {

using util::kMillisecond;
using util::kSecond;
using xml::XmlNode;

// --- EventLoop -------------------------------------------------------------

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(30, [&] { order.push_back(3); });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(20, [&] { order.push_back(2); });
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), 30);
}

TEST(EventLoopTest, SameTimeRunsInInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.ScheduleAt(10, [&order, i] { order.push_back(i); });
  }
  loop.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, PastEventsClampToNow) {
  EventLoop loop;
  loop.ScheduleAt(100, [] {});
  loop.RunAll();
  bool ran = false;
  loop.ScheduleAt(50, [&] { ran = true; });  // in the past
  loop.RunAll();
  EXPECT_TRUE(ran);
  EXPECT_EQ(loop.Now(), 100);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  loop.ScheduleAt(10, [&] { ++count; });
  loop.ScheduleAt(20, [&] { ++count; });
  loop.ScheduleAt(30, [&] { ++count; });
  EXPECT_EQ(loop.RunUntil(25), 2u);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.Now(), 25);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoopTest, NestedScheduling) {
  EventLoop loop;
  int depth = 0;
  loop.ScheduleAt(10, [&] {
    loop.ScheduleAfter(5, [&] {
      ++depth;
      loop.ScheduleAfter(5, [&] { ++depth; });
    });
  });
  loop.RunAll();
  EXPECT_EQ(depth, 2);
  EXPECT_EQ(loop.Now(), 20);
}

TEST(EventLoopTest, PeriodicFiresAtFixedInterval) {
  EventLoop loop;
  std::vector<util::TimePoint> fire_times;
  loop.SchedulePeriodic(100, 50, [&] { fire_times.push_back(loop.Now()); });
  loop.RunUntil(300);
  EXPECT_EQ(fire_times,
            (std::vector<util::TimePoint>{100, 150, 200, 250, 300}));
}

TEST(EventLoopDeathTest, NegativeDelayAborts) {
  EventLoop loop;
  EXPECT_DEATH({ loop.ScheduleAfter(-1, [] {}); }, "negative delay");
}

// --- SimNetwork -------------------------------------------------------------

TEST(NetworkTest, DeliversWithLatency) {
  EventLoop loop;
  NetworkConfig config;
  config.base_latency = 20 * kMillisecond;
  config.jitter = 0;
  SimNetwork network(&loop, config);

  std::vector<std::string> received;
  util::TimePoint delivered_at = 0;
  ASSERT_TRUE(network.Bind("b", [&](const Message& m) {
    received.push_back(m.payload);
    delivered_at = loop.Now();
  }).ok());

  network.Send("a", "b", "hello");
  loop.RunAll();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "hello");
  EXPECT_EQ(delivered_at, 20 * kMillisecond);
  EXPECT_EQ(network.messages_delivered(), 1u);
}

TEST(NetworkTest, DoubleBindFails) {
  EventLoop loop;
  SimNetwork network(&loop, NetworkConfig{});
  ASSERT_TRUE(network.Bind("x", [](const Message&) {}).ok());
  EXPECT_EQ(network.Bind("x", [](const Message&) {}).code(),
            util::StatusCode::kAlreadyExists);
}

TEST(NetworkTest, UnknownDestinationCountsAsDrop) {
  EventLoop loop;
  SimNetwork network(&loop, NetworkConfig{});
  network.Send("a", "ghost", "msg");
  loop.RunAll();
  EXPECT_EQ(network.messages_dropped(), 1u);
  EXPECT_EQ(network.messages_delivered(), 0u);
}

TEST(NetworkTest, LossProbabilityDropsRoughlyThatFraction) {
  EventLoop loop;
  NetworkConfig config;
  config.loss_probability = 0.3;
  config.jitter = 0;
  SimNetwork network(&loop, config);
  int received = 0;
  ASSERT_TRUE(network.Bind("b", [&](const Message&) { ++received; }).ok());
  for (int i = 0; i < 2000; ++i) network.Send("a", "b", "x");
  loop.RunAll();
  EXPECT_NEAR(received / 2000.0, 0.7, 0.05);
}

TEST(NetworkTest, UnbindStopsDelivery) {
  EventLoop loop;
  SimNetwork network(&loop, NetworkConfig{});
  int received = 0;
  ASSERT_TRUE(network.Bind("b", [&](const Message&) { ++received; }).ok());
  network.Send("a", "b", "1");
  network.Unbind("b");
  loop.RunAll();
  EXPECT_EQ(received, 0);
}

// --- RPC ---------------------------------------------------------------------

struct RpcFixture : ::testing::Test {
  RpcFixture()
      : network(&loop, MakeConfig()),
        server(&network, "server"),
        client(&network, &loop, "client", "server") {
    EXPECT_TRUE(server.Start().ok());
    EXPECT_TRUE(client.Start().ok());
  }

  static NetworkConfig MakeConfig() {
    NetworkConfig config;
    config.base_latency = 5 * kMillisecond;
    config.jitter = 0;
    return config;
  }

  EventLoop loop;
  SimNetwork network;
  RpcServer server;
  RpcClient client;
};

TEST_F(RpcFixture, EchoRoundTrip) {
  server.RegisterMethod("Echo",
                        [](const XmlNode& request) -> util::Result<XmlNode> {
                          XmlNode result("result");
                          result.AddTextChild(
                              "echo", request.ChildText("msg").value_or(""));
                          return result;
                        });
  std::string echoed;
  XmlNode params("request");
  params.AddTextChild("msg", "ping & <stuff>");
  client.Call("Echo", std::move(params),
              [&](util::Result<XmlNode> response) {
                ASSERT_TRUE(response.ok());
                echoed = response->ChildText("echo").value_or("");
              });
  loop.RunAll();
  EXPECT_EQ(echoed, "ping & <stuff>");
  EXPECT_EQ(server.requests_handled(), 1u);
}

TEST_F(RpcFixture, ServerErrorPropagatesCodeAndMessage) {
  server.RegisterMethod("Fail",
                        [](const XmlNode&) -> util::Result<XmlNode> {
                          return util::Status::PermissionDenied("no way");
                        });
  util::Status seen;
  client.Call("Fail", XmlNode("request"),
              [&](util::Result<XmlNode> response) {
                ASSERT_FALSE(response.ok());
                seen = response.status();
              });
  loop.RunAll();
  EXPECT_EQ(seen.code(), util::StatusCode::kPermissionDenied);
  EXPECT_EQ(seen.message(), "no way");
  EXPECT_EQ(server.requests_failed(), 1u);
}

TEST_F(RpcFixture, UnknownMethodIsNotFound) {
  util::Status seen;
  client.Call("Nope", XmlNode("request"),
              [&](util::Result<XmlNode> response) {
                seen = response.status();
              });
  loop.RunAll();
  EXPECT_EQ(seen.code(), util::StatusCode::kNotFound);
}

TEST_F(RpcFixture, TimeoutWhenServerSilent) {
  // No method registered and server unbound → request dropped at delivery.
  network.Unbind("server");
  bool timed_out = false;
  client.Call(
      "Echo", XmlNode("request"),
      [&](util::Result<XmlNode> response) {
        EXPECT_FALSE(response.ok());
        EXPECT_EQ(response.status().code(), util::StatusCode::kUnavailable);
        timed_out = true;
      },
      /*timeout=*/1 * kSecond);
  loop.RunAll();
  EXPECT_TRUE(timed_out);
  EXPECT_EQ(client.timeouts(), 1u);
}

TEST_F(RpcFixture, ConcurrentCallsMatchById) {
  server.RegisterMethod("Id",
                        [](const XmlNode& request) -> util::Result<XmlNode> {
                          XmlNode result("result");
                          result.AddTextChild(
                              "v", request.ChildText("v").value_or(""));
                          return result;
                        });
  std::vector<std::string> results(10);
  for (int i = 0; i < 10; ++i) {
    XmlNode params("request");
    params.AddTextChild("v", std::to_string(i));
    client.Call("Id", std::move(params),
                [&results, i](util::Result<XmlNode> response) {
                  ASSERT_TRUE(response.ok());
                  results[i] = response->ChildText("v").value_or("");
                });
  }
  loop.RunAll();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(results[i], std::to_string(i));
  }
}

TEST_F(RpcFixture, RetriesRecoverFromLossyNetwork) {
  server.RegisterMethod("Ping",
                        [](const XmlNode&) -> util::Result<XmlNode> {
                          return XmlNode("result");
                        });
  // Rebuild a lossy network path by dropping the first attempts: simulate
  // via a very short timeout against real latency, forcing retries.
  client.set_max_retries(5);
  bool ok = false;
  client.Call(
      "Ping", XmlNode("request"),
      [&](util::Result<XmlNode> response) { ok = response.ok(); },
      /*timeout=*/1 * kMillisecond);  // first attempts time out (latency 5ms)
  loop.RunAll();
  // Backoff doubles the timeout (1,2,4,8,16 ms); attempt with >=11ms
  // round-trip budget succeeds.
  EXPECT_TRUE(ok);
  EXPECT_GT(client.retries_sent(), 0u);
}

TEST(RpcLossyTest, RetriesBeatPacketLoss) {
  EventLoop loop;
  NetworkConfig config;
  config.base_latency = 2 * kMillisecond;
  config.jitter = 0;
  config.loss_probability = 0.4;
  config.seed = 99;
  SimNetwork network(&loop, config);
  RpcServer server(&network, "server");
  ASSERT_TRUE(server.Start().ok());
  server.RegisterMethod("Ping",
                        [](const XmlNode&) -> util::Result<XmlNode> {
                          return XmlNode("result");
                        });
  RpcClient client(&network, &loop, "client", "server");
  ASSERT_TRUE(client.Start().ok());
  client.set_max_retries(8);

  int successes = 0;
  const int kCalls = 50;
  for (int i = 0; i < kCalls; ++i) {
    client.Call(
        "Ping", XmlNode("request"),
        [&](util::Result<XmlNode> response) {
          if (response.ok()) ++successes;
        },
        /*timeout=*/20 * kMillisecond);
  }
  loop.RunAll();
  // 40% loss per leg → ~64% round-trip failure per attempt, but 8 retries
  // drive the per-call failure probability to ~0.64^9 ≈ 2%. Without
  // retries ~2/3 of calls would fail; with them nearly all succeed.
  EXPECT_GE(successes, kCalls - 5);
  EXPECT_GT(client.retries_sent(), 20u);
}

TEST(RpcLifetimeTest, DestroyedClientLeavesNoDanglingCallbacks) {
  EventLoop loop;
  NetworkConfig config;
  config.base_latency = 5 * kMillisecond;
  config.jitter = 0;
  SimNetwork network(&loop, config);
  RpcServer server(&network, "server");
  ASSERT_TRUE(server.Start().ok());
  server.RegisterMethod("Echo",
                        [](const XmlNode&) -> util::Result<XmlNode> {
                          return XmlNode("result");
                        });
  bool callback_fired = false;
  {
    RpcClient client(&network, &loop, "client", "server");
    ASSERT_TRUE(client.Start().ok());
    client.Call("Echo", XmlNode("request"),
                [&](util::Result<XmlNode>) { callback_fired = true; });
    // The client dies with its call in flight: the request is on the wire
    // and the timeout event is queued.
  }
  // Draining the loop delivers the request, the response (to a now-unbound
  // address), and the timeout — none of which may touch freed memory.
  loop.RunAll();
  EXPECT_FALSE(callback_fired);
  // The client's address is free for a successor.
  RpcClient successor(&network, &loop, "client", "server");
  EXPECT_TRUE(successor.Start().ok());
}

TEST(RpcLifetimeTest, DestroyedServerDropsRequestsCleanly) {
  EventLoop loop;
  NetworkConfig config;
  config.base_latency = 5 * kMillisecond;
  config.jitter = 0;
  SimNetwork network(&loop, config);
  RpcClient client(&network, &loop, "client", "server");
  ASSERT_TRUE(client.Start().ok());
  {
    RpcServer server(&network, "server");
    ASSERT_TRUE(server.Start().ok());
  }  // server gone before the request lands
  util::Status seen;
  client.Call(
      "Echo", XmlNode("request"),
      [&](util::Result<XmlNode> response) { seen = response.status(); },
      /*timeout=*/1 * kSecond);
  loop.RunAll();
  EXPECT_EQ(seen.code(), util::StatusCode::kUnavailable);
}

TEST(RpcDuplicationTest, DuplicatedDeliveriesFireCallbackExactlyOnce) {
  EventLoop loop;
  SimNetwork network(&loop, [] {
    NetworkConfig config;
    config.base_latency = 5 * kMillisecond;
    config.jitter = 0;
    return config;
  }());
  FaultInjector injector(&loop, 7);
  network.AttachFaultInjector(&injector);
  injector.SetDuplication(1.0);  // every message delivered twice

  RpcServer server(&network, "server");
  ASSERT_TRUE(server.Start().ok());
  server.RegisterMethod("Echo", [](const XmlNode&) -> util::Result<XmlNode> {
    return XmlNode("result");
  });
  RpcClient client(&network, &loop, "client", "server");
  ASSERT_TRUE(client.Start().ok());

  int fired = 0;
  client.Call("Echo", XmlNode("request"), [&](util::Result<XmlNode> response) {
    ++fired;
    EXPECT_TRUE(response.ok());
  });
  loop.RunAll();
  // The request arrived twice (the server handled both), and each response
  // was duplicated again — yet the pending call resolves exactly once; the
  // surplus responses land on a retired id and are ignored.
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(server.requests_handled(), 2u);
}

// --- Binary codec over RPC ---------------------------------------------------

TEST_F(RpcFixture, BinaryCodecRoundTripsEndToEnd) {
  server.RegisterMethod("Echo",
                        [](const XmlNode& request) -> util::Result<XmlNode> {
                          XmlNode result("result");
                          result.AddTextChild(
                              "echo", request.ChildText("msg").value_or(""));
                          return result;
                        });
  client.set_codec(proto::WireCodec::kBinary);
  std::string echoed;
  XmlNode params("request");
  params.AddTextChild("msg", "binary & <weird> bytes \x01\x02");
  client.Call("Echo", std::move(params),
              [&](util::Result<XmlNode> response) {
                ASSERT_TRUE(response.ok());
                echoed = response->ChildText("echo").value_or("");
              });
  loop.RunAll();
  EXPECT_EQ(echoed, "binary & <weird> bytes \x01\x02");
  EXPECT_EQ(server.binary_requests(), 1u);
  EXPECT_EQ(server.requests_handled(), 1u);
}

TEST_F(RpcFixture, BinaryAnswersArriveBitEquivalentToXml) {
  server.RegisterMethod("Fixed",
                        [](const XmlNode&) -> util::Result<XmlNode> {
                          XmlNode result("result");
                          result.SetAttribute("known", "1");
                          XmlNode& score = result.AddChild("score");
                          score.SetAttribute("value", "7.250000");
                          result.AddTextChild("note", "same <bytes>");
                          return result;
                        });
  std::vector<std::string> answers;
  for (proto::WireCodec codec :
       {proto::WireCodec::kXml, proto::WireCodec::kBinary}) {
    client.set_codec(codec);
    client.Call("Fixed", XmlNode("request"),
                [&](util::Result<XmlNode> response) {
                  ASSERT_TRUE(response.ok());
                  // Strip the envelope id (differs per call) and compare
                  // canonical bytes of the payload the caller sees.
                  response->SetAttribute("id", "");
                  answers.push_back(xml::WriteXml(*response));
                });
    loop.RunAll();
  }
  ASSERT_EQ(answers.size(), 2u);
  EXPECT_EQ(answers[0], answers[1]);
}

TEST_F(RpcFixture, BinaryCodecShrinksWireBytes) {
  server.RegisterMethod("Echo",
                        [](const XmlNode& request) -> util::Result<XmlNode> {
                          XmlNode result("result");
                          result.AddTextChild(
                              "echo", request.ChildText("msg").value_or(""));
                          return result;
                        });
  auto run_calls = [&](proto::WireCodec codec) {
    client.set_codec(codec);
    std::uint64_t before = network.bytes_sent();
    for (int i = 0; i < 10; ++i) {
      XmlNode params("request");
      params.AddTextChild("msg", "payload-" + std::to_string(i));
      client.Call("Echo", std::move(params), [](util::Result<XmlNode>) {});
    }
    loop.RunAll();
    return network.bytes_sent() - before;
  };
  std::uint64_t xml_bytes = run_calls(proto::WireCodec::kXml);
  std::uint64_t binary_bytes = run_calls(proto::WireCodec::kBinary);
  EXPECT_LT(binary_bytes, xml_bytes);
}

TEST_F(RpcFixture, StrayBatchFrameIsMalformedInEitherCodec) {
  obs::MetricsRegistry metrics;
  server.AttachObservability(&metrics, nullptr);
  server.RegisterMethod("Ping", [](const XmlNode&) -> util::Result<XmlNode> {
    return XmlNode("result");
  });
  std::vector<std::string> inbox;
  ASSERT_TRUE(network
                  .Bind("raw",
                        [&inbox](const Message& message) {
                          inbox.push_back(message.payload);
                        })
                  .ok());
  obs::Counter* malformed = metrics.GetCounter(
      obs::WithLabel("pisrep_net_rpc_errors_total", "code", "malformed"));
  for (proto::WireCodec codec :
       {proto::WireCodec::kXml, proto::WireCodec::kBinary}) {
    XmlNode batch("batch");
    batch.SetAttribute("id", "1");
    XmlNode& request = batch.AddChild("request");
    request.SetAttribute("id", "2");
    request.SetAttribute("method", "Ping");
    const std::uint64_t failed = server.requests_failed();
    const std::uint64_t malformed_before = malformed->Value();
    network.Send("raw", "server", proto::EncodeFrame(batch, codec));
    loop.RunAll();
    // Only a frame that is one <request> gets handled and answered.
    EXPECT_TRUE(inbox.empty());
    EXPECT_EQ(server.requests_handled(), 0u);
    EXPECT_EQ(server.requests_failed(), failed + 1);
    EXPECT_EQ(malformed->Value(), malformed_before + 1);
  }
}

TEST(StatusCodeNameTest, RoundTripsThroughWireNames) {
  for (int i = 0; i <= static_cast<int>(util::StatusCode::kInternal); ++i) {
    util::StatusCode code = static_cast<util::StatusCode>(i);
    EXPECT_EQ(StatusCodeFromName(util::StatusCodeName(code)), code);
  }
  EXPECT_EQ(StatusCodeFromName("garbage"), util::StatusCode::kInternal);
}

}  // namespace
}  // namespace pisrep::net
