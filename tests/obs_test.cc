#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/types.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "net/rpc.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/snapshot_logger.h"
#include "obs/trace.h"
#include "proto/binary_codec.h"
#include "server/reputation_server.h"
#include "storage/database.h"
#include "util/clock.h"
#include "util/parallel_for.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "xml/xml_node.h"

namespace pisrep::obs {
namespace {

using util::kMillisecond;
using xml::XmlNode;

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsTest, CounterAndGaugeBasics) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("pisrep_test_events_total");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->Value(), 5u);

  Gauge* g = registry.GetGauge("pisrep_test_depth");
  g->Set(7);
  g->Add(-2);
  EXPECT_EQ(g->Value(), 5);
  EXPECT_EQ(registry.MetricCount(), 2u);
}

TEST(MetricsTest, RegistrationIsIdempotent) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("pisrep_test_total");
  Counter* b = registry.GetCounter("pisrep_test_total");
  EXPECT_EQ(a, b);  // same cell, so a restarted component keeps the count
  a->Increment();
  EXPECT_EQ(b->Value(), 1u);

  Histogram* h1 = registry.GetHistogram("pisrep_test_ms", {1, 2, 3});
  // Re-registration ignores the (different) bounds and returns the
  // existing histogram — layout is fixed at first registration.
  Histogram* h2 = registry.GetHistogram("pisrep_test_ms", {100, 200});
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h2->bounds(), (std::vector<double>{1, 2, 3}));
}

TEST(MetricsDeathTest, TypeMismatchIsAProgrammingError) {
  MetricsRegistry registry;
  registry.GetCounter("pisrep_test_total");
  EXPECT_DEATH({ registry.GetGauge("pisrep_test_total"); },
               "already registered with another type");
}

TEST(MetricsDeathTest, UnsortedHistogramBoundsAbort) {
  MetricsRegistry registry;
  EXPECT_DEATH({ registry.GetHistogram("pisrep_test_ms", {10, 5}); },
               "sorted");
  EXPECT_DEATH({ registry.GetHistogram("pisrep_test_ms2", {5, 5}); },
               "strictly increasing");
}

TEST(MetricsTest, DisabledRegistryDropsUpdates) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("pisrep_test_total");
  Gauge* g = registry.GetGauge("pisrep_test_depth");
  Histogram* h = registry.GetHistogram("pisrep_test_ms", {10});

  registry.set_enabled(false);
  c->Increment();
  g->Set(9);
  h->Observe(3);
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(g->Value(), 0);
  EXPECT_EQ(h->Count(), 0u);

  registry.set_enabled(true);
  c->Increment();
  EXPECT_EQ(c->Value(), 1u);
}

TEST(MetricsTest, HistogramBucketLayoutIsDeterministic) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("pisrep_test_ms", {10, 100, 1000});
  for (double v : {5.0, 10.0, 11.0, 100.0, 5000.0}) h->Observe(v);

  // Raw (non-cumulative) counts; bucket i admits v <= bounds[i], the last
  // slot is +Inf. Boundary values land in their own bucket.
  EXPECT_EQ(h->BucketCounts(), (std::vector<std::uint64_t>{2, 2, 0, 1}));
  EXPECT_EQ(h->Count(), 5u);
  EXPECT_DOUBLE_EQ(h->Sum(), 5126.0);
}

TEST(MetricsTest, WithLabelRendersPrometheusStyle) {
  EXPECT_EQ(WithLabel("pisrep_net_faults_total", "kind", "drop"),
            "pisrep_net_faults_total{kind=\"drop\"}");
}

TEST(MetricsTest, ConcurrentUpdatesUnderParallelFor) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("pisrep_test_total");
  Gauge* g = registry.GetGauge("pisrep_test_depth");
  Histogram* h = registry.GetHistogram("pisrep_test_ms", {100, 1000});

  constexpr int kTasks = 8;
  constexpr int kPerTask = 10000;
  util::ParallelFor(4, kTasks, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      for (int i = 0; i < kPerTask; ++i) {
        c->Increment();
        g->Add(1);
        h->Observe(50);
      }
    }
  });

  EXPECT_EQ(c->Value(), std::uint64_t{kTasks} * kPerTask);
  EXPECT_EQ(g->Value(), std::int64_t{kTasks} * kPerTask);
  EXPECT_EQ(h->Count(), std::uint64_t{kTasks} * kPerTask);
  EXPECT_EQ(h->BucketCounts()[0], std::uint64_t{kTasks} * kPerTask);
}

// --- Exporters --------------------------------------------------------------

void PopulateSample(MetricsRegistry* registry) {
  registry->GetCounter("pisrep_test_events_total")->Increment(3);
  registry->GetCounter(WithLabel("pisrep_test_faults_total", "kind", "drop"))
      ->Increment(2);
  registry->GetCounter(WithLabel("pisrep_test_faults_total", "kind", "dup"))
      ->Increment();
  registry->GetGauge("pisrep_test_depth")->Set(7);
  Histogram* h = registry->GetHistogram("pisrep_test_latency_ms", {10, 100});
  for (double v : {5.0, 50.0, 500.0}) h->Observe(v);
}

TEST(ExportTest, TextExpositionFormat) {
  MetricsRegistry registry;
  PopulateSample(&registry);
  EXPECT_EQ(RenderText(registry),
            "# TYPE pisrep_test_depth gauge\n"
            "pisrep_test_depth 7\n"
            "# TYPE pisrep_test_events_total counter\n"
            "pisrep_test_events_total 3\n"
            "# TYPE pisrep_test_faults_total counter\n"
            "pisrep_test_faults_total{kind=\"drop\"} 2\n"
            "pisrep_test_faults_total{kind=\"dup\"} 1\n"
            "# TYPE pisrep_test_latency_ms histogram\n"
            "pisrep_test_latency_ms_bucket{le=\"10\"} 1\n"
            "pisrep_test_latency_ms_bucket{le=\"100\"} 2\n"
            "pisrep_test_latency_ms_bucket{le=\"+Inf\"} 3\n"
            "pisrep_test_latency_ms_sum 555\n"
            "pisrep_test_latency_ms_count 3\n");
}

TEST(ExportTest, TextIsByteStableAcrossIdenticalRuns) {
  MetricsRegistry a;
  MetricsRegistry b;
  PopulateSample(&a);
  PopulateSample(&b);
  EXPECT_EQ(RenderText(a), RenderText(b));
  EXPECT_EQ(RenderJson(a), RenderJson(b));
}

TEST(ExportTest, JsonCarriesEveryMetric) {
  MetricsRegistry registry;
  registry.GetCounter("pisrep_test_total")->Increment(2);
  registry.GetHistogram("pisrep_test_ms", {10})->Observe(4);
  std::string json = RenderJson(registry);
  EXPECT_EQ(json,
            "[{\"name\":\"pisrep_test_ms\",\"type\":\"histogram\","
            "\"bounds\":[10],\"buckets\":[1,0],\"sum\":4,\"count\":1},"
            "{\"name\":\"pisrep_test_total\",\"type\":\"counter\","
            "\"value\":2}]");
}

TEST(ExportTest, DigestIsOneLine) {
  MetricsRegistry registry;
  registry.GetCounter("a_total")->Increment(2);
  registry.GetGauge("b_depth")->Set(-1);
  registry.GetHistogram("c_ms", {10})->Observe(3);
  EXPECT_EQ(RenderDigest(registry), "a_total=2 b_depth=-1 c_ms=1/3");
}

// --- Tracer / Span ----------------------------------------------------------

TEST(TraceTest, RootAndChildSpansShareATrace) {
  util::SimClock clock;
  Tracer tracer(&clock);
  clock.AdvanceTo(10);
  Span root = tracer.StartSpan("outer");
  EXPECT_TRUE(root.active());
  clock.AdvanceTo(20);
  Span child = tracer.StartChild("inner", root.trace_id(), root.span_id());
  clock.AdvanceTo(30);
  child.Finish();
  clock.AdvanceTo(40);
  root.Finish();

  ASSERT_EQ(tracer.finished().size(), 2u);
  const SpanRecord& inner = tracer.finished()[0];
  const SpanRecord& outer = tracer.finished()[1];
  EXPECT_EQ(inner.name, "inner");
  EXPECT_EQ(inner.trace_id, outer.trace_id);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_EQ(outer.parent_id, 0u);  // root
  EXPECT_EQ(inner.start, 20);
  EXPECT_EQ(inner.end, 30);
  EXPECT_EQ(outer.start, 10);
  EXPECT_EQ(outer.end, 40);
}

TEST(TraceTest, DeterministicSequentialIds) {
  Tracer tracer;
  Span a = tracer.StartSpan("a");
  Span b = tracer.StartSpan("b");
  EXPECT_EQ(a.trace_id(), 1u);
  EXPECT_EQ(a.span_id(), 1u);
  EXPECT_EQ(b.trace_id(), 2u);
  EXPECT_EQ(b.span_id(), 2u);
}

TEST(TraceTest, DefaultSpanIsInactiveNoop) {
  Span span;
  EXPECT_FALSE(span.active());
  span.SetError("ignored");
  span.Finish();  // must not crash or touch any tracer
}

TEST(TraceTest, MoveTransfersOwnershipSoFinishHappensOnce) {
  Tracer tracer;
  {
    Span a = tracer.StartSpan("moved");
    Span b = std::move(a);
    EXPECT_FALSE(a.active());
    EXPECT_TRUE(b.active());
  }  // only b's destructor finishes the span
  EXPECT_EQ(tracer.finished().size(), 1u);
  EXPECT_EQ(tracer.spans_started(), 1u);
}

TEST(TraceTest, ErrorsAreRecorded) {
  Tracer tracer;
  {
    Span span = tracer.StartSpan("failing");
    span.SetError("deadline exceeded");
  }
  ASSERT_EQ(tracer.finished().size(), 1u);
  EXPECT_TRUE(tracer.finished()[0].error);
  EXPECT_EQ(tracer.finished()[0].note, "deadline exceeded");
}

TEST(TraceTest, BoundedBufferDropsOldest) {
  Tracer tracer(nullptr, /*capacity=*/2);
  for (int i = 0; i < 3; ++i) {
    Span span = tracer.StartSpan(util::StrFormat("s%d", i));
  }
  ASSERT_EQ(tracer.finished().size(), 2u);
  EXPECT_EQ(tracer.finished()[0].name, "s1");
  EXPECT_EQ(tracer.finished()[1].name, "s2");
  EXPECT_EQ(tracer.spans_dropped(), 1u);
}

// --- End-to-end span propagation over a simulated RPC -----------------------

TEST(TracePropagationTest, ClientSpanParentsServerSpanAcrossTheWire) {
  net::EventLoop loop;
  net::NetworkConfig config;
  config.base_latency = 5 * kMillisecond;
  config.jitter = 0;
  net::SimNetwork network(&loop, config);
  net::RpcServer server(&network, "server");
  net::RpcClient client(&network, &loop, "client", "server");

  MetricsRegistry registry;
  Tracer tracer(&loop.clock());
  server.AttachObservability(&registry, &tracer);
  client.AttachObservability(&registry, &tracer);

  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(client.Start().ok());
  server.RegisterMethod("Echo",
                        [](const XmlNode& request) -> util::Result<XmlNode> {
                          XmlNode result("result");
                          result.AddTextChild(
                              "echo", request.ChildText("msg").value_or(""));
                          return result;
                        });

  bool ok = false;
  XmlNode params("request");
  params.AddTextChild("msg", "ping");
  client.Call("Echo", std::move(params),
              [&](util::Result<XmlNode> response) { ok = response.ok(); });
  loop.RunAll();
  ASSERT_TRUE(ok);

  // Both halves of the call finished into the shared tracer; the server
  // span must continue the client's trace, parented on the client span,
  // and nest inside it in sim time.
  const SpanRecord* client_span = nullptr;
  const SpanRecord* server_span = nullptr;
  for (const SpanRecord& rec : tracer.finished()) {
    if (rec.name == "rpc.client.Echo") client_span = &rec;
    if (rec.name == "rpc.server.Echo") server_span = &rec;
  }
  ASSERT_NE(client_span, nullptr);
  ASSERT_NE(server_span, nullptr);
  EXPECT_EQ(server_span->trace_id, client_span->trace_id);
  EXPECT_EQ(server_span->parent_id, client_span->span_id);
  EXPECT_EQ(client_span->parent_id, 0u);
  EXPECT_FALSE(client_span->error);
  EXPECT_FALSE(server_span->error);
  EXPECT_GE(server_span->start, client_span->start);
  EXPECT_LE(server_span->end, client_span->end);

  // The same call showed up in the RPC metrics.
  EXPECT_EQ(registry
                .GetCounter(WithLabel("pisrep_net_rpc_requests_total",
                                      "method", "Echo"))
                ->Value(),
            1u);
  EXPECT_EQ(registry.GetCounter("pisrep_net_rpc_client_calls_total")->Value(),
            1u);
  Histogram* latency = registry.GetHistogram(
      "pisrep_net_rpc_client_latency_ms", {10, 50, 100, 500, 1000, 5000,
                                           30000});
  EXPECT_EQ(latency->Count(), 1u);
  // Round trip at 5ms each way on the sim clock: deterministic 10ms.
  EXPECT_DOUBLE_EQ(latency->Sum(), 10.0);
}

TEST(TracePropagationTest, ServerErrorMarksTheServerSpan) {
  net::EventLoop loop;
  net::NetworkConfig config;
  config.base_latency = 1 * kMillisecond;
  config.jitter = 0;
  net::SimNetwork network(&loop, config);
  net::RpcServer server(&network, "server");
  net::RpcClient client(&network, &loop, "client", "server");

  MetricsRegistry registry;
  Tracer tracer(&loop.clock());
  server.AttachObservability(&registry, &tracer);
  client.AttachObservability(&registry, &tracer);

  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(client.Start().ok());
  server.RegisterMethod("Fail",
                        [](const XmlNode&) -> util::Result<XmlNode> {
                          return util::Status::PermissionDenied("no");
                        });
  bool failed = false;
  client.Call("Fail", XmlNode("request"),
              [&](util::Result<XmlNode> response) {
                failed = !response.ok();
              });
  loop.RunAll();
  ASSERT_TRUE(failed);

  const SpanRecord* server_span = nullptr;
  for (const SpanRecord& rec : tracer.finished()) {
    if (rec.name == "rpc.server.Fail") server_span = &rec;
  }
  ASSERT_NE(server_span, nullptr);
  EXPECT_TRUE(server_span->error);
  EXPECT_EQ(registry
                .GetCounter(WithLabel("pisrep_net_rpc_errors_total", "code",
                                      "permission_denied"))
                ->Value(),
            1u);
}

// --- SnapshotLogger ---------------------------------------------------------

TEST(SnapshotLoggerTest, FirstTickLogsThenRespectsPeriod) {
  MetricsRegistry registry;
  registry.GetCounter("pisrep_test_total")->Increment();
  SnapshotLogger logger(&registry, /*period=*/100);
  EXPECT_TRUE(logger.Tick(0));
  EXPECT_FALSE(logger.Tick(50));
  EXPECT_TRUE(logger.Tick(100));
  EXPECT_FALSE(logger.Tick(199));
  EXPECT_TRUE(logger.Tick(200));
  EXPECT_EQ(logger.snapshots(), 3u);
}

TEST(SnapshotLoggerTest, DisabledWithoutRegistryOrPeriod) {
  MetricsRegistry registry;
  SnapshotLogger no_registry(nullptr, 100);
  EXPECT_FALSE(no_registry.Tick(0));
  SnapshotLogger no_period(&registry, 0);
  EXPECT_FALSE(no_period.Tick(0));
  EXPECT_EQ(no_registry.snapshots(), 0u);
  EXPECT_EQ(no_period.snapshots(), 0u);
}

// --- Codec counter (DESIGN.md §14) ------------------------------------------

TEST(RpcCodecMetricsTest, BinaryCounterTracksTraffic) {
  net::EventLoop loop;
  net::NetworkConfig config;
  config.base_latency = 5 * kMillisecond;
  config.jitter = 0;
  net::SimNetwork network(&loop, config);
  net::RpcServer server(&network, "server");
  net::RpcClient client(&network, &loop, "client", "server");
  MetricsRegistry registry;
  Tracer tracer(&loop.clock());
  server.AttachObservability(&registry, &tracer);
  client.AttachObservability(&registry, &tracer);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(client.Start().ok());
  server.RegisterMethod("Ping", [](const XmlNode&) -> util::Result<XmlNode> {
    return XmlNode("result");
  });

  Counter* binary =
      registry.GetCounter("pisrep_proto_binary_requests_total");

  // Plain XML call: the counter does not move.
  client.Call("Ping", XmlNode("request"), [](util::Result<XmlNode>) {});
  loop.RunAll();
  EXPECT_EQ(binary->Value(), 0u);

  // One binary frame.
  client.set_codec(proto::WireCodec::kBinary);
  client.Call("Ping", XmlNode("request"), [](util::Result<XmlNode>) {});
  loop.RunAll();
  EXPECT_EQ(binary->Value(), 1u);
}

TEST(ServerSnapshotMetricsTest, SnapshotAgeGaugeAndHitCountersAreWired) {
  auto db = storage::Database::Open("");
  ASSERT_TRUE(db.ok());
  net::EventLoop loop;
  MetricsRegistry registry;
  server::ReputationServer::Config config;
  config.accounts.require_activation = false;
  config.metrics = &registry;
  server::ReputationServer server(db->get(), &loop, config);

  ASSERT_TRUE(
      server.accounts().Register("ada", "password", "a@obs.example", 0).ok());
  auto session = server.Login("ada", "password", 0);
  ASSERT_TRUE(session.ok());
  core::SoftwareMeta meta;
  meta.id = util::Sha1::Hash("obs-app");
  meta.file_name = "obs.exe";
  meta.file_size = 1;
  meta.version = "1.0";
  ASSERT_TRUE(
      server.SubmitRating(*session, meta, 8, "", core::kNoBehaviors, 0).ok());
  server.aggregation().RunOnce(util::kHour);  // publishes at loop time 0

  // Advance sim time without running the daily aggregation: the next
  // snapshot-path query must report exactly that staleness on the gauge.
  loop.RunUntil(3 * util::kHour);
  auto info = server.QuerySoftware(*session, meta.id);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->known);

  EXPECT_EQ(registry.GetGauge("pisrep_server_query_snapshot_age")->Value(),
            3 * util::kHour);
  EXPECT_GE(registry.GetGauge("pisrep_server_snapshot_epoch")->Value(), 2);
  EXPECT_EQ(
      registry.GetCounter("pisrep_server_snapshot_hits_total")->Value(), 1u);
  EXPECT_EQ(
      registry.GetCounter("pisrep_server_snapshot_misses_total")->Value(),
      0u);
  EXPECT_EQ(server.stats().snapshot_hits, 1u);
}

}  // namespace
}  // namespace pisrep::obs
