// M1 — engineering microbenchmarks for every substrate the reputation
// system runs on: hashing, the XML protocol codec, the storage engine, the
// WAL, the RPC round trip, puzzle solving, and the aggregation job.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rating_aggregator.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "net/rpc.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "server/flood_guard.h"
#include "server/reputation_server.h"
#include "storage/database.h"
#include "storage/table.h"
#include "util/hmac.h"
#include "util/random.h"
#include "util/sha1.h"
#include "util/sha256.h"
#include "util/string_util.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace pisrep {
namespace {

// --- Hashing -----------------------------------------------------------------

void BM_Sha1(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Sha1::Hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_Sha256(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Sha256::Hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(1 << 20);

void BM_HmacSha256(benchmark::State& state) {
  std::string message(256, 'm');
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::HmacSha256("pepper-secret", message));
  }
}
BENCHMARK(BM_HmacSha256);

// --- XML protocol ---------------------------------------------------------------

xml::XmlNode ProtocolMessage() {
  xml::XmlNode request("request");
  request.SetAttribute("id", "12345");
  request.SetAttribute("method", "SubmitRating");
  request.AddTextChild("session", "abcdefghijklmnopqrstuvwxyz012345");
  xml::XmlNode& software = request.AddChild("software");
  software.SetAttribute("id", std::string(40, 'a'));
  software.SetAttribute("file_name", "application_installer.exe");
  software.SetAttribute("file_size", "1048576");
  software.SetAttribute("company", "Example Software Corporation");
  software.SetAttribute("version", "4.2");
  request.AddIntChild("score", 7);
  request.AddTextChild("comment",
                       "helpful: works well but registers itself at "
                       "startup & shows ads");
  request.AddTextChild("behaviors", "shows_ads,startup_registration");
  return request;
}

void BM_XmlWrite(benchmark::State& state) {
  xml::XmlNode message = ProtocolMessage();
  for (auto _ : state) {
    benchmark::DoNotOptimize(xml::WriteXml(message));
  }
}
BENCHMARK(BM_XmlWrite);

void BM_XmlParse(benchmark::State& state) {
  std::string wire = xml::WriteXml(ProtocolMessage());
  for (auto _ : state) {
    auto parsed = xml::ParseXml(wire);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(wire.size()));
}
BENCHMARK(BM_XmlParse);

// --- Storage engine ----------------------------------------------------------------

storage::TableSchema BenchSchema() {
  return storage::SchemaBuilder("bench")
      .Int("id")
      .Str("payload")
      .Real("score")
      .PrimaryKey("id")
      .Index("payload")
      .Build();
}

void BM_TableInsert(benchmark::State& state) {
  storage::Table table(BenchSchema());
  std::int64_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Insert(storage::Row{
        storage::Value::Int(id++),
        storage::Value::Str("payload-" + std::to_string(id % 97)),
        storage::Value::Real(static_cast<double>(id)),
    }));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TableInsert);

void BM_TableGet(benchmark::State& state) {
  storage::Table table(BenchSchema());
  for (std::int64_t i = 0; i < 100000; ++i) {
    // Fixed schema with unique keys: Insert cannot fail in this setup loop.
    (void)table.Insert(storage::Row{
        storage::Value::Int(i),
        storage::Value::Str("payload-" + std::to_string(i % 97)),
        storage::Value::Real(static_cast<double>(i)),
    });
  }
  std::int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.Get(storage::Value::Int((key++ * 7919) % 100000)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TableGet);

void BM_TableIndexLookup(benchmark::State& state) {
  storage::Table table(BenchSchema());
  for (std::int64_t i = 0; i < 100000; ++i) {
    // Fixed schema with unique keys: Insert cannot fail in this setup loop.
    (void)table.Insert(storage::Row{
        storage::Value::Int(i),
        storage::Value::Str("payload-" + std::to_string(i % 97)),
        storage::Value::Real(static_cast<double>(i)),
    });
  }
  std::int64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.FindByIndex(
        "payload",
        storage::Value::Str("payload-" + std::to_string(key++ % 97))));
  }
}
BENCHMARK(BM_TableIndexLookup);

void BM_WalAppendAndRecover(benchmark::State& state) {
  std::string path = "/tmp/pisrep_bench.wal";
  for (auto _ : state) {
    std::remove(path.c_str());
    {
      auto db = storage::Database::Open(path).value();
      // Fresh database per iteration: CreateTable cannot collide.
      (void)db->CreateTable(BenchSchema());
      storage::Table* table = db->GetTable("bench").value();
      for (std::int64_t i = 0; i < state.range(0); ++i) {
        // Fixed schema with unique keys: Insert cannot fail here.
        (void)table->Insert(storage::Row{
            storage::Value::Int(i),
            storage::Value::Str("row"),
            storage::Value::Real(1.0),
        });
      }
    }
    auto recovered = storage::Database::Open(path);
    benchmark::DoNotOptimize(recovered);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WalAppendAndRecover)->Arg(1000);

// --- RPC round trip -----------------------------------------------------------------

void BM_RpcRoundTrip(benchmark::State& state) {
  net::EventLoop loop;
  net::NetworkConfig net_config;
  net_config.base_latency = 0;
  net_config.jitter = 0;
  net::SimNetwork network(&loop, net_config);
  net::RpcServer server(&network, "server");
  (void)server.Start();  // fresh loop, cannot already be started
  server.RegisterMethod("Echo",
                        [](const xml::XmlNode& request)
                            -> util::Result<xml::XmlNode> {
                          xml::XmlNode result("result");
                          result.AddTextChild(
                              "echo",
                              request.ChildText("msg").value_or(""));
                          return result;
                        });
  net::RpcClient client(&network, &loop, "client", "server");
  (void)client.Start();  // fresh loop, cannot already be started

  for (auto _ : state) {
    bool done = false;
    xml::XmlNode params("request");
    params.AddTextChild("msg", "ping");
    client.Call("Echo", std::move(params),
                [&](util::Result<xml::XmlNode> response) {
                  benchmark::DoNotOptimize(response);
                  done = true;
                });
    while (!done) loop.RunOne();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RpcRoundTrip);

// --- Flood-guard puzzles ----------------------------------------------------------------

void BM_PuzzleSolve(benchmark::State& state) {
  server::FloodGuard::Config config;
  config.registration_puzzle_bits = static_cast<int>(state.range(0));
  server::FloodGuard guard(config);
  for (auto _ : state) {
    server::Puzzle puzzle = guard.IssuePuzzle();
    benchmark::DoNotOptimize(server::FloodGuard::SolvePuzzle(puzzle));
  }
}
BENCHMARK(BM_PuzzleSolve)->Arg(8)->Arg(12)->Arg(16);

// --- Aggregation job -----------------------------------------------------------------------

void BM_AggregationJob(benchmark::State& state) {
  auto db = storage::Database::Open("").value();
  net::EventLoop loop;
  server::ReputationServer::Config config;
  config.flood.registration_puzzle_bits = 0;
  config.flood.max_votes_per_user_per_day = 0;
  config.flood.max_registrations_per_source_per_day = 0;
  server::ReputationServer server(db.get(), &loop, config);

  // N users each voting on 10 of 100 programs.
  util::Rng rng(1);
  const int kUsers = static_cast<int>(state.range(0));
  std::vector<core::SoftwareMeta> programs;
  for (int i = 0; i < 100; ++i) {
    core::SoftwareMeta meta;
    meta.id = util::Sha1::Hash("bench-program-" + std::to_string(i));
    meta.file_name = util::StrFormat("p%d.exe", i);
    meta.file_size = 1000;
    meta.company = "Vendor-" + std::to_string(i % 10);
    meta.version = "1.0";
    programs.push_back(meta);
  }
  for (int u = 0; u < kUsers; ++u) {
    std::string name = "user" + std::to_string(u);
    std::string email = name + "@x.com";
    (void)server.Register("s", name, "password", email, "", "", 0);
    auto mail = server.FetchMail(email);
    (void)server.Activate(name, mail->token);
    std::string session = *server.Login(name, "password", 0);
    for (int v = 0; v < 10; ++v) {
      (void)server.SubmitRating(
          session, programs[rng.NextIndex(programs.size())],
          static_cast<int>(rng.NextInt(1, 10)), "", core::kNoBehaviors, 0);
    }
  }

  for (auto _ : state) {
    // Full sweep: an incremental run would find nothing dirty after the
    // first iteration and measure a no-op.
    benchmark::DoNotOptimize(
        server.aggregation().RunOnce(util::kDay, /*full_sweep=*/true));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(
                              server.votes().TotalVotes()));
}
BENCHMARK(BM_AggregationJob)->Arg(50)->Arg(200);

// --- Observability overhead --------------------------------------------------
//
// DESIGN.md §10 budgets the obs hot path: an enabled counter is one relaxed
// fetch_add, a disabled registry is a single predictable branch, and an
// unattached component (null handle) is the same branch on the caller's
// side. These three benches verify the budget holds.

void BM_ObsCounterEnabled(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("pisrep_bench_total");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->Value());
}
BENCHMARK(BM_ObsCounterEnabled);

void BM_ObsCounterDisabledRegistry(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("pisrep_bench_total");
  registry.set_enabled(false);
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->Value());
}
BENCHMARK(BM_ObsCounterDisabledRegistry);

void BM_ObsCounterNullHandle(benchmark::State& state) {
  // The instrumentation-site pattern when no registry was ever attached.
  obs::Counter* counter = nullptr;
  std::uint64_t fallback = 0;
  for (auto _ : state) {
    if (counter != nullptr) {
      counter->Increment();
    } else {
      benchmark::DoNotOptimize(fallback);
    }
  }
}
BENCHMARK(BM_ObsCounterNullHandle);

void BM_ObsHistogramObserve(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram* histogram = registry.GetHistogram(
      "pisrep_bench_ms", {1, 5, 10, 50, 100, 500, 1000});
  double v = 0;
  for (auto _ : state) {
    histogram->Observe(v);
    v += 7;
    if (v > 1200) v = 0;
  }
  benchmark::DoNotOptimize(histogram->Count());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsRenderText(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 64; ++i) {
    registry.GetCounter("pisrep_bench_total_" + std::to_string(i))
        ->Increment(static_cast<std::uint64_t>(i));
  }
  registry.GetHistogram("pisrep_bench_ms", {10, 100, 1000})->Observe(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::RenderText(registry));
  }
}
BENCHMARK(BM_ObsRenderText);

}  // namespace
}  // namespace pisrep

BENCHMARK_MAIN();
