// F14 — the signed trust plane's cost and detection power (DESIGN.md §16).
//
// Three questions, answered with deterministic workloads:
//
//   1. Ingest overhead: what does hash-chaining every accepted vote (plus
//      the periodic signed checkpoint) add to signed-vote ingest? Measured
//      at two boundaries, audit log off vs on, with byte-identical vote
//      streams and per-vote latency sampled in fixed-size batches. The off
//      and on configurations run as a PAIR — both servers live at once,
//      measured batches alternating between them in ABBA order — so host
//      noise (a shared CI machine, a page-cache hiccup) lands on both
//      distributions instead of skewing whichever config ran second:
//        - served: the deployment path — binary wire codec over the RPC
//          stack into SubmitRating, 64 plain calls in flight at a time, as
//          production clients issue them. This is the number the <15% p50
//          budget applies to (full mode asserts it): what a client
//          actually pays per vote.
//        - engine: direct SubmitRating calls on an in-memory database, the
//          raw cost of the chain append with every serving layer stripped
//          away. Reported for transparency; a sub-microsecond absolute
//          delta here is a large fraction of a ~2 us in-memory upsert, so
//          no percentage budget is asserted at this boundary.
//   2. Verification throughput: how fast does VerifyAuditChain recompute a
//      long chain (1M entries full, 20k smoke)? This bounds how often an
//      operator can afford to run tools/audit against a replica WAL.
//   3. Detection power: a sampled tamper sweep flips one payload byte at
//      random chain positions and requires the verifier to (a) detect
//      every injection and (b) name the exact corrupted index. Asserted in
//      both modes — this is correctness, not timing.
//
// Emits BENCH_trust.json at the repo root (bench_util.h OutputPath).
// `--smoke` runs the reduced slice with the same self-checks and no timing
// assertions (wired into ctest under the bench-smoke label).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_timer.h"
#include "bench_util.h"
#include "core/behavior.h"
#include "core/types.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "net/rpc.h"
#include "proto/wire.h"
#include "server/reputation_server.h"
#include "storage/database.h"
#include "storage/tiered_table.h"
#include "storage/value.h"
#include "trust/audit_log.h"
#include "util/sha1.h"
#include "xml/xml_node.h"

namespace pisrep::bench {
namespace {

struct Shape {
  bool smoke = false;
  std::size_t votes = 20'000;        ///< per ingest mode
  std::size_t users = 50;
  std::size_t chain_entries = 1'000'000;
  std::size_t tamper_samples = 32;
};

struct IngestResult {
  double p50_us = 0.0;
  double total_ms = 0.0;
};

/// Deterministic 64-bit LCG (MMIX constants) — no wall-clock entropy.
class Lcg {
 public:
  std::uint64_t Next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 16;
  }

 private:
  std::uint64_t state_ = 0xF14B5ULL;
};

double Percentile50(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

server::ReputationServer::Config IngestConfig(bool audited) {
  server::ReputationServer::Config config;
  config.accounts.require_activation = false;
  config.flood.registration_puzzle_bits = 0;
  config.flood.max_registrations_per_source_per_day = 0;
  config.flood.max_votes_per_user_per_day = 0;
  config.trust.audit_log = audited;
  config.trust.checkpoint_every = 256;
  return config;
}

void RegisterVoters(server::ReputationServer* server, std::size_t users,
                    std::vector<std::string>* sessions) {
  sessions->reserve(users);
  for (std::size_t u = 0; u < users; ++u) {
    std::string name = "voter" + std::to_string(u);
    MustOk(server->accounts().Register(name, "password",
                                       name + "@bench.example", 0),
           "register");
    auto session = server->Login(name, "password", 0);
    MustOk(session, "login");
    sessions->push_back(*session);
  }
}

/// Every (user, software) pair is unique, so no vote is a duplicate.
core::SoftwareMeta VoteMeta(std::size_t i, std::size_t users) {
  core::SoftwareMeta meta;
  meta.id = util::Sha1::Hash("f14-sw-" + std::to_string(i / users));
  meta.file_name = "app.exe";
  meta.file_size = 4096;
  meta.company = "BenchCorp";
  meta.version = "1.0";
  return meta;
}

void CheckIngest(server::ReputationServer* server, storage::Database* db,
                 const Shape& shape, bool audited) {
  if (server->stats().votes_accepted != shape.votes) {
    std::fprintf(
        stderr, "ingest self-check: %llu of %zu votes accepted\n",
        static_cast<unsigned long long>(server->stats().votes_accepted),
        shape.votes);
    std::abort();
  }
  if (audited) {
    // Every accepted vote must be on the chain, and the chain must verify.
    if (server->audit() == nullptr ||
        server->audit()->head_index() < shape.votes) {
      std::fprintf(stderr, "ingest self-check: audit chain too short\n");
      std::abort();
    }
    trust::ChainVerifyResult chain = trust::VerifyAuditChain(db);
    if (!chain.ok) {
      std::fprintf(stderr, "ingest self-check: chain broken: %s\n",
                   chain.error.c_str());
      std::abort();
    }
  }
}

constexpr std::size_t kBatch = 64;

/// One server under direct SubmitRating calls — the engine boundary.
struct EngineRig {
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<server::ReputationServer> server;
  std::vector<std::string> sessions;
  std::vector<double> batch_us;
};

EngineRig MakeEngineRig(const Shape& shape, bool audited) {
  EngineRig rig;
  rig.db = storage::Database::Open("").value();
  rig.server = std::make_unique<server::ReputationServer>(
      rig.db.get(), /*loop=*/nullptr, IngestConfig(audited));
  RegisterVoters(rig.server.get(), shape.users, &rig.sessions);
  rig.batch_us.reserve(shape.votes / kBatch + 1);
  return rig;
}

/// Submits votes [base, base+kBatch) directly and returns us/vote. One
/// WallTimer read per batch keeps the clock out of the measured loop.
double EngineBatch(EngineRig* rig, std::size_t base, const Shape& shape) {
  WallTimer batch;
  for (std::size_t i = base; i < base + kBatch; ++i) {
    MustOk(rig->server->SubmitRating(rig->sessions[i % shape.users],
                                     VoteMeta(i, shape.users),
                                     1 + static_cast<int>(i % 10), "",
                                     core::kNoBehaviors,
                                     static_cast<util::TimePoint>(i)),
           "submit rating");
  }
  return static_cast<double>(batch.ElapsedMicros()) / kBatch;
}

/// One server behind the full serving stack: binary wire codec over the sim
/// transport into an RPC client keeping 64 calls in flight.
struct ServedRig {
  std::unique_ptr<net::EventLoop> loop;
  std::unique_ptr<net::SimNetwork> network;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<server::ReputationServer> server;
  std::unique_ptr<net::RpcClient> client;
  std::vector<std::string> sessions;
  std::vector<double> batch_us;
};

ServedRig MakeServedRig(const Shape& shape, bool audited) {
  ServedRig rig;
  rig.loop = std::make_unique<net::EventLoop>();
  rig.network =
      std::make_unique<net::SimNetwork>(rig.loop.get(), net::NetworkConfig{});
  rig.db = storage::Database::Open("").value();
  rig.server = std::make_unique<server::ReputationServer>(
      rig.db.get(), rig.loop.get(), IngestConfig(audited));
  MustOk(rig.server->AttachRpc(rig.network.get(), "server"), "attach rpc");
  rig.client = std::make_unique<net::RpcClient>(rig.network.get(),
                                                rig.loop.get(), "bench",
                                                "server");
  MustOk(rig.client->Start(), "client start");
  rig.client->set_codec(proto::WireCodec::kBinary);
  RegisterVoters(rig.server.get(), shape.users, &rig.sessions);
  rig.batch_us.reserve(shape.votes / kBatch + 1);
  return rig;
}

/// Issues votes [base, base+kBatch) as kBatch plain RPC calls in flight at
/// once, pumps the loop until every ack is in, returns us/vote.
double ServedBatch(ServedRig* rig, std::size_t base, const Shape& shape) {
  WallTimer batch;
  std::size_t pending = 0;
  for (std::size_t i = base; i < base + kBatch; ++i) {
    core::SoftwareMeta meta = VoteMeta(i, shape.users);
    xml::XmlNode request("request");
    request.AddTextChild("session", rig->sessions[i % shape.users]);
    xml::XmlNode& software = request.AddChild("software");
    software.SetAttribute("id", meta.id.ToHex());
    software.SetAttribute("file_name", meta.file_name);
    software.SetAttribute("file_size", std::to_string(meta.file_size));
    software.SetAttribute("company", meta.company);
    software.SetAttribute("version", meta.version);
    request.AddIntChild("score", 1 + static_cast<int>(i % 10));
    request.AddTextChild("comment", "");
    ++pending;
    rig->client->Call(
        "SubmitRating", std::move(request),
        [&pending](util::Result<xml::XmlNode> response) {
          MustOk(response, "vote rpc");
          --pending;
        },
        20 * util::kSecond);
  }
  while (pending > 0) {
    rig->loop->RunUntil(rig->loop->Now() + util::kMillisecond);
  }
  return static_cast<double>(batch.ElapsedMicros()) / kBatch;
}

/// ABBA ordering: alternate which side of the pair runs first each batch so
/// monotone drift on the host (thermal, cache warmup) cancels instead of
/// systematically favoring one configuration.
template <typename PlainFn, typename AuditedFn>
void DrivePair(const Shape& shape, PlainFn&& measure_plain,
               AuditedFn&& measure_audited, std::vector<double>* plain_us,
               std::vector<double>* audited_us) {
  std::size_t pair = 0;
  for (std::size_t base = 0; base + kBatch <= shape.votes;
       base += kBatch, ++pair) {
    if (pair % 2 == 0) {
      plain_us->push_back(measure_plain(base));
      audited_us->push_back(measure_audited(base));
    } else {
      audited_us->push_back(measure_audited(base));
      plain_us->push_back(measure_plain(base));
    }
  }
}

IngestResult FinishIngest(std::vector<double> batch_us, double total_ms) {
  IngestResult result;
  result.p50_us = Percentile50(std::move(batch_us));
  result.total_ms = total_ms;
  return result;
}

void RunEngineIngestPair(const Shape& shape, IngestResult* plain_out,
                         IngestResult* audited_out) {
  EngineRig plain = MakeEngineRig(shape, /*audited=*/false);
  EngineRig audited = MakeEngineRig(shape, /*audited=*/true);
  WallTimer total;
  DrivePair(
      shape, [&](std::size_t base) { return EngineBatch(&plain, base, shape); },
      [&](std::size_t base) { return EngineBatch(&audited, base, shape); },
      &plain.batch_us, &audited.batch_us);
  // Paired loops only drive whole batches; trailing votes (votes % 64) run
  // unmeasured so the accept-count self-check holds.
  for (std::size_t i = shape.votes - shape.votes % kBatch; i < shape.votes;
       ++i) {
    for (EngineRig* rig : {&plain, &audited}) {
      MustOk(rig->server->SubmitRating(rig->sessions[i % shape.users],
                                       VoteMeta(i, shape.users),
                                       1 + static_cast<int>(i % 10), "",
                                       core::kNoBehaviors,
                                       static_cast<util::TimePoint>(i)),
             "trailing vote");
    }
  }
  double total_ms = total.ElapsedMillis();
  CheckIngest(plain.server.get(), plain.db.get(), shape, /*audited=*/false);
  CheckIngest(audited.server.get(), audited.db.get(), shape, /*audited=*/true);
  *plain_out = FinishIngest(std::move(plain.batch_us), total_ms);
  *audited_out = FinishIngest(std::move(audited.batch_us), total_ms);
}

void RunServedIngestPair(const Shape& shape, IngestResult* plain_out,
                         IngestResult* audited_out) {
  ServedRig plain = MakeServedRig(shape, /*audited=*/false);
  ServedRig audited = MakeServedRig(shape, /*audited=*/true);
  WallTimer total;
  DrivePair(
      shape, [&](std::size_t base) { return ServedBatch(&plain, base, shape); },
      [&](std::size_t base) { return ServedBatch(&audited, base, shape); },
      &plain.batch_us, &audited.batch_us);
  for (std::size_t i = shape.votes - shape.votes % kBatch; i < shape.votes;
       ++i) {
    for (ServedRig* rig : {&plain, &audited}) {
      MustOk(rig->server->SubmitRating(rig->sessions[i % shape.users],
                                       VoteMeta(i, shape.users),
                                       1 + static_cast<int>(i % 10), "",
                                       core::kNoBehaviors, rig->loop->Now()),
             "trailing vote");
    }
  }
  double total_ms = total.ElapsedMillis();
  CheckIngest(plain.server.get(), plain.db.get(), shape, /*audited=*/false);
  CheckIngest(audited.server.get(), audited.db.get(), shape, /*audited=*/true);
  *plain_out = FinishIngest(std::move(plain.batch_us), total_ms);
  *audited_out = FinishIngest(std::move(audited.batch_us), total_ms);
}

int Run(const Shape& shape) {
  Banner("F14 — signed trust plane: ingest overhead and audit verification",
         "PR 10 (DESIGN.md §16); §3.2 vote path");

  // --- 1. Ingest overhead ---------------------------------------------------
  IngestResult engine_plain, engine_audited, served_plain, served_audited;
  RunEngineIngestPair(shape, &engine_plain, &engine_audited);
  RunServedIngestPair(shape, &served_plain, &served_audited);
  auto overhead_of = [](const IngestResult& plain, const IngestResult& full) {
    return plain.p50_us > 0 ? (full.p50_us - plain.p50_us) / plain.p50_us
                            : 0.0;
  };
  double engine_overhead = overhead_of(engine_plain, engine_audited);
  double served_overhead = overhead_of(served_plain, served_audited);
  std::printf("ingest (%zu votes, %zu users)\n", shape.votes, shape.users);
  std::printf("  served (rpc, binary codec):  unaudited p50 %.2f us/vote   "
              "audited p50 %.2f us/vote   overhead %+.1f%%\n",
              served_plain.p50_us, served_audited.p50_us,
              served_overhead * 100.0);
  std::printf("  engine (direct SubmitRating): unaudited p50 %.2f us/vote   "
              "audited p50 %.2f us/vote   overhead %+.1f%% "
              "(%+.2f us absolute)\n",
              engine_plain.p50_us, engine_audited.p50_us,
              engine_overhead * 100.0,
              engine_audited.p50_us - engine_plain.p50_us);
  Rule();

  // --- 2. Verification throughput ------------------------------------------
  auto chain_db = storage::Database::Open("").value();
  {
    trust::AuditLog log(chain_db.get());
    WallTimer build;
    for (std::size_t i = 1; i <= shape.chain_entries; ++i) {
      MustOk(log.Append("vote",
                        "user=" + std::to_string(i % 997) +
                            " score=" + std::to_string(i % 10),
                        static_cast<util::TimePoint>(i)),
             "chain append");
    }
    std::printf("chain build: %zu entries in %.0f ms\n", shape.chain_entries,
                build.ElapsedMillis());
  }
  WallTimer verify_timer;
  trust::ChainVerifyResult chain = trust::VerifyAuditChain(chain_db.get());
  double verify_s = verify_timer.ElapsedMillis() / 1000.0;
  if (!chain.ok || chain.entries != shape.chain_entries) {
    std::fprintf(stderr, "verify self-check: clean chain reported bad\n");
    return 1;
  }
  double entries_per_sec =
      verify_s > 0 ? static_cast<double>(shape.chain_entries) / verify_s : 0.0;
  std::printf("verify: %zu entries in %.2f s  (%.0f entries/s)\n",
              shape.chain_entries, verify_s, entries_per_sec);
  Rule();

  // --- 3. Sampled tamper sweep ----------------------------------------------
  auto table = chain_db->GetTiered(trust::kAuditTable);
  MustOk(table, "audit table");
  Lcg lcg;
  std::size_t detected = 0;
  std::size_t exact = 0;
  for (std::size_t s = 0; s < shape.tamper_samples; ++s) {
    std::uint64_t target = 1 + lcg.Next() % shape.chain_entries;
    auto original =
        (*table)->Get(storage::Value::Int(static_cast<std::int64_t>(target)));
    MustOk(original, "tamper read");
    storage::Row mutated = *original;
    std::string payload = mutated[2].AsStr();
    payload[lcg.Next() % payload.size()] ^= 0x01;  // single-bit flip
    mutated[2] = storage::Value::Str(payload);
    MustOk((*table)->Upsert(std::move(mutated)), "tamper write");

    trust::ChainVerifyResult tampered = trust::VerifyAuditChain(chain_db.get());
    if (!tampered.ok) ++detected;
    if (!tampered.ok && tampered.first_bad_index == target) ++exact;

    MustOk((*table)->Upsert(*original), "tamper restore");
  }
  trust::ChainVerifyResult restored = trust::VerifyAuditChain(chain_db.get());
  std::printf("tamper sweep: %zu injected, %zu detected, %zu named exactly; "
              "restored chain %s\n",
              shape.tamper_samples, detected, exact,
              restored.ok ? "ok" : "BROKEN");
  Rule();

  // --- Self-checks ----------------------------------------------------------
  bool ok = true;
  if (detected != shape.tamper_samples || exact != shape.tamper_samples) {
    std::fprintf(stderr,
                 "FAIL: tamper detection must be 100%% with exact index "
                 "(%zu/%zu detected, %zu exact)\n",
                 detected, shape.tamper_samples, exact);
    ok = false;
  }
  if (!restored.ok) {
    std::fprintf(stderr, "FAIL: restored chain no longer verifies\n");
    ok = false;
  }
  // Timing assertion only at full scale: smoke runs on shared CI hosts.
  // The budget binds at the serving boundary — what a client pays per
  // signed vote end to end.
  if (!shape.smoke && served_overhead > 0.15) {
    std::fprintf(stderr,
                 "FAIL: audited served-ingest p50 overhead %.1f%% exceeds "
                 "the 15%% budget\n",
                 served_overhead * 100.0);
    ok = false;
  }

  std::string path = ResultPath("BENCH_trust.json", shape.smoke);
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::fprintf(out,
                 "{\n"
                 "  \"experiment\": \"f14_trust_plane\",\n"
                 "  \"smoke\": %s,\n"
                 "  \"ingest\": {\n"
                 "    \"votes\": %zu,\n"
                 "    \"served\": {\n"
                 "      \"unaudited_p50_us\": %.3f,\n"
                 "      \"audited_p50_us\": %.3f,\n"
                 "      \"overhead_frac\": %.4f\n"
                 "    },\n"
                 "    \"engine\": {\n"
                 "      \"unaudited_p50_us\": %.3f,\n"
                 "      \"audited_p50_us\": %.3f,\n"
                 "      \"overhead_frac\": %.4f\n"
                 "    }\n"
                 "  },\n"
                 "  \"verify\": {\n"
                 "    \"entries\": %zu,\n"
                 "    \"seconds\": %.3f,\n"
                 "    \"entries_per_sec\": %.0f\n"
                 "  },\n"
                 "  \"tamper\": {\n"
                 "    \"injected\": %zu,\n"
                 "    \"detected\": %zu,\n"
                 "    \"exact_index\": %zu\n"
                 "  }\n"
                 "}\n",
                 shape.smoke ? "true" : "false", shape.votes,
                 served_plain.p50_us, served_audited.p50_us, served_overhead,
                 engine_plain.p50_us, engine_audited.p50_us, engine_overhead,
                 shape.chain_entries, verify_s, entries_per_sec,
                 shape.tamper_samples, detected, exact);
    std::fclose(out);
    std::printf("wrote %s\n", path.c_str());
  }

  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pisrep::bench

int main(int argc, char** argv) {
  pisrep::bench::Shape shape;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      shape.smoke = true;
      shape.votes = 2'000;
      shape.users = 20;
      shape.chain_entries = 20'000;
      shape.tamper_samples = 16;
    }
  }
  return pisrep::bench::Run(shape);
}
