// Chaos soak: a seeded, randomized schedule of primary crashes, asymmetric
// partitions, lossy windows, and live shard add/remove runs over a scripted
// community workload against an R=3/W=2 cluster. Every vote is driven
// durably (retried until the cluster acks it), and at the end the cluster
// must agree with a calm single-server twin that replayed the same ledger:
// zero quorum-acked votes lost, zero duplicated, scores equivalent, and
// every replica bit-identical to its primary.
//
// The schedule is deterministic (fixed seeds, sim-clock driven), so the
// soak is a regression test, not a flake generator. Budget: sim time only —
// the whole binary runs in well under the 30 s CI allowance.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/anti_entropy.h"
#include "cluster/cluster.h"
#include "cluster/router.h"
#include "net/event_loop.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/rpc.h"
#include "proto/wire.h"
#include "server/reputation_server.h"
#include "storage/database.h"
#include "storage/tiered_table.h"
#include "storage/value.h"
#include "trust/audit_log.h"
#include "util/logging.h"
#include "util/sha1.h"
#include "util/string_util.h"

namespace pisrep::cluster {
namespace {

using util::Result;
using util::Status;
using util::StatusCode;
using util::StrFormat;
using xml::XmlNode;

constexpr int kUsers = 6;
constexpr int kPrograms = 12;
constexpr int kVotes = kUsers * kPrograms;

core::SoftwareMeta ProgramMeta(int i) {
  core::SoftwareMeta meta;
  meta.id = util::Sha1::Hash(StrFormat("soak-program-%d", i));
  meta.file_name = StrFormat("soak_%02d.exe", i);
  meta.file_size = 20'000 + i;
  meta.company = StrFormat("vendor-%d", i % 3);
  meta.version = "1.0";
  return meta;
}

std::string UserName(int u) { return StrFormat("soak%02d", u); }

/// One quorum-acked community vote. The ledger is the ground truth the
/// cluster must never lose: a vote only enters it once the cluster acked it.
struct VoteOp {
  int user;
  int program;
  int score;
};

VoteOp VoteAt(int i) {
  int u = i % kUsers;
  int p = i / kUsers;
  return VoteOp{u, p, 1 + (p * 3 + u * 5) % 10};
}

/// Deterministic xorshift64* — the schedule generator. No wall clock, no
/// global RNG: the same seed always yields the same chaos.
class Schedule {
 public:
  explicit Schedule(std::uint64_t seed) : state_(seed | 1) {}

  std::uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }

  int Below(int n) { return static_cast<int>(Next() % static_cast<std::uint64_t>(n)); }

 private:
  std::uint64_t state_;
};

/// Same shape as cluster_test's harness: a ShardCluster behind a Router at
/// "server" (num_shards > 0) or a plain single ReputationServer at the same
/// address (num_shards == 0, the calm oracle), driven over blocking RPC.
class Harness {
 public:
  /// `wal_path` (num_shards == 0 only) backs the single server with an
  /// on-disk WAL so the audit chain survives the harness — the export the
  /// CI chaos-soak step hands to the offline pisrep-audit verifier.
  explicit Harness(int num_shards, std::string wal_path = "")
      : network_(&loop_, net::NetworkConfig{}), faults_(&loop_) {
    network_.AttachFaultInjector(&faults_);
    if (num_shards > 0) {
      ClusterConfig config;
      config.num_shards = num_shards;
      config.server.flood.registration_puzzle_bits = 0;
      config.server.flood.max_registrations_per_source_per_day = 0;
      config.replication.replication_factor = 3;
      config.replication.write_quorum = 2;
      config.gossip.enabled = true;
      config.gossip.period = util::kSecond;
      config.gossip.suspicion_timeout = 3 * util::kSecond;
      config.anti_entropy.enabled = true;
      config.anti_entropy.period = 10 * util::kSecond;
      RouterConfig rc;
      rc.service_address = "server";
      cluster_ =
          std::make_unique<ShardCluster>(&network_, &loop_, std::move(config));
      PISREP_CHECK(cluster_->Start().ok());
      router_ =
          std::make_unique<Router>(&network_, &loop_, rc, nullptr, nullptr);
      PISREP_CHECK(router_->Start().ok());
      for (int i = 0; i < num_shards; ++i) {
        router_->AddShard(cluster_->ShardName(i));
      }
    } else {
      auto db = storage::Database::Open(wal_path);
      PISREP_CHECK(db.ok());
      db_ = std::move(db).value();
      server::ReputationServer::Config config;
      config.flood.registration_puzzle_bits = 0;
      config.flood.max_registrations_per_source_per_day = 0;
      config.accounts.deterministic_tokens = true;
      server_ = std::make_unique<server::ReputationServer>(db_.get(), &loop_,
                                                           config);
      PISREP_CHECK(server_->AttachRpc(&network_, "server").ok());
    }
    client_ = std::make_unique<net::RpcClient>(&network_, &loop_, "tester",
                                               "server");
    PISREP_CHECK(client_->Start().ok());
  }

  ~Harness() {
    if (cluster_ != nullptr) cluster_->StopAll();
  }

  net::EventLoop& loop() { return loop_; }
  net::FaultInjector& faults() { return faults_; }
  ShardCluster* cluster() { return cluster_.get(); }
  Router* router() { return router_.get(); }
  server::ReputationServer* server() { return server_.get(); }

  void Pump(const std::function<bool()>& done = {}, int max_seconds = 120) {
    for (int i = 0; i < max_seconds; ++i) {
      if (done && done()) return;
      loop_.RunUntil(loop_.Now() + util::kSecond);
    }
  }

  Result<XmlNode> Call(const std::string& method, XmlNode params,
                       util::Duration timeout = 20 * util::kSecond) {
    std::optional<Result<XmlNode>> response;
    client_->Call(
        method, std::move(params),
        [&response](Result<XmlNode> r) { response = std::move(r); }, timeout);
    Pump([&response] { return response.has_value(); });
    if (!response.has_value()) {
      return Status::Unavailable("call never completed: " + method);
    }
    return *std::move(response);
  }

  /// Registers, activates, and logs `user` in; returns the session token.
  std::string Onboard(const std::string& user) {
    XmlNode puzzle_req("request");
    auto puzzle_resp = Call("RequestPuzzle", std::move(puzzle_req));
    PISREP_CHECK(puzzle_resp.ok()) << puzzle_resp.status().ToString();
    const XmlNode* puzzle_node = puzzle_resp->FindChild("puzzle");
    PISREP_CHECK(puzzle_node != nullptr);
    proto::Puzzle puzzle;
    puzzle.nonce = puzzle_node->AttributeOr("nonce", "");
    auto bits = util::ParseInt64(puzzle_node->AttributeOr("bits", "0"));
    puzzle.difficulty_bits = bits.ok() ? static_cast<int>(*bits) : 0;

    XmlNode reg("request");
    reg.AddTextChild("source", "src-" + user);
    reg.AddTextChild("username", user);
    reg.AddTextChild("password", "pw-" + user);
    reg.AddTextChild("email", user + "@example.com");
    reg.AddTextChild("nonce", puzzle.nonce);
    reg.AddTextChild("solution", proto::SolvePuzzle(puzzle));
    auto registered = Call("Register", std::move(reg));
    PISREP_CHECK(registered.ok()) << registered.status().ToString();

    auto mail = FetchMail(user + "@example.com");
    PISREP_CHECK(mail.ok()) << mail.status().ToString();
    XmlNode act("request");
    act.AddTextChild("username", mail->username);
    act.AddTextChild("token", mail->token);
    auto activated = Call("Activate", std::move(act));
    PISREP_CHECK(activated.ok()) << activated.status().ToString();
    return Login(user);
  }

  /// Fresh session for `user`; empty on (transient) failure — callers retry.
  std::string Login(const std::string& user) {
    XmlNode login("request");
    login.AddTextChild("username", user);
    login.AddTextChild("password", "pw-" + user);
    auto session = Call("Login", std::move(login));
    if (!session.ok()) return "";
    return session->ChildText("session").value_or("");
  }

  Status SubmitRating(const std::string& session,
                      const core::SoftwareMeta& meta, int score) {
    XmlNode request("request");
    request.AddTextChild("session", session);
    XmlNode& software = request.AddChild("software");
    software.SetAttribute("id", meta.id.ToHex());
    software.SetAttribute("file_name", meta.file_name);
    software.SetAttribute("file_size", std::to_string(meta.file_size));
    software.SetAttribute("company", meta.company);
    software.SetAttribute("version", meta.version);
    request.AddIntChild("score", score);
    request.AddTextChild("comment", "");
    auto response = Call("SubmitRating", std::move(request));
    return response.ok() ? Status::Ok() : response.status();
  }

  Result<server::ActivationMail> FetchMail(const std::string& email) {
    if (cluster_ != nullptr) return cluster_->FetchMail(email);
    return server_->FetchMail(email);
  }

  void RunAggregation(util::TimePoint now) {
    if (cluster_ != nullptr) {
      cluster_->RunAggregationAll(now);
    } else {
      server_->aggregation().RunOnce(now, /*full_sweep=*/true);
    }
  }

  Result<core::SoftwareScore> GetScore(const core::SoftwareId& id) {
    if (cluster_ != nullptr) return cluster_->GetScore(id);
    return server_->registry().GetScore(id);
  }

  Result<core::VendorScore> VendorScore(const std::string& vendor) {
    if (cluster_ != nullptr) return cluster_->MergedVendorScore(vendor);
    return server_->registry().GetVendorScore(vendor);
  }

 private:
  net::EventLoop loop_;
  net::SimNetwork network_;
  net::FaultInjector faults_;
  std::unique_ptr<ShardCluster> cluster_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::ReputationServer> server_;
  std::unique_ptr<net::RpcClient> client_;
};

/// Drives one vote to a durable ack. Timeouts and unavailability retry (the
/// earlier attempt may or may not have landed — kAlreadyExists on the retry
/// means it did, which is an ack, not an error); kUnauthenticated re-logs
/// in (failover and reshard both bounce in-memory sessions; deterministic
/// tokens re-mint the same session string).
bool SubmitDurably(Harness& h, std::vector<std::string>& sessions,
                   const VoteOp& op) {
  for (int attempt = 0; attempt < 40; ++attempt) {
    std::string& session = sessions[static_cast<std::size_t>(op.user)];
    if (session.empty()) {
      session = h.Login(UserName(op.user));
      if (session.empty()) {
        h.Pump({}, 2);
        continue;
      }
    }
    Status submitted =
        h.SubmitRating(session, ProgramMeta(op.program), op.score);
    if (submitted.ok()) return true;
    if (submitted.code() == StatusCode::kAlreadyExists) return true;
    if (submitted.code() == StatusCode::kUnauthenticated) {
      session.clear();
      continue;
    }
    // Unavailable / timeout: let the failure detector, retry timers, or a
    // healing partition window make progress, then try again.
    h.Pump({}, 2);
  }
  return false;
}

/// Every shard's every replica caught up and bit-identical to its primary.
/// Fenced replicas are quarantined tamper evidence, not laggards — they are
/// excluded from convergence (they will never catch up again by design).
bool ReplicasConverged(ShardCluster* cluster) {
  for (int i = 0; i < cluster->num_shards(); ++i) {
    ShardNode* shard = cluster->shard(i);
    std::string primary_digest = FormatRangeDigests(RangeDigestsOf(shard->db()));
    for (int k = 0; k < shard->replica_count(); ++k) {
      if (shard->shipper()->channel_fenced(k)) continue;
      if (!shard->shipper()->channel_caught_up(k)) return false;
      if (FormatRangeDigests(RangeDigestsOf(shard->replica(k)->db())) !=
          primary_digest) {
        return false;
      }
    }
  }
  return true;
}

/// The trust-plane face of convergence: on every shard the primary's audit
/// chain recomputes cleanly, and every live unfenced replica holds a chain
/// that also recomputes cleanly to the bit-identical head hash. (Digest
/// equality already implies byte equality of the audit tables; this check
/// is the stronger statement that what converged is a *valid* chain.)
::testing::AssertionResult AuditHeadsConverged(ShardCluster* cluster) {
  for (int i = 0; i < cluster->num_shards(); ++i) {
    ShardNode* shard = cluster->shard(i);
    trust::AuditChainStatus primary = trust::AuditChainStatusOf(shard->db());
    if (!primary.present) {
      return ::testing::AssertionFailure()
             << "shard " << i << " primary has no audit chain";
    }
    if (!primary.ok) {
      return ::testing::AssertionFailure()
             << "shard " << i << " primary chain broken at index "
             << primary.first_bad_index;
    }
    for (int k = 0; k < shard->replica_count(); ++k) {
      if (shard->replica(k) == nullptr) continue;  // crashed
      if (shard->shipper()->channel_fenced(k)) continue;
      trust::AuditChainStatus replica =
          trust::AuditChainStatusOf(shard->replica(k)->db());
      if (!replica.ok) {
        return ::testing::AssertionFailure()
               << "shard " << i << " replica " << k
               << " chain broken at index " << replica.first_bad_index;
      }
      if (replica.length != primary.length ||
          replica.head_hash != primary.head_hash) {
        return ::testing::AssertionFailure()
               << "shard " << i << " replica " << k << " audit head "
               << replica.head_hash << " (len " << replica.length
               << ") != primary " << primary.head_hash << " (len "
               << primary.length << ")";
      }
    }
  }
  return ::testing::AssertionSuccess();
}

/// Replays the ledger on a calm single-server twin and checks the chaos-run
/// cluster ended in an equivalent state: same per-program vote counts (the
/// integer test for zero lost / zero duplicated acked votes), same scores
/// and vendor merges to float-sum tolerance.
void ExpectMatchesCalmTwin(Harness& chaotic, int votes_applied) {
  Harness oracle(0);
  std::vector<std::string> sessions;
  for (int u = 0; u < kUsers; ++u) {
    sessions.push_back(oracle.Onboard(UserName(u)));
  }
  for (int i = 0; i < votes_applied; ++i) {
    VoteOp op = VoteAt(i);
    Status submitted = oracle.SubmitRating(
        sessions[static_cast<std::size_t>(op.user)], ProgramMeta(op.program),
        op.score);
    ASSERT_TRUE(submitted.ok()) << "oracle vote " << i << ": "
                                << submitted.ToString();
  }
  oracle.RunAggregation(60 * util::kDay);
  chaotic.RunAggregation(60 * util::kDay);

  EXPECT_EQ(chaotic.cluster()->TotalVotesAccepted(),
            static_cast<std::uint64_t>(votes_applied))
      << "acked votes lost or duplicated under chaos";

  for (int p = 0; p < kPrograms; ++p) {
    if (p * kUsers >= votes_applied) break;
    auto want = oracle.GetScore(ProgramMeta(p).id);
    auto got = chaotic.GetScore(ProgramMeta(p).id);
    ASSERT_TRUE(want.ok()) << "oracle program " << p;
    ASSERT_TRUE(got.ok()) << "cluster lost program " << p;
    EXPECT_EQ(got->vote_count, want->vote_count) << "program " << p;
    EXPECT_NEAR(got->score, want->score, 1e-9) << "program " << p;
  }
  for (int v = 0; v < 3; ++v) {
    auto want = oracle.VendorScore(StrFormat("vendor-%d", v));
    auto got = chaotic.VendorScore(StrFormat("vendor-%d", v));
    if (!want.ok()) continue;
    ASSERT_TRUE(got.ok()) << "vendor " << v;
    EXPECT_EQ(got->software_count, want->software_count) << "vendor " << v;
    EXPECT_NEAR(got->score, want->score, 1e-9) << "vendor " << v;
  }
}

// ---------------------------------------------------------------------------
// The soak
// ---------------------------------------------------------------------------

TEST(ChaosSoak, QuorumClusterSurvivesCrashesPartitionsAndReshards) {
  Harness h(4);
  std::vector<std::string> sessions;
  for (int u = 0; u < kUsers; ++u) {
    sessions.push_back(h.Onboard(UserName(u)));
  }

  Schedule schedule(0xC0FFEE5EEDULL);
  std::uint64_t kills = 0;
  int applied = 0;

  auto vote = [&](int i) {
    ASSERT_TRUE(SubmitDurably(h, sessions, VoteAt(i)))
        << "vote " << i << " never durably acked";
    ++applied;
  };

  // --- Phase A: a primary crashes mid-stream; gossip survivors fence and
  // promote it while the durable writer keeps going. -----------------------
  for (int i = 0; i < 6; ++i) vote(i);
  h.cluster()->KillPrimary(1);
  ++kills;
  for (int i = 6; i < 18; ++i) vote(i);
  h.Pump([&] { return h.cluster()->failovers() >= kills; });
  EXPECT_GE(h.cluster()->failovers(), kills)
      << "gossip never promoted the crashed primary's replica";

  // --- Phase B: asymmetric partitions. First the response path from a
  // shard to the router dies (acks lost, writes applied — the retry must
  // land on kAlreadyExists, not double-apply); then the request path to
  // another shard dies. Both heal on a timer. ------------------------------
  util::TimePoint now = h.loop().Now();
  h.faults().PartitionOneWayWindow(now + util::kSecond, now + 7 * util::kSecond,
                                   h.cluster()->ShardName(0), "server!up");
  h.faults().PartitionOneWayWindow(now + 2 * util::kSecond,
                                   now + 8 * util::kSecond, "server!up",
                                   h.cluster()->ShardName(2));
  for (int i = 18; i < 36; ++i) vote(i);

  // --- Phase C: the fleet grows 4 -> 6 and shrinks back to 4 under the
  // same sustained write load; only the expected ranges move. --------------
  for (int step = 0; step < 2; ++step) {
    auto added = h.cluster()->AddShard();
    ASSERT_TRUE(added.ok()) << added.status().ToString();
    h.router()->AddShard(*added);
    for (auto& session : sessions) session.clear();  // primaries bounced
    for (int i = 36 + step * 5; i < 41 + step * 5; ++i) vote(i);
  }
  EXPECT_EQ(h.cluster()->num_shards(), 6);
  for (int step = 0; step < 2; ++step) {
    std::string victim = h.cluster()->ShardName(1 + step);
    ASSERT_TRUE(h.cluster()->RemoveShard(victim).ok());
    h.router()->RemoveShard(victim);
    for (auto& session : sessions) session.clear();
    for (int i = 46 + step * 5; i < 51 + step * 5; ++i) vote(i);
  }
  EXPECT_EQ(h.cluster()->num_shards(), 4);
  EXPECT_EQ(h.cluster()->reshards(), 4u);
  EXPECT_GT(h.cluster()->migrated_rows(), 0u);

  // --- Phase D: seeded random chaos — crashes, one-way cuts, lossy
  // windows — interleaved with the rest of the ledger. ---------------------
  for (int i = 56; i < kVotes; ++i) {
    switch (schedule.Below(4)) {
      case 0: {
        int target = schedule.Below(h.cluster()->num_shards());
        // Never shoot a shard that is already between crash and promotion:
        // the second kill would be a no-op the failover counter never
        // repays.
        if (kills < 3 && h.cluster()->shard(target)->primary_alive()) {
          h.cluster()->KillPrimary(target);
          ++kills;
        }
        break;
      }
      case 1: {
        util::TimePoint start = h.loop().Now() + util::kSecond;
        std::string from = h.cluster()->ShardName(
            schedule.Below(h.cluster()->num_shards()));
        h.faults().PartitionOneWayWindow(start, start + 5 * util::kSecond,
                                         from, "server!up");
        break;
      }
      case 2:
        h.faults().DegradeWindow(h.loop().Now(),
                                 h.loop().Now() + 3 * util::kSecond,
                                 /*loss=*/0.2, /*duplication=*/0.1,
                                 /*corruption=*/0.0);
        break;
      default:
        break;
    }
    vote(i);
  }
  ASSERT_EQ(applied, kVotes);

  // --- Calm down: heal everything, let gossip finish any pending
  // promotion, and let anti-entropy drive every replica back to its
  // primary's bit pattern. -------------------------------------------------
  h.faults().Heal();
  h.Pump([&] { return h.cluster()->failovers() >= kills; });
  EXPECT_GE(h.cluster()->failovers(), kills);
  h.Pump([&] { return ReplicasConverged(h.cluster()); }, 240);
  EXPECT_TRUE(ReplicasConverged(h.cluster()))
      << "replicas never converged after the chaos ended";
  EXPECT_TRUE(AuditHeadsConverged(h.cluster()))
      << "audit chains did not converge bit-equal after the chaos ended";

  ExpectMatchesCalmTwin(h, kVotes);
}

TEST(ChaosSoak, AlternateSeedSchedule) {
  // A second seed exercises a different interleaving of the same fault
  // types over a shorter ledger — cheap insurance that the first seed's
  // pass is not an accident of its particular schedule.
  Harness h(3);
  std::vector<std::string> sessions;
  for (int u = 0; u < kUsers; ++u) {
    sessions.push_back(h.Onboard(UserName(u)));
  }

  Schedule schedule(0xBADD1ECAFEULL);
  std::uint64_t kills = 0;
  const int votes = kUsers * 4;  // programs 0..3
  for (int i = 0; i < votes; ++i) {
    switch (schedule.Below(5)) {
      case 0: {
        int target = schedule.Below(h.cluster()->num_shards());
        if (kills < 2 && h.cluster()->shard(target)->primary_alive()) {
          h.cluster()->KillPrimary(target);
          ++kills;
        }
        break;
      }
      case 1: {
        util::TimePoint start = h.loop().Now() + util::kSecond;
        h.faults().PartitionOneWayWindow(
            start, start + 4 * util::kSecond, "server!up",
            h.cluster()->ShardName(schedule.Below(h.cluster()->num_shards())));
        break;
      }
      default:
        break;
    }
    ASSERT_TRUE(SubmitDurably(h, sessions, VoteAt(i)))
        << "vote " << i << " never durably acked";
  }

  h.faults().Heal();
  h.Pump([&] { return h.cluster()->failovers() >= kills; });
  h.Pump([&] { return ReplicasConverged(h.cluster()); }, 240);
  EXPECT_TRUE(ReplicasConverged(h.cluster()));
  EXPECT_TRUE(AuditHeadsConverged(h.cluster()));
  ExpectMatchesCalmTwin(h, votes);
}

TEST(ChaosSoak, TamperedReplicaIsFencedNeverRepaired) {
  // A replica whose audit chain breaks is tamper evidence. The anti-entropy
  // sweep must quarantine it (fence: ships nothing, counts toward no
  // quorum) rather than "heal" it with a snapshot resync that would
  // destroy the evidence — while the rest of the shard keeps serving and
  // converging as usual.
  Harness h(2);
  std::vector<std::string> sessions;
  for (int u = 0; u < kUsers; ++u) {
    sessions.push_back(h.Onboard(UserName(u)));
  }
  const int calm_votes = kUsers * 3;  // programs 0..2
  for (int i = 0; i < calm_votes; ++i) {
    ASSERT_TRUE(SubmitDurably(h, sessions, VoteAt(i)))
        << "vote " << i << " never durably acked";
  }
  h.Pump([&] { return ReplicasConverged(h.cluster()); }, 240);
  ASSERT_TRUE(ReplicasConverged(h.cluster()));
  ASSERT_TRUE(AuditHeadsConverged(h.cluster()));

  // Pick a shard that owns part of the ledger (its chain is non-empty).
  int target = -1;
  for (int i = 0; i < h.cluster()->num_shards(); ++i) {
    if (trust::AuditChainStatusOf(h.cluster()->shard(i)->db()).length > 0) {
      target = i;
      break;
    }
  }
  ASSERT_GE(target, 0) << "no shard recorded any audited mutation";
  ShardNode* shard = h.cluster()->shard(target);
  const int victim = 1;
  storage::Database* replica_db = shard->replica(victim)->db();

  // Rewrite one historical audit payload in the replica's copy — the
  // on-disk tamper the hash chain exists to catch. The replica's WAL
  // position is untouched, so to the shipper it still looks caught up.
  constexpr std::uint64_t kTamperedIndex = 1;
  auto table = replica_db->GetTiered(trust::kAuditTable);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  auto original = (*table)->Get(
      storage::Value::Int(static_cast<std::int64_t>(kTamperedIndex)));
  ASSERT_TRUE(original.ok()) << original.status().ToString();
  storage::Row mutated = *original;
  std::string payload = mutated[2].AsStr();
  ASSERT_FALSE(payload.empty());
  payload[0] ^= 0x01;
  mutated[2] = storage::Value::Str(payload);
  ASSERT_TRUE((*table)->Upsert(std::move(mutated)).ok());

  const std::uint64_t repairs_before = shard->anti_entropy()->repairs();
  h.Pump([&] { return shard->shipper()->channel_fenced(victim); }, 120);
  EXPECT_TRUE(shard->shipper()->channel_fenced(victim))
      << "anti-entropy never fenced the tampered replica";
  EXPECT_TRUE(shard->replica_fenced(victim));
  EXPECT_GE(shard->anti_entropy()->fences(), 1u);
  EXPECT_GE(shard->shipper()->fences(), 1u);
  // Fenced, not repaired: no snapshot resync touched the evidence, and the
  // broken chain still names the exact corrupted index.
  EXPECT_EQ(shard->anti_entropy()->repairs(), repairs_before)
      << "tampered replica was snapshot-repaired instead of fenced";
  trust::AuditChainStatus evidence = trust::AuditChainStatusOf(replica_db);
  EXPECT_TRUE(evidence.present);
  EXPECT_FALSE(evidence.ok) << "tamper evidence was wiped";
  EXPECT_EQ(evidence.first_bad_index, kTamperedIndex);

  // The shard keeps taking quorum writes on its surviving members, and
  // everything except the quarantined replica still converges bit-equal.
  for (int i = calm_votes; i < kUsers * 4; ++i) {
    ASSERT_TRUE(SubmitDurably(h, sessions, VoteAt(i)))
        << "vote " << i << " never durably acked after the fence";
  }
  h.Pump([&] { return ReplicasConverged(h.cluster()); }, 240);
  EXPECT_TRUE(ReplicasConverged(h.cluster()));
  EXPECT_TRUE(AuditHeadsConverged(h.cluster()));
  EXPECT_TRUE(shard->shipper()->channel_fenced(victim))
      << "fencing must be terminal";
  trust::AuditChainStatus after = trust::AuditChainStatusOf(replica_db);
  EXPECT_FALSE(after.ok);
  EXPECT_EQ(after.first_bad_index, kTamperedIndex)
      << "evidence changed after the fence";
}

TEST(ChaosSoak, AuditWalSurvivesForOfflineVerifier) {
  // The calm twin run over an on-disk WAL: after the harness shuts down,
  // the file alone must let an offline reader (tools/audit) recompute the
  // chain to the same head the live server reported. CI sets
  // PISREP_SOAK_AUDIT_DIR to keep the WAL and runs pisrep-audit against it
  // as a separate step.
  std::string dir = ::testing::TempDir();
  if (const char* env = std::getenv("PISREP_SOAK_AUDIT_DIR")) {
    if (*env != '\0') dir = env;
  }
  if (!dir.empty() && dir.back() != '/') dir += '/';
  const std::string wal = dir + "chaos_soak_audit.wal";
  std::remove(wal.c_str());

  const int votes = kUsers * 3;
  std::string live_head;
  std::uint64_t live_len = 0;
  {
    Harness h(0, wal);
    std::vector<std::string> sessions;
    for (int u = 0; u < kUsers; ++u) {
      sessions.push_back(h.Onboard(UserName(u)));
    }
    for (int i = 0; i < votes; ++i) {
      VoteOp op = VoteAt(i);
      ASSERT_TRUE(h.SubmitRating(sessions[static_cast<std::size_t>(op.user)],
                                 ProgramMeta(op.program), op.score)
                      .ok());
    }
    ASSERT_NE(h.server()->audit(), nullptr);
    live_head = h.server()->audit()->head_hash();
    live_len = h.server()->audit()->head_index();
    EXPECT_GE(live_len, static_cast<std::uint64_t>(votes));
  }

  // Reopen cold, exactly as pisrep-audit does.
  auto db = storage::Database::Open(wal);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  trust::ChainVerifyResult chain = trust::VerifyAuditChain(db->get());
  EXPECT_TRUE(chain.ok) << chain.error;
  EXPECT_EQ(chain.entries, live_len);
  EXPECT_EQ(chain.head_hash, live_head)
      << "offline recompute disagrees with the live head";
}

}  // namespace
}  // namespace pisrep::cluster
