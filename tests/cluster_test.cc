#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "client/client_app.h"
#include "cluster/anti_entropy.h"
#include "cluster/cluster.h"
#include "cluster/hash_ring.h"
#include "cluster/replication.h"
#include "cluster/router.h"
#include "net/event_loop.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "proto/binary_codec.h"
#include "proto/wire.h"
#include "server/reputation_server.h"
#include "sim/scenario.h"
#include "storage/database.h"
#include "util/logging.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "web/portal.h"
#include "xml/xml_writer.h"

namespace pisrep::cluster {
namespace {

using util::Result;
using util::Status;
using util::StrFormat;
using xml::XmlNode;

// ---------------------------------------------------------------------------
// Consistent-hash ring properties
// ---------------------------------------------------------------------------

std::vector<util::Sha1Digest> SyntheticDigests(int n) {
  std::vector<util::Sha1Digest> digests;
  digests.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    digests.push_back(util::Sha1::Hash(StrFormat("synthetic-digest-%d", i)));
  }
  return digests;
}

std::map<std::string, int> OwnerHistogram(
    const HashRing& ring, const std::vector<util::Sha1Digest>& digests) {
  std::map<std::string, int> histogram;
  for (const auto& digest : digests) ++histogram[ring.OwnerOf(digest)];
  return histogram;
}

TEST(HashRing, OwnershipIsAPureFunctionOfTheMemberSet) {
  HashRing forward;
  forward.AddShard("shard0");
  forward.AddShard("shard1");
  forward.AddShard("shard2");
  HashRing backward;
  backward.AddShard("shard2");
  backward.AddShard("shard0");
  backward.AddShard("shard1");
  for (const auto& digest : SyntheticDigests(1000)) {
    EXPECT_EQ(forward.OwnerOf(digest), backward.OwnerOf(digest));
  }
}

TEST(HashRing, AddingAShardMovesKeysOnlyToTheNewShard) {
  auto digests = SyntheticDigests(1000);
  HashRing ring;
  ring.AddShard("shard0");
  ring.AddShard("shard1");
  ring.AddShard("shard2");
  std::vector<std::string> before;
  before.reserve(digests.size());
  for (const auto& digest : digests) before.push_back(ring.OwnerOf(digest));

  ring.AddShard("shard3");
  int moved = 0;
  for (std::size_t i = 0; i < digests.size(); ++i) {
    const std::string& owner = ring.OwnerOf(digests[i]);
    if (owner == before[i]) continue;
    // A key may move only *to* the newcomer, never between survivors.
    EXPECT_EQ(owner, "shard3") << "key " << i << " moved " << before[i]
                               << " -> " << owner;
    ++moved;
  }
  // The newcomer picked up roughly its 1/4 share (loose bound: vnode
  // placement is hash-driven, not exact).
  EXPECT_GT(moved, 100);
  EXPECT_LT(moved, 500);
}

TEST(HashRing, RemovingAShardMovesOnlyItsOwnKeys) {
  auto digests = SyntheticDigests(1000);
  HashRing ring;
  for (int i = 0; i < 4; ++i) ring.AddShard(StrFormat("shard%d", i));
  std::vector<std::string> before;
  before.reserve(digests.size());
  for (const auto& digest : digests) before.push_back(ring.OwnerOf(digest));

  ring.RemoveShard("shard2");
  for (std::size_t i = 0; i < digests.size(); ++i) {
    const std::string& owner = ring.OwnerOf(digests[i]);
    if (before[i] == "shard2") {
      EXPECT_NE(owner, "shard2");  // orphaned keys land on survivors
    } else {
      EXPECT_EQ(owner, before[i]) << "survivor key " << i << " moved";
    }
  }
}

TEST(HashRing, VnodesSpreadLoadAcrossEveryShard) {
  auto digests = SyntheticDigests(1000);
  HashRing ring(64);
  for (int i = 0; i < 4; ++i) ring.AddShard(StrFormat("shard%d", i));
  auto histogram = OwnerHistogram(ring, digests);
  ASSERT_EQ(histogram.size(), 4u);
  for (const auto& [shard, count] : histogram) {
    // With 64 vnodes each, no shard ends up starved or hoarding.
    EXPECT_GT(count, 100) << shard;
    EXPECT_LT(count, 450) << shard;
  }
}

TEST(HashRing, MembersEnumerateSorted) {
  HashRing ring;
  ring.AddShard("b");
  ring.AddShard("a");
  ring.AddShard("c");
  EXPECT_EQ(ring.Members(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(HashRing, PreferenceListStartsAtTheOwnerAndNamesDistinctShards) {
  HashRing ring;
  for (int i = 0; i < 4; ++i) ring.AddShard(StrFormat("shard%d", i));
  for (const auto& digest : SyntheticDigests(200)) {
    auto prefs = ring.PreferenceListOf(digest, 3);
    ASSERT_EQ(prefs.size(), 3u);
    EXPECT_EQ(prefs[0], ring.OwnerOf(digest));
    std::set<std::string> distinct(prefs.begin(), prefs.end());
    EXPECT_EQ(distinct.size(), prefs.size());
  }
  // Asking for more copies than members yields every member exactly once.
  auto everyone = ring.PreferenceListOf(SyntheticDigests(1)[0], 10);
  std::set<std::string> distinct(everyone.begin(), everyone.end());
  EXPECT_EQ(distinct.size(), 4u);
  EXPECT_EQ(everyone.size(), 4u);
}

TEST(HashRing, SuccessorsExcludeTheShardItselfAndStayDistinct) {
  HashRing ring;
  for (int i = 0; i < 4; ++i) ring.AddShard(StrFormat("shard%d", i));
  auto successors = ring.SuccessorsOf("shard1", 3);
  ASSERT_EQ(successors.size(), 3u);
  std::set<std::string> distinct(successors.begin(), successors.end());
  EXPECT_EQ(distinct.size(), 3u);
  EXPECT_EQ(distinct.count("shard1"), 0u);
  // Non-members have no successors, and neither does a sole member.
  EXPECT_TRUE(ring.SuccessorsOf("not-a-member", 3).empty());
  HashRing solo;
  solo.AddShard("only");
  EXPECT_TRUE(solo.SuccessorsOf("only", 2).empty());
}

// ---------------------------------------------------------------------------
// Replication log
// ---------------------------------------------------------------------------

TEST(ReplicationLog, AppendCollectPruneRoundTrip) {
  ReplicationLog log(100);
  EXPECT_EQ(log.Append("a"), 1u);
  EXPECT_EQ(log.Append("b"), 2u);
  EXPECT_EQ(log.Append("c"), 3u);
  std::vector<std::pair<std::uint64_t, std::string>> out;
  ASSERT_TRUE(log.CollectAfter(1, 10, &out));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (std::pair<std::uint64_t, std::string>{2, "b"}));
  EXPECT_EQ(out[1], (std::pair<std::uint64_t, std::string>{3, "c"}));
  log.PruneThrough(2);
  EXPECT_EQ(log.base_seq(), 2u);
  out.clear();
  // Asking for a span that fell off the retention window must fail loudly
  // (the shipper then resyncs with a snapshot).
  EXPECT_FALSE(log.CollectAfter(0, 10, &out));
}

TEST(ReplicationLog, BoundedRetentionDropsOldestButKeepsSequence) {
  ReplicationLog log(2);
  log.Append("a");
  log.Append("b");
  log.Append("c");
  EXPECT_EQ(log.head_seq(), 3u);
  EXPECT_EQ(log.base_seq(), 1u);
  EXPECT_EQ(log.size(), 2u);
  log.Clear();
  EXPECT_EQ(log.head_seq(), 3u);
  EXPECT_EQ(log.base_seq(), 3u);
  EXPECT_EQ(log.Append("d"), 4u);  // the counter never rewinds
}

TEST(ReplicaNode, GapMarksTheReplicaStale) {
  net::EventLoop loop;
  net::SimNetwork network(&loop, net::NetworkConfig{});
  ReplicaNode replica(&network, "rep");
  ASSERT_TRUE(replica.Start().ok());
  net::RpcClient client(&network, &loop, "probe", "rep");
  ASSERT_TRUE(client.Start().ok());

  // Ship a batch that starts at seq 5 while the replica sits at 0: that is
  // a gap it can never fill from the stream, so it must refuse the data and
  // report itself stale rather than silently apply a torn prefix.
  XmlNode params("r");
  params.SetAttribute("first_seq", "5");
  params.AddTextChild("f", "00");
  std::optional<Result<XmlNode>> response;
  client.Call("ShardReplicate", std::move(params),
              [&response](Result<XmlNode> r) { response = std::move(r); });
  loop.RunUntil(loop.Now() + 10 * util::kSecond);
  ASSERT_TRUE(response.has_value() && response->ok());
  EXPECT_EQ((*response)->AttributeOr("stale", "0"), "1");
  EXPECT_EQ((*response)->AttributeOr("acked", ""), "0");
  EXPECT_TRUE(replica.stale());
}

// Compact() rewrites the primary's WAL in place between two ShardReplicate
// batches. The rewrite appends schema/snapshot frames to the journal
// directly — none of them may leak into the replication stream (a backup
// that applied them would double-apply every untiered row and desync), and
// the backup must keep catching up from the log afterwards without needing
// a snapshot resync. The primary journals to a real on-disk WAL with a
// tiered votes table (in-memory databases make Compact a no-op), and the
// backup uses the tiered DatabaseFactory, so the stream also covers the
// cold-store frame path at flat backup memory (DESIGN.md §15).
TEST(ReplicaNode, CompactionBetweenBatchesDoesNotDesyncTheBackup) {
  namespace fs = std::filesystem;
  const std::string dir = fs::temp_directory_path().string();
  const std::string primary_wal = dir + "/pisrep_compact_sync_prim.wal";
  const std::string primary_cold = dir + "/pisrep_compact_sync_prim.cold";
  const std::string backup_wal = dir + "/pisrep_compact_sync_back.wal";
  const std::string backup_cold = dir + "/pisrep_compact_sync_back.cold";
  auto remove_all = [&] {
    for (const auto& path :
         {primary_wal, primary_cold, backup_wal, backup_cold}) {
      std::error_code ec;
      fs::remove(path, ec);
    }
  };
  remove_all();

  auto tier_options = [](const std::string& cold_path) {
    storage::Database::OpenOptions options;
    options.tier.path = cold_path;
    storage::TierPolicy policy;
    policy.hot_capacity_rows = 4;
    options.tier.tables["votes"] = policy;
    return options;
  };

  auto opened = storage::Database::Open(primary_wal,
                                        tier_options(primary_cold));
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<storage::Database> db = std::move(opened).value();
  ASSERT_TRUE(db->CreateTable(storage::SchemaBuilder("votes")
                                  .Str("key")
                                  .Int("user")
                                  .Int("score")
                                  .PrimaryKey("key")
                                  .Index("user")
                                  .Build())
                  .ok());
  ASSERT_TRUE(db->CreateTable(storage::SchemaBuilder("meta")
                                  .Str("k")
                                  .Str("v")
                                  .PrimaryKey("k")
                                  .Build())
                  .ok());

  net::EventLoop loop;
  net::SimNetwork network(&loop, net::NetworkConfig{});
  ReplicaNode replica(&network, "tier-backup", [&] {
    // A tiered factory must yield an *empty* database: clear both files
    // first, or a snapshot reset would replay stale rows under the
    // incoming frames.
    std::error_code ec;
    fs::remove(backup_wal, ec);
    fs::remove(backup_cold, ec);
    return storage::Database::Open(backup_wal, tier_options(backup_cold));
  });
  ASSERT_TRUE(replica.Start().ok());
  ReplicationShipper shipper(&network, &loop, "tier-prim", {"tier-backup"},
                             db.get(), ReplicationConfig{}, nullptr,
                             "tier-prim");
  ASSERT_TRUE(shipper.Start().ok());

  auto votes = db->GetTiered("votes");
  ASSERT_TRUE(votes.ok());
  auto meta = db->GetTable("meta");
  ASSERT_TRUE(meta.ok());
  auto vote_row = [](int i, int score) {
    return storage::Row{storage::Value::Str(StrFormat("vote-%03d", i)),
                        storage::Value::Int(i % 3),
                        storage::Value::Int(score)};
  };
  auto pump_until_caught_up = [&] {
    shipper.Pump();
    for (int i = 0; i < 60 && !shipper.channel_caught_up(0); ++i) {
      loop.RunUntil(loop.Now() + util::kSecond);
    }
    ASSERT_TRUE(shipper.channel_caught_up(0));
  };

  // Batch 1: enough votes that the tier demotes most of them cold, plus an
  // untiered row so the compacted WAL re-journals actual row frames.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE((*votes)->Insert(vote_row(i, 5 + i % 4)).ok());
  }
  ASSERT_TRUE((*meta)
                  ->Insert({storage::Value::Str("epoch"),
                            storage::Value::Str("one")})
                  .ok());
  ASSERT_TRUE(db->TierTick(util::kHour).ok());
  ASSERT_NO_FATAL_FAILURE(pump_until_caught_up());
  const std::uint64_t resets_after_seed = replica.resets();
  EXPECT_EQ(FormatRangeDigests(RangeDigestsOf(db.get())),
            FormatRangeDigests(RangeDigestsOf(replica.db())));

  // Compact between the batches: the journal shrinks to schemas + live
  // untiered rows, and the replication stream must not move at all.
  const std::uint64_t head_before = shipper.head_seq();
  const std::size_t compactions_before = db->compactions();
  ASSERT_TRUE(db->Compact().ok());
  EXPECT_EQ(db->compactions(), compactions_before + 1);
  EXPECT_EQ(shipper.head_seq(), head_before);

  // Batch 2: overwrite a batch-1 slice and extend past it.
  for (int i = 8; i < 20; ++i) {
    ASSERT_TRUE((*votes)->Upsert(vote_row(i, 9)).ok());
  }
  ASSERT_TRUE((*meta)
                  ->Upsert({storage::Value::Str("epoch"),
                            storage::Value::Str("two")})
                  .ok());
  ASSERT_TRUE(db->TierTick(2 * util::kHour).ok());
  ASSERT_NO_FATAL_FAILURE(pump_until_caught_up());

  EXPECT_GT(shipper.head_seq(), head_before);
  EXPECT_FALSE(replica.stale());
  // Caught up from the log alone — compaction must not force a snapshot.
  EXPECT_EQ(replica.resets(), resets_after_seed);
  EXPECT_EQ(FormatRangeDigests(RangeDigestsOf(db.get())),
            FormatRangeDigests(RangeDigestsOf(replica.db())));
  // Replicated tiered rows land cold on the backup: flat standby memory.
  auto backup_votes = replica.db()->GetTiered("votes");
  ASSERT_TRUE(backup_votes.ok());
  EXPECT_EQ((*backup_votes)->HotRows(), 0u);
  remove_all();
}

// ---------------------------------------------------------------------------
// Harness: a cluster (or a plain single server) driven over RPC
// ---------------------------------------------------------------------------

/// Drives the same scripted RPC workload against either a ShardCluster
/// fronted by a Router, or (num_shards == 0) a plain single ReputationServer
/// bound at the same "server" address — the single-server run is the oracle
/// the cluster must reproduce.
class Harness {
 public:
  /// `gossip_period` > 0 turns on decentralized failure detection with a
  /// suspicion timeout of three periods; 0 leaves both background agents
  /// off so the event loop can drain. `tweak` gets the final word on both
  /// configs (replication factor, quorum, anti-entropy).
  explicit Harness(
      int num_shards, util::Duration gossip_period = 0,
      obs::MetricsRegistry* metrics = nullptr,
      std::function<void(ClusterConfig&, RouterConfig&)> tweak = {})
      : network_(&loop_, net::NetworkConfig{}) {
    if (num_shards > 0) {
      ClusterConfig config;
      config.num_shards = num_shards;
      config.server.flood.registration_puzzle_bits = 0;
      config.server.flood.max_registrations_per_source_per_day = 0;
      config.server.metrics = metrics;
      config.gossip.enabled = gossip_period > 0;
      config.gossip.period = gossip_period > 0 ? gossip_period : util::kSecond;
      config.gossip.suspicion_timeout = 3 * config.gossip.period;
      config.anti_entropy.enabled = false;
      RouterConfig rc;
      rc.service_address = "server";
      if (tweak) tweak(config, rc);
      cluster_ = std::make_unique<ShardCluster>(&network_, &loop_,
                                                std::move(config));
      PISREP_CHECK(cluster_->Start().ok());
      router_ = std::make_unique<Router>(&network_, &loop_, rc, metrics,
                                         nullptr);
      PISREP_CHECK(router_->Start().ok());
      for (int i = 0; i < num_shards; ++i) {
        router_->AddShard(cluster_->ShardName(i));
      }
    } else {
      auto db = storage::Database::Open("");
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
  net::SimNetwork& network() { return network_; }
  ShardCluster* cluster() { return cluster_.get(); }
  Router* router() { return router_.get(); }

  /// Pumps the loop in one-second slices until `done` (when given) holds.
  void Pump(const std::function<bool()>& done = {}, int max_seconds = 120) {
    for (int i = 0; i < max_seconds; ++i) {
      if (done && done()) return;
      loop_.RunUntil(loop_.Now() + util::kSecond);
    }
  }

  /// Blocking RPC through the front door ("server": router or the single
  /// server — the workload cannot tell which).
  Result<XmlNode> Call(const std::string& method, XmlNode params,
                       util::Duration timeout = 5 * util::kSecond) {
    std::optional<Result<XmlNode>> response;
    client_->Call(
        method, std::move(params),
        [&response](Result<XmlNode> r) { response = std::move(r); },
        timeout);
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

    XmlNode login("request");
    login.AddTextChild("username", user);
    login.AddTextChild("password", "pw-" + user);
    auto session = Call("Login", std::move(login));
    PISREP_CHECK(session.ok()) << session.status().ToString();
    return session->ChildText("session").value_or("");
  }

  Status SubmitRating(const std::string& session,
                      const core::SoftwareMeta& meta, int score,
                      const std::string& comment) {
    XmlNode request("request");
    request.AddTextChild("session", session);
    XmlNode& software = request.AddChild("software");
    software.SetAttribute("id", meta.id.ToHex());
    software.SetAttribute("file_name", meta.file_name);
    software.SetAttribute("file_size", std::to_string(meta.file_size));
    software.SetAttribute("company", meta.company);
    software.SetAttribute("version", meta.version);
    request.AddIntChild("score", score);
    request.AddTextChild("comment", comment);
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
  std::unique_ptr<ShardCluster> cluster_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::ReputationServer> server_;
  std::unique_ptr<net::RpcClient> client_;
};

constexpr int kUsers = 5;
constexpr int kPrograms = 10;

core::SoftwareMeta ProgramMeta(int i) {
  core::SoftwareMeta meta;
  meta.id = util::Sha1::Hash(StrFormat("cluster-test-program-%d", i));
  meta.file_name = StrFormat("app_%02d.exe", i);
  meta.file_size = 10'000 + i;
  meta.company = StrFormat("vendor-%d", i % 3);
  meta.version = "1.0";
  return meta;
}

/// The first `want` ProgramMeta ordinals owned by shard `shard_index`.
std::vector<int> ProgramsOwnedBy(ShardCluster* cluster, int shard_index,
                                 int want) {
  std::vector<int> owned;
  for (int i = 0; i < 256 && static_cast<int>(owned.size()) < want; ++i) {
    if (cluster->ring().OwnerOf(ProgramMeta(i).id) ==
        cluster->ShardName(shard_index)) {
      owned.push_back(i);
    }
  }
  return owned;
}

/// The scores the scripted workload must converge to, keyed by digest hex.
struct WorkloadOutcome {
  std::map<std::string, std::pair<double, int>> scores;   // (score, votes)
  std::map<std::string, std::pair<double, int>> vendors;  // (score, count)
};

/// A fixed, fully deterministic community: every user rates every program
/// (well under the per-user daily flood limit), then one user remarks on
/// another's comments — which must shift the author's trust factor on every
/// shard, not just the comment's owner.
WorkloadOutcome RunScriptedWorkload(Harness& h) {
  std::vector<std::string> sessions;
  sessions.reserve(kUsers);
  for (int u = 0; u < kUsers; ++u) {
    sessions.push_back(h.Onboard(StrFormat("user%02d", u)));
  }

  for (int u = 0; u < kUsers; ++u) {
    for (int i = 0; i < kPrograms; ++i) {
      int score = 1 + (i * 3 + u * 5) % 10;
      Status submitted = h.SubmitRating(sessions[static_cast<size_t>(u)],
                                        ProgramMeta(i), score,
                                        StrFormat("c-%d-%d", u, i));
      EXPECT_TRUE(submitted.ok()) << submitted.ToString();
    }
  }

  // user01 judges user00's comments: find the author id from the comment
  // the cluster serves back, then remark on two programs.
  XmlNode query("request");
  query.AddTextChild("session", sessions[1]);
  query.AddTextChild("id", ProgramMeta(0).id.ToHex());
  auto info = h.Call("QuerySoftware", std::move(query));
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  std::int64_t author = -1;
  if (info.ok()) {
    for (const XmlNode* comment : info->FindChildren("comment")) {
      if (comment->text() == "c-0-0") {
        auto parsed = util::ParseInt64(comment->AttributeOr("author", ""));
        if (parsed.ok()) author = *parsed;
      }
    }
  }
  EXPECT_GE(author, 0) << "user00's comment not served back";
  // Advance past the first aggregation window: remarks from accounts
  // younger than one aggregation period are rejected (their §3.2 trust
  // weight has never been recomputed).
  h.loop().RunUntil(h.loop().Now() + 2 * util::kDay);
  for (int i = 0; i < 2 && author >= 0; ++i) {
    XmlNode remark("request");
    remark.AddTextChild("session", sessions[1]);
    remark.AddIntChild("author", author);
    remark.AddTextChild("id", ProgramMeta(i).id.ToHex());
    remark.AddIntChild("positive", i == 0 ? 1 : 0);
    auto remarked = h.Call("SubmitRemark", std::move(remark));
    EXPECT_TRUE(remarked.ok()) << remarked.status().ToString();
  }
  // Let fire-and-forget cross-shard trust effects land before aggregating.
  h.Pump({}, 10);

  h.RunAggregation(30 * util::kDay);
  WorkloadOutcome outcome;
  for (int i = 0; i < kPrograms; ++i) {
    auto score = h.GetScore(ProgramMeta(i).id);
    EXPECT_TRUE(score.ok()) << "program " << i;
    if (score.ok()) {
      outcome.scores[ProgramMeta(i).id.ToHex()] = {score->score,
                                                   score->vote_count};
    }
  }
  for (int v = 0; v < 3; ++v) {
    auto vendor = h.VendorScore(StrFormat("vendor-%d", v));
    EXPECT_TRUE(vendor.ok()) << "vendor " << v;
    if (vendor.ok()) {
      outcome.vendors[vendor->vendor] = {vendor->score,
                                         vendor->software_count};
    }
  }
  return outcome;
}

void ExpectSameOutcome(const WorkloadOutcome& expected,
                       const WorkloadOutcome& actual,
                       const std::string& label) {
  ASSERT_EQ(expected.scores.size(), actual.scores.size()) << label;
  for (const auto& [hex, score] : expected.scores) {
    auto it = actual.scores.find(hex);
    ASSERT_NE(it, actual.scores.end()) << label << ": missing " << hex;
    EXPECT_EQ(score.second, it->second.second) << label << ": votes " << hex;
    EXPECT_NEAR(score.first, it->second.first, 1e-9)
        << label << ": score " << hex;
  }
  ASSERT_EQ(expected.vendors.size(), actual.vendors.size()) << label;
  for (const auto& [name, score] : expected.vendors) {
    auto it = actual.vendors.find(name);
    ASSERT_NE(it, actual.vendors.end()) << label << ": missing " << name;
    EXPECT_EQ(score.second, it->second.second) << label << ": count " << name;
    EXPECT_NEAR(score.first, it->second.first, 1e-9)
        << label << ": score " << name;
  }
}

// ---------------------------------------------------------------------------
// N-shard == 1-shard == single server
// ---------------------------------------------------------------------------

TEST(ClusterEquivalence, ShardedScoresMatchTheSingleServerOracle) {
  Harness oracle(0);
  WorkloadOutcome expected = RunScriptedWorkload(oracle);
  ASSERT_EQ(expected.scores.size(), static_cast<std::size_t>(kPrograms));

  for (int shards : {1, 2, 3}) {
    Harness h(shards);
    WorkloadOutcome actual = RunScriptedWorkload(h);
    ExpectSameOutcome(expected, actual, StrFormat("%d shards", shards));
    // The workload really was spread: with >1 shard no single shard holds
    // every program.
    if (shards > 1) {
      std::map<std::string, int> placement;
      for (int i = 0; i < kPrograms; ++i) {
        ++placement[h.cluster()->ring().OwnerOf(ProgramMeta(i).id)];
      }
      EXPECT_GT(placement.size(), 1u);
    }
  }
}

TEST(ClusterEquivalence, RoutedVendorQueryMatchesTheNativeMerge) {
  Harness h(3);
  RunScriptedWorkload(h);
  std::string session = h.Onboard("vendor-reader");
  for (int v = 0; v < 3; ++v) {
    XmlNode request("request");
    request.AddTextChild("session", session);
    request.AddTextChild("vendor", StrFormat("vendor-%d", v));
    auto response = h.Call("QueryVendor", std::move(request));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    const XmlNode* node = (*response).FindChild("vendor");
    ASSERT_NE(node, nullptr);
    auto native = h.cluster()->MergedVendorScore(StrFormat("vendor-%d", v));
    ASSERT_TRUE(native.ok());
    // The router merges the exact partials: the %.6f strings agree.
    EXPECT_EQ(node->AttributeOr("score", ""),
              StrFormat("%.6f", native->score));
    EXPECT_EQ(node->AttributeOr("count", ""),
              std::to_string(native->software_count));
  }
}

// ---------------------------------------------------------------------------
// Failover
// ---------------------------------------------------------------------------

TEST(ClusterFailover, KillPromoteCatchUpLosesNoAckedVote) {
  Harness chaos(2);
  Harness calm(2);

  std::vector<std::string> chaos_sessions, calm_sessions;
  for (int u = 0; u < kUsers; ++u) {
    chaos_sessions.push_back(chaos.Onboard(StrFormat("user%02d", u)));
    calm_sessions.push_back(calm.Onboard(StrFormat("user%02d", u)));
  }

  auto vote_phase = [&](Harness& h, const std::vector<std::string>& sessions,
                        int from, int to) {
    for (int u = 0; u < kUsers; ++u) {
      for (int i = from; i < to; ++i) {
        int score = 1 + (i * 3 + u * 5) % 10;
        Status submitted = h.SubmitRating(sessions[static_cast<size_t>(u)],
                                          ProgramMeta(i), score,
                                          StrFormat("c-%d-%d", u, i));
        ASSERT_TRUE(submitted.ok()) << submitted.ToString();
      }
    }
  };

  vote_phase(chaos, chaos_sessions, 0, kPrograms / 2);
  vote_phase(calm, calm_sessions, 0, kPrograms / 2);

  // Mid-run crash of shard 0's primary, then failover onto its synchronously
  // replicated backup. Every vote above was acked, so every one of them must
  // survive the promotion.
  chaos.cluster()->KillPrimary(0);
  ASSERT_FALSE(chaos.cluster()->shard(0)->primary_alive());
  ASSERT_TRUE(chaos.cluster()->TriggerFailover(0).ok());
  ASSERT_TRUE(chaos.cluster()->shard(0)->primary_alive());
  EXPECT_EQ(chaos.cluster()->failovers(), 1u);
  EXPECT_EQ(chaos.cluster()->shard(0)->promotions(), 1u);

  // Sessions are in-memory primary state and die with it — exactly like a
  // server restart. Clients re-login on kUnauthenticated; deterministic
  // tokens re-mint the *same* session string, so queued work stays valid.
  for (int u = 0; u < kUsers; ++u) {
    XmlNode login("request");
    login.AddTextChild("username", StrFormat("user%02d", u));
    login.AddTextChild("password", StrFormat("pw-user%02d", u));
    auto relogin = chaos.Call("Login", std::move(login));
    ASSERT_TRUE(relogin.ok()) << relogin.status().ToString();
    EXPECT_EQ(relogin->ChildText("session").value_or(""),
              chaos_sessions[static_cast<size_t>(u)]);
  }

  // The second half of the run lands on the promoted primary.
  vote_phase(chaos, chaos_sessions, kPrograms / 2, kPrograms);
  vote_phase(calm, calm_sessions, kPrograms / 2, kPrograms);

  chaos.RunAggregation(30 * util::kDay);
  calm.RunAggregation(30 * util::kDay);

  EXPECT_EQ(chaos.cluster()->TotalVotesAccepted(),
            static_cast<std::uint64_t>(kUsers * kPrograms));
  EXPECT_EQ(chaos.cluster()->TotalVotesAccepted(),
            calm.cluster()->TotalVotesAccepted());
  for (int i = 0; i < kPrograms; ++i) {
    auto with_chaos = chaos.GetScore(ProgramMeta(i).id);
    auto without = calm.GetScore(ProgramMeta(i).id);
    ASSERT_TRUE(with_chaos.ok()) << "program " << i;
    ASSERT_TRUE(without.ok()) << "program " << i;
    EXPECT_EQ(with_chaos->vote_count, without->vote_count) << "program " << i;
    EXPECT_NEAR(with_chaos->score, without->score, 1e-9) << "program " << i;
  }
}

TEST(ClusterFailover, GossipSuspicionPromotesAMissingPrimary) {
  obs::MetricsRegistry metrics;
  Harness h(2, /*gossip_period=*/util::kSecond, &metrics);
  std::string session = h.Onboard("heartbeat-user");

  const util::TimePoint killed_at = h.loop().Now();
  h.cluster()->KillPrimary(0);
  ASSERT_FALSE(h.cluster()->shard(0)->primary_alive());
  // The survivor's gossip agent stops seeing shard 0's heartbeat advance,
  // suspects it after the suspicion timeout (three periods in this harness),
  // and — being shard 0's first live ring successor — fences and promotes on
  // its own, with no central controller in the loop.
  h.Pump([&] { return h.cluster()->failovers() >= 1; }, 60);
  EXPECT_EQ(h.cluster()->failovers(), 1u);
  ASSERT_TRUE(h.cluster()->shard(0)->primary_alive());
  // Promotion happened within the configured suspicion window (plus a few
  // gossip rounds of detection slack) in *simulated* time.
  EXPECT_LE(h.loop().Now() - killed_at,
            3 * util::kSecond + 5 * util::kSecond);
  EXPECT_GE(metrics.GetCounter("pisrep_cluster_failovers_total")->Value(),
            1u);
  const std::string survivor = h.cluster()->ShardName(1);
  EXPECT_GE(metrics
                .GetCounter(obs::WithLabel(
                    "pisrep_cluster_gossip_suspicions_total", "shard",
                    survivor))
                ->Value(),
            1u);

  // The revived shard serves: a vote owned by shard 0 goes through.
  int owned_by_0 = -1;
  for (int i = 0; i < 64 && owned_by_0 < 0; ++i) {
    core::SoftwareMeta meta = ProgramMeta(i);
    if (h.cluster()->ring().OwnerOf(meta.id) == h.cluster()->ShardName(0)) {
      owned_by_0 = i;
    }
  }
  ASSERT_GE(owned_by_0, 0);
  // The promoted primary lost the in-memory session table; one re-login
  // (broadcast, deterministic token) restores the same session everywhere.
  XmlNode login("request");
  login.AddTextChild("username", "heartbeat-user");
  login.AddTextChild("password", "pw-heartbeat-user");
  auto relogin = h.Call("Login", std::move(login));
  ASSERT_TRUE(relogin.ok()) << relogin.status().ToString();
  EXPECT_EQ(relogin->ChildText("session").value_or(""), session);
  EXPECT_TRUE(
      h.SubmitRating(session, ProgramMeta(owned_by_0), 7, "post-failover")
          .ok());
}

TEST(ClusterFailover, PromotionIsRefusedWhileThePrimaryLives) {
  Harness h(1);
  EXPECT_FALSE(h.cluster()->shard(0)->Promote().ok());
  EXPECT_EQ(h.cluster()->shard(0)->promotions_refused(), 1u);
  EXPECT_EQ(h.cluster()->failovers(), 0u);
}

TEST(ClusterFailover, GossipDeathReportIsRefusedWhileThePrimaryAnswers) {
  Harness h(2);
  // A suspicion that reaches the fencing authority while the primary is in
  // fact alive (an asymmetric partition, not a crash) must not shoot it.
  Status refused = h.cluster()->OnGossipDeath(h.cluster()->ShardName(0));
  EXPECT_FALSE(refused.ok());
  EXPECT_TRUE(h.cluster()->shard(0)->primary_alive());
  EXPECT_EQ(h.cluster()->failovers(), 0u);
  EXPECT_FALSE(h.cluster()->OnGossipDeath("no-such-shard").ok());
}

// ---------------------------------------------------------------------------
// Write quorum (W of R) and degraded replica channels
// ---------------------------------------------------------------------------

TEST(ClusterQuorum, WritesRideOutASingleReplicaCrashAtFullQuorum) {
  // R=3/W=2: the primary plus either replica satisfy the quorum, so one
  // replica crash neither delays nor downgrades a single acked write.
  Harness h(2, 0, nullptr, [](ClusterConfig& c, RouterConfig&) {
    c.replication.replication_factor = 3;
    c.replication.write_quorum = 2;
  });
  std::string session = h.Onboard("quorum-user");
  ASSERT_EQ(h.cluster()->shard(0)->replica_count(), 2);
  h.cluster()->shard(0)->KillReplica(1);

  for (int i = 0; i < kPrograms; ++i) {
    Status voted =
        h.SubmitRating(session, ProgramMeta(i), 1 + i % 10,
                       StrFormat("q-%d", i));
    EXPECT_TRUE(voted.ok()) << voted.ToString();
  }
  EXPECT_EQ(h.cluster()->TotalVotesAccepted(),
            static_cast<std::uint64_t>(kPrograms));
  // Every release met the configured quorum — no degraded acks anywhere.
  EXPECT_EQ(h.cluster()->shard(0)->shipper()->degraded_acks(), 0u);
  EXPECT_EQ(h.cluster()->shard(1)->shipper()->degraded_acks(), 0u);
}

TEST(ClusterQuorum, LosingTheWholeQuorumDegradesButNeverWedges) {
  obs::MetricsRegistry metrics;
  Harness h(2, 0, &metrics, [](ClusterConfig& c, RouterConfig&) {
    c.replication.replication_factor = 3;
    c.replication.write_quorum = 2;
  });
  std::string session = h.Onboard("degraded-user");
  ShardNode* node = h.cluster()->shard(0);
  ReplicationShipper* shipper = node->shipper();
  auto owned = ProgramsOwnedBy(h.cluster(), 0, 2);
  ASSERT_EQ(owned.size(), 2u);

  node->KillReplica(0);
  node->KillReplica(1);

  // With both replicas dead a shard-0 write cannot reach W=2 copies. The
  // ack is *held* until both channels exhaust their failure budget and
  // degrade; only then does the effective quorum shrink to the primary
  // alone and the response go out as a degraded ack. The client-visible
  // call may time out upstream — what matters is that the vote is applied,
  // never lost, and the degradation is loud.
  (void)h.SubmitRating(session, ProgramMeta(owned[0]), 7, "under-quorum");
  h.Pump([&] { return shipper->degraded_acks() >= 1; }, 60);
  EXPECT_GE(shipper->degraded_acks(), 1u);
  EXPECT_TRUE(shipper->degraded());
  EXPECT_EQ(h.cluster()->TotalVotesAccepted(), 1u);
  obs::Gauge* degraded_gauge = metrics.GetGauge(obs::WithLabel(
      "pisrep_cluster_replication_degraded", "shard", node->name()));
  EXPECT_EQ(degraded_gauge->Value(), 2);
  EXPECT_GE(metrics
                .GetCounter(obs::WithLabel(
                    "pisrep_cluster_degraded_acks_total", "shard",
                    node->name()))
                ->Value(),
            1u);

  // Revive: fresh replicas are snapshot-seeded, the channels leave
  // degradation and the gauge drops back to zero — the off half of the
  // regression.
  ASSERT_TRUE(h.cluster()->ReviveReplica(0).ok());
  h.Pump(
      [&] {
        return shipper->channel_caught_up(0) && shipper->channel_caught_up(1);
      },
      60);
  EXPECT_TRUE(shipper->channel_caught_up(0));
  EXPECT_TRUE(shipper->channel_caught_up(1));
  EXPECT_FALSE(shipper->degraded());
  EXPECT_EQ(degraded_gauge->Value(), 0);

  // Back at strength, a write acks at the configured quorum again.
  const std::uint64_t degraded_before = shipper->degraded_acks();
  Status voted = h.SubmitRating(session, ProgramMeta(owned[1]), 6, "healed");
  EXPECT_TRUE(voted.ok()) << voted.ToString();
  EXPECT_EQ(shipper->degraded_acks(), degraded_before);
}

// ---------------------------------------------------------------------------
// Ownership-moved redirects
// ---------------------------------------------------------------------------

TEST(ClusterRouting, RouterChasesOwnershipMovedRedirects) {
  Harness h(2);
  std::string session = h.Onboard("redirect-user");

  // Skew the router: same two members, but a 1-vnode-per-shard ring, so
  // some digests map to a different owner than under the shards' true
  // 64-vnode ring. Those requests bounce off the wrong shard with
  // `ownership-moved` and must be chased to the shard the guard named.
  HashRing skewed(1);
  skewed.AddShard(h.cluster()->ShardName(0));
  skewed.AddShard(h.cluster()->ShardName(1));
  int misrouted = -1;
  for (int i = 0; i < 256 && misrouted < 0; ++i) {
    const core::SoftwareId id = ProgramMeta(i).id;
    if (skewed.OwnerOf(id) != h.cluster()->ring().OwnerOf(id)) misrouted = i;
  }
  ASSERT_GE(misrouted, 0) << "no digest disagrees between the two rings";
  h.router()->SetRing(std::move(skewed));

  EXPECT_TRUE(
      h.SubmitRating(session, ProgramMeta(misrouted), 9, "went the long way")
          .ok());
  EXPECT_GE(h.router()->redirects_followed(), 1u);
  // The vote landed on the true owner.
  h.cluster()->RunAggregationAll(util::kDay);
  auto score = h.cluster()->GetScore(ProgramMeta(misrouted).id);
  ASSERT_TRUE(score.ok());
  EXPECT_EQ(score->vote_count, 1);
}

TEST(ClusterRouting, DirectShardClientFollowsOneRedirect) {
  Harness h(2);
  // Onboard through the router so the account exists on every shard.
  h.Onboard("alice");

  int owned_by_1 = -1;
  for (int i = 0; i < 64 && owned_by_1 < 0; ++i) {
    if (h.cluster()->ring().OwnerOf(ProgramMeta(i).id) ==
        h.cluster()->ShardName(1)) {
      owned_by_1 = i;
    }
  }
  ASSERT_GE(owned_by_1, 0);

  // A ClientApp pointed straight at shard0 (no router). Its login mints the
  // deterministic session on shard0; an extra direct login against shard1
  // registers the *same* token there, as a failover recovery would.
  client::ClientApp::Config config;
  config.address = "alice-box";
  config.server_address = h.cluster()->ShardName(0);
  config.username = "alice";
  config.password = "pw-alice";
  config.email = "alice@example.com";
  client::ClientApp app(&h.network(), &h.loop(), config);
  ASSERT_TRUE(app.Start().ok());
  std::optional<Status> login;
  app.Login([&login](Status s) { login = s; });
  h.Pump([&login] { return login.has_value(); });
  ASSERT_TRUE(login.has_value() && login->ok()) << login->ToString();

  net::RpcClient side(&h.network(), &h.loop(), "side-door",
                      h.cluster()->ShardName(1));
  ASSERT_TRUE(side.Start().ok());
  XmlNode relogin("request");
  relogin.AddTextChild("username", "alice");
  relogin.AddTextChild("password", "pw-alice");
  std::optional<Result<XmlNode>> side_login;
  side.Call("Login", std::move(relogin),
            [&side_login](Result<XmlNode> r) { side_login = std::move(r); });
  h.Pump([&side_login] { return side_login.has_value(); });
  ASSERT_TRUE(side_login.has_value() && side_login->ok());

  // Rating a shard1-owned program via shard0 must bounce once and succeed.
  client::RatingSubmission submission;
  submission.score = 8;
  submission.comment = "redirected";
  std::optional<Status> rated;
  app.SubmitRating(ProgramMeta(owned_by_1), submission,
                   [&rated](Status s) { rated = s; });
  h.Pump([&rated] { return rated.has_value(); });
  ASSERT_TRUE(rated.has_value());
  EXPECT_TRUE(rated->ok()) << rated->ToString();
  EXPECT_EQ(app.stats().redirects_followed, 1u);
}

// ---------------------------------------------------------------------------
// Anti-entropy: silent divergence is found and healed
// ---------------------------------------------------------------------------

TEST(ClusterAntiEntropy, DivergentReplicaIsDetectedAndResynced) {
  obs::MetricsRegistry metrics;
  Harness h(1, 0, &metrics, [](ClusterConfig& c, RouterConfig&) {
    c.anti_entropy.enabled = true;
    c.anti_entropy.period = 5 * util::kSecond;
  });
  std::string session = h.Onboard("ae-user");
  ASSERT_TRUE(h.SubmitRating(session, ProgramMeta(0), 8, "clean").ok());
  h.RunAggregation(util::kDay);

  ShardNode* node = h.cluster()->shard(0);
  ReplicationShipper* shipper = node->shipper();
  h.Pump([&] { return shipper->channel_caught_up(0); }, 30);
  ASSERT_TRUE(shipper->channel_caught_up(0));
  ASSERT_NE(node->anti_entropy(), nullptr);

  // Corrupt the replica behind the WAL's back: an unlogged in-place edit of
  // its score row — the kind of divergence only a content digest can see,
  // since both sides still agree on the applied sequence number.
  const std::string hex = ProgramMeta(0).id.ToHex();
  auto table = node->replica(0)->db()->GetTable("software_scores");
  ASSERT_TRUE(table.ok());
  auto row = (*table)->Get(storage::Value::Str(hex));
  ASSERT_TRUE(row.ok());
  storage::Row poisoned = *row;
  poisoned[1] = storage::Value::Real(99.5);  // score column
  ASSERT_TRUE((*table)->UpsertUnlogged(std::move(poisoned)).ok());
  ASSERT_NE(RangeDigestsOf(node->db()),
            RangeDigestsOf(node->replica(0)->db()));

  const std::uint64_t resets_before = node->replica(0)->resets();
  h.Pump([&] { return node->anti_entropy()->repairs() >= 1; }, 60);
  EXPECT_GE(node->anti_entropy()->repairs(), 1u);
  EXPECT_GE(node->anti_entropy()->checks(), 1u);
  h.Pump(
      [&] {
        return node->replica(0)->resets() > resets_before &&
               RangeDigestsOf(node->db()) ==
                   RangeDigestsOf(node->replica(0)->db());
      },
      60);
  EXPECT_EQ(FormatRangeDigests(RangeDigestsOf(node->db())),
            FormatRangeDigests(RangeDigestsOf(node->replica(0)->db())));
  EXPECT_GE(metrics
                .GetCounter(obs::WithLabel(
                    "pisrep_cluster_anti_entropy_repairs_total", "shard",
                    node->name()))
                ->Value(),
            1u);
}

// ---------------------------------------------------------------------------
// Elastic membership: reshard under traffic, redirects, evicted shards
// ---------------------------------------------------------------------------

TEST(ClusterElastic, RouterChasesRedirectsIntoANewlyAddedShard) {
  Harness h(2);
  auto added = h.cluster()->AddShard();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  h.router()->AddShard(*added);
  std::string session = h.Onboard("elastic-user");

  // Skew the router with a 1-vnode ring over the same three members: where
  // the skewed owner disagrees with the true ring, the wrong shard answers
  // `ownership-moved` and the router must chase the redirect — here
  // specifically into the shard that just joined.
  HashRing skewed(1);
  for (const auto& name : h.cluster()->ShardNames()) skewed.AddShard(name);
  int moved = -1;
  for (int i = 0; i < 256 && moved < 0; ++i) {
    const core::SoftwareId id = ProgramMeta(i).id;
    if (h.cluster()->ring().OwnerOf(id) == *added &&
        skewed.OwnerOf(id) != *added) {
      moved = i;
    }
  }
  ASSERT_GE(moved, 0) << "no program moved to the new shard under the skew";
  h.router()->SetRing(std::move(skewed));

  EXPECT_TRUE(
      h.SubmitRating(session, ProgramMeta(moved), 9, "chased into newcomer")
          .ok());
  EXPECT_GE(h.router()->redirects_followed(), 1u);
  h.RunAggregation(util::kDay);
  auto score = h.cluster()->GetScore(ProgramMeta(moved).id);
  ASSERT_TRUE(score.ok());
  EXPECT_EQ(score->vote_count, 1);
}

TEST(ClusterElastic, BroadcastSurvivesAShardEvictedMidFlight) {
  Harness h(3);
  net::FaultInjector faults(&h.loop());
  h.network().AttachFaultInjector(&faults);
  std::string session = h.Onboard("evict-user");

  // One-way cut: the router's requests to shard 2 vanish while everything
  // else flows. A broadcast login fans out, two legs answer, the third
  // hangs on its timeout — and mid-flight the stuck shard is removed from
  // the cluster. The op must settle from the legs that are still members
  // instead of failing the client on the evicted one.
  const std::string victim = h.cluster()->ShardName(2);
  faults.PartitionOneWay("server!up", victim);
  h.loop().ScheduleAfter(4 * util::kSecond, [&h, victim] {
    Status removed = h.cluster()->RemoveShard(victim);
    ASSERT_TRUE(removed.ok()) << removed.ToString();
    h.router()->RemoveShard(victim);
  });

  XmlNode login("request");
  login.AddTextChild("username", "evict-user");
  login.AddTextChild("password", "pw-evict-user");
  auto relogin = h.Call("Login", std::move(login), 20 * util::kSecond);
  ASSERT_TRUE(relogin.ok()) << relogin.status().ToString();
  EXPECT_EQ(relogin->ChildText("session").value_or(""), session);
  EXPECT_EQ(h.cluster()->num_shards(), 2);
  EXPECT_EQ(h.cluster()->reshards(), 1u);
  h.network().AttachFaultInjector(nullptr);
}

TEST(ClusterElastic, GrowAndShrinkUnderTrafficMatchesTheCalmOracle) {
  Harness oracle(0);
  Harness h(2);

  std::vector<std::string> oracle_sessions, sessions;
  for (int u = 0; u < kUsers; ++u) {
    oracle_sessions.push_back(oracle.Onboard(StrFormat("user%02d", u)));
    sessions.push_back(h.Onboard(StrFormat("user%02d", u)));
  }
  auto vote_phase = [&](Harness& target, std::vector<std::string>& ss,
                        int from, int to) {
    for (int u = 0; u < kUsers; ++u) {
      for (int i = from; i < to; ++i) {
        int score = 1 + (i * 3 + u * 5) % 10;
        Status voted = target.SubmitRating(ss[static_cast<size_t>(u)],
                                           ProgramMeta(i), score,
                                           StrFormat("c-%d-%d", u, i));
        ASSERT_TRUE(voted.ok()) << voted.ToString();
      }
    }
  };
  // Resharding bounces every primary, so in-memory sessions die; one
  // broadcast re-login re-mints the same deterministic tokens.
  auto relogin_all = [&](Harness& target, std::vector<std::string>& ss) {
    for (int u = 0; u < kUsers; ++u) {
      XmlNode login("request");
      login.AddTextChild("username", StrFormat("user%02d", u));
      login.AddTextChild("password", StrFormat("pw-user%02d", u));
      auto r = target.Call("Login", std::move(login));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      ASSERT_EQ(r->ChildText("session").value_or(""),
                ss[static_cast<size_t>(u)]);
    }
  };

  vote_phase(oracle, oracle_sessions, 0, 3);
  vote_phase(h, sessions, 0, 3);

  // Grow 2 -> 3 with live data, keep voting, then shrink back to 2 by
  // draining one of the *original* shards through the newcomer.
  auto added = h.cluster()->AddShard();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  h.router()->AddShard(*added);
  relogin_all(h, sessions);

  vote_phase(oracle, oracle_sessions, 3, 7);
  vote_phase(h, sessions, 3, 7);

  const std::string drained = h.cluster()->ShardName(0);
  ASSERT_TRUE(h.cluster()->RemoveShard(drained).ok());
  h.router()->RemoveShard(drained);
  relogin_all(h, sessions);

  vote_phase(oracle, oracle_sessions, 7, kPrograms);
  vote_phase(h, sessions, 7, kPrograms);

  oracle.RunAggregation(30 * util::kDay);
  h.RunAggregation(30 * util::kDay);

  EXPECT_EQ(h.cluster()->reshards(), 2u);
  EXPECT_GT(h.cluster()->migrated_rows(), 0u);
  EXPECT_EQ(h.cluster()->TotalVotesAccepted(),
            static_cast<std::uint64_t>(kUsers * kPrograms));
  for (int i = 0; i < kPrograms; ++i) {
    auto resharded = h.GetScore(ProgramMeta(i).id);
    auto calm = oracle.GetScore(ProgramMeta(i).id);
    ASSERT_TRUE(resharded.ok()) << "program " << i;
    ASSERT_TRUE(calm.ok()) << "program " << i;
    EXPECT_EQ(resharded->vote_count, calm->vote_count) << "program " << i;
    EXPECT_NEAR(resharded->score, calm->score, 1e-9) << "program " << i;
  }
  for (int v = 0; v < 3; ++v) {
    auto merged = h.VendorScore(StrFormat("vendor-%d", v));
    auto calm = oracle.VendorScore(StrFormat("vendor-%d", v));
    ASSERT_TRUE(merged.ok() && calm.ok()) << "vendor " << v;
    EXPECT_EQ(merged->software_count, calm->software_count) << "vendor " << v;
    EXPECT_NEAR(merged->score, calm->score, 1e-9) << "vendor " << v;
  }
}

// ---------------------------------------------------------------------------
// Replication metrics and the web portal over a cluster
// ---------------------------------------------------------------------------

TEST(ClusterObservability, ReplicationAndRouterMetricsAreLive) {
  obs::MetricsRegistry metrics;
  Harness h(2, /*gossip_period=*/0, &metrics);
  std::string session = h.Onboard("metrics-user");
  ASSERT_TRUE(h.SubmitRating(session, ProgramMeta(0), 6, "measured").ok());

  std::uint64_t shipped = 0;
  for (int i = 0; i < 2; ++i) {
    shipped += metrics
                   .GetCounter(obs::WithLabel(
                       "pisrep_cluster_replication_shipped_total", "shard",
                       h.cluster()->ShardName(i)))
                   ->Value();
  }
  EXPECT_GT(shipped, 0u);  // acked votes implies shipped WAL records
  std::uint64_t routed = 0;
  for (int i = 0; i < 2; ++i) {
    routed += metrics
                  .GetCounter(obs::WithLabel(
                      "pisrep_cluster_router_requests_total", "shard",
                      h.cluster()->ShardName(i)))
                  ->Value();
  }
  EXPECT_GT(routed, 0u);
  EXPECT_GT(
      metrics.GetCounter("pisrep_cluster_router_broadcast_ops_total")->Value(),
      0u);
}

TEST(ClusterPortal, PortalMergesPagesAcrossShards) {
  Harness h(2);
  RunScriptedWorkload(h);

  ShardCluster* cluster = h.cluster();
  web::WebPortal portal([cluster] {
    std::vector<server::ReputationServer*> shards;
    for (int i = 0; i < cluster->num_shards(); ++i) {
      shards.push_back(cluster->primary(i));
    }
    return shards;
  });

  // Every program renders from its owning shard.
  for (int i = 0; i < kPrograms; ++i) {
    auto page = portal.SoftwarePage(ProgramMeta(i).id);
    ASSERT_TRUE(page.ok()) << "program " << i;
    EXPECT_NE(page->find(ProgramMeta(i).file_name), std::string::npos);
  }
  // The merged top list sees programs regardless of placement, and the
  // vendor page merges the catalogue.
  std::string top = portal.TopListPage(/*best=*/true);
  int listed = 0;
  for (int i = 0; i < kPrograms; ++i) {
    if (top.find(ProgramMeta(i).file_name) != std::string::npos) ++listed;
  }
  EXPECT_EQ(listed, kPrograms);  // list_limit 25 > kPrograms: all visible
  auto vendor_page = portal.VendorPage("vendor-0");
  ASSERT_TRUE(vendor_page.ok());
  for (int i = 0; i < kPrograms; i += 3) {
    EXPECT_NE(vendor_page->find(ProgramMeta(i).file_name), std::string::npos)
        << "program " << i;
  }
  // The portal's merged vendor score agrees with the cluster's native merge.
  auto native = cluster->MergedVendorScore("vendor-0");
  ASSERT_TRUE(native.ok());
  EXPECT_NE(portal.HomePage().find("programs tracked"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Router fast paths: vendor index, binary codec, stray frames
// ---------------------------------------------------------------------------

/// Serialized response with the per-client envelope id neutralized, so
/// answers from different clients compare bit for bit.
std::string CanonicalResponse(const XmlNode& response) {
  XmlNode copy = response;
  copy.SetAttribute("id", "#");
  return xml::WriteXml(copy);
}

/// QuerySoftware through the front door, returning the full response node.
Result<XmlNode> QueryProgram(Harness& h, const std::string& session, int i) {
  XmlNode request("request");
  request.AddTextChild("session", session);
  request.AddTextChild("id", ProgramMeta(i).id.ToHex());
  return h.Call("QuerySoftware", std::move(request));
}

/// Upstream calls the router has made to each current shard so far.
std::vector<std::uint64_t> UpstreamCalls(Harness& h,
                                         obs::MetricsRegistry& metrics) {
  std::vector<std::uint64_t> calls;
  for (int s = 0; s < h.cluster()->num_shards(); ++s) {
    calls.push_back(metrics
                        .GetCounter(obs::WithLabel(
                            "pisrep_cluster_router_requests_total", "shard",
                            h.cluster()->ShardName(s)))
                        ->Value());
  }
  return calls;
}

std::uint64_t TotalUpstreamCalls(Harness& h, obs::MetricsRegistry& metrics) {
  std::uint64_t total = 0;
  for (std::uint64_t calls : UpstreamCalls(h, metrics)) total += calls;
  return total;
}

/// MergedVendorScore rendered the way a routed answer carries it; empty
/// when no shard scores the vendor (the answer then has no vendor node).
std::string NativeVendorNode(Harness& h, const std::string& vendor) {
  auto merged = h.cluster()->MergedVendorScore(vendor);
  if (!merged.ok()) return "";
  XmlNode node("vendor");
  node.SetAttribute("name", merged->vendor);
  node.SetAttribute("score", StrFormat("%.6f", merged->score));
  node.SetAttribute("count", std::to_string(merged->software_count));
  return xml::WriteXml(node);
}

/// Checks a routed answer's vendor node against MergedVendorScore: same
/// name, count and %.6f score string, since the router merges the shards'
/// exact partials through the same function.
void ExpectNativeVendor(Harness& h, const XmlNode& answer,
                        const std::string& vendor, const std::string& label) {
  auto merged = h.cluster()->MergedVendorScore(vendor);
  ASSERT_TRUE(merged.ok()) << label << ": " << merged.status().ToString();
  const XmlNode* node = answer.FindChild("vendor");
  ASSERT_NE(node, nullptr) << label;
  EXPECT_EQ(node->AttributeOr("name", ""), vendor) << label;
  EXPECT_EQ(node->AttributeOr("count", ""),
            std::to_string(merged->software_count))
      << label;
  EXPECT_EQ(node->AttributeOr("score", ""),
            StrFormat("%.6f", merged->score))
      << label;
}

/// The serialized <vendor> node of a routed answer, empty when it has none.
std::string VendorNodeOf(const XmlNode& answer) {
  const XmlNode* node = answer.FindChild("vendor");
  return node != nullptr ? xml::WriteXml(*node) : "";
}

/// Logs `user` in again (sessions die with a primary) and returns the
/// session, which deterministic tokens keep unchanged.
std::string Relogin(Harness& h, const std::string& user) {
  XmlNode login("request");
  login.AddTextChild("username", user);
  login.AddTextChild("password", "pw-" + user);
  auto session = h.Call("Login", std::move(login));
  PISREP_CHECK(session.ok()) << session.status().ToString();
  return session->ChildText("session").value_or("");
}

/// Index of the shard owning program `i`.
int OwnerIndex(Harness& h, int i) {
  int owner = 0;
  while (h.cluster()->ShardName(owner) !=
         h.cluster()->ring().OwnerOf(ProgramMeta(i).id)) {
    ++owner;
  }
  return owner;
}

TEST(ClusterVendorIndex, RoutedVendorMatchesTheNativeMerge) {
  obs::MetricsRegistry metrics;
  Harness h(3, /*gossip_period=*/0, &metrics);
  RunScriptedWorkload(h);
  std::string session = h.Onboard("index-reader");
  // The workload's own query built the index before its aggregation, which
  // changed every shard's table: the first query below pulls once more.
  const std::uint64_t rounds = h.router()->vendor_index_refreshes();
  EXPECT_EQ(rounds, 1u);
  for (int i = 0; i < kPrograms; ++i) {
    const std::uint64_t before = TotalUpstreamCalls(h, metrics);
    auto answer = QueryProgram(h, session, i);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    const std::string native = NativeVendorNode(h, ProgramMeta(i).company);
    ASSERT_FALSE(native.empty()) << "program " << i;
    EXPECT_EQ(VendorNodeOf(*answer), native) << "program " << i;
    // The shard's version stamp never reaches a client.
    EXPECT_FALSE(answer->HasAttribute("vendor_version")) << "program " << i;
    if (i > 0) {
      EXPECT_EQ(TotalUpstreamCalls(h, metrics) - before, 1u)
          << "program " << i;
    }
  }
  EXPECT_EQ(h.router()->vendor_index_refreshes(), rounds + 1);
}

TEST(ClusterVendorIndex, ChangedTableIsPulledBeforeTheReply) {
  obs::MetricsRegistry metrics;
  Harness h(3, /*gossip_period=*/0, &metrics);
  RunScriptedWorkload(h);
  std::string session = h.Onboard("late-rater");
  ASSERT_TRUE(QueryProgram(h, session, 0).ok());  // the index is current
  const std::string company = ProgramMeta(0).company;
  const std::string before = NativeVendorNode(h, company);

  // A new vote on program 0 changes its owner's vendor table at the next
  // aggregation; no other shard's table changes.
  ASSERT_TRUE(h.SubmitRating(session, ProgramMeta(0), 10, "late").ok());
  h.RunAggregation(31 * util::kDay);
  const std::string after = NativeVendorNode(h, company);
  ASSERT_NE(after, before);

  const std::uint64_t rounds = h.router()->vendor_index_refreshes();
  const std::vector<std::uint64_t> calls = UpstreamCalls(h, metrics);
  auto answer = QueryProgram(h, session, 0);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ExpectNativeVendor(h, *answer, company, "first query");
  EXPECT_EQ(h.router()->vendor_index_refreshes(), rounds + 1);
  // One round: a QueryVendorIndex on every shard, plus the query itself
  // on the owner.
  const std::vector<std::uint64_t> now = UpstreamCalls(h, metrics);
  const int owner = OwnerIndex(h, 0);
  for (int s = 0; s < h.cluster()->num_shards(); ++s) {
    const std::size_t k = static_cast<std::size_t>(s);
    EXPECT_EQ(now[k] - calls[k], s == owner ? 2u : 1u) << "shard " << s;
  }

  // The following queries start no round.
  for (int i = 0; i < kPrograms; ++i) {
    const std::uint64_t total = TotalUpstreamCalls(h, metrics);
    auto next = QueryProgram(h, session, i);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ExpectNativeVendor(h, *next, ProgramMeta(i).company,
                       StrFormat("program %d", i));
    EXPECT_EQ(TotalUpstreamCalls(h, metrics) - total, 1u) << "program " << i;
  }
  EXPECT_EQ(h.router()->vendor_index_refreshes(), rounds + 1);
}

TEST(ClusterVendorIndex, MembershipAndFailover) {
  Harness h(2);
  RunScriptedWorkload(h);
  const std::string user = "fleet-reader";
  std::string session = h.Onboard(user);
  ASSERT_TRUE(QueryProgram(h, session, 0).ok());  // the index is current
  const std::uint64_t rounds = h.router()->vendor_index_refreshes();

  // The promoted backup publishes the same vendor table, so its version —
  // a content hash, not the epoch that restarts at 1 — is unchanged.
  h.Pump({}, 5);  // let WAL shipping bring the backups level
  ASSERT_TRUE(h.cluster()->TriggerFailover(OwnerIndex(h, 0)).ok());
  ASSERT_EQ(Relogin(h, user), session);
  auto answer = QueryProgram(h, session, 0);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ExpectNativeVendor(h, *answer, ProgramMeta(0).company, "after failover");
  EXPECT_EQ(h.router()->vendor_index_refreshes(), rounds);

  // A third shard: the index no longer covers the ring, so the next answer
  // waits for a round over the new membership. The reshard cleared every
  // vendor table; the aggregation (a full sweep after the restart)
  // rebuilds them.
  auto added = h.cluster()->AddShard();
  ASSERT_TRUE(added.ok()) << added.status().ToString();
  h.router()->AddShard(*added);
  h.RunAggregation(31 * util::kDay);
  ASSERT_EQ(Relogin(h, user), session);
  for (int i = 0; i < kPrograms; ++i) {
    auto next = QueryProgram(h, session, i);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    ExpectNativeVendor(h, *next, ProgramMeta(i).company,
                       StrFormat("program %d", i));
  }
  EXPECT_EQ(h.router()->vendor_index_refreshes(), rounds + 1);
}

TEST(ClusterVendorIndex, FailedRoundNeverMergesASubset) {
  obs::MetricsRegistry metrics;
  Harness h(3, /*gossip_period=*/0, &metrics);
  net::FaultInjector faults(&h.loop());
  h.network().AttachFaultInjector(&faults);
  RunScriptedWorkload(h);
  std::string session = h.Onboard("cut-reader");
  ASSERT_TRUE(QueryProgram(h, session, 0).ok());  // the index is current
  const std::uint64_t rounds = h.router()->vendor_index_refreshes();

  // Change the tables of shards 0 and 1 with a vote on one program each,
  // remembering the vendor node the index serves for every program those
  // two shards own.
  std::vector<int> programs;
  std::map<int, std::string> indexed;
  std::set<int> changed;
  for (int i = 0; i < kPrograms; ++i) {
    const int owner = OwnerIndex(h, i);
    if (owner == 2) continue;
    programs.push_back(i);
    auto answer = QueryProgram(h, session, i);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    indexed[i] = VendorNodeOf(*answer);
    ASSERT_FALSE(indexed[i].empty()) << "program " << i;
    if (changed.insert(owner).second) {
      ASSERT_TRUE(h.SubmitRating(session, ProgramMeta(i), 10, "late").ok());
    }
  }
  ASSERT_EQ(changed.size(), 2u);
  h.RunAggregation(31 * util::kDay);

  // The router can no longer reach shard 2. Concurrent queries on shards 0
  // and 1 reveal the changed tables; the round they wait for loses its
  // shard-2 leg to the timeout.
  faults.PartitionOneWay("server!up", h.cluster()->ShardName(2));
  net::RpcClient burst(&h.network(), &h.loop(), "burst-tester", "server");
  ASSERT_TRUE(burst.Start().ok());
  const std::uint64_t before = TotalUpstreamCalls(h, metrics);
  std::map<int, std::optional<Result<XmlNode>>> answers;
  for (int i : programs) {
    XmlNode request("request");
    request.AddTextChild("session", session);
    request.AddTextChild("id", ProgramMeta(i).id.ToHex());
    burst.Call(
        "QuerySoftware", std::move(request),
        [&answers, i](Result<XmlNode> r) { answers[i] = std::move(r); },
        30 * util::kSecond);
  }
  h.Pump([&] {
    for (int i : programs) {
      if (!answers[i].has_value()) return false;
    }
    return true;
  });

  // Every waiting reply completed from the previous, complete index.
  for (int i : programs) {
    ASSERT_TRUE(answers[i].has_value()) << "program " << i;
    ASSERT_TRUE(answers[i]->ok()) << answers[i]->status().ToString();
    EXPECT_EQ(VendorNodeOf(**answers[i]), indexed[i]) << "program " << i;
  }
  // One round (a leg per shard) for all of them, and it published nothing.
  EXPECT_EQ(TotalUpstreamCalls(h, metrics) - before, programs.size() + 3);
  EXPECT_EQ(h.router()->vendor_index_refreshes(), rounds);

  // The failed round left the recorded versions alone, so once the link
  // heals the next reply pulls again and carries the new merge.
  faults.Heal();
  auto healed = QueryProgram(h, session, programs.front());
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  ExpectNativeVendor(h, *healed, ProgramMeta(programs.front()).company,
                     "after the heal");
  EXPECT_NE(VendorNodeOf(*healed), indexed[programs.front()]);
  EXPECT_EQ(h.router()->vendor_index_refreshes(), rounds + 1);
  h.network().AttachFaultInjector(nullptr);
}

TEST(ClusterCodec, BinaryClientAndXmlClientGetIdenticalAnswers) {
  obs::MetricsRegistry metrics;
  Harness h(2, /*gossip_period=*/0, &metrics);
  RunScriptedWorkload(h);
  std::string session = h.Onboard("codec-reader");

  net::RpcClient binary_client(&h.network(), &h.loop(), "bin-tester",
                               "server");
  ASSERT_TRUE(binary_client.Start().ok());
  binary_client.set_codec(proto::WireCodec::kBinary);
  auto call_binary = [&](const std::string& method,
                         XmlNode params) -> Result<XmlNode> {
    std::optional<Result<XmlNode>> response;
    binary_client.Call(
        method, std::move(params),
        [&response](Result<XmlNode> r) { response = std::move(r); },
        5 * util::kSecond);
    h.Pump([&response] { return response.has_value(); });
    if (!response.has_value()) return Status::Unavailable("no response");
    return *std::move(response);
  };

  for (int i = 0; i < kPrograms; ++i) {
    auto via_xml = QueryProgram(h, session, i);
    XmlNode params("request");
    params.AddTextChild("session", session);
    params.AddTextChild("id", ProgramMeta(i).id.ToHex());
    auto via_binary = call_binary("QuerySoftware", std::move(params));
    ASSERT_TRUE(via_xml.ok()) << via_xml.status().ToString();
    ASSERT_TRUE(via_binary.ok()) << via_binary.status().ToString();
    EXPECT_EQ(CanonicalResponse(*via_binary), CanonicalResponse(*via_xml))
        << "program " << i;
  }
  // The router counted the binary frames (same series the single-server
  // RpcServer feeds, so dashboards see one number either way).
  EXPECT_GE(metrics.GetCounter("pisrep_proto_binary_requests_total")->Value(),
            static_cast<std::uint64_t>(kPrograms));
}

TEST(ClusterCodec, RouterForwardsBinaryAndRepliesInKind) {
  Harness h(2);
  RunScriptedWorkload(h);
  std::string session = h.Onboard("hop-reader");

  // A raw XML endpoint, so the test sees the exact frame the router sends
  // back rather than what an RpcClient decodes from it.
  std::vector<std::string> inbox;
  ASSERT_TRUE(h.network()
                  .Bind("xml-probe",
                        [&inbox](const net::Message& message) {
                          inbox.push_back(message.payload);
                        })
                  .ok());
  // Bring the vendor index up to date with the workload's aggregation.
  ASSERT_TRUE(QueryProgram(h, session, 0).ok());
  for (int i = 0; i < kPrograms; ++i) {
    const core::SoftwareMeta meta = ProgramMeta(i);
    const int owner = OwnerIndex(h, i);
    std::vector<std::uint64_t> binary_before;
    for (int s = 0; s < h.cluster()->num_shards(); ++s) {
      binary_before.push_back(
          h.cluster()->primary(s)->rpc_server()->binary_requests());
    }

    XmlNode request("request");
    request.SetAttribute("id", std::to_string(i));
    request.SetAttribute("method", "QuerySoftware");
    request.AddTextChild("session", session);
    request.AddTextChild("id", meta.id.ToHex());
    inbox.clear();
    h.network().Send("xml-probe", "server",
                     proto::EncodeFrame(request, proto::WireCodec::kXml));
    h.Pump([&inbox] { return !inbox.empty(); });
    ASSERT_EQ(inbox.size(), 1u) << "program " << i;

    // Upstream, the one frame was binary and reached the owning primary;
    // the vendor score came from the router's index.
    for (int s = 0; s < h.cluster()->num_shards(); ++s) {
      const std::uint64_t expected_frames = s == owner ? 1 : 0;
      EXPECT_EQ(h.cluster()->primary(s)->rpc_server()->binary_requests() -
                    binary_before[static_cast<std::size_t>(s)],
                expected_frames)
          << "program " << i << " shard " << s;
    }

    // Downstream, the XML client got XML back.
    auto reply = proto::DecodeFrame(inbox.front());
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->codec, proto::WireCodec::kXml);

    // Oracle: the owning primary's own answer, in the envelope RpcServer
    // gives a successful call, with its vendor slice replaced by the
    // cluster-wide merge at the end (where the router appends it).
    auto direct = h.cluster()->primary(owner)->QuerySoftware(session, meta.id);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    auto vendor = h.cluster()->MergedVendorScore(meta.company);
    ASSERT_TRUE(vendor.ok()) << vendor.status().ToString();
    XmlNode body = proto::SoftwareInfoToXml(*direct);
    std::erase_if(body.children(), [](const XmlNode& child) {
      return child.name() == "vendor";
    });
    XmlNode& merged = body.AddChild("vendor");
    merged.SetAttribute("name", vendor->vendor);
    merged.SetAttribute("score", StrFormat("%.6f", vendor->score));
    merged.SetAttribute("count", std::to_string(vendor->software_count));
    XmlNode oracle("response");
    oracle.SetAttribute("id", "#");
    oracle.SetAttribute("status", "ok");
    for (const auto& [key, value] : body.attributes()) {
      oracle.SetAttribute(key, value);
    }
    oracle.children() = std::move(body.children());
    EXPECT_EQ(CanonicalResponse(reply->node), CanonicalResponse(oracle))
        << "program " << i;
  }
}

TEST(ClusterCodec, StrayBatchFrameGetsNoAnswerAndNoUpstreamCall) {
  Harness h(2);
  std::string session = h.Onboard("stray-batch");
  std::vector<std::string> inbox;
  ASSERT_TRUE(h.network()
                  .Bind("raw-probe",
                        [&inbox](const net::Message& message) {
                          inbox.push_back(message.payload);
                        })
                  .ok());
  for (proto::WireCodec codec :
       {proto::WireCodec::kXml, proto::WireCodec::kBinary}) {
    XmlNode batch("batch");
    batch.SetAttribute("id", "1");
    XmlNode& request = batch.AddChild("request");
    request.SetAttribute("id", "2");
    request.SetAttribute("method", "QuerySoftware");
    request.AddTextChild("session", session);
    request.AddTextChild("id", ProgramMeta(0).id.ToHex());
    const std::uint64_t requests = h.router()->requests();
    const std::uint64_t sent = h.network().messages_sent();
    h.network().Send("raw-probe", "server", proto::EncodeFrame(batch, codec));
    h.Pump({}, 5);
    // The probe's own frame is the only message: no upstream call, no reply.
    EXPECT_TRUE(inbox.empty());
    EXPECT_EQ(h.network().messages_sent(), sent + 1);
    EXPECT_EQ(h.router()->requests(), requests);
  }
}

// ---------------------------------------------------------------------------
// The full community scenario, clustered
// ---------------------------------------------------------------------------

sim::ScenarioConfig CommunityScenario(std::uint64_t seed) {
  sim::ScenarioConfig config;
  config.ecosystem.num_software = 40;
  config.ecosystem.num_vendors = 8;
  config.ecosystem.seed = seed;
  config.num_users = 12;
  config.duration = 10 * util::kDay;
  config.executions_per_day = 6.0;
  config.server.flood.registration_puzzle_bits = 0;
  config.server.flood.max_registrations_per_source_per_day = 0;
  config.seed = seed;
  return config;
}

TEST(ClusterScenario, CommunityScenarioMatchesSingleServerScores) {
  sim::ScenarioConfig config = CommunityScenario(11);
  sim::ScenarioRunner single(config);
  sim::ScenarioResult single_result = single.Run();
  ASSERT_GT(single_result.total_votes, 10u);

  config.num_shards = 3;
  sim::ScenarioRunner clustered(config);
  sim::ScenarioResult cluster_result = clustered.Run();

  // Same community, same seed, same address — the shard fleet must be
  // invisible in every number the run produces.
  EXPECT_EQ(cluster_result.total_votes, single_result.total_votes);
  EXPECT_EQ(cluster_result.scored_software, single_result.scored_software);
  EXPECT_NEAR(cluster_result.score_mae, single_result.score_mae, 1e-9);

  for (std::size_t i = 0; i < single.ecosystem().size(); ++i) {
    core::SoftwareId id = single.ecosystem().spec(i).image.Digest();
    auto oracle = single.server().registry().GetScore(id);
    auto sharded = clustered.cluster()->GetScore(id);
    ASSERT_EQ(oracle.ok(), sharded.ok()) << "software " << i;
    if (!oracle.ok()) continue;
    EXPECT_EQ(sharded->vote_count, oracle->vote_count) << "software " << i;
    EXPECT_NEAR(sharded->score, oracle->score, 1e-9) << "software " << i;
  }
  for (const auto& vendor : single.ecosystem().vendors()) {
    auto oracle = single.server().registry().GetVendorScore(vendor.name);
    auto merged = clustered.cluster()->MergedVendorScore(vendor.name);
    ASSERT_EQ(oracle.ok(), merged.ok()) << vendor.name;
    if (!oracle.ok()) continue;
    EXPECT_EQ(merged->software_count, oracle->software_count) << vendor.name;
    EXPECT_NEAR(merged->score, oracle->score, 1e-9) << vendor.name;
  }
}

}  // namespace
}  // namespace pisrep::cluster
