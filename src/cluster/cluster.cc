#include "cluster/cluster.h"

#include <algorithm>
#include <utility>

#include "cluster/router.h"
#include "core/rating_aggregator.h"
#include "proto/wire.h"
#include "storage/table.h"
#include "storage/value.h"
#include "util/hex.h"
#include "util/logging.h"

namespace pisrep::cluster {

namespace {
using util::Result;
using util::Status;
using xml::XmlNode;

/// Column holding each digest-routed table's routing hex, or null when the
/// table is broadcast (users, activations, feeds) or derived
/// (vendor_scores, rebuilt after a reshard rather than moved).
const char* RoutingColumnOf(std::string_view table) {
  if (table == "software" || table == "software_scores" ||
      table == "run_stats") {
    return "id";
  }
  if (table == "behavior_reports" || table == "ratings" ||
      table == "feed_entries") {
    return "software";
  }
  if (table == "remarks") return "comment_key";
  return nullptr;
}

/// The 40-char routing hex of one row, empty when not parseable.
std::string RoutingHexOf(std::string_view table,
                         const storage::TableSchema& schema,
                         const storage::Row& row) {
  const char* column = RoutingColumnOf(table);
  if (column == nullptr) return "";
  auto index = schema.ColumnIndex(column);
  if (!index.ok()) return "";
  if (row[*index].type() != storage::ColumnType::kString) return "";
  std::string value = row[*index].AsStr();
  if (table == "remarks") {
    // comment_key is "<author>:<software hex>" — route by the digest.
    auto colon = value.find(':');
    if (colon == std::string::npos) return "";
    value = value.substr(colon + 1);
  }
  return value;
}

Result<util::Sha1Digest> DigestFromHex(const std::string& hex) {
  util::Sha1Digest digest;
  if (!util::HexDecodeTo(hex, digest.bytes)) {
    return Status::InvalidArgument("routing hex is not a SHA-1 digest");
  }
  return digest;
}
}  // namespace

// ---------------------------------------------------------------------------
// ShardNode
// ---------------------------------------------------------------------------

ShardNode::ShardNode(net::SimNetwork* network, net::EventLoop* loop,
                     std::string name,
                     server::ReputationServer::Config server_config,
                     ReplicationConfig replication, const HashRing* ring,
                     GossipConfig gossip, AntiEntropyConfig anti_entropy,
                     GossipAgent::DeadCallback on_dead)
    : network_(network),
      loop_(loop),
      name_(std::move(name)),
      server_config_(std::move(server_config)),
      replication_(replication),
      ring_(ring),
      gossip_config_(gossip),
      anti_entropy_config_(anti_entropy),
      on_dead_(std::move(on_dead)) {
  // Tokens minted by any shard must validate on every shard and survive a
  // failover (a promoted replica restarts its RNG stream).
  server_config_.accounts.deterministic_tokens = true;
}

ShardNode::~ShardNode() {
  // Agents hold raw pointers into server/shipper state; drop them first.
  gossip_.reset();
  anti_entropy_.reset();
}

Status ShardNode::Start() {
  auto db = storage::Database::Open("");
  if (!db.ok()) return db.status();
  db_ = std::move(db).value();
  PISREP_RETURN_IF_ERROR(StartPrimary());
  return StartReplicas();
}

Status ShardNode::StartPrimary() {
  server_ = std::make_unique<server::ReputationServer>(db_.get(), loop_,
                                                       server_config_);
  PISREP_RETURN_IF_ERROR(server_->AttachRpc(network_, name_));
  InstallClusterMethods();
  if (gossip_config_.enabled && on_dead_) {
    gossip_ = std::make_unique<GossipAgent>(network_, loop_, name_, ring_,
                                            gossip_config_,
                                            server_config_.metrics, on_dead_);
    PISREP_RETURN_IF_ERROR(gossip_->Start());
    gossip_->AttachRpc(server_->rpc_server());
  }
  return Status::Ok();
}

void ShardNode::InstallClusterMethods() {
  net::RpcServer* rpc = server_->rpc_server();
  PISREP_CHECK(rpc != nullptr) << "cluster methods need the RPC front-end";

  rpc->RegisterMethod(std::string(kPingMethod),
                      [](const XmlNode&) -> Result<XmlNode> {
                        return XmlNode("result");
                      });

  // The router fans a validated remark's trust side effect to the shards
  // that do not hold the rating row; only the account table is touched.
  rpc->RegisterMethod(
      std::string(kApplyRemarkMethod),
      [this](const XmlNode& request) -> Result<XmlNode> {
        auto author = request.ChildInt("author");
        auto positive = request.ChildInt("positive");
        auto at = request.ChildInt("at");
        if (!author.ok() || !positive.ok() || !at.ok()) {
          return Status::InvalidArgument("malformed ClusterApplyRemark");
        }
        PISREP_ASSIGN_OR_RETURN(
            double factor,
            server_->accounts().ApplyRemark(
                static_cast<core::UserId>(*author), *positive != 0,
                static_cast<util::TimePoint>(*at)));
        XmlNode result("result");
        result.AddDoubleChild("trust", factor);
        return result;
      });

  // Ownership guard: wrap every digest-routed method so a request that
  // lands on the wrong shard (stale router ring, client pointed directly
  // at a shard) is answered with an ownership-moved redirect instead of
  // silently creating divergent state.
  for (const char* routed :
       {"QuerySoftware", "SubmitRating", "ReportExecutions", "QueryFeed",
        "SubmitRemark"}) {
    PISREP_CHECK(IsDigestRoutedMethod(routed))
        << routed << " missing from the router's digest plane";
    net::RpcServer::Method original = rpc->FindMethod(routed);
    if (!original) continue;
    rpc->RegisterMethod(
        routed, [this, original = std::move(original),
                 method = std::string(routed)](
                    const XmlNode& request) -> Result<XmlNode> {
          PISREP_ASSIGN_OR_RETURN(util::Sha1Digest digest,
                                  RoutingDigestOf(method, request));
          const std::string& owner = ring_->OwnerOf(digest);
          if (owner != name_) {
            return Status::FailedPrecondition(
                proto::OwnershipMovedMessage(owner));
          }
          return original(request);
        });
  }

  // Version stamp: QuerySoftware and QueryVendor answers name the vendor
  // table this shard has published, so the router re-pulls its vendor
  // index exactly when a table changed (DESIGN.md §11.2).
  for (const char* stamped : {"QuerySoftware", "QueryVendor"}) {
    rpc->RegisterMethod(
        stamped, [this, original = rpc->FindMethod(stamped)](
                     const XmlNode& request) -> Result<XmlNode> {
          Result<XmlNode> answer = original(request);
          if (answer.ok()) {
            answer->SetAttribute(
                server::kVendorVersionAttribute,
                std::to_string(server_->CurrentSnapshot()->vendor_version));
          }
          return answer;
        });
  }
}

void ShardNode::InstallResponseGate() {
  if (server_ == nullptr || shipper_ == nullptr) return;
  net::RpcServer* rpc = server_->rpc_server();
  if (rpc == nullptr) return;
  // Raw capture is safe: the gate dies with the RPC server inside
  // server_->Stop()/reset, which KillPrimary runs before shipper_.reset().
  ReplicationShipper* shipper = shipper_.get();
  rpc->SetResponseGate(
      [shipper](const std::string& method, std::function<void()> send) {
        // The control plane must answer even when writes are blocked on a
        // quorum: a gated ping or gossip exchange would turn replication
        // trouble into a spurious failover of a healthy primary.
        if (method == kPingMethod || method == kGossipMethod) {
          send();
          return;
        }
        shipper->GateResponse(method, std::move(send));
      });
}

Status ShardNode::StartReplicas() {
  if (db_ == nullptr) {
    return Status::FailedPrecondition("shard has no primary database");
  }
  int want = std::max(0, replication_.replication_factor - 1);
  replicas_.resize(static_cast<std::size_t>(want));
  replica_fenced_.resize(static_cast<std::size_t>(want), false);
  std::vector<int> revived;
  for (int k = 0; k < want; ++k) {
    if (replicas_[static_cast<std::size_t>(k)] != nullptr) continue;
    auto node = std::make_unique<ReplicaNode>(network_,
                                              ReplicaAddress(name_, k + 1));
    PISREP_RETURN_IF_ERROR(node->Start());
    replicas_[static_cast<std::size_t>(k)] = std::move(node);
    // A freshly created node is a new machine: any fence verdict against
    // its predecessor dies with the predecessor.
    replica_fenced_[static_cast<std::size_t>(k)] = false;
    revived.push_back(k);
  }
  if (shipper_ == nullptr) {
    std::vector<std::string> addresses;
    for (int k = 1; k <= want; ++k) {
      addresses.push_back(ReplicaAddress(name_, k));
    }
    shipper_ = std::make_unique<ReplicationShipper>(
        network_, loop_, name_ + "!ship", std::move(addresses), db_.get(),
        replication_, server_config_.metrics, name_);
    shipper_->set_fence_listener([this](int k) {
      if (static_cast<std::size_t>(k) < replica_fenced_.size()) {
        replica_fenced_[static_cast<std::size_t>(k)] = true;
      }
    });
    PISREP_RETURN_IF_ERROR(shipper_->Start());
    InstallResponseGate();
    if (anti_entropy_config_.enabled && want > 0) {
      anti_entropy_ = std::make_unique<AntiEntropyAgent>(
          network_, loop_, name_, db_.get(), shipper_.get(),
          anti_entropy_config_, server_config_.metrics);
      PISREP_RETURN_IF_ERROR(anti_entropy_->Start());
    }
  } else {
    // Revive path: each recreated replica is fresh and empty — forget its
    // old ack position and snapshot it back to parity.
    for (int k : revived) shipper_->ReviveChannel(k);
    shipper_->Pump();
  }
  return Status::Ok();
}

void ShardNode::KillPrimary() {
  if (server_ == nullptr) return;
  gossip_.reset();        // unbinds the gossip client
  anti_entropy_.reset();  // unbinds the sweep client
  server_->Stop();        // unbinds the RPC endpoint (and the response gate)
  server_.reset();
  shipper_.reset();  // clears the db frame listener before the db dies
  db_.reset();
}

void ShardNode::KillReplica(int k) {
  replicas_[static_cast<std::size_t>(k)].reset();
}

Status ShardNode::Promote() {
  if (server_ != nullptr) {
    ++promotions_refused_;
    return Status::FailedPrecondition("primary still alive");
  }
  // The most-caught-up replica that does not know itself to be missing
  // acked records. Promoting a stale one would silently drop votes, and
  // promoting a fenced one would crown a copy whose audit chain says it
  // was tampered with.
  int best = -1;
  std::uint64_t best_applied = 0;
  for (int k = 0; k < replica_count(); ++k) {
    ReplicaNode* candidate = replica(k);
    if (candidate == nullptr || candidate->stale()) continue;
    if (replica_fenced(k)) continue;
    if (best < 0 || candidate->applied_seq() > best_applied) {
      best = k;
      best_applied = candidate->applied_seq();
    }
  }
  if (best < 0) {
    ++promotions_refused_;
    return Status::FailedPrecondition(
        "no promotable replica (all dead, stale or fenced)");
  }
  db_ = replica(best)->Detach();
  replicas_.clear();
  replica_fenced_.clear();
  PISREP_RETURN_IF_ERROR(StartPrimary());
  ++promotions_;
  // Stand up a fresh (empty) replica set behind the new primary; the
  // shipper's initial snapshots bring every copy to parity.
  return StartReplicas();
}

Status ShardNode::RestartPrimary() {
  if (db_ == nullptr) {
    return Status::FailedPrecondition("shard has no primary database");
  }
  gossip_.reset();
  if (server_ != nullptr) {
    server_->Stop();
    server_.reset();
  }
  PISREP_RETURN_IF_ERROR(StartPrimary());
  InstallResponseGate();  // the shipper survived the bounce
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// ShardCluster
// ---------------------------------------------------------------------------

ShardCluster::ShardCluster(net::SimNetwork* network, net::EventLoop* loop,
                           ClusterConfig config)
    : network_(network),
      loop_(loop),
      config_(std::move(config)),
      ring_(kVnodesPerShard) {
  PISREP_CHECK(config_.num_shards > 0) << "a cluster needs at least one shard";
  config_.server.accounts.deterministic_tokens = true;
  for (int i = 0; i < config_.num_shards; ++i) {
    std::string name = config_.name_prefix + std::to_string(next_ordinal_++);
    ring_.AddShard(name);
    shards_.push_back(MakeShard(name));
  }
  if (obs::MetricsRegistry* metrics = config_.server.metrics) {
    failovers_metric_ = metrics->GetCounter("pisrep_cluster_failovers_total");
    failovers_refused_metric_ =
        metrics->GetCounter("pisrep_cluster_failovers_refused_total");
    reshards_metric_ = metrics->GetCounter("pisrep_cluster_reshards_total");
    migrated_rows_metric_ =
        metrics->GetCounter("pisrep_cluster_migrated_rows_total");
  }
}

ShardCluster::~ShardCluster() = default;

std::unique_ptr<ShardNode> ShardCluster::MakeShard(const std::string& name) {
  return std::make_unique<ShardNode>(
      network_, loop_, name, config_.server, config_.replication,
      &ring_, config_.gossip, config_.anti_entropy,
      [this](const std::string& dead) { return OnGossipDeath(dead); });
}

std::string ShardCluster::ShardName(int i) const {
  return shards_[static_cast<std::size_t>(i)]->name();
}

std::vector<std::string> ShardCluster::ShardNames() const {
  std::vector<std::string> names;
  for (const auto& shard : shards_) names.push_back(shard->name());
  return names;
}

ShardNode* ShardCluster::FindShard(std::string_view name) {
  for (auto& shard : shards_) {
    if (shard->name() == name) return shard.get();
  }
  return nullptr;
}

Status ShardCluster::Start() {
  for (auto& shard : shards_) {
    PISREP_RETURN_IF_ERROR(shard->Start());
  }
  return Status::Ok();
}

void ShardCluster::StopAll() {
  for (auto& shard : shards_) shard->KillPrimary();
}

ShardNode* ShardCluster::OwnerShard(const core::SoftwareId& id) {
  const std::string& owner = ring_.OwnerOf(id);
  ShardNode* node = FindShard(owner);
  PISREP_CHECK(node != nullptr)
      << "ring owner " << owner << " is not a cluster shard";
  return node;
}

Result<core::SoftwareScore> ShardCluster::GetScore(const core::SoftwareId& id) {
  ShardNode* owner = OwnerShard(id);
  if (!owner->primary_alive()) {
    return Status::Unavailable("owning shard's primary is down");
  }
  return owner->server()->registry().GetScore(id);
}

Result<core::VendorScore> ShardCluster::MergedVendorScore(
    const core::VendorId& vendor) {
  // The router's vendor-index merge: same function, same (ring-member)
  // order, so native and routed reads agree exactly.
  std::vector<core::VendorScore> legs;
  for (const std::string& member : ring_.Members()) {
    ShardNode* node = FindShard(member);
    if (node == nullptr || !node->primary_alive()) {
      return Status::Unavailable("shard primary down during vendor merge");
    }
    Result<core::VendorScore> leg =
        node->server()->registry().GetVendorScore(vendor);
    // NotFound: the vendor has no software on this shard.
    if (leg.ok()) legs.push_back(*std::move(leg));
  }
  return core::RatingAggregator::MergeVendor(vendor, legs);
}

std::uint64_t ShardCluster::TotalVotesAccepted() const {
  // Counted from the vote store, not from ReputationServer::stats(): the
  // stats counter is in-memory primary state and resets on promotion, while
  // the store is exactly the replicated data the "no acked vote lost"
  // guarantee is about.
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->server() == nullptr) continue;
    server::VoteStore& votes = shard->server()->votes();
    for (const core::SoftwareId& id : votes.RatedSoftware()) {
      total += votes.VoteCountFor(id);
    }
  }
  return total;
}

void ShardCluster::RunAggregationAll(util::TimePoint now) {
  for (auto& shard : shards_) {
    if (shard->server() != nullptr) {
      shard->server()->aggregation().RunOnce(now);
    }
  }
}

Result<server::ActivationMail> ShardCluster::FetchMail(std::string_view email) {
  // Registration is broadcast, so every shard minted the mail — and with
  // deterministic tokens every copy carries the same token. Shard 0 is the
  // canonical mailbox; later shards cover the case where shard 0 failed
  // over (its mailbox is process state and died with the old primary).
  Status last = Status::Unavailable("no shard primary alive");
  for (auto& shard : shards_) {
    if (!shard->primary_alive()) continue;
    Result<server::ActivationMail> mail = shard->server()->FetchMail(email);
    if (mail.ok()) return mail;
    last = mail.status();
  }
  return last;
}

void ShardCluster::KillPrimary(int i) { shard(i)->KillPrimary(); }

Status ShardCluster::FailoverNode(ShardNode* node) {
  node->KillPrimary();  // fence first — idempotent when already dead
  Status promoted = node->Promote();
  if (promoted.ok()) {
    ++failovers_;
    if (failovers_metric_ != nullptr) failovers_metric_->Increment();
  } else {
    if (failovers_refused_metric_ != nullptr) {
      failovers_refused_metric_->Increment();
    }
  }
  return promoted;
}

Status ShardCluster::TriggerFailover(int i) { return FailoverNode(shard(i)); }

Status ShardCluster::OnGossipDeath(const std::string& name) {
  ShardNode* node = FindShard(name);
  if (node == nullptr) {
    return Status::NotFound("suspected shard already left the cluster");
  }
  if (node->primary_alive()) {
    // The gossip plane lost heartbeats but the primary process is there —
    // a partition, not a crash. In the sim the cluster object stands in
    // for the out-of-band fencing authority (IPMI, the cloud control
    // plane); a primary it can still see is never shot, so a partitioned
    // cluster cannot split-brain.
    return Status::FailedPrecondition("primary is alive; not fencing");
  }
  return FailoverNode(node);
}

Status ShardCluster::ReviveReplica(int i) { return shard(i)->StartReplicas(); }

// ---------------------------------------------------------------------------
// Elastic membership
// ---------------------------------------------------------------------------

Result<std::string> ShardCluster::AddShard() {
  for (auto& shard : shards_) {
    if (!shard->primary_alive()) {
      return Status::Unavailable(
          "cannot reshard while a primary is down: " + shard->name());
    }
  }
  std::string name = config_.name_prefix + std::to_string(next_ordinal_++);
  std::unique_ptr<ShardNode> node = MakeShard(name);
  ShardNode* raw = node.get();
  // Start it *before* joining the ring: until the membership changes the
  // ownership guard redirects every digest-routed request away from it,
  // so a half-seeded newcomer can never serve.
  PISREP_RETURN_IF_ERROR(raw->Start());
  ring_.AddShard(name);
  shards_.push_back(std::move(node));
  // Broadcast tables exist in full on every shard; seed the newcomer's
  // copies (logged, so its replicas follow).
  PISREP_RETURN_IF_ERROR(CopyBroadcastTables(shards_[0].get(), raw));
  // Only the key ranges the ring now assigns to the newcomer move; every
  // other row stays put.
  for (auto& shard : shards_) {
    if (shard.get() == raw) continue;
    PISREP_RETURN_IF_ERROR(MigrateShardData(shard.get()));
  }
  for (auto& shard : shards_) {
    ClearVendorScores(shard.get());
    PISREP_RETURN_IF_ERROR(shard->RestartPrimary());
  }
  ++reshards_;
  if (reshards_metric_ != nullptr) reshards_metric_->Increment();
  PISREP_LOG(kInfo) << "cluster grew to " << shards_.size() << " shards (+"
                    << name << ")";
  return name;
}

Status ShardCluster::RemoveShard(const std::string& name) {
  if (shards_.size() < 2) {
    return Status::FailedPrecondition("cannot remove the last shard");
  }
  ShardNode* node = FindShard(name);
  if (node == nullptr) return Status::NotFound("no such shard: " + name);
  for (auto& shard : shards_) {
    if (!shard->primary_alive()) {
      return Status::Unavailable(
          "cannot reshard while a primary is down: " + shard->name());
    }
  }
  // Leave the ring first: from here OwnerOf never answers `name`, so the
  // migration below drains *everything* digest-routed off the node and
  // new writes land on the inheritors.
  ring_.RemoveShard(name);
  Status migrated = MigrateShardData(node);
  if (!migrated.ok()) {
    ring_.AddShard(name);  // roll the membership back; nothing was torn down
    return migrated;
  }
  for (auto& shard : shards_) {
    if (shard.get() == node) continue;
    ClearVendorScores(shard.get());
    PISREP_RETURN_IF_ERROR(shard->RestartPrimary());
  }
  node->KillPrimary();
  std::erase_if(shards_, [&](const std::unique_ptr<ShardNode>& shard) {
    return shard.get() == node;
  });
  ++reshards_;
  if (reshards_metric_ != nullptr) reshards_metric_->Increment();
  PISREP_LOG(kInfo) << "cluster shrank to " << shards_.size() << " shards (-"
                    << name << ")";
  return Status::Ok();
}

Status ShardCluster::MigrateShardData(ShardNode* source) {
  storage::Database* db = source->db();
  for (const std::string& table_name : db->TableNames()) {
    if (RoutingColumnOf(table_name) == nullptr) continue;
    // Facade access: migration must drain cold rows off the node too.
    auto table = db->GetTiered(table_name);
    if (!table.ok()) continue;
    const storage::TableSchema& schema = (*table)->schema();
    std::size_t pk = schema.primary_key_index();
    // Collect first, move second: mutating a table mid-ForEach is UB.
    std::vector<std::pair<std::string, storage::Row>> moving;
    (*table)->ForEach([&](const storage::Row& row) {
      std::string hex = RoutingHexOf(table_name, schema, row);
      if (hex.empty()) return;
      auto digest = DigestFromHex(hex);
      if (!digest.ok()) return;
      const std::string& owner = ring_.OwnerOf(*digest);
      if (owner == source->name()) return;
      moving.emplace_back(owner, row);
    });
    for (auto& [owner, row] : moving) {
      ShardNode* target = FindShard(owner);
      if (target == nullptr) {
        return Status::Internal("row owner " + owner + " is not a shard");
      }
      auto target_table = target->db()->GetTiered(table_name);
      if (!target_table.ok()) return target_table.status();
      // Logged on both sides: the receivers' and the source's replicas
      // stream the move through ordinary WAL shipping.
      PISREP_RETURN_IF_ERROR((*target_table)->Upsert(row));
      PISREP_RETURN_IF_ERROR((*table)->Delete(row[pk]));
      ++migrated_rows_;
      if (migrated_rows_metric_ != nullptr) migrated_rows_metric_->Increment();
    }
  }
  return Status::Ok();
}

Status ShardCluster::CopyBroadcastTables(ShardNode* from, ShardNode* to) {
  for (const char* table_name : {"users", "activations", "feeds"}) {
    auto source = from->db()->GetTiered(table_name);
    if (!source.ok()) continue;  // feature not enabled on this deployment
    auto target = to->db()->GetTiered(table_name);
    if (!target.ok()) return target.status();
    std::vector<storage::Row> rows;
    (*source)->ForEach([&](const storage::Row& row) { rows.push_back(row); });
    for (storage::Row& row : rows) {
      PISREP_RETURN_IF_ERROR((*target)->Upsert(std::move(row)));
    }
  }
  return Status::Ok();
}

void ShardCluster::ClearVendorScores(ShardNode* node) {
  auto table = node->db()->GetTiered("vendor_scores");
  if (!table.ok()) return;
  std::size_t pk = (*table)->schema().primary_key_index();
  std::vector<storage::Value> keys;
  (*table)->ForEach(
      [&](const storage::Row& row) { keys.push_back(row[pk]); });
  for (const storage::Value& key : keys) {
    Status deleted = (*table)->Delete(key);
    PISREP_CHECK(deleted.ok()) << "vendor score delete cannot fail";
  }
}

}  // namespace pisrep::cluster
