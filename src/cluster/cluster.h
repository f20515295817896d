#ifndef PISREP_CLUSTER_CLUSTER_H_
#define PISREP_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/anti_entropy.h"
#include "cluster/gossip.h"
#include "cluster/hash_ring.h"
#include "cluster/replication.h"
#include "core/types.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "server/reputation_server.h"
#include "storage/database.h"
#include "util/status.h"

namespace pisrep::cluster {

/// Method name of the cluster-internal trust-propagation call (the router
/// fans a validated remark's trust effect to the non-owning shards).
inline constexpr std::string_view kApplyRemarkMethod = "ClusterApplyRemark";
/// Method name of the liveness probe (tests and operators; the failure
/// detector proper is the gossip plane).
inline constexpr std::string_view kPingMethod = "ClusterPing";

struct ClusterConfig {
  int num_shards = 2;
  /// Shard i's service address is "<name_prefix><i>" — stable across
  /// failovers, which is what makes promotion transparent to the router.
  /// Shards added later continue the ordinal sequence.
  std::string name_prefix = "shard";
  /// Template for every shard's server. `accounts.deterministic_tokens` is
  /// forced on — cluster sessions and activation tokens must validate on
  /// every shard and survive a failover.
  server::ReputationServer::Config server;
  /// R/W tuning: each shard keeps replication.replication_factor - 1
  /// ReplicaNodes behind its primary and acks writes at
  /// replication.write_quorum copies.
  ReplicationConfig replication;
  /// Decentralized failure detection: every primary gossips heartbeats;
  /// the designated survivor fences a silent peer and promotes its best
  /// replica. Disable for tests that drive TriggerFailover manually (the
  /// event loop can then drain).
  GossipConfig gossip;
  /// Background digest comparison between primary and caught-up replicas,
  /// repairing silent divergence with a forced snapshot resync.
  AntiEntropyConfig anti_entropy;
};

/// One shard: a primary ReputationServer over an in-memory database and
/// R-1 warm replicas (ReplicaNode) fed by quorum-acknowledged WAL
/// shipping, plus the promote-on-failure lifecycle. The service address
/// never changes; which process answers it does.
class ShardNode {
 public:
  /// `ring` is the cluster's authoritative ownership map (used by the
  /// ownership guard and the gossip executor election); it must outlive
  /// the node, as must `network` and `loop`. `on_dead` is invoked when
  /// this shard's gossip agent is the designated executor for a
  /// suspected-dead peer.
  ShardNode(net::SimNetwork* network, net::EventLoop* loop, std::string name,
            server::ReputationServer::Config server_config,
            ReplicationConfig replication, const HashRing* ring,
            GossipConfig gossip, AntiEntropyConfig anti_entropy,
            GossipAgent::DeadCallback on_dead);
  ~ShardNode();

  ShardNode(const ShardNode&) = delete;
  ShardNode& operator=(const ShardNode&) = delete;

  /// Starts the primary, the replicas, and the replication fan-out.
  util::Status Start();

  const std::string& name() const { return name_; }
  /// The live primary, or null between KillPrimary and Promote.
  server::ReputationServer* server() { return server_.get(); }
  bool primary_alive() const { return server_ != nullptr; }
  storage::Database* db() { return db_.get(); }
  /// Replica k (0-based, k < replica_count()); null while crashed.
  ReplicaNode* replica(int k) {
    return replicas_[static_cast<std::size_t>(k)].get();
  }
  int replica_count() const { return static_cast<int>(replicas_.size()); }
  ReplicationShipper* shipper() { return shipper_.get(); }
  GossipAgent* gossip() { return gossip_.get(); }
  AntiEntropyAgent* anti_entropy() { return anti_entropy_.get(); }

  /// Fences the primary: unbinds its RPC endpoint, stops the gossip and
  /// anti-entropy agents and tears down the replication fan-out. The
  /// replicas stay up — they hold the shard's surviving copies. Simulates
  /// a crash; idempotent.
  void KillPrimary();

  /// Simulated crash of replica k: endpoint and in-memory database die.
  void KillReplica(int k);

  /// Promotes the most-caught-up non-stale replica into a fresh primary
  /// at the same address, then rebuilds the full replica set behind it
  /// (snapshot resync). Refuses when no replica is promotable — a replica
  /// that knows it is missing acked records must never serve.
  util::Status Promote();

  /// (Re)creates any missing replicas and the shipper — the bootstrap on
  /// Start, the rebuild after Promote, and the revive path after
  /// KillReplica alike.
  util::Status StartReplicas();

  /// Bounces the primary *process* while keeping the database and the
  /// replication fan-out: sessions and caches are rebuilt from tables,
  /// exactly like a process restart. Resharding uses this after bulk row
  /// migration so derived in-memory state (id sequences, score caches)
  /// reflects the moved rows.
  util::Status RestartPrimary();

  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t promotions_refused() const { return promotions_refused_; }
  /// True when replica k was fenced for audit-chain divergence. Remembered
  /// on the node (not just the shipper) so a fenced replica still cannot
  /// be promoted after the primary — and with it the shipper — crashed.
  bool replica_fenced(int k) const {
    return static_cast<std::size_t>(k) < replica_fenced_.size() &&
           replica_fenced_[static_cast<std::size_t>(k)];
  }

 private:
  util::Status StartPrimary();
  /// Registers ClusterPing and ClusterApplyRemark, wraps every
  /// digest-routed method in the ownership guard, and stamps QuerySoftware
  /// and QueryVendor answers with the published vendor-table version.
  void InstallClusterMethods();
  void InstallResponseGate();

  net::SimNetwork* network_;
  net::EventLoop* loop_;
  std::string name_;
  server::ReputationServer::Config server_config_;
  ReplicationConfig replication_;
  const HashRing* ring_;
  GossipConfig gossip_config_;
  AntiEntropyConfig anti_entropy_config_;
  GossipAgent::DeadCallback on_dead_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::ReputationServer> server_;
  std::vector<std::unique_ptr<ReplicaNode>> replicas_;
  /// Parallel to replicas_: audit-fence verdicts, surviving shipper
  /// teardown (KillPrimary) so Promote can honor them.
  std::vector<bool> replica_fenced_;
  std::unique_ptr<ReplicationShipper> shipper_;
  std::unique_ptr<GossipAgent> gossip_;
  std::unique_ptr<AntiEntropyAgent> anti_entropy_;
  std::uint64_t promotions_ = 0;
  std::uint64_t promotions_refused_ = 0;
};

/// The elastic shard fleet. Deliberately router-free: the Router is a
/// separate front-door component (sims run both; unit tests can run a
/// cluster without one). Failure detection is decentralized — the shards'
/// gossip agents suspect silent peers and call back into OnGossipDeath,
/// which fences and promotes; there is no central heartbeat controller.
class ShardCluster {
 public:
  ShardCluster(net::SimNetwork* network, net::EventLoop* loop,
               ClusterConfig config);
  ~ShardCluster();

  ShardCluster(const ShardCluster&) = delete;
  ShardCluster& operator=(const ShardCluster&) = delete;

  /// Starts every shard (gossip and anti-entropy included when enabled).
  util::Status Start();

  /// Fences every primary.
  void StopAll();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  std::string ShardName(int i) const;
  std::vector<std::string> ShardNames() const;
  ShardNode* shard(int i) { return shards_[static_cast<std::size_t>(i)].get(); }
  /// The shard named `name`, or null.
  ShardNode* FindShard(std::string_view name);
  /// Shard i's primary (null while failed over).
  server::ReputationServer* primary(int i) { return shard(i)->server(); }
  const HashRing& ring() const { return ring_; }

  /// The shard owning `id` under the cluster's ring.
  ShardNode* OwnerShard(const core::SoftwareId& id);

  // ------------------------------------------------------------------
  // Native cross-shard reads (tests, web portal, benches) — full
  // precision, no RPC hop.
  // ------------------------------------------------------------------

  util::Result<core::SoftwareScore> GetScore(const core::SoftwareId& id);
  /// Software-count-weighted merge of the per-shard vendor means, in
  /// ring-member order through core::RatingAggregator::MergeVendor, as the
  /// router's vendor index merges the shards' exact partials.
  util::Result<core::VendorScore> MergedVendorScore(
      const core::VendorId& vendor);
  std::uint64_t TotalVotesAccepted() const;

  /// Runs one aggregation pass on every live shard, in shard order.
  void RunAggregationAll(util::TimePoint now);

  /// Activation mail is broadcast-registered on every shard; shard 0's
  /// mailbox is the canonical copy, with the other shards' (identical,
  /// thanks to deterministic tokens) copies as fallback after a failover.
  util::Result<server::ActivationMail> FetchMail(std::string_view email);

  // ------------------------------------------------------------------
  // Failure control
  // ------------------------------------------------------------------

  /// Simulated crash of shard i's primary.
  void KillPrimary(int i);
  /// Manual failover (fence + promote + rebuild replicas); the gossip
  /// executor drives the same path when a peer goes silent.
  util::Status TriggerFailover(int i);
  util::Status ReviveReplica(int i);

  /// The gossip dead-callback: fences `name` and promotes its best
  /// replica. Refuses when the primary is in fact alive (a partition, not
  /// a crash — in the sim the cluster object is the out-of-band fencing
  /// authority, so a reachable primary is never shot).
  util::Status OnGossipDeath(const std::string& name);

  std::uint64_t failovers() const { return failovers_; }

  // ------------------------------------------------------------------
  // Elastic membership (live resharding)
  // ------------------------------------------------------------------

  /// Adds a shard under traffic: starts it, joins it to the ring, copies
  /// the broadcast tables, migrates exactly the key ranges the ring now
  /// assigns to it (replicas follow via WAL shipping) and bounces every
  /// primary so derived in-memory state reflects the move. Returns the
  /// new shard's name. Requires every current primary alive.
  util::Result<std::string> AddShard();

  /// Removes shard `name` under traffic: leaves the ring first, migrates
  /// every row it held to the new owners, then tears the node down.
  util::Status RemoveShard(const std::string& name);

  std::uint64_t reshards() const { return reshards_; }
  std::uint64_t migrated_rows() const { return migrated_rows_; }

 private:
  std::unique_ptr<ShardNode> MakeShard(const std::string& name);
  util::Status FailoverNode(ShardNode* node);
  /// Moves every digest-routed row on `source` whose ring owner is no
  /// longer `source` to its owner, via logged ops on both sides (so the
  /// replicas of both shards follow along).
  util::Status MigrateShardData(ShardNode* source);
  /// Seeds a new shard's copies of the broadcast tables (users,
  /// activations, feeds) from an existing shard, via logged upserts.
  util::Status CopyBroadcastTables(ShardNode* from, ShardNode* to);
  /// Drops the per-vendor partial aggregates (logged); the next full
  /// aggregation sweep rebuilds them from the post-move software set.
  void ClearVendorScores(ShardNode* node);

  net::SimNetwork* network_;
  net::EventLoop* loop_;
  ClusterConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<ShardNode>> shards_;
  int next_ordinal_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t reshards_ = 0;
  std::uint64_t migrated_rows_ = 0;

  obs::Counter* failovers_metric_ = nullptr;
  obs::Counter* failovers_refused_metric_ = nullptr;
  obs::Counter* reshards_metric_ = nullptr;
  obs::Counter* migrated_rows_metric_ = nullptr;
};

}  // namespace pisrep::cluster

#endif  // PISREP_CLUSTER_CLUSTER_H_
