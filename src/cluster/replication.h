#ifndef PISREP_CLUSTER_REPLICATION_H_
#define PISREP_CLUSTER_REPLICATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/rpc.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "util/clock.h"
#include "util/status.h"

namespace pisrep::cluster {

// Replication-plane RPC method names (registered on ReplicaNodes).
inline constexpr std::string_view kReplicateMethod = "ShardReplicate";
inline constexpr std::string_view kReplicaStatusMethod = "ShardReplicaStatus";
inline constexpr std::string_view kReplicaDigestMethod = "ShardReplicaDigest";

/// Network address of replica k (1-based, k < replication_factor) of shard
/// `shard`. Replica addresses are a pure function of the shard name, so
/// the replica nodes and the shipper agree without coordination.
std::string ReplicaAddress(const std::string& shard, int k);

/// Tuning for one shard's primary→replicas replication fan-out.
struct ReplicationConfig {
  /// Total copies of the shard's data including the primary (R). The shard
  /// stands up replication_factor - 1 ReplicaNodes behind its primary.
  int replication_factor = 2;
  /// Copies — counting the primary's own WAL — that must hold a record
  /// before its gated response is released (W of R). Clamped to
  /// [1, replication_factor]; 1 releases every response at once
  /// (asynchronous replication). Degraded channels shrink the *effective*
  /// quorum so a dead replica cannot wedge the shard, with every such
  /// under-quorum release counted as a degraded ack.
  int write_quorum = 2;
};

/// The primary's in-memory, sequence-numbered record of WAL frames not yet
/// known to be applied by every replica. Appending past `max_records` drops
/// the oldest entries (lagging channels then fall back to snapshot resync).
class ReplicationLog {
 public:
  explicit ReplicationLog(std::size_t max_records)
      : max_records_(max_records) {}

  /// Appends a frame and returns its sequence number (1-based).
  std::uint64_t Append(std::string frame);

  /// Seq of the newest record, 0 when none was ever appended.
  std::uint64_t head_seq() const { return head_seq_; }
  /// Seq of the oldest *retained* record minus one: the log can replay
  /// (base_seq, head_seq]. base_seq == head_seq means empty.
  std::uint64_t base_seq() const { return base_seq_; }
  std::size_t size() const { return frames_.size(); }

  /// Collects up to `max_batch` frames with seq > after, in order. Returns
  /// false when `after` < base_seq (the span was already dropped).
  bool CollectAfter(std::uint64_t after, std::size_t max_batch,
                    std::vector<std::pair<std::uint64_t, std::string>>* out)
      const;

  /// Drops records with seq <= upto (every channel has them).
  void PruneThrough(std::uint64_t upto);

  /// Drops every retained record but keeps the sequence counter running.
  void Clear();

 private:
  std::size_t max_records_;
  std::uint64_t head_seq_ = 0;
  std::uint64_t base_seq_ = 0;
  std::deque<std::string> frames_;  ///< frames_ [i] has seq base_seq_+1+i
};

/// One standby copy of a shard: a raw replicated Database behind an RPC
/// endpoint. It is deliberately *not* a ReputationServer — in-memory server
/// state (sessions, caches) cannot be log-shipped; on promotion a fresh
/// ReputationServer is constructed over the replicated database and rebuilds
/// those from tables, exactly like a process restart would.
class ReplicaNode {
 public:
  /// Produces the node's backing database — at construction and on every
  /// snapshot reset. Must yield an *empty* database: a tiered factory
  /// (backup at flat memory, DESIGN.md §15) has to clear its WAL and cold
  /// block file before opening, or the reset would replay stale rows
  /// under the incoming snapshot.
  using DatabaseFactory =
      std::function<util::Result<std::unique_ptr<storage::Database>>()>;

  /// The network must outlive the node. The default factory opens a plain
  /// in-memory database.
  ReplicaNode(net::SimNetwork* network, std::string address);
  ReplicaNode(net::SimNetwork* network, std::string address,
              DatabaseFactory factory);

  /// Binds the replication endpoints.
  util::Status Start();

  const std::string& address() const { return address_; }

  /// Highest WAL sequence applied (acked to the primary).
  std::uint64_t applied_seq() const { return applied_seq_; }

  /// True when the node knows it is missing records (it observed a gap or
  /// failed an apply) and has not yet been re-seeded by a snapshot. A
  /// stale replica refuses promotion.
  bool stale() const { return stale_; }

  std::uint64_t resets() const { return resets_; }

  storage::Database* db() { return db_.get(); }

  /// Unbinds the endpoint and releases the database — the promotion
  /// handoff. The node is inert afterwards.
  std::unique_ptr<storage::Database> Detach();

 private:
  util::Result<xml::XmlNode> HandleReplicate(const xml::XmlNode& request);

  net::SimNetwork* network_;
  std::string address_;
  DatabaseFactory factory_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<net::RpcServer> rpc_;
  std::uint64_t applied_seq_ = 0;
  bool stale_ = false;
  std::uint64_t resets_ = 0;
};

/// The primary half of the replication plane: exports the primary
/// database's WAL frames into one shared ReplicationLog, ships them to
/// every replica over an independent per-replica channel with its own
/// acked sequence number, gates client responses on a configurable write
/// quorum (W of R), and re-seeds any channel that fell behind the bounded
/// log — or was force-resynced by anti-entropy — with an out-of-band
/// full snapshot.
class ReplicationShipper {
 public:
  /// `primary_db` must outlive the shipper; the shipper owns the database's
  /// frame listener while alive. One RPC client per channel is bound at
  /// `client_address` + "#k". `shard_label` tags the metrics.
  ReplicationShipper(net::SimNetwork* network, net::EventLoop* loop,
                     std::string client_address,
                     std::vector<std::string> replica_addresses,
                     storage::Database* primary_db, ReplicationConfig config,
                     obs::MetricsRegistry* metrics, std::string shard_label);
  ~ReplicationShipper();

  ReplicationShipper(const ReplicationShipper&) = delete;
  ReplicationShipper& operator=(const ReplicationShipper&) = delete;

  /// Binds the shipping clients and installs the frame listener. Every
  /// channel starts reset-pending: its first shipment is a full snapshot,
  /// which bootstraps brand-new empty replicas and re-seeds fresh ones
  /// after a promotion alike.
  util::Status Start();

  /// The RpcServer response gate: a response whose handler advanced the
  /// WAL is held until `write_quorum` copies (primary included) hold those
  /// records. Degraded channels neither count nor block — a release below
  /// the configured quorum is a degraded ack. Reads pass through untouched.
  void GateResponse(const std::string& method, std::function<void()> send);

  std::uint64_t head_seq() const { return log_.head_seq(); }
  /// Lowest acked seq across channels (head_seq when there are none) —
  /// everything at or below this is on every replica.
  std::uint64_t acked_seq() const;
  /// Records the slowest replica has not confirmed yet.
  std::uint64_t lag_records() const { return head_seq() - acked_seq(); }
  /// True while any channel is degraded.
  bool degraded() const;
  /// Client responses released below the configured write quorum.
  std::uint64_t degraded_acks() const { return degraded_acks_; }
  std::uint64_t resyncs() const { return resyncs_; }

  int replica_count() const { return static_cast<int>(channels_.size()); }
  const std::string& replica_address(int k) const;
  /// True when channel k holds everything the primary logged (and no
  /// snapshot is pending) — the precondition for digest comparison.
  bool channel_caught_up(int k) const;

  /// Schedules a full snapshot re-seed of channel k (anti-entropy calls
  /// this on detected divergence). No-op on a fenced
  /// channel: a replica with a diverged audit chain is evidence, not a
  /// sync bug, and must never be quietly repaired back into the quorum.
  void ForceResync(int k);

  /// Fences channel k: the replica's tamper-evident audit chain diverged
  /// from the primary's, so its copy can no longer be trusted. A fenced
  /// channel ships nothing, counts toward no quorum, and stays fenced
  /// until the replica is replaced (ReviveChannel). Idempotent.
  void FenceChannel(int k);
  bool channel_fenced(int k) const;
  std::uint64_t fences() const { return fences_; }
  /// Invoked (once per fence) with the channel ordinal; the shard node
  /// uses this to remember fenced replicas across a primary crash, when
  /// the shipper itself is torn down.
  void set_fence_listener(std::function<void(int)> listener) {
    fence_listener_ = std::move(listener);
  }

  /// Re-arms channel k after its replica was replaced by a fresh, empty
  /// node: forgets the old ack position, clears degradation, snapshots.
  void ReviveChannel(int k);

  /// Kicks every channel's shipping loop (idempotent).
  void Pump();

 private:
  struct Channel {
    std::string address;
    std::unique_ptr<net::RpcClient> rpc;
    std::uint64_t acked = 0;
    bool in_flight = false;
    bool retry_scheduled = false;
    int failures = 0;
    bool degraded = false;
    /// The replica's audit chain diverged: quarantined, never resynced.
    bool fenced = false;
    /// The next shipment is a full snapshot (initially true: the replica
    /// starts empty, whatever the primary's history says).
    bool reset_pending = true;
    /// head_seq at the last snapshot export: the pending snapshot covers
    /// everything through this seq, so the log only needs to retain
    /// records after it for this channel.
    std::uint64_t reset_floor = 0;
  };

  void OnFrame(const std::string& frame);
  void PumpChannel(std::size_t k);
  void SendSnapshot(std::size_t k);
  void HandleShipResult(std::size_t k, bool was_reset,
                        util::Result<xml::XmlNode> result);
  /// Copies (primary + healthy channels) holding records through `seq`.
  int CopiesHolding(std::uint64_t seq) const;
  int ConfiguredQuorum() const;
  /// Configured quorum shrunk to the healthy copy count.
  int EffectiveQuorum() const;
  void CheckGates();
  void EnterDegraded(Channel& channel);
  void LeaveDegraded(Channel& channel);
  void PruneLog();
  void MarkResyncPending(Channel& channel);
  void UpdateGauges();

  net::SimNetwork* network_;
  net::EventLoop* loop_;
  storage::Database* db_;
  ReplicationConfig config_;
  std::vector<Channel> channels_;
  ReplicationLog log_;
  std::uint64_t degraded_acks_ = 0;
  std::uint64_t resyncs_ = 0;
  std::uint64_t fences_ = 0;
  std::function<void(int)> fence_listener_;
  /// (required seq, send closure), FIFO per seq.
  std::deque<std::pair<std::uint64_t, std::function<void()>>> gates_;
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);

  obs::Gauge* lag_gauge_ = nullptr;
  obs::Gauge* degraded_gauge_ = nullptr;
  obs::Counter* shipped_metric_ = nullptr;
  obs::Counter* resyncs_metric_ = nullptr;
  obs::Counter* degraded_acks_metric_ = nullptr;
  obs::Counter* fences_metric_ = nullptr;
};

}  // namespace pisrep::cluster

#endif  // PISREP_CLUSTER_REPLICATION_H_
