#ifndef PISREP_CLUSTER_GOSSIP_H_
#define PISREP_CLUSTER_GOSSIP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "cluster/hash_ring.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "util/clock.h"
#include "util/status.h"

namespace pisrep::cluster {

/// Gossip-plane RPC method, registered on every primary's RpcServer and
/// exempt from the replication response gate (membership chatter must keep
/// flowing while writes are blocked on a quorum).
inline constexpr std::string_view kGossipMethod = "ClusterGossip";

/// Tuning for the decentralized membership / failure-detection plane.
struct GossipConfig {
  bool enabled = true;
  /// Interval between gossip rounds (one digest exchange per round).
  util::Duration period = 2 * util::kSecond;
  /// A peer whose heartbeat has not advanced for this long is suspected
  /// dead; the designated successor then tries to fence and promote it.
  util::Duration suspicion_timeout = 6 * util::kSecond;
};

/// One shard's view of the gossip plane: a monotone heartbeat for itself,
/// the highest heartbeat heard for every peer, and when that last advanced.
///
/// Every round the agent bumps its own heartbeat and push-pulls digests
/// with one peer (round-robin over the sorted ring membership), so
/// liveness information spreads transitively without any central
/// controller. A peer silent past `suspicion_timeout` is suspected; the
/// *designated executor* — the first non-suspected successor of the dead
/// shard on the ring, so exactly one survivor acts — invokes the dead
/// callback, which fences the old primary and promotes its most-caught-up
/// replica. The callback may refuse (e.g. the primary is reachable from
/// the cluster's side — a partition, not a crash); either way the
/// suspicion clock rearms, retrying only after another full timeout.
///
/// Heartbeats are seeded with the sim clock at Start, not zero: a restarted
/// primary's first heartbeat then always exceeds whatever its previous
/// incarnation gossiped (time grows faster than one tick per round), so
/// recovery is visible to peers immediately.
class GossipAgent {
 public:
  /// Attempts fencing + promotion of a suspected-dead shard. Returns an
  /// error to refuse (suspicion rearms either way).
  using DeadCallback = std::function<util::Status(const std::string&)>;

  /// `ring` reflects current membership and must outlive the agent, as
  /// must the network and loop.
  GossipAgent(net::SimNetwork* network, net::EventLoop* loop,
              std::string self, const HashRing* ring, GossipConfig config,
              obs::MetricsRegistry* metrics, DeadCallback on_dead);

  GossipAgent(const GossipAgent&) = delete;
  GossipAgent& operator=(const GossipAgent&) = delete;

  /// Seeds the heartbeat, binds the gossip client and schedules the first
  /// round.
  util::Status Start();

  /// Registers the gossip handler on the shard's RPC server (merge the
  /// caller's digest, answer with our own).
  void AttachRpc(net::RpcServer* server);

  std::uint64_t heartbeat() const { return heartbeat_; }
  std::uint64_t rounds() const { return rounds_; }

  /// True when `peer`'s heartbeat has been silent past the suspicion
  /// timeout in this agent's local view.
  bool Suspects(const std::string& peer) const;

 private:
  struct PeerState {
    std::uint64_t heartbeat = 0;
    util::TimePoint last_advance = 0;
  };

  xml::XmlNode BuildDigest() const;
  void MergeDigest(const xml::XmlNode& digest);
  void ScheduleRound();
  void RunRound();
  void CheckSuspicions();

  net::SimNetwork* network_;
  net::EventLoop* loop_;
  std::string self_;
  const HashRing* ring_;
  GossipConfig config_;
  DeadCallback on_dead_;
  std::unique_ptr<net::RpcClient> client_;

  std::uint64_t heartbeat_ = 0;
  std::uint64_t rounds_ = 0;
  std::size_t next_peer_ = 0;
  /// Sorted so suspicion checks walk peers in a deterministic order.
  std::map<std::string, PeerState> peers_;
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);

  obs::Counter* rounds_metric_ = nullptr;
  obs::Counter* suspicions_metric_ = nullptr;
};

}  // namespace pisrep::cluster

#endif  // PISREP_CLUSTER_GOSSIP_H_
