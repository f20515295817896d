#ifndef PISREP_CLUSTER_ROUTER_H_
#define PISREP_CLUSTER_ROUTER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/hash_ring.h"
#include "core/types.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/binary_codec.h"
#include "util/random.h"
#include "util/status.h"

namespace pisrep::cluster {

/// True for the methods routed by software digest (the rest are account
/// broadcasts, QueryVendor, or cluster-internal).
bool IsDigestRoutedMethod(const std::string& method);

/// The software digest a digest-routed request routes on; failure when the
/// request carries none (or a malformed one). Shared by the router (to
/// pick the owning shard) and the shard-side ownership guard (to verify
/// it).
util::Result<util::Sha1Digest> RoutingDigestOf(const std::string& method,
                                               const xml::XmlNode& request);

/// Router settings.
struct RouterConfig {
  /// The address the router binds — clients talk to it exactly as they
  /// would to a single server ("server" in the sim).
  std::string service_address = "server";
  /// Seed for the router's puzzle-nonce stream.
  std::uint64_t nonce_seed = 0x9047e5;
};

/// The client-facing front door of the cluster (and, pointed at by a
/// ClientApp, its drop-in replacement for a single server address).
///
/// The router is deliberately *not* an RpcServer — RpcServer handlers are
/// synchronous, and a proxy must suspend a request while the upstream call
/// is in flight. It binds the service address directly on the SimNetwork,
/// parses the request envelope, and re-envelopes the upstream response
/// under the original request id.
///
/// Three routing planes:
///  - digest plane (QuerySoftware, SubmitRating, ReportExecutions,
///    QueryFeed, SubmitRemark): forwarded to the ring owner of the
///    software digest; `ownership-moved` redirects are chased.
///  - account plane (RequestPuzzle, Register, Activate, Login): broadcast
///    to every shard through per-shard FIFO pipelines — every shard
///    observes the same account operations in the same global order, so
///    account state converges on all shards. A downed shard defers its
///    pipeline (bounded retries), it never blocks the others.
///  - vendor-index plane: the vendor scores in QuerySoftware and
///    QueryVendor answers come from one index merged from every shard's
///    published vendor table, so a routed lookup costs one upstream call.
///    The index is re-pulled from every shard in one round when a shard's
///    version stamp or the membership changes, before the reply that
///    revealed the change is answered.
///
/// SubmitRemark is a hybrid: the remark itself lives with the software
/// owner (which validates it), and on success the trust-factor side effect
/// is propagated to the other shards through the ordered pipelines
/// (ClusterApplyRemark), since every shard weighs its own votes by the
/// author's trust at aggregation time.
class Router {
 public:
  /// The network and loop must outlive the router. `metrics` and `tracer`
  /// may be null.
  Router(net::SimNetwork* network, net::EventLoop* loop, RouterConfig config,
         obs::MetricsRegistry* metrics, obs::Tracer* tracer);
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Binds the service and upstream addresses.
  util::Status Start();

  /// Shard membership. A shard's ring name IS its network service address.
  void AddShard(const std::string& name);
  void RemoveShard(const std::string& name);

  const HashRing& ring() const { return ring_; }
  /// Replaces the ring wholesale — tests use this to induce ownership skew
  /// (router believes one mapping, shards another) and exercise the
  /// ownership-moved redirect path.
  void SetRing(HashRing ring) { ring_ = std::move(ring); }

  std::uint64_t requests() const { return requests_; }
  std::uint64_t redirects_followed() const { return redirects_followed_; }
  /// Completed vendor-index rounds (every shard answered).
  std::uint64_t vendor_index_refreshes() const {
    return vendor_index_refreshes_;
  }

 private:
  /// One client-visible broadcast operation, fanned into N pipeline legs.
  struct BroadcastOp {
    std::string client;
    std::string id;
    int pending = 0;
    /// The membership snapshot the op fanned out to — legs are judged
    /// against the *current* ring when the op completes, so a shard
    /// evicted mid-broadcast cannot fail the whole op.
    std::vector<std::string> shards;
    std::vector<std::optional<util::Result<xml::XmlNode>>> results;
  };

  /// One queued call in a shard's FIFO pipeline: either a leg of a
  /// BroadcastOp, or a fire-and-forget effect (ClusterApplyRemark).
  struct PipelineItem {
    std::string method;
    xml::XmlNode request;
    std::shared_ptr<BroadcastOp> op;  ///< null for effect items
    int shard_index = 0;              ///< index into op->results
    int attempts_left = 0;
  };

  struct Pipeline {
    std::deque<PipelineItem> queue;
    bool busy = false;
  };

  /// Cluster-wide vendor scores merged from one complete round of every
  /// member's published vendor table. Immutable once published: a reply
  /// answers from the index it was handed, and a round replaces the whole
  /// index.
  struct VendorIndex {
    /// The members the round pulled (ring order) and the table version
    /// each one reported.
    std::vector<std::string> members;
    std::vector<std::string> versions;
    /// Vendor name → the merged <vendor name score count/> node.
    std::unordered_map<std::string, xml::XmlNode> vendors;

    /// The merged node for `vendor`, or null.
    const xml::XmlNode* Find(const std::string& vendor) const {
      auto it = vendors.find(vendor);
      return it == vendors.end() ? nullptr : &it->second;
    }
  };
  /// The index a waiting reply answers from: the round's, the previous
  /// one after a failed round when it still covers the ring (null when
  /// none was ever built), or the failed leg's status.
  using IndexWaiter =
      std::function<void(const util::Result<const VendorIndex*>&)>;
  /// A QueryVendorIndex round in flight and the replies waiting for it.
  struct VendorRound {
    std::vector<std::string> members;
    std::vector<std::optional<util::Result<xml::XmlNode>>> legs;
    int pending = 0;
    std::vector<IndexWaiter> waiters;
  };

  void HandleMessage(const net::Message& message);
  void Reply(const std::string& client, const std::string& id,
             util::Result<xml::XmlNode> result);
  void ReplyError(const std::string& client, const std::string& id,
                  const util::Status& error);

  /// Digest plane.
  void RouteByDigest(const net::Message& message, const xml::XmlNode& request,
                     const std::string& method, const std::string& id);
  void ForwardTo(const std::string& shard, const std::string& method,
                 xml::XmlNode request, const std::string& client,
                 const std::string& id, int redirects_left);

  /// Account plane.
  void Broadcast(const net::Message& message, xml::XmlNode request,
                 const std::string& method, const std::string& id);
  void EnqueueEffect(const std::string& shard, const std::string& method,
                     xml::XmlNode request);
  void PumpShard(const std::string& shard);
  void IssueHead(const std::string& shard);
  void FinishBroadcastOp(const std::shared_ptr<BroadcastOp>& op);

  /// Vendor-index plane. Hands `done` the index a reply from `shard`,
  /// stamped `stamp` (empty: the shard's NotFound carried none), answers
  /// from: at once when no round is in flight and the index is current,
  /// otherwise after the round in flight, starting one if none is.
  void WithVendorIndex(const std::string& shard, const std::string& stamp,
                       const std::string& vendor, IndexWaiter done);
  /// True when the index covers the ring and `stamp` is the version it
  /// recorded for `shard` (without a stamp: when it knows `vendor`).
  bool IndexIsCurrent(const std::string& shard, const std::string& stamp,
                      const std::string& vendor) const;
  bool CoversRing(const VendorIndex& index) const;
  void FinishVendorRound(VendorRound& round);

  obs::Counter* ShardRequestCounter(const std::string& shard);

  net::SimNetwork* network_;
  net::EventLoop* loop_;
  RouterConfig config_;
  net::RpcClient rpc_;  ///< upstream half, bound at service_address + "!up"
  HashRing ring_;
  util::Rng nonce_rng_;
  std::unordered_map<std::string, Pipeline> pipelines_;
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);

  std::uint64_t requests_ = 0;
  std::uint64_t redirects_followed_ = 0;
  std::uint64_t vendor_index_refreshes_ = 0;

  /// The merged index (null until the first complete round) and the round
  /// in flight (null when none is; at most one at a time).
  std::unique_ptr<const VendorIndex> vendor_index_;
  std::shared_ptr<VendorRound> vendor_round_;
  /// The codec each client last spoke; replies go back in kind. XML when
  /// a client has never been seen (defensive — every reply follows a
  /// request, which records the codec first).
  std::unordered_map<std::string, proto::WireCodec> client_codecs_;

  obs::MetricsRegistry* metrics_ = nullptr;
  std::unordered_map<std::string, obs::Counter*> shard_counters_;
  obs::Counter* broadcast_ops_metric_ = nullptr;
  obs::Counter* ownership_moved_metric_ = nullptr;
  obs::Counter* effect_failures_metric_ = nullptr;
  obs::Counter* binary_requests_metric_ = nullptr;
  obs::Counter* vendor_index_refreshes_metric_ = nullptr;
};

}  // namespace pisrep::cluster

#endif  // PISREP_CLUSTER_ROUTER_H_
