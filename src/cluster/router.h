#ifndef PISREP_CLUSTER_ROUTER_H_
#define PISREP_CLUSTER_ROUTER_H_

#include <atomic>
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
#include "util/atomic_shared_ptr.h"
#include "util/random.h"
#include "util/status.h"

namespace pisrep::cluster {

/// True for the methods routed by software digest (the rest are account
/// broadcasts, scatters, or cluster-internal).
bool IsDigestRoutedMethod(const std::string& method);

/// The software digest a digest-routed request routes on; failure when the
/// request carries none (or a malformed one). Shared by the router (to
/// pick the owning shard) and the shard-side ownership guard (to verify
/// it).
util::Result<util::Sha1Digest> RoutingDigestOf(const std::string& method,
                                               const xml::XmlNode& request);

/// Router tuning.
struct RouterConfig {
  /// The address the router binds — clients talk to it exactly as they
  /// would to a single server ("server" in the sim).
  std::string service_address = "server";
  int vnodes_per_shard = 64;
  /// Per-forwarded-call RPC timeout.
  util::Duration call_timeout = 5 * util::kSecond;
  /// A broadcast leg to an unreachable shard is retried this many times
  /// (deferred retry: it holds that shard's pipeline, never the others) —
  /// sized to ride out a failover detection + promotion cycle.
  int leg_attempts = 5;
  util::Duration leg_retry_delay = 2 * util::kSecond;
  /// Ownership-moved redirects followed per request.
  int max_redirects = 3;
  /// Seed for the router's puzzle-nonce stream.
  std::uint64_t nonce_seed = 0x9047e5;
  /// Period of the vendor-index refresh. 0 keeps the historical per-query
  /// QueryVendor scatter for QuerySoftware vendor-score rewrites; > 0
  /// pulls each shard's snapshot-published vendor aggregates
  /// (QueryVendorIndex) every period, merges them into an immutable index
  /// published by one atomic pointer swap, and rewrites vendor scores from
  /// that index with no per-query fan-out. Vendors absent from the index
  /// (fresh vendor, shard mid-restart) fall back to the scatter.
  util::Duration vendor_index_refresh = 0;
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
///  - scatter plane (QueryVendor): fanned out to all shards and merged
///    deterministically in sorted-shard order (vendor scores are weighted
///    by per-shard software counts). QuerySoftware responses get their
///    embedded vendor score rewritten from the same merge, so a clustered
///    query is indistinguishable from a single-server one.
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
  /// Vendor rewrites answered from the merged index (no scatter) vs.
  /// rewrites that fell back to the per-query scatter.
  std::uint64_t vendor_index_hits() const { return vendor_index_hits_; }
  std::uint64_t vendor_index_misses() const { return vendor_index_misses_; }
  /// Completed vendor-index refresh rounds (all shards answered).
  std::uint64_t vendor_index_refreshes() const {
    return vendor_index_refreshes_;
  }
  /// Forces one vendor-index refresh round now (tests; normally the
  /// periodic schedule drives this). No-op while the ring is empty.
  void RefreshVendorIndexNow() { RefreshVendorIndex(); }

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

  /// Cluster-wide per-vendor aggregates, merged from every shard's
  /// snapshot-published vendor scores. Immutable once published: readers
  /// pin a version with one acquire load; the refresher swaps in a whole
  /// new table with one release store (RCU — same discipline as the
  /// server-side ScoreSnapshot, so the rewrite path takes no lock).
  struct VendorIndex {
    std::unordered_map<std::string, core::VendorScore> by_name;
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

  /// Scatter plane.
  void ScatterVendor(const net::Message& message, const xml::XmlNode& request,
                     const std::string& id);
  /// Fans QueryVendor(`vendor`) to all shards and hands the deterministic
  /// merge (or NotFound) to `done`.
  void MergeVendor(const std::string& session, const std::string& vendor,
                   std::function<void(util::Result<xml::XmlNode>)> done);

  /// Vendor-index plane: one refresh round (scatter QueryVendorIndex to
  /// all shards; publish the merged index only if every leg answered).
  void RefreshVendorIndex();
  void ScheduleVendorIndexRefresh();
  /// The merged vendor node for `vendor`, or nullopt when the index has
  /// no round published yet or does not know the vendor (scatter fallback).
  std::optional<xml::XmlNode> VendorNodeFromIndex(const std::string& vendor);

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
  std::uint64_t vendor_index_hits_ = 0;
  std::uint64_t vendor_index_misses_ = 0;
  std::uint64_t vendor_index_refreshes_ = 0;

  /// Published merged index (null until the first complete refresh round).
  util::AtomicSharedPtr<const VendorIndex> vendor_index_;
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
  obs::Counter* vendor_index_hits_metric_ = nullptr;
  obs::Histogram* scatter_ms_ = nullptr;
};

}  // namespace pisrep::cluster

#endif  // PISREP_CLUSTER_ROUTER_H_
