#include "cluster/router.h"

#include <limits>
#include <utility>
#include <vector>

#include "core/rating_aggregator.h"
#include "proto/wire.h"
#include "server/score_snapshot.h"
#include "util/hex.h"
#include "util/logging.h"
#include "util/sha1.h"
#include "util/string_util.h"

namespace pisrep::cluster {

namespace {
using util::Result;
using util::Status;
using util::StatusCode;
using xml::XmlNode;

constexpr std::string_view kApplyRemarkMethod = "ClusterApplyRemark";

/// Per-forwarded-call RPC timeout; also bounds each leg of a vendor-index
/// round, and so how long a reply waits for one.
constexpr util::Duration kCallTimeout = 5 * util::kSecond;
/// A broadcast leg to an unreachable shard is tried this many times
/// (deferred retry: it holds that shard's pipeline, never the others),
/// sized to ride out a failover detection + promotion cycle.
constexpr int kLegAttempts = 5;
constexpr util::Duration kLegRetryDelay = 2 * util::kSecond;
/// Ownership-moved redirects followed per request.
constexpr int kMaxRedirects = 3;

bool IsTransportError(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDataLoss;
}

}  // namespace

Result<util::Sha1Digest> RoutingDigestOf(const std::string& method,
                                         const XmlNode& request) {
  std::string hex;
  if (method == "SubmitRating") {
    const XmlNode* software = request.FindChild("software");
    if (software == nullptr) {
      return Status::InvalidArgument("missing <software> element");
    }
    hex = software->AttributeOr("id", "");
  } else {
    hex = request.ChildText("id").value_or("");
  }
  util::Sha1Digest digest;
  if (!util::HexDecodeTo(hex, digest.bytes)) {
    return Status::InvalidArgument("request without a valid software id");
  }
  return digest;
}

bool IsDigestRoutedMethod(const std::string& method) {
  return method == "QuerySoftware" || method == "SubmitRating" ||
         method == "ReportExecutions" || method == "QueryFeed" ||
         method == "SubmitRemark";
}

namespace {
bool IsBroadcast(const std::string& method) {
  return method == "RequestPuzzle" || method == "Register" ||
         method == "Activate" || method == "Login";
}
}  // namespace

Router::Router(net::SimNetwork* network, net::EventLoop* loop,
               RouterConfig config, obs::MetricsRegistry* metrics,
               obs::Tracer* tracer)
    : network_(network),
      loop_(loop),
      config_(std::move(config)),
      rpc_(network, loop, config_.service_address + "!up",
           /*server_address=*/""),
      ring_(kVnodesPerShard),
      nonce_rng_(config_.nonce_seed),
      metrics_(metrics) {
  // The router retries broadcast legs itself (deferred per-shard retry);
  // digest-plane calls lean on the per-server breaker to fail fast while a
  // shard is down, which the client's own retry/queue machinery absorbs.
  // Upstream calls speak the compact binary codec: shards negotiate per
  // frame and answer in kind, and clients still get the codec they spoke.
  rpc_.AttachObservability(metrics, tracer);
  rpc_.set_codec(proto::WireCodec::kBinary);
  if (metrics_ != nullptr) {
    broadcast_ops_metric_ =
        metrics_->GetCounter("pisrep_cluster_router_broadcast_ops_total");
    ownership_moved_metric_ =
        metrics_->GetCounter("pisrep_cluster_router_ownership_moved_total");
    effect_failures_metric_ =
        metrics_->GetCounter("pisrep_cluster_router_effect_failures_total");
    // Same counter name as RpcServer's codec metric: the router is the
    // cluster's hand-rolled front door, and dashboards should see one
    // series per deployment regardless of which binary answered.
    binary_requests_metric_ =
        metrics_->GetCounter("pisrep_proto_binary_requests_total");
    vendor_index_refreshes_metric_ =
        metrics_->GetCounter("pisrep_cluster_vendor_index_refreshes_total");
  }
}

Router::~Router() { network_->Unbind(config_.service_address); }

Status Router::Start() {
  PISREP_RETURN_IF_ERROR(rpc_.Start());
  PISREP_RETURN_IF_ERROR(network_->Bind(
      config_.service_address,
      [this](const net::Message& m) { HandleMessage(m); }));
  return Status::Ok();
}

void Router::AddShard(const std::string& name) {
  ring_.AddShard(name);
  pipelines_.try_emplace(name);
}

void Router::RemoveShard(const std::string& name) { ring_.RemoveShard(name); }

obs::Counter* Router::ShardRequestCounter(const std::string& shard) {
  if (metrics_ == nullptr) return nullptr;
  auto it = shard_counters_.find(shard);
  if (it != shard_counters_.end()) return it->second;
  obs::Counter* counter = metrics_->GetCounter(obs::WithLabel(
      "pisrep_cluster_router_requests_total", "shard", shard));
  shard_counters_.emplace(shard, counter);
  return counter;
}

void Router::HandleMessage(const net::Message& message) {
  auto decoded = proto::DecodeFrame(message.payload);
  // Like RpcServer, the router answers only a frame that is one <request>.
  if (!decoded.ok() || decoded->node.name() != "request") return;
  // Reply-in-kind: remember the codec this client last spoke so every
  // response (including ones produced much later by an async upstream
  // callback) goes back the way the request came.
  client_codecs_[message.from] = decoded->codec;
  if (decoded->codec == proto::WireCodec::kBinary &&
      binary_requests_metric_ != nullptr) {
    binary_requests_metric_->Increment();
  }
  const XmlNode& request = decoded->node;
  std::string id = request.AttributeOr("id", "");
  std::string method = request.AttributeOr("method", "");
  ++requests_;

  if (ring_.empty()) {
    ReplyError(message.from, id,
               Status::Unavailable("cluster has no shards"));
    return;
  }
  if (IsBroadcast(method)) {
    Broadcast(message, request, method, id);
  } else if (method == "QueryVendor") {
    // Any shard can check the session; hashing the vendor name spreads
    // the checks. The answer comes from the vendor index (ForwardTo).
    ForwardTo(ring_.OwnerOf(util::Sha1::Hash(
                  request.ChildText("vendor").value_or(""))),
              method, request, message.from, id, kMaxRedirects);
  } else if (IsDigestRoutedMethod(method)) {
    RouteByDigest(message, request, method, id);
  } else {
    ReplyError(message.from, id,
               Status::NotFound("no such method: " + method));
  }
}

void Router::Reply(const std::string& client, const std::string& id,
                   Result<XmlNode> result) {
  XmlNode response("response");
  response.SetAttribute("id", id);
  if (result.ok()) {
    // Re-envelope the upstream response under the downstream request id;
    // everything else (status, body attributes, children, text) passes
    // through verbatim.
    for (const auto& [key, value] : result->attributes()) {
      if (key == "id" || key == server::kVendorVersionAttribute) continue;
      response.SetAttribute(key, value);
    }
    response.children() = std::move(result->children());
    if (!result->text().empty()) response.set_text(result->text());
    if (!response.HasAttribute("status")) {
      response.SetAttribute("status", "ok");
    }
  } else {
    response.SetAttribute("status", "error");
    response.SetAttribute("code",
                          util::StatusCodeName(result.status().code()));
    response.set_text(result.status().message());
  }
  proto::WireCodec codec = proto::WireCodec::kXml;
  if (auto it = client_codecs_.find(client); it != client_codecs_.end()) {
    codec = it->second;
  }
  network_->Send(config_.service_address, client,
                 proto::EncodeFrame(response, codec));
}

void Router::ReplyError(const std::string& client, const std::string& id,
                        const Status& error) {
  Reply(client, id, Result<XmlNode>(error));
}

// ---------------------------------------------------------------------------
// Digest plane
// ---------------------------------------------------------------------------

void Router::RouteByDigest(const net::Message& message,
                           const XmlNode& request, const std::string& method,
                           const std::string& id) {
  auto digest = RoutingDigestOf(method, request);
  if (!digest.ok()) {
    ReplyError(message.from, id, digest.status());
    return;
  }
  ForwardTo(ring_.OwnerOf(*digest), method, request, message.from, id,
            kMaxRedirects);
}

void Router::ForwardTo(const std::string& shard, const std::string& method,
                       XmlNode request, const std::string& client,
                       const std::string& id, int redirects_left) {
  if (obs::Counter* counter = ShardRequestCounter(shard)) {
    counter->Increment();
  }
  XmlNode to_send = request;
  rpc_.CallTo(
      shard, method, std::move(to_send),
      [this, shard, method, request = std::move(request), client, id,
       redirects_left](Result<XmlNode> result) mutable {
        if (!result.ok() &&
            result.status().code() == StatusCode::kFailedPrecondition &&
            proto::IsOwnershipMoved(result.status().message())) {
          std::string target =
              proto::OwnershipMovedTarget(result.status().message());
          if (redirects_left > 0 && ring_.Contains(target) &&
              target != shard) {
            ++redirects_followed_;
            if (ownership_moved_metric_) ownership_moved_metric_->Increment();
            ForwardTo(target, method, std::move(request), client, id,
                      redirects_left - 1);
            return;
          }
        }
        if (result.ok() && method == "SubmitRemark") {
          // The owner validated and stored the remark; propagate its
          // trust-factor side effect to every other shard through the
          // ordered pipelines — each shard weighs its own votes by the
          // author's trust at aggregation time.
          XmlNode effect("r");
          effect.AddTextChild("author",
                              request.ChildText("author").value_or("0"));
          effect.AddTextChild("positive",
                              request.ChildText("positive").value_or("0"));
          effect.AddIntChild("at", loop_->Now());
          for (const std::string& member : ring_.Members()) {
            if (member == shard) continue;
            EnqueueEffect(member, std::string(kApplyRemarkMethod), effect);
          }
        }
        if (result.ok() && method == "QuerySoftware") {
          // The owning shard reports the vendor score over its own slice
          // of the vendor's software; the answer carries the cluster-wide
          // merge from the vendor index instead, so a clustered answer
          // matches a single server's.
          const XmlNode* software = result->FindChild("software");
          std::string company =
              software ? software->AttributeOr("company", "") : "";
          if (!company.empty()) {
            std::string stamp =
                result->AttributeOr(server::kVendorVersionAttribute, "");
            WithVendorIndex(
                shard, stamp, company,
                [this, client, id, company, base = std::move(result)](
                    const Result<const VendorIndex*>& index) mutable {
                  std::erase_if(base->children(), [](const XmlNode& child) {
                    return child.name() == "vendor";
                  });
                  const XmlNode* node = index.ok() && *index != nullptr
                                            ? (*index)->Find(company)
                                            : nullptr;
                  if (node != nullptr) base->AddChild(*node);
                  Reply(client, id, std::move(base));
                });
            return;
          }
        }
        if (method == "QueryVendor" &&
            (result.ok() || result.status().code() == StatusCode::kNotFound) &&
            request.FindChild("session") != nullptr &&
            request.FindChild("vendor") != nullptr) {
          // With both children present the shard accepted the session. Its
          // own answer covers only its slice of the vendor's software (a
          // NotFound: it owns none of it, and carries no stamp), so the
          // answer comes from the vendor index.
          std::string vendor = request.ChildText("vendor").value_or("");
          WithVendorIndex(
              shard,
              result.ok()
                  ? result->AttributeOr(server::kVendorVersionAttribute, "")
                  : "",
              vendor,
              [this, client, id, vendor](
                  const Result<const VendorIndex*>& index) {
                const XmlNode* node = index.ok() && *index != nullptr
                                          ? (*index)->Find(vendor)
                                          : nullptr;
                if (!index.ok()) {
                  ReplyError(client, id, index.status());
                } else if (node == nullptr) {
                  ReplyError(client, id,
                             Status::NotFound("no such vendor: " + vendor));
                } else {
                  XmlNode answer("result");
                  answer.AddChild(*node);
                  Reply(client, id, std::move(answer));
                }
              });
          return;
        }
        Reply(client, id, std::move(result));
      },
      kCallTimeout);
}

// ---------------------------------------------------------------------------
// Account plane (ordered broadcast)
// ---------------------------------------------------------------------------

void Router::Broadcast(const net::Message& message, XmlNode request,
                       const std::string& method, const std::string& id) {
  if (broadcast_ops_metric_) broadcast_ops_metric_->Increment();
  if (method == "RequestPuzzle") {
    // One router-minted nonce forced onto every shard: each shard stores
    // the same outstanding puzzle, so the later Register broadcast
    // validates everywhere without any cross-shard RNG lockstep.
    request.AddTextChild("nonce", nonce_rng_.NextToken(16));
  }
  std::vector<std::string> members = ring_.Members();
  auto op = std::make_shared<BroadcastOp>();
  op->client = message.from;
  op->id = id;
  op->pending = static_cast<int>(members.size());
  op->shards = members;
  op->results.resize(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    PipelineItem item;
    item.method = method;
    item.request = request;
    item.op = op;
    item.shard_index = static_cast<int>(i);
    item.attempts_left = kLegAttempts;
    pipelines_[members[i]].queue.push_back(std::move(item));
    PumpShard(members[i]);
  }
}

void Router::EnqueueEffect(const std::string& shard,
                           const std::string& method, XmlNode request) {
  PipelineItem item;
  item.method = method;
  item.request = std::move(request);
  item.attempts_left = kLegAttempts;
  pipelines_[shard].queue.push_back(std::move(item));
  PumpShard(shard);
}

void Router::PumpShard(const std::string& shard) {
  Pipeline& pipeline = pipelines_[shard];
  if (pipeline.busy || pipeline.queue.empty()) return;
  pipeline.busy = true;
  IssueHead(shard);
}

void Router::IssueHead(const std::string& shard) {
  Pipeline& pipeline = pipelines_[shard];
  PISREP_CHECK(pipeline.busy && !pipeline.queue.empty());
  PipelineItem& item = pipeline.queue.front();
  if (obs::Counter* counter = ShardRequestCounter(shard)) {
    counter->Increment();
  }
  XmlNode to_send = item.request;
  rpc_.CallTo(
      shard, item.method, std::move(to_send),
      [this, shard](Result<XmlNode> result) {
        Pipeline& p = pipelines_[shard];
        PipelineItem& head = p.queue.front();
        if (!result.ok() && IsTransportError(result.status()) &&
            head.attempts_left > 1 && ring_.Contains(shard)) {
          // Deferred retry: the shard is (probably) failing over. Hold
          // this pipeline — order within the shard must not change — and
          // try the same op again shortly. A shard evicted from the ring
          // mid-broadcast is not retried: its leg completes with the
          // error, which FinishBroadcastOp discounts.
          --head.attempts_left;
          loop_->ScheduleAfter(kLegRetryDelay,
                               [this, shard,
                                alive = std::weak_ptr<int>(alive_)] {
                                 if (alive.expired()) return;
                                 IssueHead(shard);
                               });
          return;
        }
        if (head.op != nullptr) {
          head.op->results[static_cast<std::size_t>(head.shard_index)] =
              std::move(result);
          if (--head.op->pending == 0) FinishBroadcastOp(head.op);
        } else if (!result.ok()) {
          if (effect_failures_metric_) effect_failures_metric_->Increment();
          PISREP_LOG(kWarning)
              << "router: effect " << head.method << " on " << shard
              << " failed: " << result.status().ToString();
        }
        p.queue.pop_front();
        p.busy = false;
        PumpShard(shard);
      },
      kCallTimeout);
}

void Router::FinishBroadcastOp(const std::shared_ptr<BroadcastOp>& op) {
  // Legs are judged against the membership as of completion, not as of
  // fan-out: a shard removed while the op was in flight no longer holds
  // authoritative state, so its failure (or success) must not decide the
  // client's answer.
  //
  // A transport failure on any *still-member* leg surfaces to the client
  // (the op may not have applied on that shard; the caller's retry heals
  // it), in lowest-shard order for determinism. Otherwise the lowest
  // still-member shard's response is canonical — all shards executed the
  // same op.
  for (std::size_t i = 0; i < op->results.size(); ++i) {
    const auto& result = op->results[i];
    if (result.has_value() && !result->ok() &&
        IsTransportError(result->status()) && ring_.Contains(op->shards[i])) {
      Reply(op->client, op->id, *result);
      return;
    }
  }
  for (std::size_t i = 0; i < op->results.size(); ++i) {
    if (op->results[i].has_value() && ring_.Contains(op->shards[i])) {
      Reply(op->client, op->id, *op->results[i]);
      return;
    }
  }
  // Every fanned-out shard has since left the ring; fall back to any
  // answer at all rather than dropping the client on the floor.
  for (const auto& result : op->results) {
    if (result.has_value()) {
      Reply(op->client, op->id, *result);
      return;
    }
  }
  ReplyError(op->client, op->id,
             Status::Unavailable("broadcast lost every shard"));
}

// ---------------------------------------------------------------------------
// Vendor-index plane
// ---------------------------------------------------------------------------

bool Router::CoversRing(const VendorIndex& index) const {
  if (index.members.size() != ring_.size()) return false;
  for (const std::string& member : index.members) {
    if (!ring_.Contains(member)) return false;
  }
  return true;
}

void Router::WithVendorIndex(const std::string& shard,
                             const std::string& stamp,
                             const std::string& vendor, IndexWaiter done) {
  if (vendor_round_ == nullptr && IndexIsCurrent(shard, stamp, vendor)) {
    done(vendor_index_.get());
    return;
  }
  // Every reply that needs the index during a round waits for that round.
  if (vendor_round_ != nullptr) {
    vendor_round_->waiters.push_back(std::move(done));
    return;
  }
  if (ring_.empty()) {
    done(Status::Unavailable("cluster has no shards"));
    return;
  }
  auto round = std::make_shared<VendorRound>();
  round->members = ring_.Members();
  round->legs.resize(round->members.size());
  round->pending = static_cast<int>(round->members.size());
  round->waiters.push_back(std::move(done));
  vendor_round_ = round;
  // Every member, not only the one whose stamp changed: shards publish on
  // the same daily schedule, and one round keeps an answer from merging
  // one shard's new table with another's old one.
  for (std::size_t i = 0; i < round->members.size(); ++i) {
    if (obs::Counter* counter = ShardRequestCounter(round->members[i])) {
      counter->Increment();
    }
    rpc_.CallTo(
        round->members[i], "QueryVendorIndex", XmlNode("r"),
        [this, round, i](Result<XmlNode> result) {
          round->legs[i] = std::move(result);
          if (--round->pending == 0) FinishVendorRound(*round);
        },
        kCallTimeout);
  }
}

bool Router::IndexIsCurrent(const std::string& shard, const std::string& stamp,
                            const std::string& vendor) const {
  if (vendor_index_ == nullptr || !CoversRing(*vendor_index_)) return false;
  if (stamp.empty()) {
    // Without a stamp the shard's table may have changed unseen; only a
    // vendor the index does not know is worth a round to look for.
    return vendor_index_->Find(vendor) != nullptr;
  }
  for (std::size_t i = 0; i < vendor_index_->members.size(); ++i) {
    if (vendor_index_->members[i] == shard) {
      return vendor_index_->versions[i] == stamp;
    }
  }
  return false;
}

void Router::FinishVendorRound(VendorRound& round) {
  // Publish only a complete round: a partial merge would misstate every
  // vendor whose software the missing shard owns (the merge weights by
  // per-shard counts). A failed round leaves the index, and with it the
  // recorded versions, as they were, so a later reply retries.
  Status failure = Status::Ok();
  for (const auto& leg : round.legs) {
    if (!leg->ok()) {
      failure = leg->status();
      break;
    }
  }
  if (failure.ok()) {
    // The shards' exact (%.17g) means, merged per vendor in ring-member
    // order by the same function as ShardCluster::MergedVendorScore.
    auto index = std::make_unique<VendorIndex>();
    index->members = round.members;
    std::unordered_map<std::string, std::vector<core::VendorScore>> legs;
    for (const auto& leg : round.legs) {
      index->versions.push_back(
          (*leg)->AttributeOr(server::kVendorVersionAttribute, ""));
      for (const XmlNode& row : (*leg)->children()) {
        auto score = util::ParseDouble(row.AttributeOr("score", "0"));
        auto count = util::ParseInt64(row.AttributeOr("count", "0"));
        std::string name = row.AttributeOr("name", "");
        if (!score.ok() || !count.ok() || *count <= 0 ||
            *count > std::numeric_limits<int>::max() || name.empty()) {
          continue;
        }
        core::VendorScore partial;
        partial.score = *score;
        partial.software_count = static_cast<int>(*count);
        legs[name].push_back(std::move(partial));
      }
    }
    for (const auto& [name, partials] : legs) {
      auto merged = core::RatingAggregator::MergeVendor(name, partials);
      if (!merged.ok()) continue;
      XmlNode node("vendor");
      node.SetAttribute("name", name);
      node.SetAttribute("score", util::StrFormat("%.6f", merged->score));
      node.SetAttribute("count", std::to_string(merged->software_count));
      index->vendors.emplace(name, std::move(node));
    }
    vendor_index_ = std::move(index);
    ++vendor_index_refreshes_;
    if (vendor_index_refreshes_metric_ != nullptr) {
      vendor_index_refreshes_metric_->Increment();
    }
  } else {
    PISREP_LOG(kWarning) << "router: vendor-index round failed ("
                         << failure.ToString() << ")";
  }
  // The waiting replies get this round's index, or after a failure the
  // previous one while it still covers the ring; otherwise the failure,
  // and a QuerySoftware answer then carries no vendor node.
  Result<const VendorIndex*> answer =
      failure.ok() || (vendor_index_ != nullptr && CoversRing(*vendor_index_))
          ? Result<const VendorIndex*>(vendor_index_.get())
          : Result<const VendorIndex*>(failure);
  std::vector<IndexWaiter> waiters = std::move(round.waiters);
  vendor_round_.reset();
  for (const IndexWaiter& waiter : waiters) waiter(answer);
}

}  // namespace pisrep::cluster
