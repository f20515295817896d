#include "cluster/router.h"

#include <utility>

#include "proto/wire.h"
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
  auto bytes = util::HexDecode(hex);
  util::Sha1Digest digest;
  if (!bytes.ok() || bytes->size() != digest.bytes.size()) {
    return Status::InvalidArgument("request without a valid software id");
  }
  for (std::size_t i = 0; i < digest.bytes.size(); ++i) {
    digest.bytes[i] = (*bytes)[i];
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
      ring_(config_.vnodes_per_shard),
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
    vendor_index_hits_metric_ =
        metrics_->GetCounter("pisrep_cluster_vendor_index_hits_total");
    scatter_ms_ = metrics_->GetHistogram(
        "pisrep_cluster_router_scatter_ms",
        {10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0});
  }
}

Router::~Router() { network_->Unbind(config_.service_address); }

Status Router::Start() {
  PISREP_RETURN_IF_ERROR(rpc_.Start());
  PISREP_RETURN_IF_ERROR(network_->Bind(
      config_.service_address,
      [this](const net::Message& m) { HandleMessage(m); }));
  if (config_.vendor_index_refresh > 0) ScheduleVendorIndexRefresh();
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
    ScatterVendor(message, request, id);
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
      if (key == "id") continue;
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
            config_.max_redirects);
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
          // of the vendor's software; rewrite it with the cluster-wide
          // merge so a clustered answer matches a single server's.
          const XmlNode* software = result->FindChild("software");
          std::string company =
              software ? software->AttributeOr("company", "") : "";
          if (!company.empty()) {
            // Fast path: rewrite from the merged vendor index — no
            // per-query scatter, the index was paid for once per refresh
            // period. An unknown vendor (fresh, or no round published
            // yet) falls back to the historical scatter.
            if (std::optional<XmlNode> vendor = VendorNodeFromIndex(company);
                vendor.has_value()) {
              auto& children = result->children();
              std::erase_if(children, [](const XmlNode& child) {
                return child.name() == "vendor";
              });
              result->AddChild(*std::move(vendor));
              Reply(client, id, std::move(result));
              return;
            }
            std::string session = request.ChildText("session").value_or("");
            MergeVendor(
                session, company,
                [this, client, id, base = std::move(result)](
                    Result<XmlNode> merged) mutable {
                  auto& children = base->children();
                  std::erase_if(children, [](const XmlNode& child) {
                    return child.name() == "vendor";
                  });
                  if (merged.ok()) {
                    if (const XmlNode* vendor = merged->FindChild("vendor")) {
                      base->AddChild(*vendor);
                    }
                  }
                  Reply(client, id, std::move(base));
                });
            return;
          }
        }
        Reply(client, id, std::move(result));
      },
      config_.call_timeout);
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
    item.attempts_left = config_.leg_attempts;
    pipelines_[members[i]].queue.push_back(std::move(item));
    PumpShard(members[i]);
  }
}

void Router::EnqueueEffect(const std::string& shard,
                           const std::string& method, XmlNode request) {
  PipelineItem item;
  item.method = method;
  item.request = std::move(request);
  item.attempts_left = config_.leg_attempts;
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
          loop_->ScheduleAfter(config_.leg_retry_delay,
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
      config_.call_timeout);
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
// Scatter plane
// ---------------------------------------------------------------------------

namespace {
/// Accumulator shared by a vendor scatter's legs.
struct VendorScatter {
  std::vector<std::optional<Result<XmlNode>>> results;
  int pending = 0;
  util::TimePoint started = 0;
  std::function<void(Result<XmlNode>)> done;
};
}  // namespace

void Router::MergeVendor(const std::string& session,
                         const std::string& vendor,
                         std::function<void(Result<XmlNode>)> done) {
  std::vector<std::string> members = ring_.Members();
  auto scatter = std::make_shared<VendorScatter>();
  scatter->results.resize(members.size());
  scatter->pending = static_cast<int>(members.size());
  scatter->started = loop_->Now();
  scatter->done = std::move(done);
  for (std::size_t i = 0; i < members.size(); ++i) {
    XmlNode params("r");
    params.AddTextChild("session", session);
    params.AddTextChild("vendor", vendor);
    if (obs::Counter* counter = ShardRequestCounter(members[i])) {
      counter->Increment();
    }
    rpc_.CallTo(
        members[i], "QueryVendor", std::move(params),
        [this, scatter, vendor, i](Result<XmlNode> result) {
          scatter->results[i] = std::move(result);
          if (--scatter->pending > 0) return;
          if (scatter_ms_) {
            scatter_ms_->Observe(
                static_cast<double>(loop_->Now() - scatter->started) /
                static_cast<double>(util::kMillisecond));
          }
          // Deterministic merge in sorted-shard order: a vendor's cluster
          // score is the software-count-weighted mean of the per-shard
          // means. NotFound legs own none of the vendor's software and
          // contribute nothing; any other failure wins (lowest shard
          // first) so the caller can retry.
          double weighted = 0.0;
          std::int64_t total = 0;
          for (const auto& leg : scatter->results) {
            if (!leg.has_value()) continue;
            if (!leg->ok()) {
              if (leg->status().code() == StatusCode::kNotFound) continue;
              scatter->done(leg->status());
              return;
            }
            const XmlNode* node = (*leg)->FindChild("vendor");
            if (node == nullptr) continue;
            auto score = util::ParseDouble(node->AttributeOr("score", "0"));
            auto count = util::ParseInt64(node->AttributeOr("count", "0"));
            if (!score.ok() || !count.ok() || *count <= 0) continue;
            weighted += *score * static_cast<double>(*count);
            total += *count;
          }
          if (total == 0) {
            scatter->done(Status::NotFound("no such vendor: " + vendor));
            return;
          }
          XmlNode merged("result");
          XmlNode& node = merged.AddChild("vendor");
          node.SetAttribute("name", vendor);
          node.SetAttribute(
              "score",
              util::StrFormat("%.6f",
                              weighted / static_cast<double>(total)));
          node.SetAttribute("count", std::to_string(total));
          scatter->done(std::move(merged));
        },
        config_.call_timeout);
  }
}

void Router::ScatterVendor(const net::Message& message,
                           const XmlNode& request, const std::string& id) {
  std::string session = request.ChildText("session").value_or("");
  std::string vendor = request.ChildText("vendor").value_or("");
  MergeVendor(session, vendor,
              [this, client = message.from, id](Result<XmlNode> merged) {
                Reply(client, id, std::move(merged));
              });
}

// ---------------------------------------------------------------------------
// Vendor-index plane
// ---------------------------------------------------------------------------

std::optional<XmlNode> Router::VendorNodeFromIndex(
    const std::string& vendor) {
  std::shared_ptr<const VendorIndex> index =
      vendor_index_.Load();
  if (index == nullptr) {
    // No complete round published yet: that is a scatter fallback too.
    ++vendor_index_misses_;
    return std::nullopt;
  }
  auto it = index->by_name.find(vendor);
  if (it == index->by_name.end()) {
    ++vendor_index_misses_;
    return std::nullopt;
  }
  ++vendor_index_hits_;
  if (vendor_index_hits_metric_) vendor_index_hits_metric_->Increment();
  // Byte-identical to MergeVendor's merged node, pinned by cluster_test:
  // the rewrite must not betray which path produced it.
  XmlNode node("vendor");
  node.SetAttribute("name", it->second.vendor);
  node.SetAttribute("score", util::StrFormat("%.6f", it->second.score));
  node.SetAttribute("count", std::to_string(it->second.software_count));
  return node;
}

namespace {
/// Accumulator shared by one vendor-index refresh round's legs.
struct IndexScatter {
  std::vector<std::optional<Result<XmlNode>>> results;
  int pending = 0;
};
}  // namespace

void Router::RefreshVendorIndex() {
  std::vector<std::string> members = ring_.Members();
  if (members.empty()) return;
  auto scatter = std::make_shared<IndexScatter>();
  scatter->results.resize(members.size());
  scatter->pending = static_cast<int>(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    rpc_.CallTo(
        members[i], "QueryVendorIndex", XmlNode("r"),
        [this, scatter, i, alive = std::weak_ptr<int>(alive_)](
            Result<XmlNode> result) {
          if (alive.expired()) return;
          scatter->results[i] = std::move(result);
          if (--scatter->pending > 0) return;
          // Publish only a complete round: a partial index would misstate
          // every vendor whose software the missing shard owns (the merge
          // weights by per-shard counts). Until a round completes, the
          // previous index keeps serving — vendors merely go stale, never
          // wrong-by-omission.
          VendorIndex merged;
          std::unordered_map<std::string, double> weighted;
          for (const auto& leg : scatter->results) {
            if (!leg.has_value() || !leg->ok()) {
              PISREP_LOG(kWarning)
                  << "router: vendor-index refresh leg failed ("
                  << (leg.has_value() ? leg->status().ToString()
                                      : "no result")
                  << "); keeping previous index";
              return;
            }
            for (const XmlNode& child : (*leg)->children()) {
              if (child.name() != "vendor") continue;
              auto score = util::ParseDouble(child.AttributeOr("score", "0"));
              auto count = util::ParseInt64(child.AttributeOr("count", "0"));
              auto at =
                  util::ParseInt64(child.AttributeOr("computed_at", "0"));
              if (!score.ok() || !count.ok() || *count <= 0) continue;
              std::string name = child.AttributeOr("name", "");
              if (name.empty()) continue;
              core::VendorScore& entry = merged.by_name[name];
              entry.vendor = name;
              entry.software_count += static_cast<int>(*count);
              if (at.ok() && *at > entry.computed_at) entry.computed_at = *at;
              weighted[name] += *score * static_cast<double>(*count);
            }
          }
          for (auto& [name, entry] : merged.by_name) {
            entry.score =
                weighted[name] / static_cast<double>(entry.software_count);
          }
          vendor_index_.Store(
              std::make_shared<const VendorIndex>(std::move(merged)));
          ++vendor_index_refreshes_;
        },
        config_.call_timeout);
  }
}

void Router::ScheduleVendorIndexRefresh() {
  RefreshVendorIndex();
  loop_->ScheduleAfter(config_.vendor_index_refresh,
                       [this, alive = std::weak_ptr<int>(alive_)] {
                         if (alive.expired()) return;
                         ScheduleVendorIndexRefresh();
                       });
}

}  // namespace pisrep::cluster
