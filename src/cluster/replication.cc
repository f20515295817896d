#include "cluster/replication.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "cluster/anti_entropy.h"
#include "trust/audit_log.h"
#include "util/hex.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pisrep::cluster {

namespace {
using util::Result;
using util::Status;
using xml::XmlNode;

/// Bounded catch-up: the primary retains at most this many unacked WAL
/// records. A replica that falls further behind cannot be caught up from
/// the log any more and is re-seeded with a full snapshot instead.
constexpr std::size_t kMaxLogRecords = 8192;
/// Records shipped per RPC batch.
constexpr std::size_t kMaxBatchRecords = 128;
/// Per-batch RPC timeout.
constexpr util::Duration kShipTimeout = 2 * util::kSecond;
/// Delay before re-probing an unreachable replica.
constexpr util::Duration kRetryDelay = 2 * util::kSecond;
/// Consecutive shipping failures before a replica's channel is marked
/// degraded and stops counting toward (or blocking) the write quorum.
constexpr int kDegradedAfterFailures = 3;

std::uint64_t AttrU64(const XmlNode& node, std::string_view key) {
  auto parsed = util::ParseInt64(node.AttributeOr(key, "0"));
  if (!parsed.ok() || *parsed < 0) return 0;
  return static_cast<std::uint64_t>(*parsed);
}
}  // namespace

std::string ReplicaAddress(const std::string& shard, int k) {
  return shard + "!r" + std::to_string(k);
}

// ---------------------------------------------------------------------------
// ReplicationLog
// ---------------------------------------------------------------------------

std::uint64_t ReplicationLog::Append(std::string frame) {
  frames_.push_back(std::move(frame));
  ++head_seq_;
  while (frames_.size() > max_records_) {
    frames_.pop_front();
    ++base_seq_;
  }
  return head_seq_;
}

bool ReplicationLog::CollectAfter(
    std::uint64_t after, std::size_t max_batch,
    std::vector<std::pair<std::uint64_t, std::string>>* out) const {
  if (after < base_seq_) return false;  // span already dropped
  for (std::size_t i = after - base_seq_;
       i < frames_.size() && out->size() < max_batch; ++i) {
    out->emplace_back(base_seq_ + 1 + i, frames_[i]);
  }
  return true;
}

void ReplicationLog::PruneThrough(std::uint64_t upto) {
  while (!frames_.empty() && base_seq_ < upto) {
    frames_.pop_front();
    ++base_seq_;
  }
}

void ReplicationLog::Clear() {
  frames_.clear();
  base_seq_ = head_seq_;
}

// ---------------------------------------------------------------------------
// ReplicaNode
// ---------------------------------------------------------------------------

ReplicaNode::ReplicaNode(net::SimNetwork* network, std::string address)
    : ReplicaNode(network, std::move(address), nullptr) {}

ReplicaNode::ReplicaNode(net::SimNetwork* network, std::string address,
                         DatabaseFactory factory)
    : network_(network),
      address_(std::move(address)),
      factory_(std::move(factory)) {
  if (!factory_) {
    factory_ = [] { return storage::Database::Open(""); };
  }
  auto db = factory_();
  PISREP_CHECK(db.ok()) << "replica database open failed: "
                        << db.status().ToString();
  db_ = std::move(db).value();
}

Status ReplicaNode::Start() {
  rpc_ = std::make_unique<net::RpcServer>(network_, address_);
  rpc_->RegisterMethod(
      std::string(kReplicateMethod),
      [this](const XmlNode& request) { return HandleReplicate(request); });
  rpc_->RegisterMethod(
      std::string(kReplicaStatusMethod),
      [this](const XmlNode&) -> Result<XmlNode> {
        XmlNode result("result");
        result.SetAttribute("applied", std::to_string(applied_seq_));
        result.SetAttribute("stale", stale_ ? "1" : "0");
        return result;
      });
  // Anti-entropy: per-key-range digests of everything this replica holds.
  rpc_->RegisterMethod(
      std::string(kReplicaDigestMethod),
      [this](const XmlNode&) -> Result<XmlNode> {
        if (db_ == nullptr) return Status::FailedPrecondition("detached");
        XmlNode result("result");
        result.SetAttribute("applied", std::to_string(applied_seq_));
        result.SetAttribute("stale", stale_ ? "1" : "0");
        result.SetAttribute("digests",
                            FormatRangeDigests(RangeDigestsOf(db_.get())));
        // Tamper evidence: the replica verifies its own audit chain and
        // reports the head, so the primary can tell divergence-by-bug
        // (resyncable) from divergence-by-tamper (fence the replica).
        trust::AuditChainStatus audit =
            trust::AuditChainStatusOf(db_.get());
        if (audit.present) {
          result.SetAttribute("audit_ok", audit.ok ? "1" : "0");
          result.SetAttribute("audit_head", audit.head_hash);
          result.SetAttribute("audit_len", std::to_string(audit.length));
        }
        return result;
      });
  return rpc_->Start();
}

Result<XmlNode> ReplicaNode::HandleReplicate(const XmlNode& request) {
  if (db_ == nullptr) {
    return Status::FailedPrecondition("replica detached");
  }
  if (request.AttributeOr("reset", "0") == "1") {
    // Out-of-band snapshot: discard local state, rebuild from the frames,
    // land exactly at the primary's head at export time. A duplicated
    // delivery of an *older* snapshot must not rewind state the replica
    // has since applied on top.
    std::uint64_t snap_through = AttrU64(request, "snap_through");
    if (snap_through >= applied_seq_ || stale_) {
      auto fresh = factory_();
      if (!fresh.ok()) {
        // A tiered factory does file IO and can genuinely fail; stay
        // stale on the old database so the primary keeps retrying.
        PISREP_LOG(kWarning) << "replica " << address_
                             << " failed snapshot reopen: "
                             << fresh.status().ToString();
        stale_ = true;
        XmlNode failed("result");
        failed.SetAttribute("acked", std::to_string(applied_seq_));
        failed.SetAttribute("stale", "1");
        return failed;
      }
      db_ = std::move(fresh).value();
      applied_seq_ = 0;
      stale_ = false;
      ++resets_;
      for (const XmlNode* frame_node : request.FindChildren("f")) {
        auto bytes = util::HexDecode(frame_node->text());
        if (!bytes.ok()) {
          stale_ = true;
          break;
        }
        std::string frame(bytes->begin(), bytes->end());
        Status applied = db_->ApplyReplicatedFrame(frame);
        if (!applied.ok()) {
          PISREP_LOG(kWarning) << "replica " << address_
                               << " failed snapshot frame: "
                               << applied.ToString();
          stale_ = true;
          break;
        }
      }
      if (!stale_) applied_seq_ = snap_through;
    }
  } else {
    std::uint64_t first_seq = AttrU64(request, "first_seq");
    if (first_seq == 0) {
      return Status::InvalidArgument("replicate batch without first_seq");
    }
    if (first_seq > applied_seq_ + 1) {
      // A gap: records were shipped past us (lost batch beyond the
      // primary's retention, or we restarted empty). Only a snapshot can
      // heal this.
      stale_ = true;
    }
    if (!stale_) {
      std::uint64_t seq = first_seq;
      for (const XmlNode* frame_node : request.FindChildren("f")) {
        std::uint64_t this_seq = seq++;
        if (this_seq <= applied_seq_) continue;  // duplicate of a re-sent batch
        auto bytes = util::HexDecode(frame_node->text());
        if (!bytes.ok()) {
          stale_ = true;
          break;
        }
        std::string frame(bytes->begin(), bytes->end());
        Status applied = db_->ApplyReplicatedFrame(frame);
        if (!applied.ok()) {
          PISREP_LOG(kWarning) << "replica " << address_ << " failed frame "
                               << this_seq << ": " << applied.ToString();
          stale_ = true;
          break;
        }
        applied_seq_ = this_seq;
      }
    }
  }
  XmlNode result("result");
  result.SetAttribute("acked", std::to_string(applied_seq_));
  result.SetAttribute("stale", stale_ ? "1" : "0");
  return result;
}

std::unique_ptr<storage::Database> ReplicaNode::Detach() {
  rpc_.reset();
  return std::move(db_);
}

// ---------------------------------------------------------------------------
// ReplicationShipper
// ---------------------------------------------------------------------------

ReplicationShipper::ReplicationShipper(
    net::SimNetwork* network, net::EventLoop* loop, std::string client_address,
    std::vector<std::string> replica_addresses, storage::Database* primary_db,
    ReplicationConfig config, obs::MetricsRegistry* metrics,
    std::string shard_label)
    : network_(network),
      loop_(loop),
      db_(primary_db),
      config_(config),
      log_(kMaxLogRecords) {
  // The shipper runs its own retry/resync state machine; the generic client
  // breaker would only add a second layer of fast-fails on top of it.
  net::RpcClient::BreakerConfig breaker;
  breaker.enabled = false;
  int index = 0;
  for (std::string& address : replica_addresses) {
    Channel channel;
    channel.address = std::move(address);
    channel.rpc = std::make_unique<net::RpcClient>(
        network_, loop_, client_address + "#" + std::to_string(index++),
        channel.address);
    channel.rpc->set_breaker(breaker);
    channel.rpc->set_max_retries(0);
    channels_.push_back(std::move(channel));
  }
  if (metrics != nullptr) {
    lag_gauge_ = metrics->GetGauge(obs::WithLabel(
        "pisrep_cluster_replication_lag_records", "shard", shard_label));
    degraded_gauge_ = metrics->GetGauge(obs::WithLabel(
        "pisrep_cluster_replication_degraded", "shard", shard_label));
    shipped_metric_ = metrics->GetCounter(obs::WithLabel(
        "pisrep_cluster_replication_shipped_total", "shard", shard_label));
    resyncs_metric_ = metrics->GetCounter(obs::WithLabel(
        "pisrep_cluster_replication_resyncs_total", "shard", shard_label));
    degraded_acks_metric_ = metrics->GetCounter(obs::WithLabel(
        "pisrep_cluster_degraded_acks_total", "shard", shard_label));
    fences_metric_ = metrics->GetCounter(obs::WithLabel(
        "pisrep_cluster_replication_fences_total", "shard", shard_label));
  }
}

ReplicationShipper::~ReplicationShipper() { db_->SetFrameListener({}); }

Status ReplicationShipper::Start() {
  for (Channel& channel : channels_) {
    PISREP_RETURN_IF_ERROR(channel.rpc->Start());
  }
  db_->SetFrameListener([this](const std::string& frame) { OnFrame(frame); });
  UpdateGauges();
  Pump();
  return Status::Ok();
}

void ReplicationShipper::OnFrame(const std::string& frame) {
  log_.Append(frame);
  UpdateGauges();
  Pump();
}

std::uint64_t ReplicationShipper::acked_seq() const {
  std::uint64_t min_acked = log_.head_seq();
  for (const Channel& channel : channels_) {
    if (channel.fenced) continue;  // holds nothing the quorum can use
    min_acked = std::min(min_acked, channel.acked);
  }
  return min_acked;
}

bool ReplicationShipper::degraded() const {
  return std::any_of(channels_.begin(), channels_.end(),
                     [](const Channel& c) { return c.degraded; });
}

const std::string& ReplicationShipper::replica_address(int k) const {
  return channels_[static_cast<std::size_t>(k)].address;
}

bool ReplicationShipper::channel_caught_up(int k) const {
  const Channel& channel = channels_[static_cast<std::size_t>(k)];
  return !channel.fenced && !channel.reset_pending &&
         channel.acked >= log_.head_seq();
}

int ReplicationShipper::CopiesHolding(std::uint64_t seq) const {
  int copies = 1;  // the primary's own WAL
  for (const Channel& channel : channels_) {
    if (!channel.degraded && !channel.fenced && channel.acked >= seq) {
      ++copies;
    }
  }
  return copies;
}

int ReplicationShipper::ConfiguredQuorum() const {
  return std::clamp(config_.write_quorum, 1,
                    1 + static_cast<int>(channels_.size()));
}

int ReplicationShipper::EffectiveQuorum() const {
  int healthy = 1;
  for (const Channel& channel : channels_) {
    if (!channel.degraded && !channel.fenced) ++healthy;
  }
  return std::min(ConfiguredQuorum(), healthy);
}

void ReplicationShipper::GateResponse(const std::string& method,
                                      std::function<void()> send) {
  (void)method;  // all methods gate on WAL position, none on their name
  std::uint64_t needed = log_.head_seq();
  if (channels_.empty()) {
    send();
    return;
  }
  if (CopiesHolding(needed) >= EffectiveQuorum()) {
    if (CopiesHolding(needed) < ConfiguredQuorum()) {
      ++degraded_acks_;
      if (degraded_acks_metric_) degraded_acks_metric_->Increment();
    }
    send();
    return;
  }
  gates_.emplace_back(needed, std::move(send));
  Pump();
}

void ReplicationShipper::Pump() {
  for (std::size_t k = 0; k < channels_.size(); ++k) PumpChannel(k);
}

void ReplicationShipper::PumpChannel(std::size_t k) {
  Channel& channel = channels_[k];
  if (channel.fenced) return;  // quarantined until the node is replaced
  if (channel.in_flight) return;
  if (channel.reset_pending) {
    SendSnapshot(k);
    return;
  }
  if (channel.acked >= log_.head_seq()) return;  // fully caught up
  if (channel.acked < log_.base_seq()) {
    // Beyond the bounded catch-up window: only a snapshot can heal it.
    MarkResyncPending(channel);
    SendSnapshot(k);
    return;
  }
  std::vector<std::pair<std::uint64_t, std::string>> batch;
  if (!log_.CollectAfter(channel.acked, kMaxBatchRecords, &batch) ||
      batch.empty()) {
    return;
  }
  XmlNode params("r");
  params.SetAttribute("first_seq", std::to_string(batch.front().first));
  for (const auto& [seq, frame] : batch) {
    params.AddTextChild("f", util::HexEncode(frame));
  }
  channel.in_flight = true;
  channel.rpc->Call(
      kReplicateMethod, std::move(params),
      [this, k, alive = std::weak_ptr<int>(alive_)](Result<XmlNode> result) {
        if (alive.expired()) return;
        HandleShipResult(k, /*was_reset=*/false, std::move(result));
      },
      kShipTimeout);
}

void ReplicationShipper::SendSnapshot(std::size_t k) {
  Channel& channel = channels_[k];
  // The snapshot is exported fresh per attempt (nothing is parked in the
  // shared log) and covers everything through the current head; frames
  // appended while it is in flight ship from the log afterwards.
  XmlNode params("r");
  params.SetAttribute("reset", "1");
  Status exported = db_->ExportSnapshotFrames([&](const std::string& frame) {
    params.AddTextChild("f", util::HexEncode(frame));
    return Status::Ok();
  });
  if (!exported.ok()) {
    // A tiered primary streams its cold block file straight from disk, so
    // export is real IO now and can fail transiently. Leave the channel
    // reset-pending and retry after the usual delay.
    PISREP_LOG(kWarning) << "snapshot export for replica "
                         << replica_address(static_cast<int>(k))
                         << " failed: " << exported.ToString()
                         << "; retrying";
    if (!channel.retry_scheduled) {
      channel.retry_scheduled = true;
      loop_->ScheduleAfter(kRetryDelay,
                           [this, k, alive = std::weak_ptr<int>(alive_)] {
                             if (alive.expired()) return;
                             channels_[k].retry_scheduled = false;
                             PumpChannel(k);
                           });
    }
    return;
  }
  channel.reset_floor = log_.head_seq();
  params.SetAttribute("snap_through", std::to_string(channel.reset_floor));
  channel.in_flight = true;
  channel.rpc->Call(
      kReplicateMethod, std::move(params),
      [this, k, alive = std::weak_ptr<int>(alive_)](Result<XmlNode> result) {
        if (alive.expired()) return;
        HandleShipResult(k, /*was_reset=*/true, std::move(result));
      },
      kShipTimeout);
}

void ReplicationShipper::HandleShipResult(std::size_t k, bool was_reset,
                                          Result<XmlNode> result) {
  Channel& channel = channels_[k];
  channel.in_flight = false;
  if (!result.ok()) {
    ++channel.failures;
    if (!channel.degraded &&
        channel.failures >= kDegradedAfterFailures) {
      EnterDegraded(channel);
    }
    // Keep probing while responses are still gated; once degraded with
    // nothing gated, go quiescent — new frames and an explicit Pump (after
    // the replica is revived) restart shipping.
    if ((!channel.degraded || !gates_.empty()) && !channel.retry_scheduled) {
      channel.retry_scheduled = true;
      loop_->ScheduleAfter(kRetryDelay,
                           [this, k, alive = std::weak_ptr<int>(alive_)] {
                             if (alive.expired()) return;
                             channels_[k].retry_scheduled = false;
                             PumpChannel(k);
                           });
    }
    return;
  }
  channel.failures = 0;
  if (channel.degraded) LeaveDegraded(channel);
  const XmlNode& response = *result;
  if (response.AttributeOr("stale", "0") == "1") {
    MarkResyncPending(channel);
  } else {
    if (was_reset) channel.reset_pending = false;
    std::uint64_t acked = AttrU64(response, "acked");
    if (acked > channel.acked) {
      if (shipped_metric_) shipped_metric_->Increment(acked - channel.acked);
      channel.acked = acked;
    }
    PruneLog();
    CheckGates();
  }
  UpdateGauges();
  PumpChannel(k);
}

void ReplicationShipper::CheckGates() {
  while (!gates_.empty()) {
    std::uint64_t seq = gates_.front().first;
    int copies = CopiesHolding(seq);
    if (copies < EffectiveQuorum()) break;
    auto send = std::move(gates_.front().second);
    gates_.pop_front();
    if (copies < ConfiguredQuorum()) {
      ++degraded_acks_;
      if (degraded_acks_metric_) degraded_acks_metric_->Increment();
    }
    send();
  }
}

void ReplicationShipper::EnterDegraded(Channel& channel) {
  channel.degraded = true;
  PISREP_LOG(kWarning) << "replication to " << channel.address
                       << " degraded after " << channel.failures
                       << " failures; responses no longer wait for it";
  UpdateGauges();
  // Losing a healthy copy shrinks the effective quorum — gates that only
  // waited for the dead replica release now (as degraded acks).
  CheckGates();
}

void ReplicationShipper::LeaveDegraded(Channel& channel) {
  channel.degraded = false;
  PISREP_LOG(kInfo) << "replication to " << channel.address << " recovered";
  UpdateGauges();
}

void ReplicationShipper::ForceResync(int k) {
  if (channels_[static_cast<std::size_t>(k)].fenced) return;
  MarkResyncPending(channels_[static_cast<std::size_t>(k)]);
  PumpChannel(static_cast<std::size_t>(k));
}

void ReplicationShipper::FenceChannel(int k) {
  Channel& channel = channels_[static_cast<std::size_t>(k)];
  if (channel.fenced) return;
  channel.fenced = true;
  ++fences_;
  if (fences_metric_) fences_metric_->Increment();
  PISREP_LOG(kWarning) << "replica " << channel.address
                       << " FENCED: audit chain diverged from the primary; "
                          "excluded from quorum until replaced";
  UpdateGauges();
  // Like losing a copy to degradation: gates waiting only on the fenced
  // replica release against the shrunken effective quorum.
  CheckGates();
  if (fence_listener_) fence_listener_(k);
}

bool ReplicationShipper::channel_fenced(int k) const {
  return channels_[static_cast<std::size_t>(k)].fenced;
}

void ReplicationShipper::ReviveChannel(int k) {
  Channel& channel = channels_[static_cast<std::size_t>(k)];
  channel.failures = 0;
  channel.fenced = false;  // the node behind the channel was replaced
  if (channel.degraded) LeaveDegraded(channel);
  channel.acked = 0;
  MarkResyncPending(channel);
  PumpChannel(static_cast<std::size_t>(k));
}

void ReplicationShipper::MarkResyncPending(Channel& channel) {
  if (channel.reset_pending) return;
  channel.reset_pending = true;
  ++resyncs_;
  if (resyncs_metric_) resyncs_metric_->Increment();
}

void ReplicationShipper::PruneLog() {
  std::uint64_t min_needed = std::numeric_limits<std::uint64_t>::max();
  for (const Channel& channel : channels_) {
    if (channel.fenced) continue;  // never ships again; pins nothing
    // A reset-pending channel needs nothing at or below its snapshot
    // floor — the snapshot covers it.
    std::uint64_t have = channel.reset_pending
                             ? std::max(channel.acked, channel.reset_floor)
                             : channel.acked;
    min_needed = std::min(min_needed, have);
  }
  if (channels_.empty()) min_needed = log_.head_seq();
  log_.PruneThrough(min_needed);
}

void ReplicationShipper::UpdateGauges() {
  if (lag_gauge_ != nullptr) {
    lag_gauge_->Set(static_cast<std::int64_t>(lag_records()));
  }
  if (degraded_gauge_ != nullptr) {
    std::int64_t degraded_count = 0;
    for (const Channel& channel : channels_) {
      if (channel.degraded) ++degraded_count;
    }
    degraded_gauge_->Set(degraded_count);
  }
}

}  // namespace pisrep::cluster
