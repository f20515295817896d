#include "cluster/anti_entropy.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "storage/table.h"
#include "storage/value.h"
#include "trust/audit_log.h"
#include "util/logging.h"
#include "util/sha1.h"
#include "util/string_util.h"

namespace pisrep::cluster {

namespace {
using util::Result;
using util::Status;
using xml::XmlNode;

/// Timeout of one replica digest fetch.
constexpr util::Duration kRpcTimeout = 2 * util::kSecond;

std::uint64_t AttrU64(const XmlNode& node, std::string_view key) {
  auto parsed = util::ParseInt64(node.AttributeOr(key, "0"));
  if (!parsed.ok() || *parsed < 0) return 0;
  return static_cast<std::uint64_t>(*parsed);
}

std::uint64_t FoldDigest(const util::Sha1Digest& digest) {
  std::uint64_t folded = 0;
  for (int i = 0; i < 8; ++i) {
    folded = (folded << 8) | digest.bytes[static_cast<std::size_t>(i)];
  }
  return folded;
}

/// Exact, type-tagged rendering of one row: a Real 1 and an Int 1 must not
/// collide, nor may adjacent cells bleed into each other.
std::string RowString(std::string_view table, const storage::Row& row) {
  std::string out(table);
  for (const storage::Value& cell : row) {
    out += '\x1f';
    out += storage::ColumnTypeName(cell.type());
    out += ':';
    out += cell.ToString();
  }
  return out;
}
}  // namespace

std::array<std::uint64_t, kDigestBuckets> RangeDigestsOf(
    storage::Database* db) {
  std::array<std::uint64_t, kDigestBuckets> buckets{};
  for (const std::string& name : db->TableNames()) {
    // The tier-aware facade iterates both tiers, so a digest covers cold
    // rows too — a primary and an all-hot replica holding the same data
    // must agree regardless of residency.
    auto table = db->GetTiered(name);
    if (!table.ok()) continue;
    std::size_t pk = (*table)->schema().primary_key_index();
    (*table)->ForEach([&](const storage::Row& row) {
      std::string key = name + "\x1f" + row[pk].ToString();
      std::size_t bucket =
          static_cast<std::size_t>(util::Sha1::Hash(key).bytes[0] >> 4);
      buckets[bucket] ^= FoldDigest(util::Sha1::Hash(RowString(name, row)));
    });
  }
  return buckets;
}

std::string FormatRangeDigests(
    const std::array<std::uint64_t, kDigestBuckets>& digests) {
  std::string out;
  char buf[20];
  for (std::uint64_t digest : digests) {
    if (!out.empty()) out += ',';
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    out += buf;
  }
  return out;
}

AntiEntropyAgent::AntiEntropyAgent(net::SimNetwork* network,
                                   net::EventLoop* loop, std::string shard,
                                   storage::Database* db,
                                   ReplicationShipper* shipper,
                                   AntiEntropyConfig config,
                                   obs::MetricsRegistry* metrics)
    : network_(network),
      loop_(loop),
      shard_(std::move(shard)),
      db_(db),
      shipper_(shipper),
      config_(config) {
  if (metrics != nullptr) {
    checks_metric_ = metrics->GetCounter(obs::WithLabel(
        "pisrep_cluster_anti_entropy_checks_total", "shard", shard_));
    repairs_metric_ = metrics->GetCounter(obs::WithLabel(
        "pisrep_cluster_anti_entropy_repairs_total", "shard", shard_));
    fences_metric_ = metrics->GetCounter(obs::WithLabel(
        "pisrep_cluster_anti_entropy_fences_total", "shard", shard_));
  }
}

Status AntiEntropyAgent::Start() {
  client_ = std::make_unique<net::RpcClient>(network_, loop_,
                                             shard_ + "!ae", shard_);
  net::RpcClient::BreakerConfig breaker;
  breaker.enabled = false;
  client_->set_breaker(breaker);
  client_->set_max_retries(0);
  PISREP_RETURN_IF_ERROR(client_->Start());
  ScheduleSweep();
  return Status::Ok();
}

void AntiEntropyAgent::ScheduleSweep() {
  loop_->ScheduleAfter(config_.period,
                       [this, alive = std::weak_ptr<int>(alive_)] {
                         if (alive.expired()) return;
                         RunSweep();
                       });
}

void AntiEntropyAgent::RunSweep() {
  for (int k = 0; k < shipper_->replica_count(); ++k) {
    // Only a channel that believes itself fully caught up is comparable —
    // anything else is still converging through normal shipping.
    if (!shipper_->channel_caught_up(k)) continue;
    client_->CallTo(
        shipper_->replica_address(k), kReplicaDigestMethod, XmlNode("p"),
        [this, k, alive = std::weak_ptr<int>(alive_)](
            Result<XmlNode> result) {
          if (alive.expired() || !result.ok()) return;
          const XmlNode& response = *result;
          if (response.AttributeOr("stale", "0") == "1") return;
          // Compare only at equal WAL positions; if either side moved on
          // while the digest was in flight, skip — next sweep catches it.
          if (AttrU64(response, "applied") != shipper_->head_seq()) return;
          ++checks_;
          if (checks_metric_) checks_metric_->Increment();
          // Fence-first: audit-chain divergence is tamper evidence, not a
          // replication bug — quarantine the replica instead of wiping the
          // evidence with a snapshot resync.
          trust::AuditChainStatus local_audit =
              trust::AuditChainStatusOf(db_);
          if (local_audit.present) {
            bool remote_broken =
                response.AttributeOr("audit_ok", "1") == "0";
            std::string remote_head =
                response.AttributeOr("audit_head", "");
            bool head_diverged =
                !remote_head.empty() && remote_head != local_audit.head_hash;
            if (!local_audit.ok) {
              // The *primary's* chain is broken: its own copy is suspect,
              // so it has no authority to fence or resync anyone.
              PISREP_LOG(kWarning)
                  << "anti-entropy: primary " << shard_
                  << " audit chain broken at index "
                  << local_audit.first_bad_index
                  << "; skipping replica comparison";
              return;
            }
            if (remote_broken || head_diverged) {
              ++fences_;
              if (fences_metric_) fences_metric_->Increment();
              PISREP_LOG(kWarning)
                  << "anti-entropy: replica "
                  << shipper_->replica_address(k) << " of " << shard_
                  << (remote_broken ? " has a broken audit chain"
                                    : " audit head diverged at equal WAL "
                                      "position")
                  << "; fencing (not repairing)";
              shipper_->FenceChannel(k);
              return;
            }
          }
          std::string local = FormatRangeDigests(RangeDigestsOf(db_));
          std::string remote = response.AttributeOr("digests", "");
          if (local == remote) return;
          ++repairs_;
          if (repairs_metric_) repairs_metric_->Increment();
          PISREP_LOG(kWarning)
              << "anti-entropy: replica " << shipper_->replica_address(k)
              << " of " << shard_
              << " diverged at equal WAL position; forcing snapshot resync";
          shipper_->ForceResync(k);
        },
        kRpcTimeout);
  }
  ScheduleSweep();
}

}  // namespace pisrep::cluster
