#ifndef PISREP_CLUSTER_ANTI_ENTROPY_H_
#define PISREP_CLUSTER_ANTI_ENTROPY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "cluster/replication.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "util/clock.h"
#include "util/status.h"

namespace pisrep::cluster {

/// Tuning for the background divergence sweep.
struct AntiEntropyConfig {
  bool enabled = true;
  /// Interval between sweeps. Anti-entropy is a safety net behind WAL
  /// shipping, not a delivery mechanism, so it runs coarse by default.
  util::Duration period = 30 * util::kSecond;
};

/// Key-range digest buckets: rows hash into one of these by the first
/// nibble of SHA1(table, key), so a single diverged row narrows to one
/// sixteenth of the keyspace without shipping any data.
inline constexpr std::size_t kDigestBuckets = 16;

/// Order-insensitive content digest of an entire database, bucketed by key
/// range. Each row folds in as an XOR of a 64-bit row hash, so the digest
/// is identical regardless of insertion order or in-memory layout — two
/// databases agree on all 16 buckets iff they hold bit-identical rows.
std::array<std::uint64_t, kDigestBuckets> RangeDigestsOf(
    storage::Database* db);

/// Wire form of the bucket array: comma-separated hex.
std::string FormatRangeDigests(
    const std::array<std::uint64_t, kDigestBuckets>& digests);

/// The primary's periodic anti-entropy sweep: for every replica channel
/// that believes itself caught up, fetch its range digests and compare
/// against the primary's own. A mismatch at equal WAL positions means
/// silent divergence (a bug, or a bit flip the codec missed) — logged,
/// counted and healed with a forced snapshot resync.
class AntiEntropyAgent {
 public:
  /// `db` and `shipper` belong to the same shard primary and must outlive
  /// the agent, as must the network and loop.
  AntiEntropyAgent(net::SimNetwork* network, net::EventLoop* loop,
                   std::string shard, storage::Database* db,
                   ReplicationShipper* shipper, AntiEntropyConfig config,
                   obs::MetricsRegistry* metrics);

  AntiEntropyAgent(const AntiEntropyAgent&) = delete;
  AntiEntropyAgent& operator=(const AntiEntropyAgent&) = delete;

  /// Binds the sweep client and schedules the first sweep.
  util::Status Start();

  /// Digest comparisons completed (per replica, per sweep).
  std::uint64_t checks() const { return checks_; }
  /// Divergent replicas detected and forced into snapshot resync.
  std::uint64_t repairs() const { return repairs_; }
  /// Replicas fenced because their tamper-evident audit chain broke or
  /// diverged from the primary's at equal WAL positions. Fencing is
  /// terminal: tamper evidence is preserved, never snapshot-repaired.
  std::uint64_t fences() const { return fences_; }

 private:
  void ScheduleSweep();
  void RunSweep();

  net::SimNetwork* network_;
  net::EventLoop* loop_;
  std::string shard_;
  storage::Database* db_;
  ReplicationShipper* shipper_;
  AntiEntropyConfig config_;
  std::unique_ptr<net::RpcClient> client_;
  std::uint64_t checks_ = 0;
  std::uint64_t repairs_ = 0;
  std::uint64_t fences_ = 0;
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);

  obs::Counter* checks_metric_ = nullptr;
  obs::Counter* repairs_metric_ = nullptr;
  obs::Counter* fences_metric_ = nullptr;
};

}  // namespace pisrep::cluster

#endif  // PISREP_CLUSTER_ANTI_ENTROPY_H_
