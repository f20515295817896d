#ifndef PISREP_TRUST_AUDIT_LOG_H_
#define PISREP_TRUST_AUDIT_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/signing.h"
#include "storage/database.h"
#include "util/clock.h"
#include "util/status.h"

namespace pisrep::trust {

/// Table names, shared with tools/audit and the anti-entropy fencing path.
inline constexpr std::string_view kAuditTable = "audit_log";
inline constexpr std::string_view kCheckpointTable = "audit_checkpoints";

/// One hash-chained audit record. The chain invariant is
///   h_i = SHA-256(h_{i-1} || index | kind | payload | at)
/// with h_0 a fixed genesis constant, so mutating (or deleting) any
/// historical entry breaks every later link — a replica cannot rewrite a
/// vote without either changing its chain head or leaving a detectable
/// inconsistency at the exact mutated index.
struct AuditEntry {
  std::uint64_t index = 0;  ///< 1-based chain position (the primary key)
  std::string kind;         ///< "vote", "remark", "moderation", ...
  std::string payload;      ///< canonical rendering of the accepted mutation
  util::TimePoint at = 0;
  std::string hash_hex;     ///< h_index, hex encoded
};

/// h_0: the chain anchor every verifier starts from.
std::string GenesisHashHex();

/// Computes h_i from h_{i-1} and the entry fields (the single definition of
/// the chain function — AuditLog, the verifier and tools/audit all call it).
std::string ChainHashHex(std::string_view prev_hash_hex, std::uint64_t index,
                         std::string_view kind, std::string_view payload,
                         util::TimePoint at);

/// The message a signed checkpoint covers.
std::string CheckpointMessage(std::uint64_t index, std::string_view hash_hex,
                              util::TimePoint at);

/// The tamper-evident audit log of one server (§PR10 trust plane): every
/// accepted vote/moderation/trust-change appends one entry; periodically
/// the server signs (index, head hash) into a checkpoint row so an offline
/// verifier can pin the history to the server's audit key. Both tables are
/// ordinary database tables — they ride the WAL (or the cold store when the
/// caller tiers them), replicate frame-by-frame to replicas, and survive
/// crash recovery like every other row.
class AuditLog {
 public:
  /// Creates the tables when absent and recovers the chain head by replay
  /// (a full scan — construction-time only; appends are O(1) after).
  explicit AuditLog(storage::Database* db);

  /// Appends one entry, extending the chain.
  util::Result<AuditEntry> Append(std::string_view kind,
                                  std::string_view payload,
                                  util::TimePoint at);

  /// Signs the current head into the checkpoint table.
  util::Status WriteCheckpoint(const crypto::PrivateKey& key,
                               util::TimePoint at);

  std::uint64_t head_index() const { return head_index_; }
  const std::string& head_hash() const { return head_hash_; }
  std::uint64_t checkpoint_count() const { return checkpoint_count_; }
  /// Head index at the last checkpoint (0 when none yet).
  std::uint64_t last_checkpoint_index() const {
    return last_checkpoint_index_;
  }

 private:
  storage::Database* db_;
  /// Resolved once at construction: Append runs per accepted mutation on
  /// the ingest hot path, so it must not pay a table lookup each time.
  storage::TieredTable* log_table_ = nullptr;
  storage::TieredTable* checkpoint_table_ = nullptr;
  std::uint64_t head_index_ = 0;
  std::string head_hash_;
  std::uint64_t checkpoint_count_ = 0;
  std::uint64_t last_checkpoint_index_ = 0;
};

/// Result of recomputing the whole chain from genesis.
struct ChainVerifyResult {
  bool ok = false;
  std::uint64_t entries = 0;
  /// First index whose stored row contradicts the recomputed chain (a
  /// mutated field, a broken hash link, or a gap); 0 when the chain is
  /// intact. This is the number tools/audit prints — "detects any
  /// historical mutation and names the first corrupted index".
  std::uint64_t first_bad_index = 0;
  std::string head_hash;  ///< recomputed head (genesis when empty)
  std::string error;      ///< human-readable diagnosis when !ok
};

/// Recomputes h_1..h_N from the persisted rows and reports the first
/// divergence. Works on any database holding the audit tables (a live
/// primary, a replica, or a WAL opened offline by tools/audit).
ChainVerifyResult VerifyAuditChain(storage::Database* db);

/// Result of checking every signed checkpoint against the recomputed chain.
struct CheckpointVerifyResult {
  bool ok = false;
  std::uint64_t checked = 0;
  std::uint64_t first_bad_index = 0;  ///< audit index of the first bad one
  std::string error;
};

/// Verifies each checkpoint's signature under `key` and that its recorded
/// hash equals the recomputed chain hash at its index.
CheckpointVerifyResult VerifyCheckpoints(storage::Database* db,
                                         const crypto::PublicKey& key);

/// What a replica reports (and anti-entropy compares) about its chain:
/// presence, length, head, and whether the persisted rows still recompute
/// cleanly. `ok == false` on a caught-up replica is the fencing signal — a
/// historical row was rewritten underneath the chain.
struct AuditChainStatus {
  bool present = false;
  bool ok = true;
  std::uint64_t length = 0;
  std::uint64_t first_bad_index = 0;
  std::string head_hash;
};

AuditChainStatus AuditChainStatusOf(storage::Database* db);

}  // namespace pisrep::trust

#endif  // PISREP_TRUST_AUDIT_LOG_H_
