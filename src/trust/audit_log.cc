#include "trust/audit_log.h"

#include <charconv>
#include <cstdlib>
#include <string>
#include <utility>

#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"
#include "util/logging.h"
#include "util/sha256.h"

namespace pisrep::trust {

namespace {

using storage::Row;
using storage::SchemaBuilder;
using storage::Value;
using util::Result;
using util::Status;

constexpr char kFieldSep = '\x1f';

storage::TieredTable* TieredOrNull(storage::Database* db,
                                   std::string_view name) {
  if (!db->HasTable(name)) return nullptr;
  auto table = db->GetTiered(name);
  return table.ok() ? *table : nullptr;
}

}  // namespace

std::string GenesisHashHex() {
  return util::Sha256::Hash("pisrep-audit-genesis").ToHex();
}

std::string ChainHashHex(std::string_view prev_hash_hex, std::uint64_t index,
                         std::string_view kind, std::string_view payload,
                         util::TimePoint at) {
  // The canonical entry rendering is length-safe by construction: index and
  // at are decimal integers, kind never contains the separator, and payload
  // is the last field — no two distinct entries share a rendering. The
  // fields stream into the hasher directly (one hash per accepted vote on
  // the ingest hot path — no materialized concatenation).
  util::Sha256 hasher;
  char number[24];
  hasher.Update(prev_hash_hex);
  hasher.Update(std::string_view(&kFieldSep, 1));
  auto [index_end, index_ec] =
      std::to_chars(number, number + sizeof(number), index);
  hasher.Update(std::string_view(number, index_end - number));
  hasher.Update(std::string_view(&kFieldSep, 1));
  hasher.Update(kind);
  hasher.Update(std::string_view(&kFieldSep, 1));
  auto [at_end, at_ec] = std::to_chars(number, number + sizeof(number), at);
  hasher.Update(std::string_view(number, at_end - number));
  hasher.Update(std::string_view(&kFieldSep, 1));
  hasher.Update(payload);
  return hasher.Finish().ToHex();
}

std::string CheckpointMessage(std::uint64_t index, std::string_view hash_hex,
                              util::TimePoint at) {
  std::string message("pisrep-audit-checkpoint");
  message += kFieldSep;
  message += std::to_string(index);
  message += kFieldSep;
  message += hash_hex;
  message += kFieldSep;
  message += std::to_string(at);
  return message;
}

AuditLog::AuditLog(storage::Database* db) : db_(db) {
  if (!db_->HasTable(kAuditTable)) {
    Status status = db_->CreateTable(SchemaBuilder(std::string(kAuditTable))
                                         .Int("idx")
                                         .Str("kind")
                                         .Str("payload")
                                         .Int("at")
                                         .Str("hash")
                                         .PrimaryKey("idx")
                                         .Build());
    PISREP_CHECK(status.ok()) << status.ToString();
  }
  if (!db_->HasTable(kCheckpointTable)) {
    Status status =
        db_->CreateTable(SchemaBuilder(std::string(kCheckpointTable))
                             .Int("idx")
                             .Str("hash")
                             .Int("at")
                             .Str("sig")
                             .PrimaryKey("idx")
                             .Build());
    PISREP_CHECK(status.ok()) << status.ToString();
  }
  log_table_ = TieredOrNull(db_, kAuditTable);
  checkpoint_table_ = TieredOrNull(db_, kCheckpointTable);
  // Recover the head from persisted rows (WAL replay / replica promotion):
  // the row with the highest index carries the chain head.
  head_hash_ = GenesisHashHex();
  if (storage::TieredTable* log = log_table_) {
    log->ForEach([this](const Row& row) {
      auto idx = static_cast<std::uint64_t>(row[0].AsInt());
      if (idx > head_index_) {
        head_index_ = idx;
        head_hash_ = row[4].AsStr();
      }
    });
  }
  if (storage::TieredTable* cps = checkpoint_table_) {
    cps->ForEach([this](const Row& row) {
      ++checkpoint_count_;
      auto idx = static_cast<std::uint64_t>(row[0].AsInt());
      if (idx > last_checkpoint_index_) last_checkpoint_index_ = idx;
    });
  }
}

Result<AuditEntry> AuditLog::Append(std::string_view kind,
                                    std::string_view payload,
                                    util::TimePoint at) {
  AuditEntry entry;
  entry.index = head_index_ + 1;
  entry.kind = std::string(kind);
  entry.payload = std::string(payload);
  entry.at = at;
  entry.hash_hex = ChainHashHex(head_hash_, entry.index, kind, payload, at);

  storage::TieredTable* log = log_table_;
  if (log == nullptr) {
    return Status::FailedPrecondition("audit table was not created");
  }
  PISREP_RETURN_IF_ERROR(log->Insert(Row{
      Value::Int(static_cast<std::int64_t>(entry.index)),
      Value::Str(entry.kind),
      Value::Str(entry.payload),
      Value::Int(entry.at),
      Value::Str(entry.hash_hex),
  }));
  head_index_ = entry.index;
  head_hash_ = entry.hash_hex;
  return entry;
}

Status AuditLog::WriteCheckpoint(const crypto::PrivateKey& key,
                                 util::TimePoint at) {
  if (head_index_ == 0) {
    return Status::FailedPrecondition("audit chain is empty");
  }
  crypto::Signature sig =
      crypto::Sign(key, CheckpointMessage(head_index_, head_hash_, at));
  storage::TieredTable* cps = checkpoint_table_;
  if (cps == nullptr) {
    return Status::FailedPrecondition("checkpoint table was not created");
  }
  PISREP_RETURN_IF_ERROR(cps->Upsert(Row{
      Value::Int(static_cast<std::int64_t>(head_index_)),
      Value::Str(head_hash_),
      Value::Int(at),
      Value::Str(std::to_string(sig)),
  }));
  if (last_checkpoint_index_ != head_index_) ++checkpoint_count_;
  last_checkpoint_index_ = head_index_;
  return Status::Ok();
}

ChainVerifyResult VerifyAuditChain(storage::Database* db) {
  ChainVerifyResult result;
  result.head_hash = GenesisHashHex();
  storage::TieredTable* log = TieredOrNull(db, kAuditTable);
  if (log == nullptr) {
    result.ok = true;  // no chain is a valid (empty) chain
    return result;
  }
  std::uint64_t rows = log->size();
  std::string prev = GenesisHashHex();
  // Walk indexes 1..N in order, recomputing each link from the *recomputed*
  // predecessor. Any single-byte mutation of a persisted field — kind,
  // payload, timestamp, or the stored hash itself — makes the stored hash
  // disagree with the recomputation at exactly that index; a mutated or
  // deleted primary key surfaces as the first missing index. (A rewrite of
  // an entire suffix that re-hashes consistently is beyond what the bare
  // chain can see — that is what the signed checkpoints and the
  // cross-replica head comparison pin down.)
  for (std::uint64_t i = 1; i <= rows; ++i) {
    auto row = log->Get(Value::Int(static_cast<std::int64_t>(i)));
    if (!row.ok()) {
      result.first_bad_index = i;
      result.error = "missing audit index " + std::to_string(i);
      return result;
    }
    const std::string kind = (*row)[1].AsStr();
    const std::string payload = (*row)[2].AsStr();
    const util::TimePoint at = (*row)[3].AsInt();
    const std::string stored = (*row)[4].AsStr();
    std::string expect = ChainHashHex(prev, i, kind, payload, at);
    if (stored != expect) {
      result.first_bad_index = i;
      result.error = "hash mismatch at index " + std::to_string(i);
      return result;
    }
    prev = expect;
    ++result.entries;
  }
  result.ok = true;
  result.head_hash = prev;
  return result;
}

CheckpointVerifyResult VerifyCheckpoints(storage::Database* db,
                                         const crypto::PublicKey& key) {
  CheckpointVerifyResult result;
  storage::TieredTable* cps = TieredOrNull(db, kCheckpointTable);
  if (cps == nullptr) {
    result.ok = true;
    return result;
  }
  // Recompute the chain once; each checkpoint must name the recomputed hash
  // at its index and carry a valid signature under the server's audit key.
  ChainVerifyResult chain = VerifyAuditChain(db);
  storage::TieredTable* log = TieredOrNull(db, kAuditTable);
  bool failed = false;
  cps->ForEach([&](const Row& row) {
    if (failed) return;
    auto idx = static_cast<std::uint64_t>(row[0].AsInt());
    const std::string hash = row[1].AsStr();
    const util::TimePoint at = row[2].AsInt();
    crypto::Signature sig = 0;
    {
      const std::string sig_str = row[3].AsStr();
      char* end = nullptr;
      sig = std::strtoull(sig_str.c_str(), &end, 10);
    }
    if (!crypto::Verify(key, CheckpointMessage(idx, hash, at), sig)) {
      failed = true;
      result.first_bad_index = idx;
      result.error = "bad checkpoint signature at index " +
                     std::to_string(idx);
      return;
    }
    // Replay the chain prefix up to idx to compare hashes. The chain was
    // already verified above; if it is broken before idx the checkpoint is
    // reported bad too (the history under it cannot be trusted).
    if (!chain.ok && idx >= chain.first_bad_index) {
      failed = true;
      result.first_bad_index = idx;
      result.error = "checkpoint covers corrupted chain prefix";
      return;
    }
    if (log != nullptr) {
      auto entry = log->Get(Value::Int(static_cast<std::int64_t>(idx)));
      if (!entry.ok() || (*entry)[4].AsStr() != hash) {
        failed = true;
        result.first_bad_index = idx;
        result.error =
            "checkpoint hash does not match chain at index " +
            std::to_string(idx);
        return;
      }
    }
    ++result.checked;
  });
  result.ok = !failed;
  return result;
}

AuditChainStatus AuditChainStatusOf(storage::Database* db) {
  AuditChainStatus status;
  status.present = db->HasTable(kAuditTable);
  ChainVerifyResult chain = VerifyAuditChain(db);
  status.ok = chain.ok;
  status.length = chain.entries;
  status.first_bad_index = chain.first_bad_index;
  status.head_hash = chain.head_hash;
  return status;
}

}  // namespace pisrep::trust
