#ifndef PISREP_STORAGE_COLD_STORE_H_
#define PISREP_STORAGE_COLD_STORE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace pisrep::storage {

/// Tuning knobs for the cold block file (DESIGN.md §15).
struct ColdStoreOptions {
  /// Never garbage-collect below this file size: small files rewrite so
  /// cheaply on the next threshold crossing that eager GC only adds churn.
  std::uint64_t gc_min_file_bytes = 1 << 20;
  /// Mirrors Database::OpenOptions::salvage_corruption for the block file:
  /// truncate to the intact prefix instead of failing Open.
  bool salvage_corruption = false;
};

/// Counters and sizes exposed as pisrep_storage_* metrics by the server.
struct ColdStoreStats {
  std::uint64_t file_bytes = 0;
  std::uint64_t dead_bytes = 0;
  std::uint64_t live_rows = 0;
  std::uint64_t appends = 0;
  std::uint64_t reads = 0;
  std::uint64_t gc_runs = 0;
  std::uint64_t gc_reclaimed_bytes = 0;
};

/// The durable half of the tiered storage engine: an append-only block file
/// holding every row of every tiered table, indexed by a sparse in-memory
/// map from key digest to file offset.
///
/// Block framing matches the WAL discipline (varint payload length, payload,
/// 4-byte little-endian checksum — CRC-32 here) so a torn tail truncates
/// cleanly on open. The payload is self-describing:
///
///   op byte (0 put, 1 tombstone) | varint table-name len | table name |
///   varint key len | encoded primary key | encoded row (puts only)
///
/// The embedded key lets recovery rebuild the primary index in one
/// sequential scan with no schema in hand; row bytes are exactly the WAL's
/// EncodeRow output, which is what lets Compact, block flush and the
/// cluster snapshot-resync path share one frame format.
///
/// Overwrites and tombstones strand dead bytes in the file; once they pass
/// kGcDeadRatio (0.35) of the file, MaybeGc rewrites the live frames (in
/// append order) into a fresh file and swaps it in. All offsets change across a GC — the owner
/// must rebuild anything that cached them (TieredTable::RebuildFromCold).
///
/// Thread compatibility: mutations are single-writer (the server's writer
/// thread); const reads go through pread(2) and touch no mutable state
/// besides relaxed stat counters, so concurrent readers are safe as long as
/// no writer runs — the same contract the rest of the storage layer and the
/// parallel aggregation phase already rely on.
class ColdStore {
 public:
  /// Opens (or creates) the block file at `path`, scanning it to rebuild
  /// the per-table indexes. A torn final frame is trimmed; mid-file
  /// corruption fails the open unless options.salvage_corruption.
  static util::Result<std::unique_ptr<ColdStore>> Open(
      const std::string& path, const ColdStoreOptions& options);

  ~ColdStore();

  ColdStore(const ColdStore&) = delete;
  ColdStore& operator=(const ColdStore&) = delete;

  /// Appends a new live version of `key`; any previous version becomes
  /// dead bytes. Returns the frame's file offset.
  util::Result<std::uint64_t> Put(std::string_view table,
                                  std::string_view key_bytes,
                                  std::string_view row_bytes);

  /// Appends a tombstone; kNotFound when the key has no live version.
  util::Status Erase(std::string_view table, std::string_view key_bytes);

  bool Contains(std::string_view table, std::string_view key_bytes) const;

  /// Live row bytes + the frame offset they were read from.
  struct RowRef {
    std::uint64_t offset = 0;
    std::string row_bytes;
  };
  util::Result<RowRef> Get(std::string_view table,
                           std::string_view key_bytes) const;

  /// The frame at `offset`, plus whether it is still the key's current
  /// version (visits over cached offset lists use this to skip stale
  /// entries without the owner maintaining delete-time index upkeep).
  struct FrameView {
    std::string key_bytes;
    std::string row_bytes;
    bool live = false;
  };
  util::Result<FrameView> ReadAt(std::string_view table,
                                 std::uint64_t offset) const;

  /// Visits every live row of `table` in append order of each key's latest
  /// version — the deterministic iteration order the bit-identical
  /// aggregation twin check depends on. Stops at the first visit error.
  util::Status ForEachLive(
      std::string_view table,
      const std::function<util::Status(std::uint64_t offset,
                                       std::string_view key_bytes,
                                       std::string_view row_bytes)>& visit)
      const;

  std::size_t LiveCount(std::string_view table) const;

  /// In-memory index entry counts for one table — input to the facade's
  /// deterministic resident-bytes accounting.
  struct IndexFootprint {
    std::size_t primary_entries = 0;
    std::size_t overflow_entries = 0;
    std::size_t order_entries = 0;
  };
  IndexFootprint FootprintOf(std::string_view table) const;

  /// True when dead bytes passed the GC threshold.
  bool ShouldGc() const;
  /// Runs a GC pass when the threshold is met; returns whether it ran.
  util::Result<bool> MaybeGc();

  bool recovered_with_loss() const { return recovered_with_loss_; }
  ColdStoreStats stats() const;

 private:
  struct Entry {
    std::uint64_t offset = 0;
    std::uint32_t frame_len = 0;  ///< full frame incl. header + checksum
  };
  struct TableState {
    /// key digest → latest live frame. Digest collisions are resolved by
    /// reading the candidate frame and comparing key bytes; a second key
    /// landing on an occupied digest lives in `overflow` instead, so
    /// membership is exact regardless of hash quality.
    std::unordered_map<std::uint64_t, Entry> primary;
    std::unordered_map<std::string, Entry> overflow;
    /// Frame offsets in append order; may contain stale (overwritten or
    /// deleted) entries, which visits skip via the liveness check.
    std::vector<std::uint64_t> order;
  };

  ColdStore(std::string path, ColdStoreOptions options);

  util::Status OpenFile(bool truncate);
  util::Status ScanAndIndex();
  util::Status AppendFrame(std::string_view payload, std::uint64_t* offset,
                           std::uint32_t* frame_len);
  /// Reads + CRC-checks the frame at `offset` into `payload`.
  util::Status ReadFrame(std::uint64_t offset, std::string* payload,
                         std::uint32_t* frame_len) const;
  /// The live entry for a key, or nullptr. May read the file to verify a
  /// digest hit against the actual key bytes.
  const Entry* FindEntry(const TableState& state,
                         std::string_view key_bytes) const;
  static void EncodePayload(bool tombstone, std::string_view table,
                            std::string_view key_bytes,
                            std::string_view row_bytes, std::string* out);
  util::Status RunGc();

  std::string path_;
  ColdStoreOptions options_;
  std::FILE* file_ = nullptr;
  int fd_ = -1;
  std::uint64_t file_bytes_ = 0;
  std::uint64_t dead_bytes_ = 0;
  std::uint64_t live_rows_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t gc_runs_ = 0;
  std::uint64_t gc_reclaimed_bytes_ = 0;
  bool recovered_with_loss_ = false;
  mutable std::atomic<std::uint64_t> reads_{0};
  std::unordered_map<std::string, TableState> tables_;
};

/// CRC-32 (IEEE 802.3) over `data` — the cold block file's frame checksum.
std::uint32_t ColdBlockCrc(std::string_view data);

}  // namespace pisrep::storage

#endif  // PISREP_STORAGE_COLD_STORE_H_
