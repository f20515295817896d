#include "storage/cold_store.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <optional>
#include <utility>

#include "storage/codec.h"
#include "util/logging.h"

namespace pisrep::storage {

namespace {

using util::Result;
using util::Status;

constexpr std::uint8_t kOpPut = 0;
constexpr std::uint8_t kOpTombstone = 1;
/// Garbage-collect when dead bytes exceed this fraction of the file.
constexpr double kGcDeadRatio = 0.35;

/// FNV-1a 64-bit over the encoded primary key: the sparse index digest.
std::uint64_t KeyDigest(std::string_view key_bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : key_bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// One decoded cold-block payload.
struct ParsedPayload {
  bool tombstone = false;
  std::string table;
  std::string key_bytes;
  std::string row_bytes;
};

Result<ParsedPayload> ParsePayload(const std::string& payload) {
  Decoder dec(payload);
  ParsedPayload parsed;
  PISREP_ASSIGN_OR_RETURN(std::uint8_t op, dec.GetByte());
  if (op != kOpPut && op != kOpTombstone) {
    return Status::DataLoss("unknown cold-block op");
  }
  parsed.tombstone = (op == kOpTombstone);
  PISREP_ASSIGN_OR_RETURN(parsed.table, dec.GetLengthPrefixed());
  PISREP_ASSIGN_OR_RETURN(parsed.key_bytes, dec.GetLengthPrefixed());
  parsed.row_bytes = payload.substr(dec.position());
  return parsed;
}

}  // namespace

std::uint32_t ColdBlockCrc(std::string_view data) {
  static const std::array<std::uint32_t, 256> kTable = [] {
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = kTable[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

ColdStore::ColdStore(std::string path, ColdStoreOptions options)
    : path_(std::move(path)), options_(options) {}

ColdStore::~ColdStore() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<ColdStore>> ColdStore::Open(
    const std::string& path, const ColdStoreOptions& options) {
  // Private constructor: std::make_unique cannot reach it.
  // pisrep-lint: allow(raw-new-delete)
  std::unique_ptr<ColdStore> store(new ColdStore(path, options));
  // Create the file if this is a fresh database, then index its contents.
  PISREP_RETURN_IF_ERROR(store->OpenFile(/*truncate=*/false));
  PISREP_RETURN_IF_ERROR(store->ScanAndIndex());
  return store;
}

Status ColdStore::OpenFile(bool truncate) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    fd_ = -1;
  }
  // "+" modes: appends go through the FILE* stream, but faults read back
  // via pread on the raw descriptor — a write-only handle would fail
  // every cold lookup with EBADF.
  file_ = std::fopen(path_.c_str(), truncate ? "w+b" : "a+b");
  if (file_ == nullptr) {
    return Status::Internal("cannot open cold store " + path_);
  }
  fd_ = fileno(file_);
  std::error_code ec;
  std::uintmax_t size = std::filesystem::file_size(path_, ec);
  file_bytes_ = ec ? 0 : static_cast<std::uint64_t>(size);
  return Status::Ok();
}

Status ColdStore::ReadFrame(std::uint64_t offset, std::string* payload,
                            std::uint32_t* frame_len) const {
  reads_.fetch_add(1, std::memory_order_relaxed);
  // Varint length first: at most 10 bytes, clipped to the file end.
  std::array<char, 10> head{};
  std::size_t head_want = static_cast<std::size_t>(
      std::min<std::uint64_t>(head.size(), file_bytes_ - offset));
  if (offset >= file_bytes_ || head_want == 0) {
    return Status::DataLoss("cold-block offset past end of " + path_);
  }
  ssize_t got = ::pread(fd_, head.data(), head_want,
                        static_cast<off_t>(offset));
  if (got <= 0) {
    return Status::Internal("cold-block read failed at offset " +
                            std::to_string(offset));
  }
  std::uint64_t len = 0;
  int shift = 0;
  std::size_t header = 0;
  for (;; ++header) {
    if (header >= static_cast<std::size_t>(got)) {
      return Status::NotFound("torn cold-block header");  // truncated varint
    }
    std::uint8_t byte = static_cast<std::uint8_t>(head[header]);
    len |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    shift += 7;
    if ((byte & 0x80) == 0) {
      ++header;
      break;
    }
  }
  std::uint64_t total = header + len + 4;
  if (offset + total > file_bytes_) {
    return Status::NotFound("torn cold-block frame");  // truncated payload
  }
  std::string body(len + 4, '\0');
  got = ::pread(fd_, body.data(), body.size(),
                static_cast<off_t>(offset + header));
  if (got != static_cast<ssize_t>(body.size())) {
    return Status::Internal("cold-block read failed at offset " +
                            std::to_string(offset));
  }
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(
                  static_cast<std::uint8_t>(body[len + i]))
              << (8 * i);
  }
  body.resize(len);
  if (ColdBlockCrc(body) != stored) {
    return Status::DataLoss("cold-block checksum mismatch at offset " +
                            std::to_string(offset));
  }
  *payload = std::move(body);
  if (frame_len != nullptr) *frame_len = static_cast<std::uint32_t>(total);
  return Status::Ok();
}

Status ColdStore::AppendFrame(std::string_view payload, std::uint64_t* offset,
                              std::uint32_t* frame_len) {
  std::string frame;
  frame.reserve(payload.size() + 14);
  PutVarint(payload.size(), &frame);
  frame.append(payload);
  std::uint32_t crc = ColdBlockCrc(payload);
  for (int i = 0; i < 4; ++i) {
    frame.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return Status::Internal("cold-block append failed on " + path_);
  }
  if (std::fflush(file_) != 0) {
    return Status::Internal("cold-block flush failed on " + path_);
  }
  *offset = file_bytes_;
  *frame_len = static_cast<std::uint32_t>(frame.size());
  file_bytes_ += frame.size();
  ++appends_;
  return Status::Ok();
}

Status ColdStore::ScanAndIndex() {
  std::uint64_t pos = 0;
  while (pos < file_bytes_) {
    std::string payload;
    std::uint32_t frame_len = 0;
    Status read = ReadFrame(pos, &payload, &frame_len);
    if (!read.ok()) {
      bool torn = read.code() == util::StatusCode::kNotFound;
      if (!torn && !options_.salvage_corruption) return read;
      // Torn tail (crash mid-append) or salvaged corruption: trim to the
      // intact prefix so later appends extend good data, not garbage.
      if (!torn) {
        recovered_with_loss_ = true;
        PISREP_LOG(kWarning) << "cold store " << path_ << " corrupted: "
                             << read.ToString() << "; salvaged " << pos
                             << "-byte prefix";
      }
      std::error_code ec;
      std::filesystem::resize_file(path_, pos, ec);
      if (ec) {
        return Status::DataLoss("cannot trim cold store " + path_ + ": " +
                                ec.message());
      }
      // Reopen so the append handle sits at the trimmed end.
      PISREP_RETURN_IF_ERROR(OpenFile(/*truncate=*/false));
      return Status::Ok();
    }
    auto parsed = ParsePayload(payload);
    if (!parsed.ok()) {
      if (!options_.salvage_corruption) return parsed.status();
      recovered_with_loss_ = true;
      std::error_code ec;
      std::filesystem::resize_file(path_, pos, ec);
      if (ec) {
        return Status::DataLoss("cannot trim cold store " + path_ + ": " +
                                ec.message());
      }
      PISREP_RETURN_IF_ERROR(OpenFile(/*truncate=*/false));
      return Status::Ok();
    }
    TableState& state = tables_[parsed->table];
    if (parsed->tombstone) {
      std::optional<std::uint32_t> old;
      auto ov = state.overflow.find(parsed->key_bytes);
      if (ov != state.overflow.end()) {
        old = ov->second.frame_len;
        state.overflow.erase(ov);
      } else {
        auto it = state.primary.find(KeyDigest(parsed->key_bytes));
        if (it != state.primary.end()) {
          old = it->second.frame_len;
          state.primary.erase(it);
        }
      }
      if (old.has_value()) {
        dead_bytes_ += *old + frame_len;
        --live_rows_;
      } else {
        dead_bytes_ += frame_len;
      }
    } else {
      Entry entry{pos, frame_len};
      auto ov = state.overflow.find(parsed->key_bytes);
      if (ov != state.overflow.end()) {
        dead_bytes_ += ov->second.frame_len;
        ov->second = entry;
      } else {
        std::uint64_t digest = KeyDigest(parsed->key_bytes);
        auto it = state.primary.find(digest);
        if (it == state.primary.end()) {
          state.primary.emplace(digest, entry);
          ++live_rows_;
        } else {
          // Digest occupied: re-put of the same key, or a collision?
          std::string other_payload;
          PISREP_RETURN_IF_ERROR(
              ReadFrame(it->second.offset, &other_payload, nullptr));
          PISREP_ASSIGN_OR_RETURN(ParsedPayload other,
                                  ParsePayload(other_payload));
          if (other.key_bytes == parsed->key_bytes) {
            dead_bytes_ += it->second.frame_len;
            it->second = entry;
          } else {
            state.overflow.emplace(parsed->key_bytes, entry);
            ++live_rows_;
          }
        }
      }
      state.order.push_back(pos);
    }
    pos += frame_len;
  }
  return Status::Ok();
}

void ColdStore::EncodePayload(bool tombstone, std::string_view table,
                              std::string_view key_bytes,
                              std::string_view row_bytes, std::string* out) {
  out->push_back(static_cast<char>(tombstone ? kOpTombstone : kOpPut));
  PutLengthPrefixed(table, out);
  PutLengthPrefixed(key_bytes, out);
  out->append(row_bytes);
}

const ColdStore::Entry* ColdStore::FindEntry(
    const TableState& state, std::string_view key_bytes) const {
  auto ov = state.overflow.find(std::string(key_bytes));
  if (ov != state.overflow.end()) return &ov->second;
  auto it = state.primary.find(KeyDigest(key_bytes));
  if (it == state.primary.end()) return nullptr;
  // A digest hit proves nothing on its own — verify against the frame.
  std::string payload;
  if (!ReadFrame(it->second.offset, &payload, nullptr).ok()) return nullptr;
  auto parsed = ParsePayload(payload);
  if (!parsed.ok() || parsed->key_bytes != key_bytes) return nullptr;
  return &it->second;
}

Result<std::uint64_t> ColdStore::Put(std::string_view table,
                                     std::string_view key_bytes,
                                     std::string_view row_bytes) {
  TableState& state = tables_[std::string(table)];
  std::string payload;
  EncodePayload(/*tombstone=*/false, table, key_bytes, row_bytes, &payload);
  std::uint64_t offset = 0;
  std::uint32_t frame_len = 0;
  PISREP_RETURN_IF_ERROR(AppendFrame(payload, &offset, &frame_len));
  Entry entry{offset, frame_len};

  auto ov = state.overflow.find(std::string(key_bytes));
  if (ov != state.overflow.end()) {
    dead_bytes_ += ov->second.frame_len;
    ov->second = entry;
  } else {
    std::uint64_t digest = KeyDigest(key_bytes);
    auto it = state.primary.find(digest);
    if (it == state.primary.end()) {
      state.primary.emplace(digest, entry);
      ++live_rows_;
    } else {
      std::string other_payload;
      Status read = ReadFrame(it->second.offset, &other_payload, nullptr);
      bool same_key = false;
      if (read.ok()) {
        auto other = ParsePayload(other_payload);
        same_key = other.ok() && other->key_bytes == key_bytes;
      }
      if (same_key) {
        dead_bytes_ += it->second.frame_len;
        it->second = entry;
      } else {
        state.overflow.emplace(std::string(key_bytes), entry);
        ++live_rows_;
      }
    }
  }
  state.order.push_back(offset);
  return offset;
}

Status ColdStore::Erase(std::string_view table, std::string_view key_bytes) {
  auto table_it = tables_.find(std::string(table));
  if (table_it == tables_.end()) {
    return Status::NotFound("cold store has no rows for table " +
                            std::string(table));
  }
  TableState& state = table_it->second;
  const Entry* entry = FindEntry(state, key_bytes);
  if (entry == nullptr) {
    return Status::NotFound("key not in cold store table " +
                            std::string(table));
  }
  std::uint32_t old_len = entry->frame_len;
  std::string payload;
  EncodePayload(/*tombstone=*/true, table, key_bytes, {}, &payload);
  std::uint64_t offset = 0;
  std::uint32_t frame_len = 0;
  PISREP_RETURN_IF_ERROR(AppendFrame(payload, &offset, &frame_len));
  auto ov = state.overflow.find(std::string(key_bytes));
  if (ov != state.overflow.end()) {
    state.overflow.erase(ov);
  } else {
    state.primary.erase(KeyDigest(key_bytes));
  }
  dead_bytes_ += old_len + frame_len;
  --live_rows_;
  return Status::Ok();
}

bool ColdStore::Contains(std::string_view table,
                         std::string_view key_bytes) const {
  auto it = tables_.find(std::string(table));
  if (it == tables_.end()) return false;
  return FindEntry(it->second, key_bytes) != nullptr;
}

Result<ColdStore::RowRef> ColdStore::Get(std::string_view table,
                                         std::string_view key_bytes) const {
  auto it = tables_.find(std::string(table));
  const Entry* entry =
      it == tables_.end() ? nullptr : FindEntry(it->second, key_bytes);
  if (entry == nullptr) {
    return Status::NotFound("key not in cold store table " +
                            std::string(table));
  }
  std::string payload;
  PISREP_RETURN_IF_ERROR(ReadFrame(entry->offset, &payload, nullptr));
  PISREP_ASSIGN_OR_RETURN(ParsedPayload parsed, ParsePayload(payload));
  RowRef ref;
  ref.offset = entry->offset;
  ref.row_bytes = std::move(parsed.row_bytes);
  return ref;
}

Result<ColdStore::FrameView> ColdStore::ReadAt(std::string_view table,
                                               std::uint64_t offset) const {
  std::string payload;
  PISREP_RETURN_IF_ERROR(ReadFrame(offset, &payload, nullptr));
  PISREP_ASSIGN_OR_RETURN(ParsedPayload parsed, ParsePayload(payload));
  FrameView view;
  view.key_bytes = std::move(parsed.key_bytes);
  view.row_bytes = std::move(parsed.row_bytes);
  view.live = false;
  auto it = tables_.find(std::string(table));
  if (!parsed.tombstone && it != tables_.end()) {
    const TableState& state = it->second;
    // Liveness without a verify read: the frame's own key either sits in
    // the exact overflow map, or its digest entry points right back here.
    auto ov = state.overflow.find(view.key_bytes);
    if (ov != state.overflow.end()) {
      view.live = ov->second.offset == offset;
    } else {
      auto pri = state.primary.find(KeyDigest(view.key_bytes));
      view.live = pri != state.primary.end() && pri->second.offset == offset;
    }
  }
  return view;
}

Status ColdStore::ForEachLive(
    std::string_view table,
    const std::function<util::Status(std::uint64_t, std::string_view,
                                     std::string_view)>& visit) const {
  auto it = tables_.find(std::string(table));
  if (it == tables_.end()) return Status::Ok();
  for (std::uint64_t offset : it->second.order) {
    PISREP_ASSIGN_OR_RETURN(FrameView view, ReadAt(table, offset));
    if (!view.live) continue;
    PISREP_RETURN_IF_ERROR(visit(offset, view.key_bytes, view.row_bytes));
  }
  return Status::Ok();
}

std::size_t ColdStore::LiveCount(std::string_view table) const {
  auto it = tables_.find(std::string(table));
  if (it == tables_.end()) return 0;
  return it->second.primary.size() + it->second.overflow.size();
}

ColdStore::IndexFootprint ColdStore::FootprintOf(
    std::string_view table) const {
  IndexFootprint footprint;
  auto it = tables_.find(std::string(table));
  if (it == tables_.end()) return footprint;
  footprint.primary_entries = it->second.primary.size();
  footprint.overflow_entries = it->second.overflow.size();
  footprint.order_entries = it->second.order.size();
  return footprint;
}

bool ColdStore::ShouldGc() const {
  if (file_bytes_ < options_.gc_min_file_bytes) return false;
  return static_cast<double>(dead_bytes_) >
         kGcDeadRatio * static_cast<double>(file_bytes_);
}

Result<bool> ColdStore::MaybeGc() {
  if (!ShouldGc()) return false;
  PISREP_RETURN_IF_ERROR(RunGc());
  return true;
}

Status ColdStore::RunGc() {
  // Rewrite live frames — in global append order, so per-table iteration
  // order survives the move — into a sibling file, then swap it in.
  const std::string gc_path = path_ + ".gc";
  std::FILE* out = std::fopen(gc_path.c_str(), "wb");
  if (out == nullptr) {
    return Status::Internal("cannot open GC output " + gc_path);
  }
  std::unordered_map<std::string, TableState> rebuilt;
  std::uint64_t out_bytes = 0;
  std::uint64_t pos = 0;
  Status failed = Status::Ok();
  while (pos < file_bytes_) {
    std::string payload;
    std::uint32_t frame_len = 0;
    failed = ReadFrame(pos, &payload, &frame_len);
    if (!failed.ok()) break;
    auto parsed = ParsePayload(payload);
    if (!parsed.ok()) {
      failed = parsed.status();
      break;
    }
    std::uint64_t frame_offset = pos;
    pos += frame_len;
    if (parsed->tombstone) continue;
    auto state_it = tables_.find(parsed->table);
    if (state_it == tables_.end()) continue;
    const TableState& state = state_it->second;
    bool live = false;
    auto ov = state.overflow.find(parsed->key_bytes);
    if (ov != state.overflow.end()) {
      live = ov->second.offset == frame_offset;
    } else {
      auto pri = state.primary.find(KeyDigest(parsed->key_bytes));
      live = pri != state.primary.end() &&
             pri->second.offset == frame_offset;
    }
    if (!live) continue;
    // Re-frame verbatim: same payload, same CRC, new offset.
    std::string frame;
    PutVarint(payload.size(), &frame);
    frame.append(payload);
    std::uint32_t crc = ColdBlockCrc(payload);
    for (int i = 0; i < 4; ++i) {
      frame.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
    }
    if (std::fwrite(frame.data(), 1, frame.size(), out) != frame.size()) {
      failed = Status::Internal("GC write failed on " + gc_path);
      break;
    }
    TableState& new_state = rebuilt[parsed->table];
    Entry entry{out_bytes, static_cast<std::uint32_t>(frame.size())};
    std::uint64_t digest = KeyDigest(parsed->key_bytes);
    // Every key appears exactly once among live frames, so a digest hit
    // here can only be a genuine collision between distinct keys.
    if (new_state.primary.contains(digest)) {
      new_state.overflow.emplace(parsed->key_bytes, entry);
    } else {
      new_state.primary.emplace(digest, entry);
    }
    new_state.order.push_back(out_bytes);
    out_bytes += frame.size();
  }
  if (failed.ok() && std::fflush(out) != 0) {
    failed = Status::Internal("GC flush failed on " + gc_path);
  }
  std::fclose(out);
  if (!failed.ok()) {
    std::error_code ec;
    std::filesystem::remove(gc_path, ec);
    return failed;
  }
  std::fclose(file_);
  file_ = nullptr;
  fd_ = -1;
  std::error_code ec;
  std::filesystem::rename(gc_path, path_, ec);
  if (ec) {
    return Status::Internal("GC rename failed: " + ec.message());
  }
  std::uint64_t reclaimed = file_bytes_ - out_bytes;
  tables_ = std::move(rebuilt);
  dead_bytes_ = 0;
  ++gc_runs_;
  gc_reclaimed_bytes_ += reclaimed;
  PISREP_RETURN_IF_ERROR(OpenFile(/*truncate=*/false));
  return Status::Ok();
}

ColdStoreStats ColdStore::stats() const {
  ColdStoreStats stats;
  stats.file_bytes = file_bytes_;
  stats.dead_bytes = dead_bytes_;
  stats.live_rows = live_rows_;
  stats.appends = appends_;
  stats.reads = reads_.load(std::memory_order_relaxed);
  stats.gc_runs = gc_runs_;
  stats.gc_reclaimed_bytes = gc_reclaimed_bytes_;
  return stats;
}

}  // namespace pisrep::storage
