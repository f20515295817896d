#ifndef PISREP_STORAGE_TABLE_H_
#define PISREP_STORAGE_TABLE_H_

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/status.h"

namespace pisrep::storage {

/// Change kinds reported to a table's mutation listener (the WAL).
enum class MutationOp : std::uint8_t {
  kInsert = 0,
  kUpsert = 1,
  kDelete = 2,
};

/// An in-memory table with a unique primary-key hash index and optional
/// non-unique secondary hash indexes.
///
/// Mutations are funneled through Insert/Upsert/Delete so that the owning
/// Database can journal them; reads are index-backed where possible and fall
/// back to full scans with a caller-supplied predicate.
class Table {
 public:
  /// Invoked after every successful mutation, with the affected row (for
  /// deletes, the pre-image's key only).
  using MutationListener =
      std::function<void(MutationOp op, const Row& row, const Value& key)>;

  explicit Table(TableSchema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const TableSchema& schema() const { return schema_; }
  std::size_t size() const { return rows_.size(); }

  void SetMutationListener(MutationListener listener) {
    listener_ = std::move(listener);
  }

  /// Inserts a new row; fails with kAlreadyExists when the key is taken.
  util::Status Insert(Row row);

  /// Inserts or replaces by primary key.
  util::Status Upsert(Row row);

  /// Row with the given primary key; kNotFound when absent.
  util::Result<Row> Get(const Value& key) const;

  /// Pointer to the row with the given primary key, or nullptr — the
  /// zero-copy sibling of Get for callers that serve many point reads
  /// (the tiered facade resolving resident rows). The pointer is valid
  /// only until the next mutation.
  const Row* FindRow(const Value& key) const;

  bool Contains(const Value& key) const;

  /// Deletes by primary key; kNotFound when absent.
  util::Status Delete(const Value& key);

  /// All rows whose indexed column equals `value`, in ForEachByIndex
  /// order. The column must have a declared secondary index.
  util::Result<std::vector<Row>> FindByIndex(std::string_view column,
                                             const Value& value) const;

  /// Visits every row whose indexed column equals `value` without
  /// materializing (and copying into) a vector — the hot-path sibling of
  /// FindByIndex. Order: newest-indexed first. A row is (re)indexed when
  /// it is inserted, upserted, or relocated into a deleted row's slot;
  /// a delete leaves the other rows' order alone. That order is the
  /// aggregation's float summation order (DESIGN.md §9). The rows passed
  /// to `visit` live inside the table; references must not be retained
  /// past a mutation.
  util::Status ForEachByIndex(
      std::string_view column, const Value& value,
      const std::function<void(const Row&)>& visit) const;

  /// Number of rows whose indexed column equals `value`; lets callers
  /// reserve before a ForEachByIndex materialization pass.
  util::Result<std::size_t> CountByIndex(std::string_view column,
                                         const Value& value) const;

  /// Rows whose ordered-indexed column lies in [min, max] (both inclusive),
  /// in ascending column order. The column must have a declared ordered
  /// index.
  util::Result<std::vector<Row>> ScanRange(std::string_view column,
                                           const Value& min,
                                           const Value& max) const;

  /// Up to `limit` rows in ascending (or descending) order of the
  /// ordered-indexed column.
  util::Result<std::vector<Row>> ScanOrdered(std::string_view column,
                                             bool ascending,
                                             std::size_t limit) const;

  /// Full scan; rows for which `pred` returns true. Order is unspecified.
  std::vector<Row> Scan(const std::function<bool(const Row&)>& pred) const;

  /// Visits every row (unspecified order) without copying.
  void ForEach(const std::function<void(const Row&)>& visit) const;

  /// Inserts without notifying the listener (used by WAL replay and
  /// checkpoint loading, where the row is already durable).
  util::Status InsertUnlogged(Row row);
  util::Status UpsertUnlogged(Row row);
  util::Status DeleteUnlogged(const Value& key);

 private:
  util::Status InsertImpl(Row row, bool log);
  util::Status UpsertImpl(Row row, bool log);
  util::Status DeleteImpl(const Value& key, bool log);

  void IndexRow(std::size_t slot);
  void UnindexRow(std::size_t slot);
  /// The slot list of `value` in the secondary index on `column` (empty
  /// when no row holds that value).
  util::Result<const std::vector<std::size_t>*> IndexedSlots(
      std::string_view column, const Value& value) const;

  TableSchema schema_;
  std::vector<Row> rows_;  ///< dense storage; slots swap-removed on delete
  std::unordered_map<Value, std::size_t, ValueHash> primary_;  ///< key→slot
  /// One map per declared secondary index, parallel to
  /// schema_.secondary_indexes(): value → its rows' slots, oldest-indexed
  /// first (visits walk each list from the back).
  std::vector<std::unordered_map<Value, std::vector<std::size_t>, ValueHash>>
      secondary_;
  /// One tree per declared ordered index, parallel to
  /// schema_.ordered_indexes(): value → slots, sorted.
  std::vector<std::multimap<Value, std::size_t, ValueLess>> ordered_;
  MutationListener listener_;
};

}  // namespace pisrep::storage

#endif  // PISREP_STORAGE_TABLE_H_
