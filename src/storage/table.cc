#include "storage/table.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "util/logging.h"

namespace pisrep::storage {

namespace {

using util::Result;
using util::Status;

/// Finds the position of `column` within an index declaration list.
Result<std::size_t> IndexPosition(const TableSchema& schema,
                                  const std::vector<std::size_t>& declared,
                                  std::string_view column,
                                  const char* index_kind) {
  PISREP_ASSIGN_OR_RETURN(std::size_t col, schema.ColumnIndex(column));
  for (std::size_t i = 0; i < declared.size(); ++i) {
    if (declared[i] == col) return i;
  }
  return Status::FailedPrecondition(
      "column " + std::string(column) + " has no " + index_kind +
      " index in table " + schema.table_name());
}

}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  secondary_.resize(schema_.secondary_indexes().size());
  ordered_.resize(schema_.ordered_indexes().size());
}

Status Table::Insert(Row row) { return InsertImpl(std::move(row), true); }
Status Table::Upsert(Row row) { return UpsertImpl(std::move(row), true); }
Status Table::Delete(const Value& key) { return DeleteImpl(key, true); }

Status Table::InsertUnlogged(Row row) {
  return InsertImpl(std::move(row), false);
}
Status Table::UpsertUnlogged(Row row) {
  return UpsertImpl(std::move(row), false);
}
Status Table::DeleteUnlogged(const Value& key) {
  return DeleteImpl(key, false);
}

Status Table::InsertImpl(Row row, bool log) {
  PISREP_RETURN_IF_ERROR(schema_.CheckRow(row));
  const Value& key = row[schema_.primary_key_index()];
  if (primary_.contains(key)) {
    return Status::AlreadyExists("duplicate key " + key.ToString() +
                                 " in table " + schema_.table_name());
  }
  rows_.push_back(std::move(row));
  std::size_t slot = rows_.size() - 1;
  primary_.emplace(rows_[slot][schema_.primary_key_index()], slot);
  IndexRow(slot);
  if (log && listener_) {
    listener_(MutationOp::kInsert, rows_[slot],
              rows_[slot][schema_.primary_key_index()]);
  }
  return Status::Ok();
}

Status Table::UpsertImpl(Row row, bool log) {
  PISREP_RETURN_IF_ERROR(schema_.CheckRow(row));
  const Value key = row[schema_.primary_key_index()];
  auto it = primary_.find(key);
  if (it == primary_.end()) {
    rows_.push_back(std::move(row));
    std::size_t slot = rows_.size() - 1;
    primary_.emplace(rows_[slot][schema_.primary_key_index()], slot);
    IndexRow(slot);
    if (log && listener_) {
      listener_(MutationOp::kUpsert, rows_[slot], key);
    }
    return Status::Ok();
  }
  std::size_t slot = it->second;
  UnindexRow(slot);
  rows_[slot] = std::move(row);
  IndexRow(slot);
  if (log && listener_) {
    listener_(MutationOp::kUpsert, rows_[slot], key);
  }
  return Status::Ok();
}

Result<Row> Table::Get(const Value& key) const {
  auto it = primary_.find(key);
  if (it == primary_.end()) {
    return Status::NotFound("key " + key.ToString() + " not in table " +
                            schema_.table_name());
  }
  return rows_[it->second];
}

const Row* Table::FindRow(const Value& key) const {
  auto it = primary_.find(key);
  return it == primary_.end() ? nullptr : &rows_[it->second];
}

bool Table::Contains(const Value& key) const {
  return primary_.contains(key);
}

Status Table::DeleteImpl(const Value& key, bool log) {
  auto it = primary_.find(key);
  if (it == primary_.end()) {
    return Status::NotFound("key " + key.ToString() + " not in table " +
                            schema_.table_name());
  }
  std::size_t slot = it->second;
  UnindexRow(slot);
  primary_.erase(it);

  std::size_t last = rows_.size() - 1;
  if (slot != last) {
    // Swap-remove: relocate the last row into the vacated slot and update
    // all indexes pointing at it.
    UnindexRow(last);
    const Value last_key = rows_[last][schema_.primary_key_index()];
    primary_.erase(last_key);
    rows_[slot] = std::move(rows_[last]);
    primary_.emplace(rows_[slot][schema_.primary_key_index()], slot);
    IndexRow(slot);
  }
  rows_.pop_back();

  if (log && listener_) {
    static const Row kEmptyRow;
    listener_(MutationOp::kDelete, kEmptyRow, key);
  }
  return Status::Ok();
}

Result<const std::vector<std::size_t>*> Table::IndexedSlots(
    std::string_view column, const Value& value) const {
  PISREP_ASSIGN_OR_RETURN(
      std::size_t pos, IndexPosition(schema_, schema_.secondary_indexes(),
                                     column, "secondary"));
  static const std::vector<std::size_t> kNoSlots;
  auto it = secondary_[pos].find(value);
  return it == secondary_[pos].end() ? &kNoSlots : &it->second;
}

Result<std::vector<Row>> Table::FindByIndex(std::string_view column,
                                            const Value& value) const {
  PISREP_ASSIGN_OR_RETURN(const std::vector<std::size_t>* slots,
                          IndexedSlots(column, value));
  std::vector<Row> out;
  out.reserve(slots->size());
  for (auto it = slots->rbegin(); it != slots->rend(); ++it) {
    out.push_back(rows_[*it]);
  }
  return out;
}

Status Table::ForEachByIndex(
    std::string_view column, const Value& value,
    const std::function<void(const Row&)>& visit) const {
  PISREP_ASSIGN_OR_RETURN(const std::vector<std::size_t>* slots,
                          IndexedSlots(column, value));
  for (auto it = slots->rbegin(); it != slots->rend(); ++it) {
    visit(rows_[*it]);
  }
  return Status::Ok();
}

Result<std::size_t> Table::CountByIndex(std::string_view column,
                                        const Value& value) const {
  PISREP_ASSIGN_OR_RETURN(const std::vector<std::size_t>* slots,
                          IndexedSlots(column, value));
  return slots->size();
}

Result<std::vector<Row>> Table::ScanRange(std::string_view column,
                                          const Value& min,
                                          const Value& max) const {
  PISREP_ASSIGN_OR_RETURN(
      std::size_t pos, IndexPosition(schema_, schema_.ordered_indexes(),
                                     column, "ordered"));
  std::vector<Row> out;
  auto begin = ordered_[pos].lower_bound(min);
  auto end = ordered_[pos].upper_bound(max);
  for (auto it = begin; it != end; ++it) {
    out.push_back(rows_[it->second]);
  }
  return out;
}

Result<std::vector<Row>> Table::ScanOrdered(std::string_view column,
                                            bool ascending,
                                            std::size_t limit) const {
  PISREP_ASSIGN_OR_RETURN(
      std::size_t pos, IndexPosition(schema_, schema_.ordered_indexes(),
                                     column, "ordered"));
  std::vector<Row> out;
  const auto& index = ordered_[pos];
  if (ascending) {
    for (auto it = index.begin(); it != index.end() && out.size() < limit;
         ++it) {
      out.push_back(rows_[it->second]);
    }
  } else {
    for (auto it = index.rbegin();
         it != index.rend() && out.size() < limit; ++it) {
      out.push_back(rows_[it->second]);
    }
  }
  return out;
}

std::vector<Row> Table::Scan(
    const std::function<bool(const Row&)>& pred) const {
  std::vector<Row> out;
  for (const Row& row : rows_) {
    if (pred(row)) out.push_back(row);
  }
  return out;
}

void Table::ForEach(const std::function<void(const Row&)>& visit) const {
  for (const Row& row : rows_) visit(row);
}

void Table::IndexRow(std::size_t slot) {
  for (std::size_t i = 0; i < schema_.secondary_indexes().size(); ++i) {
    std::size_t col = schema_.secondary_indexes()[i];
    secondary_[i].try_emplace(rows_[slot][col]).first->second.push_back(slot);
  }
  for (std::size_t i = 0; i < schema_.ordered_indexes().size(); ++i) {
    std::size_t col = schema_.ordered_indexes()[i];
    ordered_[i].emplace(rows_[slot][col], slot);
  }
}

void Table::UnindexRow(std::size_t slot) {
  for (std::size_t i = 0; i < schema_.secondary_indexes().size(); ++i) {
    std::size_t col = schema_.secondary_indexes()[i];
    auto group = secondary_[i].find(rows_[slot][col]);
    if (group == secondary_[i].end()) continue;
    // Erase in place so the rest keep their order. Search from the newest
    // end: the row a swap-remove relocates (the last slot) usually sits
    // there.
    std::vector<std::size_t>& slots = group->second;
    auto it = std::find(slots.rbegin(), slots.rend(), slot);
    if (it == slots.rend()) continue;
    slots.erase(std::next(it).base());
    if (slots.empty()) secondary_[i].erase(group);
  }
  for (std::size_t i = 0; i < schema_.ordered_indexes().size(); ++i) {
    std::size_t col = schema_.ordered_indexes()[i];
    auto [begin, end] = ordered_[i].equal_range(rows_[slot][col]);
    for (auto it = begin; it != end; ++it) {
      if (it->second == slot) {
        ordered_[i].erase(it);
        break;
      }
    }
  }
}

}  // namespace pisrep::storage
