#include "client/safety_lists.h"

#include "util/hex.h"
#include "util/logging.h"

namespace pisrep::client {

namespace {

using storage::Row;
using storage::SchemaBuilder;
using storage::Value;
using util::Status;

constexpr int kNone = 0;
constexpr int kWhite = 1;
constexpr int kBlack = 2;

}  // namespace

SafetyLists::SafetyLists(storage::Database* db) : db_(db) {
  if (!db_->HasTable("safety_lists")) {
    Status status = db_->CreateTable(SchemaBuilder("safety_lists")
                                         .Str("id")
                                         .Int("list")
                                         .PrimaryKey("id")
                                         .Build());
    PISREP_CHECK(status.ok()) << status.ToString();
  }
  table_ = db_->GetTable("safety_lists").value();
  // Load persisted state.
  table_->ForEach([this](const Row& row) {
    core::SoftwareId id;
    if (!util::HexDecodeTo(row[0].AsStr(), id.bytes)) return;
    if (row[1].AsInt() == kWhite) {
      whitelist_.insert(id);
    } else if (row[1].AsInt() == kBlack) {
      blacklist_.insert(id);
    }
  });
}

Status SafetyLists::AddToWhitelist(const core::SoftwareId& id) {
  blacklist_.erase(id);
  whitelist_.insert(id);
  return Persist(id, kWhite);
}

Status SafetyLists::AddToBlacklist(const core::SoftwareId& id) {
  whitelist_.erase(id);
  blacklist_.insert(id);
  return Persist(id, kBlack);
}

Status SafetyLists::Remove(const core::SoftwareId& id) {
  whitelist_.erase(id);
  blacklist_.erase(id);
  return Persist(id, kNone);
}

bool SafetyLists::IsWhitelisted(const core::SoftwareId& id) const {
  return whitelist_.contains(id);
}

bool SafetyLists::IsBlacklisted(const core::SoftwareId& id) const {
  return blacklist_.contains(id);
}

Status SafetyLists::Persist(const core::SoftwareId& id, int list) {
  if (table_ == nullptr) return Status::Ok();
  if (list == kNone) {
    Status status = table_->Delete(Value::Str(id.ToHex()));
    // Deleting an id that was never persisted is fine.
    if (status.code() == util::StatusCode::kNotFound) return Status::Ok();
    return status;
  }
  return table_->Upsert(Row{Value::Str(id.ToHex()), Value::Int(list)});
}

}  // namespace pisrep::client
