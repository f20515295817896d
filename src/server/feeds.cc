#include "server/feeds.h"

#include "util/hex.h"
#include "util/logging.h"

namespace pisrep::server {

namespace {

using storage::Row;
using storage::SchemaBuilder;
using storage::Value;
using util::Result;
using util::Status;

FeedEntry EntryFromRow(const Row& row) {
  FeedEntry entry;
  entry.feed = row[1].AsStr();
  PISREP_CHECK(util::HexDecodeTo(row[2].AsStr(), entry.software.bytes))
      << "corrupt software id in feed store";
  entry.score = row[3].AsReal();
  auto behaviors = core::BehaviorSetFromString(row[4].AsStr());
  entry.behaviors = behaviors.ok() ? *behaviors : core::kNoBehaviors;
  entry.note = row[5].AsStr();
  entry.published_at = row[6].AsInt();
  // Rows persisted before the expert-flag column default to unflagged.
  entry.expert_flagged = row.size() > 7 && row[7].AsInt() != 0;
  return entry;
}

}  // namespace

FeedStore::FeedStore(storage::Database* db) : db_(db) {
  if (!db_->HasTable("feeds")) {
    Status status = db_->CreateTable(SchemaBuilder("feeds")
                                         .Str("name")
                                         .Int("publisher")
                                         .Str("description")
                                         .PrimaryKey("name")
                                         .Build());
    PISREP_CHECK(status.ok()) << status.ToString();
  }
  if (!db_->HasTable("feed_entries")) {
    Status status = db_->CreateTable(SchemaBuilder("feed_entries")
                                         .Str("key")
                                         .Str("feed")
                                         .Str("software")
                                         .Real("score")
                                         .Str("behaviors")
                                         .Str("note")
                                         .Int("published_at")
                                         .Int("flagged")
                                         .PrimaryKey("key")
                                         .Index("feed")
                                         .Build());
    PISREP_CHECK(status.ok()) << status.ToString();
  }
  feeds_ = db_->GetTable("feeds").value();
  entries_ = db_->GetTable("feed_entries").value();
}

Status FeedStore::CreateFeed(std::string_view name, core::UserId publisher,
                             std::string_view description) {
  if (name.empty()) return Status::InvalidArgument("feed name required");
  return feeds_->Insert(Row{
      Value::Str(std::string(name)),
      Value::Int(publisher),
      Value::Str(std::string(description)),
  });
}

bool FeedStore::HasFeed(std::string_view name) const {
  return feeds_->Contains(Value::Str(std::string(name)));
}

Result<core::UserId> FeedStore::FeedPublisher(std::string_view name) const {
  PISREP_ASSIGN_OR_RETURN(Row row,
                          feeds_->Get(Value::Str(std::string(name))));
  return row[1].AsInt();
}

Status FeedStore::Publish(const FeedEntry& entry, core::UserId publisher) {
  PISREP_ASSIGN_OR_RETURN(core::UserId owner, FeedPublisher(entry.feed));
  if (owner != publisher) {
    return Status::PermissionDenied("only the feed owner may publish");
  }
  if (entry.score < core::kMinRating || entry.score > core::kMaxRating) {
    return Status::InvalidArgument("feed score outside [1, 10]");
  }
  std::string key = entry.feed + ":" + entry.software.ToHex();
  return entries_->Upsert(Row{
      Value::Str(key),
      Value::Str(entry.feed),
      Value::Str(entry.software.ToHex()),
      Value::Real(entry.score),
      Value::Str(core::BehaviorSetToString(entry.behaviors)),
      Value::Str(entry.note),
      Value::Int(entry.published_at),
      Value::Int(entry.expert_flagged ? 1 : 0),
  });
}

Result<FeedEntry> FeedStore::Lookup(std::string_view feed,
                                    const core::SoftwareId& software) const {
  std::string key = std::string(feed) + ":" + software.ToHex();
  PISREP_ASSIGN_OR_RETURN(Row row, entries_->Get(Value::Str(key)));
  return EntryFromRow(row);
}

std::vector<FeedEntry> FeedStore::Entries(std::string_view feed) const {
  std::vector<FeedEntry> out;
  auto rows = entries_->FindByIndex("feed", Value::Str(std::string(feed)));
  if (!rows.ok()) return out;
  out.reserve(rows->size());
  for (const Row& row : *rows) out.push_back(EntryFromRow(row));
  return out;
}

std::vector<std::string> FeedStore::FeedNames() const {
  std::vector<std::string> names;
  feeds_->ForEach([&](const Row& row) { names.push_back(row[0].AsStr()); });
  return names;
}

}  // namespace pisrep::server
