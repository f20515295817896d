#include "trust/manifest_store.h"

#include <string>
#include <utility>

#include "storage/schema.h"
#include "storage/value.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pisrep::trust {

namespace {

using storage::Row;
using storage::SchemaBuilder;
using storage::Value;
using util::Status;

}  // namespace

ManifestStore::ManifestStore(storage::Database* db) : db_(db) {
  if (!db_->HasTable(kTable)) {
    Status status = db_->CreateTable(SchemaBuilder(std::string(kTable))
                                         .Str("software")
                                         .Str("vendor")
                                         .Str("file_name")
                                         .Str("version")
                                         .Str("sig")
                                         .Int("verified_at")
                                         .PrimaryKey("software")
                                         .Build());
    PISREP_CHECK(status.ok()) << status.ToString();
  }
  Index loaded;
  auto scan = db_->ForEachRow(kTable, [&loaded](const Row& row) {
    SoftwareManifest manifest;
    auto id = core::SoftwareIdFromHex(row[0].AsStr());
    if (!id.ok()) return;
    manifest.software = *id;
    manifest.vendor = row[1].AsStr();
    manifest.file_name = row[2].AsStr();
    manifest.version = row[3].AsStr();
    auto sig = util::ParseInt64(row[4].AsStr());
    manifest.signature =
        sig.ok() ? static_cast<crypto::Signature>(*sig) : 0;
    loaded[manifest.software] = std::move(manifest);
  });
  PISREP_CHECK(scan.ok()) << scan.ToString();
  Republish(std::move(loaded));
}

Status ManifestStore::Put(const SoftwareManifest& manifest,
                          util::TimePoint at) {
  PISREP_ASSIGN_OR_RETURN(storage::TieredTable * table,
                          db_->GetTiered(kTable));
  PISREP_RETURN_IF_ERROR(table->Upsert(Row{
      Value::Str(manifest.software.ToHex()),
      Value::Str(manifest.vendor),
      Value::Str(manifest.file_name),
      Value::Str(manifest.version),
      Value::Str(std::to_string(manifest.signature)),
      Value::Int(at),
  }));
  Index next = *index_.Load();
  next[manifest.software] = manifest;
  Republish(std::move(next));
  return Status::Ok();
}

std::size_t ManifestStore::size() const { return index_.Load()->size(); }

void ManifestStore::Republish(Index next) {
  index_.Store(std::make_shared<const Index>(std::move(next)));
}

}  // namespace pisrep::trust
