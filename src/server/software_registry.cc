#include "server/software_registry.h"

#include <unordered_set>
#include <utility>

#include "util/hex.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pisrep::server {

namespace {

using core::SoftwareId;
using storage::Row;
using storage::SchemaBuilder;
using storage::Table;
using storage::Value;
using util::Result;
using util::Status;

Status EnsureTable(storage::Database* db, const storage::TableSchema& schema) {
  if (db->HasTable(schema.table_name())) return Status::Ok();
  return db->CreateTable(schema);
}

/// The binary id in a row's hex id column (column 0 of every table here).
SoftwareId IdFromRow(const Row& row) {
  SoftwareId id;
  PISREP_CHECK(util::HexDecodeTo(row[0].AsStr(), id.bytes))
      << "corrupt software id in registry";
  return id;
}

core::SoftwareMeta MetaFromRow(const Row& row) {
  core::SoftwareMeta meta;
  meta.id = IdFromRow(row);
  meta.file_name = row[1].AsStr();
  meta.file_size = row[2].AsInt();
  meta.company = row[3].AsStr();
  meta.version = row[4].AsStr();
  return meta;
}

}  // namespace

SoftwareRegistry::SoftwareRegistry(storage::Database* db) : db_(db) {
  Status status = EnsureTable(
      db_, SchemaBuilder("software")
               .Str("id")
               .Str("file_name")
               .Int("file_size")
               .Str("company")
               .Str("version")
               .PrimaryKey("id")
               .Index("company")
               .Build());
  PISREP_CHECK(status.ok()) << status.ToString();
  status = EnsureTable(db_, SchemaBuilder("software_scores")
                                .Str("id")
                                .Real("score")
                                .Int("vote_count")
                                .Real("weight_sum")
                                .Int("computed_at")
                                .Real("bootstrap_score")
                                .Real("bootstrap_weight")
                                .PrimaryKey("id")
                                .OrderedIndex("score")
                                .Build());
  PISREP_CHECK(status.ok()) << status.ToString();
  status = EnsureTable(db_, SchemaBuilder("vendor_scores")
                                .Str("vendor")
                                .Real("score")
                                .Int("software_count")
                                .Int("computed_at")
                                .PrimaryKey("vendor")
                                .Build());
  PISREP_CHECK(status.ok()) << status.ToString();
  status = EnsureTable(db_, SchemaBuilder("behavior_reports")
                                .Str("key")
                                .Str("software")
                                .Str("behavior")
                                .Int("report_count")
                                .PrimaryKey("key")
                                .Index("software")
                                .Build());
  PISREP_CHECK(status.ok()) << status.ToString();

  status = EnsureTable(db_, SchemaBuilder("run_stats")
                                .Str("id")
                                .Int("total_runs")
                                .PrimaryKey("id")
                                .Build());
  PISREP_CHECK(status.ok()) << status.ToString();

  software_ = db_->GetTiered("software").value();
  scores_ = db_->GetTiered("software_scores").value();
  vendor_scores_ = db_->GetTiered("vendor_scores").value();
  behavior_reports_ = db_->GetTiered("behavior_reports").value();
  run_stats_ = db_->GetTiered("run_stats").value();
}

Status SoftwareRegistry::RegisterSoftware(const core::SoftwareMeta& meta) {
  std::string id_hex = meta.id.ToHex();
  auto existing = software_->Get(Value::Str(id_hex));
  if (existing.ok()) {
    core::SoftwareMeta current = MetaFromRow(*existing);
    if (current == meta) return Status::Ok();
    return Status::AlreadyExists(
        "software " + id_hex + " registered with different metadata");
  }
  Status inserted = software_->Insert(Row{
      Value::Str(id_hex),
      Value::Str(meta.file_name),
      Value::Int(meta.file_size),
      Value::Str(meta.company),
      Value::Str(meta.version),
  });
  if (inserted.ok()) ++content_generation_;
  return inserted;
}

bool SoftwareRegistry::HasSoftware(const SoftwareId& id) const {
  return software_->Contains(Value::Str(id.ToHex()));
}

Result<core::SoftwareMeta> SoftwareRegistry::GetSoftware(
    const SoftwareId& id) const {
  PISREP_ASSIGN_OR_RETURN(Row row, software_->Get(Value::Str(id.ToHex())));
  return MetaFromRow(row);
}

std::vector<core::SoftwareMeta> SoftwareRegistry::SoftwareByVendor(
    const core::VendorId& vendor) const {
  auto rows = software_->FindByIndex("company", Value::Str(vendor));
  std::vector<core::SoftwareMeta> out;
  if (!rows.ok()) return out;
  out.reserve(rows->size());
  for (const Row& row : *rows) out.push_back(MetaFromRow(row));
  return out;
}

void SoftwareRegistry::ForEachSoftwareOfVendor(
    const core::VendorId& vendor,
    const std::function<void(const SoftwareId&)>& visit) const {
  // The same index walk as SoftwareByVendor's FindByIndex, so both list a
  // vendor's titles in one order.
  Status visited = software_->ForEachByIndex(
      "company", Value::Str(vendor),
      [&](const Row& row) { visit(IdFromRow(row)); });
  PISREP_CHECK(visited.ok()) << visited.ToString();
}

core::VendorId SoftwareRegistry::VendorOf(const SoftwareId& id) const {
  auto row = software_->Get(Value::Str(id.ToHex()));
  return row.ok() ? (*row)[3].AsStr() : core::VendorId();
}

std::vector<core::VendorId> SoftwareRegistry::AllVendors() const {
  std::vector<core::VendorId> out;
  std::unordered_set<std::string> seen;
  software_->ForEach([&](const Row& row) {
    const std::string& company = row[3].AsStr();
    if (!company.empty() && seen.insert(company).second) {
      out.push_back(company);
    }
  });
  return out;
}

std::vector<SoftwareId> SoftwareRegistry::AllSoftware() const {
  std::vector<SoftwareId> out;
  out.reserve(software_->size());
  software_->ForEach([&](const Row& row) { out.push_back(IdFromRow(row)); });
  return out;
}

std::size_t SoftwareRegistry::SoftwareCount() const {
  return software_->size();
}

std::vector<core::SoftwareMeta> SoftwareRegistry::SearchByName(
    std::string_view query) const {
  std::string needle = util::ToLower(util::Trim(query));
  std::vector<core::SoftwareMeta> out;
  if (needle.empty()) return out;
  software_->ForEach([&](const Row& row) {
    if (util::ToLower(row[1].AsStr()).find(needle) != std::string::npos) {
      out.push_back(MetaFromRow(row));
    }
  });
  return out;
}

std::vector<core::VendorScore> SoftwareRegistry::AllVendorScores() const {
  std::vector<core::VendorScore> out;
  vendor_scores_->ForEach([&](const Row& row) {
    core::VendorScore score;
    score.vendor = row[0].AsStr();
    score.score = row[1].AsReal();
    score.software_count = static_cast<int>(row[2].AsInt());
    score.computed_at = row[3].AsInt();
    out.push_back(std::move(score));
  });
  return out;
}

Status SoftwareRegistry::PutScore(const core::SoftwareScore& score) {
  std::string id_hex = score.software.ToHex();
  auto [boot_score, boot_weight] = GetBootstrapPrior(score.software);
  Status put = scores_->Upsert(Row{
      Value::Str(id_hex),
      Value::Real(score.score),
      Value::Int(score.vote_count),
      Value::Real(score.weight_sum),
      Value::Int(score.computed_at),
      Value::Real(boot_score),
      Value::Real(boot_weight),
  });
  if (put.ok()) ++content_generation_;
  return put;
}

Result<core::SoftwareScore> SoftwareRegistry::GetScore(
    const SoftwareId& id) const {
  PISREP_ASSIGN_OR_RETURN(Row row, scores_->Get(Value::Str(id.ToHex())));
  core::SoftwareScore score;
  score.software = id;
  score.score = row[1].AsReal();
  score.vote_count = static_cast<int>(row[2].AsInt());
  score.weight_sum = row[3].AsReal();
  score.computed_at = row[4].AsInt();
  return score;
}

std::vector<core::SoftwareScore> SoftwareRegistry::TopScored(
    std::size_t limit, bool best) const {
  std::vector<core::SoftwareScore> out;
  // Ordered traversal; zero-vote rows (bootstrap-only priors) are filtered
  // out, so walk as far as needed.
  auto rows = scores_->ScanOrdered("score", /*ascending=*/!best,
                                   scores_->size());
  if (!rows.ok()) return out;
  for (const Row& row : *rows) {
    if (out.size() >= limit) break;
    if (row[2].AsInt() == 0) continue;
    core::SoftwareScore score;
    if (!util::HexDecodeTo(row[0].AsStr(), score.software.bytes)) continue;
    score.score = row[1].AsReal();
    score.vote_count = static_cast<int>(row[2].AsInt());
    score.weight_sum = row[3].AsReal();
    score.computed_at = row[4].AsInt();
    out.push_back(std::move(score));
  }
  return out;
}

Status SoftwareRegistry::PutBootstrapPrior(const SoftwareId& id,
                                           double score, double weight) {
  std::string id_hex = id.ToHex();
  auto existing = scores_->Get(Value::Str(id_hex));
  if (existing.ok()) {
    Row row = *existing;
    row[5] = Value::Real(score);
    row[6] = Value::Real(weight);
    PISREP_RETURN_IF_ERROR(scores_->Upsert(std::move(row)));
  } else {
    // No aggregated score yet: the prior *is* the visible score.
    PISREP_RETURN_IF_ERROR(scores_->Upsert(Row{
        Value::Str(id_hex),
        Value::Real(score),
        Value::Int(0),
        Value::Real(weight),
        Value::Int(0),
        Value::Real(score),
        Value::Real(weight),
    }));
  }
  if (dirty_prior_set_.insert(id).second) dirty_prior_order_.push_back(id);
  ++content_generation_;
  return Status::Ok();
}

std::pair<double, double> SoftwareRegistry::GetBootstrapPrior(
    const SoftwareId& id) const {
  auto row = scores_->Get(Value::Str(id.ToHex()));
  if (!row.ok()) return {0.0, 0.0};
  return {(*row)[5].AsReal(), (*row)[6].AsReal()};
}

std::vector<SoftwareId> SoftwareRegistry::TakeDirtyPriors() {
  std::vector<SoftwareId> out = std::move(dirty_prior_order_);
  dirty_prior_order_.clear();
  dirty_prior_set_.clear();
  return out;
}

Status SoftwareRegistry::PutVendorScore(const core::VendorScore& score) {
  Status put = vendor_scores_->Upsert(Row{
      Value::Str(score.vendor),
      Value::Real(score.score),
      Value::Int(score.software_count),
      Value::Int(score.computed_at),
  });
  if (put.ok()) ++content_generation_;
  return put;
}

Result<core::VendorScore> SoftwareRegistry::GetVendorScore(
    const core::VendorId& vendor) const {
  PISREP_ASSIGN_OR_RETURN(Row row, vendor_scores_->Get(Value::Str(vendor)));
  core::VendorScore score;
  score.vendor = vendor;
  score.score = row[1].AsReal();
  score.software_count = static_cast<int>(row[2].AsInt());
  score.computed_at = row[3].AsInt();
  return score;
}

Status SoftwareRegistry::ReportBehaviors(const SoftwareId& id,
                                         core::BehaviorSet behaviors,
                                         int count) {
  if (count <= 0) {
    return Status::InvalidArgument("behavior report count must be positive");
  }
  std::string id_hex = id.ToHex();
  for (core::Behavior b : core::AllBehaviors()) {
    if (!core::HasBehavior(behaviors, b)) continue;
    std::string key = id_hex + ":" + core::BehaviorName(b);
    auto existing = behavior_reports_->Get(Value::Str(key));
    std::int64_t existing_count = existing.ok() ? (*existing)[3].AsInt() : 0;
    PISREP_RETURN_IF_ERROR(behavior_reports_->Upsert(Row{
        Value::Str(key),
        Value::Str(id_hex),
        Value::Str(core::BehaviorName(b)),
        Value::Int(existing_count + count),
    }));
    ++content_generation_;
  }
  return Status::Ok();
}

core::BehaviorSet SoftwareRegistry::ReportedBehaviors(
    const SoftwareId& id, int min_reports) const {
  core::BehaviorSet set = core::kNoBehaviors;
  auto rows =
      behavior_reports_->FindByIndex("software", Value::Str(id.ToHex()));
  if (!rows.ok()) return set;
  for (const Row& row : *rows) {
    if (row[3].AsInt() < min_reports) continue;
    auto behavior = core::BehaviorFromName(row[2].AsStr());
    if (behavior.ok()) set = core::WithBehavior(set, *behavior);
  }
  return set;
}

Status SoftwareRegistry::AddRuns(const SoftwareId& id, std::int64_t count) {
  if (count <= 0) {
    return Status::InvalidArgument("run count must be positive");
  }
  std::string id_hex = id.ToHex();
  auto existing = run_stats_->Get(Value::Str(id_hex));
  std::int64_t total = existing.ok() ? (*existing)[1].AsInt() : 0;
  return run_stats_->Upsert(
      Row{Value::Str(id_hex), Value::Int(total + count)});
}

std::int64_t SoftwareRegistry::RunCount(const SoftwareId& id) const {
  auto row = run_stats_->Get(Value::Str(id.ToHex()));
  return row.ok() ? (*row)[1].AsInt() : 0;
}

std::vector<std::pair<SoftwareId, std::int64_t>>
SoftwareRegistry::AllRunCounts() const {
  std::vector<std::pair<SoftwareId, std::int64_t>> out;
  out.reserve(run_stats_->size());
  run_stats_->ForEach(
      [&](const Row& row) { out.emplace_back(IdFromRow(row), row[1].AsInt()); });
  return out;
}

void SoftwareRegistry::PinScores(const std::vector<SoftwareId>& ids) {
  if (!scores_->tiered()) return;
  for (const SoftwareId& id : ids) {
    Status pinned = scores_->Pin(Value::Str(id.ToHex()));
    // kNotFound is expected (row deleted since the pin set was chosen);
    // anything else is a cold-store IO failure worth surfacing.
    if (!pinned.ok() && pinned.code() != util::StatusCode::kNotFound) {
      PISREP_LOG(kWarning) << "pin score " << id.ToHex()
                           << " failed: " << pinned;
    }
  }
}

void SoftwareRegistry::UnpinScores(const std::vector<SoftwareId>& ids) {
  if (!scores_->tiered()) return;
  for (const SoftwareId& id : ids) {
    Status unpinned = scores_->Unpin(Value::Str(id.ToHex()));
    if (!unpinned.ok() && unpinned.code() != util::StatusCode::kNotFound) {
      PISREP_LOG(kWarning) << "unpin score " << id.ToHex()
                           << " failed: " << unpinned;
    }
  }
}

std::int64_t SoftwareRegistry::BehaviorReportCount(
    const SoftwareId& id, core::Behavior behavior) const {
  std::string key = id.ToHex() + ":" + core::BehaviorName(behavior);
  auto row = behavior_reports_->Get(Value::Str(key));
  return row.ok() ? (*row)[3].AsInt() : 0;
}

}  // namespace pisrep::server
