#include "server/bootstrap.h"

#include "util/hex.h"
#include "util/string_util.h"

namespace pisrep::server {

namespace {
using util::Result;
using util::Status;
}  // namespace

Result<std::size_t> BootstrapImporter::Import(
    const std::vector<BootstrapRecord>& records) {
  std::size_t imported = 0;
  for (const BootstrapRecord& record : records) {
    if (record.score < core::kMinRating || record.score > core::kMaxRating) {
      return Status::InvalidArgument(util::StrFormat(
          "bootstrap score %.2f outside [1, 10] for %s", record.score,
          record.meta.file_name.c_str()));
    }
    if (record.vote_count <= 0) {
      return Status::InvalidArgument("bootstrap record needs vote_count > 0");
    }
    PISREP_RETURN_IF_ERROR(registry_->RegisterSoftware(record.meta));
    PISREP_RETURN_IF_ERROR(registry_->PutBootstrapPrior(
        record.meta.id, record.score,
        static_cast<double>(record.vote_count)));
    ++imported;
  }
  return imported;
}

Result<std::size_t> BootstrapImporter::ImportCsv(std::string_view csv) {
  std::vector<BootstrapRecord> records;
  for (const std::string& raw_line : util::Split(csv, '\n')) {
    std::string_view line = util::Trim(raw_line);
    if (line.empty() || line.front() == '#') continue;
    std::vector<std::string> fields = util::Split(line, ',');
    if (fields.size() != 7) {
      return Status::InvalidArgument("bootstrap CSV line needs 7 fields: " +
                                     std::string(line));
    }
    BootstrapRecord record;
    if (!util::HexDecodeTo(fields[0], record.meta.id.bytes)) {
      return Status::InvalidArgument("bad digest in: " + std::string(line));
    }
    record.meta.file_name = fields[1];
    PISREP_ASSIGN_OR_RETURN(record.meta.file_size,
                            util::ParseInt64(fields[2]));
    record.meta.company = fields[3];
    record.meta.version = fields[4];
    PISREP_ASSIGN_OR_RETURN(record.score, util::ParseDouble(fields[5]));
    PISREP_ASSIGN_OR_RETURN(std::int64_t votes, util::ParseInt64(fields[6]));
    record.vote_count = static_cast<int>(votes);
    records.push_back(std::move(record));
  }
  return Import(records);
}

}  // namespace pisrep::server
