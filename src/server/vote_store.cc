#include "server/vote_store.h"

#include <algorithm>
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
using storage::Value;
using util::Result;
using util::Status;

SoftwareId IdFromHex(const std::string& hex) {
  SoftwareId id;
  PISREP_CHECK(util::HexDecodeTo(hex, id.bytes))
      << "corrupt software id in vote store";
  return id;
}

StoredRating RatingFromRow(const Row& row) {
  StoredRating stored;
  stored.record.user = row[1].AsInt();
  stored.record.software = IdFromHex(row[2].AsStr());
  stored.record.score = static_cast<int>(row[3].AsInt());
  stored.record.comment = row[4].AsStr();
  stored.record.submitted_at = row[5].AsInt();
  stored.approved = row[6].AsBool();
  stored.trust_snapshot = row[7].AsReal();
  return stored;
}

}  // namespace

VoteStore::VoteStore(storage::Database* db) : db_(db) {
  if (!db_->HasTable("ratings")) {
    Status status = db_->CreateTable(SchemaBuilder("ratings")
                                         .Str("key")
                                         .Int("user")
                                         .Str("software")
                                         .Int("score")
                                         .Str("comment")
                                         .Int("submitted_at")
                                         .Boolean("approved")
                                         .Real("trust_snapshot")
                                         .PrimaryKey("key")
                                         .Index("user")
                                         .Index("software")
                                         .Build());
    PISREP_CHECK(status.ok()) << status.ToString();
  }
  if (!db_->HasTable("remarks")) {
    Status status = db_->CreateTable(SchemaBuilder("remarks")
                                         .Str("key")
                                         .Int("rater")
                                         .Str("comment_key")
                                         .Boolean("positive")
                                         .Int("submitted_at")
                                         .PrimaryKey("key")
                                         .Index("comment_key")
                                         .Build());
    PISREP_CHECK(status.ok()) << status.ToString();
  }
  ratings_ = db_->GetTiered("ratings").value();
  remarks_ = db_->GetTiered("remarks").value();
  // Seed the rated-software cache from recovered rows. Iteration over
  // rows_ is insertion order, so rated_order_ matches what incremental
  // maintenance would have produced.
  ratings_->ForEach([this](const Row& row) {
    SoftwareId id = IdFromHex(row[2].AsStr());
    if (votes_per_software_[id]++ == 0) rated_order_.push_back(id);
  });
}

void VoteStore::AttachMetrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    votes_metric_ = nullptr;
    remarks_metric_ = nullptr;
    dirty_gauge_ = nullptr;
    return;
  }
  votes_metric_ = metrics->GetCounter("pisrep_server_votes_total");
  remarks_metric_ = metrics->GetCounter("pisrep_server_remarks_total");
  dirty_gauge_ = metrics->GetGauge("pisrep_server_vote_dirty_pending");
  dirty_gauge_->Set(static_cast<std::int64_t>(dirty_order_.size()));
}

std::string VoteStore::VoteKey(core::UserId user,
                               const SoftwareId& software) {
  return std::to_string(user) + ":" + software.ToHex();
}

std::string VoteStore::CommentKey(core::UserId author,
                                  const SoftwareId& software) {
  return std::to_string(author) + ":" + software.ToHex();
}

Status VoteStore::SubmitRating(const core::RatingRecord& record,
                               bool approved, double trust_snapshot) {
  if (!core::IsValidRating(record.score)) {
    return Status::InvalidArgument(util::StrFormat(
        "rating %d outside [%d, %d]", record.score, core::kMinRating,
        core::kMaxRating));
  }
  if (trust_snapshot < 0.0) {
    return Status::InvalidArgument("trust snapshot must be >= 0");
  }
  std::string key = VoteKey(record.user, record.software);
  if (ratings_->Contains(Value::Str(key))) {
    // §2.1: "each user only votes for a software program exactly once."
    return Status::AlreadyExists("user already voted on this software");
  }
  PISREP_RETURN_IF_ERROR(ratings_->Insert(Row{
      Value::Str(key),
      Value::Int(record.user),
      Value::Str(record.software.ToHex()),
      Value::Int(record.score),
      Value::Str(record.comment),
      Value::Int(record.submitted_at),
      Value::Boolean(approved),
      Value::Real(trust_snapshot),
  }));
  if (votes_per_software_[record.software]++ == 0) {
    rated_order_.push_back(record.software);
  }
  MarkDirty(record.software);
  ++content_generation_;
  if (votes_metric_) votes_metric_->Increment();
  return Status::Ok();
}

std::vector<StoredRating> VoteStore::VotesForSoftware(
    const SoftwareId& software) const {
  std::vector<StoredRating> out;
  Value key = Value::Str(software.ToHex());
  // The reserve comes from the in-memory per-software counter, not
  // CountByIndex — counting through the facade would walk (and possibly
  // pread) every vote once before the real visit walks them again.
  auto it = votes_per_software_.find(software);
  if (it == votes_per_software_.end()) return out;
  out.reserve(it->second);
  // ForEachByIndex materializes StoredRating straight from the table rows
  // — no intermediate std::vector<Row> copy as FindByIndex would make.
  Status visited = ratings_->ForEachByIndex(
      "software", key, [&](const Row& row) { out.push_back(RatingFromRow(row)); });
  PISREP_CHECK(visited.ok()) << visited.ToString();
  return out;
}

void VoteStore::ForEachVoteOn(
    const SoftwareId& software,
    const std::function<void(core::UserId, int, double)>& fn) const {
  Status visited = ratings_->ForEachByIndex(
      "software", Value::Str(software.ToHex()), [&](const Row& row) {
        fn(row[1].AsInt(), static_cast<int>(row[3].AsInt()),
           row[7].AsReal());
      });
  PISREP_CHECK(visited.ok()) << visited.ToString();
}

std::vector<StoredRating> VoteStore::VotesByUser(core::UserId user) const {
  std::vector<StoredRating> out;
  Value key = Value::Int(user);
  Status visited = ratings_->ForEachByIndex(
      "user", key, [&](const Row& row) { out.push_back(RatingFromRow(row)); });
  PISREP_CHECK(visited.ok()) << visited.ToString();
  return out;
}

std::vector<core::RatingRecord> VoteStore::VisibleComments(
    const SoftwareId& software, std::size_t limit) const {
  std::vector<core::RatingRecord> comments;
  if (limit == 0) return comments;
  // Rows handed out by the facade may be transient cold decodes, valid
  // only inside the callback — so the filter walk copies just the scalars
  // the selection needs, never a Row pointer or a comment string.
  struct Candidate {
    std::int64_t submitted_at;
    core::UserId user;
    int score;
  };
  const Value key = Value::Str(software.ToHex());
  std::vector<Candidate> visible;
  Status visited =
      ratings_->ForEachByIndex("software", key, [&](const Row& row) {
        if (row[6].AsBool() && !row[4].AsStr().empty()) {
          visible.push_back(Candidate{row[5].AsInt(), row[1].AsInt(),
                                      static_cast<int>(row[3].AsInt())});
        }
      });
  if (!visited.ok() || visible.empty()) return comments;
  auto newer = [](const Candidate& a, const Candidate& b) {
    return a.submitted_at > b.submitted_at;
  };
  if (visible.size() > limit) {
    std::partial_sort(visible.begin(), visible.begin() + limit,
                      visible.end(), newer);
    visible.resize(limit);
  } else {
    std::sort(visible.begin(), visible.end(), newer);
  }
  comments.resize(visible.size());
  for (std::size_t i = 0; i < visible.size(); ++i) {
    comments[i].user = visible[i].user;
    comments[i].software = software;
    comments[i].score = visible[i].score;
    comments[i].submitted_at = visible[i].submitted_at;
  }
  // A second walk of the same index entry copies only the selected
  // comments. Each user has one vote per title, so the user identifies the
  // row; rows older than the last selection are skipped before any compare.
  const std::int64_t oldest = visible.back().submitted_at;
  std::size_t missing = visible.size();
  visited = ratings_->ForEachByIndex("software", key, [&](const Row& row) {
    if (missing == 0 || row[5].AsInt() < oldest) return;
    const core::UserId user = row[1].AsInt();
    for (std::size_t i = 0; i < visible.size(); ++i) {
      if (visible[i].user == user) {
        comments[i].comment = row[4].AsStr();
        --missing;
        return;
      }
    }
  });
  PISREP_CHECK(visited.ok() && missing == 0)
      << "selected comment vanished between walks: " << visited.ToString();
  return comments;
}

Status VoteStore::SetApproved(core::UserId author,
                              const SoftwareId& software, bool approved) {
  std::string key = VoteKey(author, software);
  PISREP_ASSIGN_OR_RETURN(Row row, ratings_->Get(Value::Str(key)));
  row[6] = Value::Boolean(approved);
  PISREP_RETURN_IF_ERROR(ratings_->Upsert(std::move(row)));
  // Approval only gates comment visibility, not the score — but marking
  // dirty keeps the invalidation protocol simple ("any write to a
  // software's votes dirties it") at the cost of one redundant recompute.
  MarkDirty(software);
  ++content_generation_;
  return Status::Ok();
}

Status VoteStore::SubmitRemark(const Remark& remark) {
  if (remark.rater == remark.author) {
    return Status::InvalidArgument("cannot remark on your own comment");
  }
  std::string comment_key = CommentKey(remark.author, remark.software);
  if (!ratings_->Contains(
          Value::Str(VoteKey(remark.author, remark.software)))) {
    return Status::NotFound("no such comment to remark on");
  }
  std::string key = std::to_string(remark.rater) + ":" + comment_key;
  if (remarks_->Contains(Value::Str(key))) {
    return Status::AlreadyExists("already remarked on this comment");
  }
  PISREP_RETURN_IF_ERROR(remarks_->Insert(Row{
      Value::Str(key),
      Value::Int(remark.rater),
      Value::Str(comment_key),
      Value::Boolean(remark.positive),
      Value::Int(remark.submitted_at),
  }));
  if (remarks_metric_) remarks_metric_->Increment();
  return Status::Ok();
}

std::int64_t VoteStore::RemarkBalance(core::UserId author,
                                      const SoftwareId& software) const {
  std::int64_t balance = 0;
  Status visited = remarks_->ForEachByIndex(
      "comment_key", Value::Str(CommentKey(author, software)),
      [&](const Row& row) { balance += row[3].AsBool() ? 1 : -1; });
  return visited.ok() ? balance : 0;
}

std::vector<SoftwareId> VoteStore::RatedSoftware() const {
  return rated_order_;
}

std::size_t VoteStore::VoteCountFor(const SoftwareId& software) const {
  auto it = votes_per_software_.find(software);
  return it == votes_per_software_.end() ? 0 : it->second;
}

std::vector<SoftwareId> VoteStore::TakeDirtySoftware() {
  std::vector<SoftwareId> out = std::move(dirty_order_);
  dirty_order_.clear();
  dirty_set_.clear();
  if (dirty_gauge_) dirty_gauge_->Set(0);
  return out;
}

void VoteStore::MarkDirty(const SoftwareId& software) {
  if (dirty_set_.insert(software).second) {
    dirty_order_.push_back(software);
    if (dirty_gauge_) {
      dirty_gauge_->Set(static_cast<std::int64_t>(dirty_order_.size()));
    }
  }
}

std::size_t VoteStore::TotalVotes() const { return ratings_->size(); }
std::size_t VoteStore::TotalRemarks() const { return remarks_->size(); }

}  // namespace pisrep::server
