#ifndef PISREP_SERVER_VOTE_STORE_H_
#define PISREP_SERVER_VOTE_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/types.h"
#include "obs/metrics.h"
#include "storage/database.h"
#include "util/status.h"

namespace pisrep::server {

/// A rating together with its moderation state.
struct StoredRating {
  core::RatingRecord record;
  bool approved = true;  ///< comment visible to other users
  /// Voter's trust factor snapshotted at vote time. 0 means "not
  /// snapshotted": the aggregator looks the live factor up by account id.
  /// Pseudonymous votes (whose user field is an unlinkable pseudonym) carry
  /// a positive snapshot instead.
  double trust_snapshot = 0.0;
};

/// A meta-moderation remark: `rater` judged the comment that `author` left
/// on `software` as helpful (positive) or not (§3.2: "positive for a good,
/// clear and useful comment or negative for a coloured, non-sense or
/// meaningless comment").
struct Remark {
  core::UserId rater = 0;
  core::UserId author = 0;
  core::SoftwareId software;
  bool positive = true;
  util::TimePoint submitted_at = 0;
};

/// Persistent store of votes, comments, and comment remarks.
///
/// Invariant (§2.1): "the server must ensure that each user only votes for
/// a software program exactly once" — enforced by the primary key
/// user:software. Similarly each user may remark on a given comment once.
class VoteStore {
 public:
  explicit VoteStore(storage::Database* db);

  /// Records a vote. `approved` is the initial moderation state (false when
  /// an administrator must review the comment first, §2.1 third approach).
  /// `trust_snapshot` > 0 freezes the voter's weight at vote time (used by
  /// pseudonymous voting, where the account id is not recoverable later).
  util::Status SubmitRating(const core::RatingRecord& record,
                            bool approved = true,
                            double trust_snapshot = 0.0);

  /// All votes cast on `software` (regardless of comment approval — scores
  /// count every vote; moderation only gates comment visibility).
  std::vector<StoredRating> VotesForSoftware(
      const core::SoftwareId& software) const;

  /// Visits the scoring-relevant fields of every vote on `software` without
  /// materializing StoredRating (no comment/key string copies). This is the
  /// aggregation hot path: it runs once per vote per recompute, possibly
  /// from worker threads, so it must not allocate per vote.
  void ForEachVoteOn(
      const core::SoftwareId& software,
      const std::function<void(core::UserId user, int score,
                               double trust_snapshot)>& fn) const;

  /// All votes cast by `user`.
  std::vector<StoredRating> VotesByUser(core::UserId user) const;

  /// Approved comments for display, newest first, at most `limit`.
  std::vector<core::RatingRecord> VisibleComments(
      const core::SoftwareId& software, std::size_t limit) const;

  /// Flips the moderation state of the comment `author` left on `software`.
  util::Status SetApproved(core::UserId author,
                           const core::SoftwareId& software, bool approved);

  /// Records a remark; one per (rater, author, software). The caller is
  /// responsible for routing the trust-factor consequence to the account
  /// manager.
  util::Status SubmitRemark(const Remark& remark);

  /// Net remark balance (positives − negatives) for a comment.
  std::int64_t RemarkBalance(core::UserId author,
                             const core::SoftwareId& software) const;

  /// Distinct software ids that have at least one vote, in first-vote
  /// order. Served from a cache maintained on every SubmitRating (and
  /// rebuilt from the table on recovery), not by scanning all votes.
  std::vector<core::SoftwareId> RatedSoftware() const;

  /// Number of distinct software ids with at least one vote. O(1).
  std::size_t RatedSoftwareCount() const { return rated_order_.size(); }

  /// Number of votes cast on `software`. O(1).
  std::size_t VoteCountFor(const core::SoftwareId& software) const;

  /// Incremental-aggregation support: software ids touched by
  /// SubmitRating / SetApproved since the last call, in first-touch order.
  /// Consuming clears the set.
  std::vector<core::SoftwareId> TakeDirtySoftware();

  /// Software ids currently marked dirty (not consumed).
  std::size_t DirtySoftwareCount() const { return dirty_order_.size(); }

  /// Monotonic counter bumped by every successful mutation that can change
  /// a QuerySoftware answer (new vote, comment moderation flip). Remarks
  /// deliberately do not bump it: their effect on answers arrives only via
  /// the next aggregation run. Pairs with
  /// SoftwareRegistry::content_generation for snapshot-freshness checks.
  std::uint64_t content_generation() const { return content_generation_; }

  std::size_t TotalVotes() const;
  std::size_t TotalRemarks() const;

  /// Wires accepted-vote / accepted-remark counters and the dirty-pending
  /// gauge into `metrics` (null detaches).
  void AttachMetrics(obs::MetricsRegistry* metrics);

 private:
  static std::string VoteKey(core::UserId user,
                             const core::SoftwareId& software);
  static std::string CommentKey(core::UserId author,
                                const core::SoftwareId& software);

  void MarkDirty(const core::SoftwareId& software);

  storage::Database* db_;
  /// Tier-aware facades (DESIGN.md §15): pass-throughs when the table is
  /// untiered, transparent hot/cold access when it is. Reads must go
  /// through them — the raw Table holds only the resident subset.
  storage::TieredTable* ratings_;
  storage::TieredTable* remarks_;
  /// Distinct voted software, insertion-ordered + counted. Maintained by
  /// SubmitRating; seeded from the ratings table in the constructor so a
  /// recovered database starts consistent. Keyed by the binary id, so the
  /// aggregation's per-target probes never render hex.
  std::vector<core::SoftwareId> rated_order_;
  std::unordered_map<core::SoftwareId, std::size_t, core::SoftwareIdHash>
      votes_per_software_;
  /// Dirty set for incremental aggregation (first-touch order).
  std::vector<core::SoftwareId> dirty_order_;
  std::unordered_set<core::SoftwareId, core::SoftwareIdHash> dirty_set_;
  std::uint64_t content_generation_ = 0;

  obs::Counter* votes_metric_ = nullptr;
  obs::Counter* remarks_metric_ = nullptr;
  obs::Gauge* dirty_gauge_ = nullptr;
};

}  // namespace pisrep::server

#endif  // PISREP_SERVER_VOTE_STORE_H_
