#ifndef PISREP_SERVER_MODERATION_H_
#define PISREP_SERVER_MODERATION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>

#include "core/types.h"
#include "server/vote_store.h"
#include "util/status.h"

namespace pisrep::server {

/// A comment awaiting administrator review.
struct PendingComment {
  core::UserId author = 0;
  core::SoftwareId software;
  std::string comment;
  util::TimePoint submitted_at = 0;
};

/// The §2.1 third mitigation: "one or more administrators keeping track of
/// all ratings and comments going into the system, verifying the validity
/// and quality of the comments prior to allowing other users to view them."
///
/// When enabled, new comments enter this queue unapproved; administrators
/// approve or reject them, which flips the visibility flag in the vote
/// store. The paper notes this "would require a lot of manual work" — the
/// simulation measures exactly that queue backlog.
class ModerationQueue {
 public:
  explicit ModerationQueue(VoteStore* votes) : votes_(votes) {}

  /// Queues a comment for review (called by the server when moderation is
  /// enabled and a rating carries a non-empty comment).
  void Enqueue(PendingComment comment);

  std::size_t PendingCount() const { return queue_.size(); }

  /// Oldest pending comment; kNotFound when the queue is empty.
  util::Result<PendingComment> Peek() const;

  /// Approves the oldest pending comment, making it visible.
  util::Status ApproveNext();

  /// Rejects the oldest pending comment; it stays invisible forever.
  util::Status RejectNext();

  std::uint64_t rejected_count() const { return rejected_; }

  /// Called after every moderation decision with the comment and whether
  /// it was approved — how the server appends decisions to its audit log
  /// without this queue knowing the log exists.
  using Observer = std::function<void(const PendingComment&, bool approved)>;
  void SetObserver(Observer observer) { observer_ = std::move(observer); }

 private:
  VoteStore* votes_;
  std::deque<PendingComment> queue_;
  std::uint64_t rejected_ = 0;
  Observer observer_;
};

}  // namespace pisrep::server

#endif  // PISREP_SERVER_MODERATION_H_
