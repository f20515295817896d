#include "server/moderation.h"

namespace pisrep::server {

namespace {
using util::Result;
using util::Status;
}  // namespace

void ModerationQueue::Enqueue(PendingComment comment) {
  queue_.push_back(std::move(comment));
}

Result<PendingComment> ModerationQueue::Peek() const {
  if (queue_.empty()) return Status::NotFound("moderation queue is empty");
  return queue_.front();
}

Status ModerationQueue::ApproveNext() {
  if (queue_.empty()) return Status::NotFound("moderation queue is empty");
  PendingComment comment = queue_.front();
  queue_.pop_front();
  Status status = votes_->SetApproved(comment.author, comment.software, true);
  if (status.ok() && observer_) observer_(comment, true);
  return status;
}

Status ModerationQueue::RejectNext() {
  if (queue_.empty()) return Status::NotFound("moderation queue is empty");
  PendingComment comment = queue_.front();
  queue_.pop_front();
  ++rejected_;
  if (observer_) observer_(comment, false);
  // The comment row stays unapproved; nothing to write.
  return Status::Ok();
}

}  // namespace pisrep::server
