#include "client/prompt_render.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace pisrep::client {

namespace {
using util::StrFormat;

/// Width of the rating bar, in characters.
constexpr int kBarWidth = 10;
}  // namespace

std::string PromptRenderer::RatingBar(double score) const {
  double clamped = std::clamp(score, 0.0, 10.0);
  int filled = static_cast<int>(std::round(clamped / 10.0 * kBarWidth));
  std::string bar = "[";
  bar.append(static_cast<std::size_t>(filled), '#');
  bar.append(static_cast<std::size_t>(kBarWidth - filled), '_');
  bar += "]";
  return StrFormat("%s %.1f/10", bar.c_str(), clamped);
}

std::string PromptRenderer::Advisory(const PromptInfo& info) const {
  if (info.feed_entry.has_value() && info.feed_entry->score <= 4.0) {
    return "your subscribed feed flags this program";
  }
  if (info.score.has_value() && info.score->vote_count > 0) {
    if (info.score->score < 4.0) {
      return "the community warns against this program";
    }
    if (info.score->score >= 7.5 &&
        info.reported_behaviors == core::kNoBehaviors) {
      return "well regarded by the community";
    }
  }
  if (core::AssessConsequence(info.reported_behaviors) !=
      core::ConsequenceLevel::kTolerable) {
    return "users report intrusive behaviour";
  }
  if (!info.known) {
    if (info.signature.valid && info.signature.vendor_trusted) {
      return "unknown program, but signed by a vendor you trust";
    }
    if (info.meta.company.empty()) {
      return "unknown program with no company name - be careful";
    }
    return "no community information yet - decide carefully";
  }
  return "mixed or sparse information - read the comments";
}

std::string PromptRenderer::Render(const PromptInfo& info) const {
  std::string out;
  out += StrFormat("A program wants to run: %s\n",
                   info.meta.file_name.c_str());
  out += StrFormat("  company : %s\n",
                   info.meta.company.empty() ? "(none)"
                                             : info.meta.company.c_str());
  out += StrFormat("  version : %s   size: %lld bytes\n",
                   info.meta.version.c_str(),
                   static_cast<long long>(info.meta.file_size));
  out += StrFormat("  SHA-1   : %s\n", info.meta.id.ToHex().c_str());

  if (info.signature.has_signature) {
    if (info.signature.valid) {
      out += StrFormat("  signed  : valid%s\n",
                       info.signature.vendor_trusted
                           ? " (trusted vendor)"
                           : info.signature.vendor_blocked
                                 ? " (BLOCKED vendor)"
                                 : "");
    } else {
      out += "  signed  : INVALID SIGNATURE\n";
    }
  } else {
    out += "  signed  : no\n";
  }

  if (info.score.has_value() && info.score->vote_count > 0) {
    out += StrFormat("  rating  : %s from %d vote(s)\n",
                     RatingBar(info.score->score).c_str(),
                     info.score->vote_count);
  } else {
    out += "  rating  : not yet rated\n";
  }
  if (info.vendor_score.has_value()) {
    out += StrFormat("  vendor  : %s across %d program(s)\n",
                     RatingBar(info.vendor_score->score).c_str(),
                     info.vendor_score->software_count);
  }
  if (info.feed_entry.has_value()) {
    out += StrFormat("  feed    : %s scores it %s\n",
                     info.feed_entry->feed.c_str(),
                     RatingBar(info.feed_entry->score).c_str());
  }
  if (info.run_count > 0) {
    out += StrFormat("  runs    : executed %lld times community-wide\n",
                     static_cast<long long>(info.run_count));
  }
  if (info.reported_behaviors != core::kNoBehaviors) {
    out += StrFormat(
        "  reports : %s\n",
        core::BehaviorSetToString(info.reported_behaviors).c_str());
  }
  if (info.offline) {
    out += "  note    : server unreachable; information may be stale\n";
  }

  std::size_t shown = 0;
  for (const core::RatingRecord& comment : info.comments) {
    if (shown++ >= options_.max_comments) break;
    if (shown == 1) out += "  comments:\n";
    out += StrFormat("    [%d/10] %s\n", comment.score,
                     comment.comment.c_str());
  }

  out += StrFormat("  >> %s\n", Advisory(info).c_str());
  return out;
}

}  // namespace pisrep::client
