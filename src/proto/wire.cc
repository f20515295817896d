#include "proto/wire.h"

#include "util/hex.h"
#include "util/sha256.h"
#include "util/string_util.h"

namespace pisrep::proto {

bool PuzzleSolutionValid(std::string_view nonce, std::string_view solution,
                         int difficulty_bits) {
  util::Sha256 hasher;
  hasher.Update(nonce);
  hasher.Update(solution);
  util::Sha256Digest digest = hasher.Finish();
  int remaining = difficulty_bits;
  for (std::uint8_t byte : digest.bytes) {
    if (remaining <= 0) return true;
    if (remaining >= 8) {
      if (byte != 0) return false;
      remaining -= 8;
    } else {
      return (byte >> (8 - remaining)) == 0;
    }
  }
  return remaining <= 0;
}

std::string SolvePuzzle(const Puzzle& puzzle, std::uint64_t* attempts) {
  std::uint64_t counter = 0;
  for (;;) {
    std::string candidate = std::to_string(counter);
    if (PuzzleSolutionValid(puzzle.nonce, candidate,
                            puzzle.difficulty_bits)) {
      if (attempts != nullptr) *attempts = counter + 1;
      return candidate;
    }
    ++counter;
  }
}

std::string OwnershipMovedMessage(std::string_view owner) {
  return std::string(kOwnershipMovedPrefix) + std::string(owner);
}

bool IsOwnershipMoved(std::string_view message) {
  return message.substr(0, kOwnershipMovedPrefix.size()) ==
         kOwnershipMovedPrefix;
}

std::string OwnershipMovedTarget(std::string_view message) {
  if (!IsOwnershipMoved(message)) return "";
  return std::string(message.substr(kOwnershipMovedPrefix.size()));
}

xml::XmlNode FeedEntryToXml(const FeedEntry& entry) {
  xml::XmlNode node("entry");
  node.SetAttribute("feed", entry.feed);
  node.SetAttribute("software", entry.software.ToHex());
  node.SetAttribute("score", util::StrFormat("%.6f", entry.score));
  node.SetAttribute("behaviors", core::BehaviorSetToString(entry.behaviors));
  node.SetAttribute("flagged", entry.expert_flagged ? "1" : "0");
  node.SetAttribute("published_at", std::to_string(entry.published_at));
  node.set_text(entry.note);
  return node;
}

util::Result<FeedEntry> FeedEntryFromXml(const xml::XmlNode& node) {
  FeedEntry entry;
  PISREP_ASSIGN_OR_RETURN(entry.feed, node.Attribute("feed"));
  // The software id is optional on the wire: a QueryFeed answer describes
  // the binary the caller just named, so older servers omit it.
  if (node.HasAttribute("software")) {
    PISREP_ASSIGN_OR_RETURN(std::string hex, node.Attribute("software"));
    if (!util::HexDecodeTo(hex, entry.software.bytes)) {
      return util::Status::InvalidArgument(
          "feed entry software id must be 40 hex characters");
    }
  }
  PISREP_ASSIGN_OR_RETURN(
      entry.score, util::ParseDouble(node.AttributeOr("score", "0")));
  PISREP_ASSIGN_OR_RETURN(
      entry.behaviors,
      core::BehaviorSetFromString(node.AttributeOr("behaviors", "")));
  entry.expert_flagged = node.AttributeOr("flagged", "0") == "1";
  PISREP_ASSIGN_OR_RETURN(
      entry.published_at,
      util::ParseInt64(node.AttributeOr("published_at", "0")));
  entry.note = node.text();
  return entry;
}

xml::XmlNode SoftwareMetaToXml(const core::SoftwareMeta& meta) {
  xml::XmlNode node("software");
  node.SetAttribute("id", meta.id.ToHex());
  node.SetAttribute("file_name", meta.file_name);
  node.SetAttribute("file_size", std::to_string(meta.file_size));
  node.SetAttribute("company", meta.company);
  node.SetAttribute("version", meta.version);
  return node;
}

xml::XmlNode SoftwareInfoToXml(const SoftwareInfo& info) {
  xml::XmlNode result("result");
  result.SetAttribute("known", info.known ? "1" : "0");
  if (info.vendor_signed) {
    result.SetAttribute("vendor_signed", "1");
    result.SetAttribute("signed_vendor", info.signed_vendor);
  }
  result.AddChild(SoftwareMetaToXml(info.meta));
  if (info.score.has_value()) {
    xml::XmlNode& node = result.AddChild("score");
    node.SetAttribute("value", util::StrFormat("%.6f", info.score->score));
    node.SetAttribute("votes", std::to_string(info.score->vote_count));
    node.SetAttribute("weight",
                      util::StrFormat("%.6f", info.score->weight_sum));
    node.SetAttribute("computed_at",
                      std::to_string(info.score->computed_at));
  }
  if (info.vendor_score.has_value()) {
    xml::XmlNode& node = result.AddChild("vendor");
    node.SetAttribute("name", info.vendor_score->vendor);
    node.SetAttribute("score",
                      util::StrFormat("%.6f", info.vendor_score->score));
    node.SetAttribute("count",
                      std::to_string(info.vendor_score->software_count));
  }
  result.AddTextChild("behaviors",
                      core::BehaviorSetToString(info.reported_behaviors));
  result.AddIntChild("runs", info.run_count);
  for (const core::RatingRecord& comment : info.comments) {
    xml::XmlNode& node = result.AddChild("comment");
    node.SetAttribute("author", std::to_string(comment.user));
    node.SetAttribute("score", std::to_string(comment.score));
    node.SetAttribute("at", std::to_string(comment.submitted_at));
    node.set_text(comment.comment);
  }
  return result;
}

}  // namespace pisrep::proto
