#include "trust/policy_rules.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/behavior.h"
#include "util/string_util.h"

namespace pisrep::trust {

namespace {

using core::Behavior;
using core::BehaviorSet;
using core::PolicyAction;
using core::PolicyRule;
using util::Result;
using util::Status;

Status ParseError(std::size_t line_no, std::string_view detail) {
  return Status::InvalidArgument(
      util::StrFormat("policy rules line %zu: %s", line_no,
                      std::string(detail).c_str()));
}

Result<PolicyAction> ActionFromWord(std::string_view word) {
  if (word == "allow") return PolicyAction::kAllow;
  if (word == "deny") return PolicyAction::kDeny;
  if (word == "ask") return PolicyAction::kAsk;
  return Status::InvalidArgument("unknown action: " + std::string(word));
}

Result<BehaviorSet> BehaviorsFromWord(std::string_view word) {
  // "ads" is sugar for both advertisement behaviours, matching the paper's
  // "shows no advertisements" phrasing.
  if (word == "ads") {
    return static_cast<BehaviorSet>(Behavior::kShowsAds) |
           static_cast<BehaviorSet>(Behavior::kPopupAds);
  }
  PISREP_ASSIGN_OR_RETURN(Behavior behavior, core::BehaviorFromName(word));
  return static_cast<BehaviorSet>(behavior);
}

/// Applies one condition (already split on "and") to the rule under
/// construction. `words` are the lowercased tokens of the condition.
Status ApplyCondition(const std::vector<std::string>& words,
                      std::size_t line_no, PolicyRule* rule) {
  if (words.empty()) return ParseError(line_no, "empty condition");

  std::size_t i = 0;
  bool negate = false;
  if (words[i] == "not") {
    negate = true;
    ++i;
    if (i == words.size()) {
      return ParseError(line_no, "dangling 'not'");
    }
  }
  const std::string& head = words[i];

  auto set_flag = [&](std::optional<bool>* flag) -> Status {
    if (i + 1 != words.size()) {
      return ParseError(line_no, "unexpected tokens after '" + head + "'");
    }
    *flag = !negate;
    return Status::Ok();
  };

  if (head == "signed") return set_flag(&rule->require_valid_signature);
  if (head == "vendor-trusted") return set_flag(&rule->require_vendor_trusted);
  if (head == "vendor-blocked") return set_flag(&rule->require_vendor_blocked);
  if (head == "expert-flagged") return set_flag(&rule->require_expert_flag);
  if (head == "company-name") return set_flag(&rule->require_company_name);

  if (head == "signed-by") {
    // "signed-by trusted vendor": a valid signature from an explicitly
    // trusted signer — the §4.2 white-list-by-vendor condition.
    if (negate) {
      return ParseError(line_no, "'not signed-by' is not supported");
    }
    if (i + 3 != words.size() || words[i + 1] != "trusted" ||
        words[i + 2] != "vendor") {
      return ParseError(line_no, "expected 'signed-by trusted vendor'");
    }
    rule->require_valid_signature = true;
    rule->require_vendor_trusted = true;
    return Status::Ok();
  }

  if (head == "rating" || head == "feed-rating") {
    if (negate) return ParseError(line_no, "'not' before a comparison");
    if (i + 3 != words.size()) {
      return ParseError(line_no, "expected '" + head + " <op> <number>'");
    }
    const std::string& op = words[i + 1];
    PISREP_ASSIGN_OR_RETURN(double bound, util::ParseDouble(words[i + 2]));
    const bool feed = head == "feed-rating";
    if (op == ">" || op == ">=") {
      (feed ? rule->min_feed_rating : rule->min_rating) = bound;
      (feed ? rule->min_feed_rating_strict : rule->min_rating_strict) =
          op == ">";
    } else if (op == "<" || op == "<=") {
      (feed ? rule->max_feed_rating : rule->max_rating) = bound;
      (feed ? rule->max_feed_rating_strict : rule->max_rating_strict) =
          op == "<";
    } else {
      return ParseError(line_no, "unknown comparison: " + op);
    }
    return Status::Ok();
  }

  if (head == "votes") {
    if (negate) return ParseError(line_no, "'not' before a comparison");
    if (i + 3 != words.size() || words[i + 1] != ">=") {
      return ParseError(line_no, "expected 'votes >= <count>'");
    }
    PISREP_ASSIGN_OR_RETURN(std::int64_t count,
                            util::ParseInt64(words[i + 2]));
    rule->min_votes = static_cast<int>(count);
    return Status::Ok();
  }

  if (head == "no" || head == "shows") {
    if (negate) return ParseError(line_no, "'not' before a behaviour list");
    if (i + 1 == words.size()) {
      return ParseError(line_no, "expected a behaviour after '" + head + "'");
    }
    BehaviorSet set = core::kNoBehaviors;
    for (std::size_t j = i + 1; j < words.size(); ++j) {
      PISREP_ASSIGN_OR_RETURN(BehaviorSet one, BehaviorsFromWord(words[j]));
      set |= one;
    }
    if (head == "no") {
      rule->forbidden_behaviors |= set;
    } else {
      rule->required_behaviors |= set;
    }
    return Status::Ok();
  }

  return ParseError(line_no, "unknown condition: " + head);
}

}  // namespace

Result<core::Policy> ParsePolicyRules(std::string_view text,
                                      std::string_view name) {
  core::Policy policy((std::string(name)));
  bool saw_default = false;

  std::vector<std::string> lines = util::Split(text, '\n');
  for (std::size_t line_no = 1; line_no <= lines.size(); ++line_no) {
    std::string_view raw = lines[line_no - 1];
    if (auto hash = raw.find('#'); hash != std::string_view::npos) {
      raw = raw.substr(0, hash);
    }
    std::string_view trimmed = util::Trim(raw);
    if (trimmed.empty()) continue;

    std::string lowered = util::ToLower(trimmed);
    std::vector<std::string> words;
    for (const std::string& w : util::Split(lowered, ' ')) {
      if (!w.empty()) words.push_back(w);
    }

    if (words[0] == "default") {
      if (words.size() != 2) {
        return ParseError(line_no, "expected 'default <action>'");
      }
      PISREP_ASSIGN_OR_RETURN(PolicyAction action, ActionFromWord(words[1]));
      policy.set_default_action(action);
      saw_default = true;
      continue;
    }

    PISREP_ASSIGN_OR_RETURN(PolicyAction action, ActionFromWord(words[0]));
    if (words.size() < 3 || words[1] != "if") {
      return ParseError(line_no, "expected '<action> if <condition>'");
    }

    PolicyRule rule;
    rule.name = std::string(trimmed);
    rule.action = action;

    // Split the condition tokens on the "and" keyword.
    std::vector<std::string> current;
    for (std::size_t w = 2; w < words.size(); ++w) {
      if (words[w] == "and") {
        PISREP_RETURN_IF_ERROR(ApplyCondition(current, line_no, &rule));
        current.clear();
      } else {
        current.push_back(words[w]);
      }
    }
    PISREP_RETURN_IF_ERROR(ApplyCondition(current, line_no, &rule));
    policy.AddRule(std::move(rule));
  }

  if (policy.rules().empty() && !saw_default) {
    return Status::InvalidArgument("policy rules text contains no rules");
  }
  return policy;
}

std::string_view PaperExampleRules() {
  return R"(# pisrep policy — the paper's §4.2 worked example
deny if vendor-blocked
deny if expert-flagged
allow if signed-by trusted vendor
allow if rating > 7.5 and votes >= 3 and no ads
deny if rating < 3 and votes >= 3
default ask
)";
}

}  // namespace pisrep::trust
