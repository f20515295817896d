#include "core/policy.h"

namespace pisrep::core {

namespace {

/// True when `value` lies inside the window: each side optional, and
/// exclusive when its strict flag is set.
bool InWindow(double value, const std::optional<double>& min, bool min_strict,
              const std::optional<double>& max, bool max_strict) {
  if (min.has_value() && (min_strict ? value <= *min : value < *min)) {
    return false;
  }
  return !max.has_value() || (max_strict ? value < *max : value <= *max);
}

}  // namespace

const char* PolicyActionName(PolicyAction action) {
  switch (action) {
    case PolicyAction::kAllow:
      return "allow";
    case PolicyAction::kDeny:
      return "deny";
    case PolicyAction::kAsk:
      return "ask";
  }
  return "?";
}

bool PolicyRule::Matches(const PolicyInput& input) const {
  auto mismatch = [](const std::optional<bool>& want, bool have) {
    return want.has_value() && *want != have;
  };
  if (mismatch(require_valid_signature, input.has_valid_signature)) {
    return false;
  }
  if (mismatch(require_vendor_trusted, input.vendor_trusted)) return false;
  if (mismatch(require_vendor_blocked, input.vendor_blocked)) return false;
  if (mismatch(require_company_name, input.has_company_name)) return false;
  if (mismatch(require_expert_flag, input.expert_flagged)) return false;

  if (min_rating.has_value() || max_rating.has_value()) {
    if (!input.rating.has_value() ||
        !InWindow(*input.rating, min_rating, min_rating_strict, max_rating,
                  max_rating_strict)) {
      return false;
    }
  }
  if (input.vote_count < min_votes) return false;

  if (min_feed_rating.has_value() || max_feed_rating.has_value()) {
    if (!input.feed_rating.has_value() ||
        !InWindow(*input.feed_rating, min_feed_rating, min_feed_rating_strict,
                  max_feed_rating, max_feed_rating_strict)) {
      return false;
    }
  }

  if ((input.reported_behaviors & forbidden_behaviors) != 0) return false;
  if ((input.reported_behaviors & required_behaviors) !=
      required_behaviors) {
    return false;
  }
  return true;
}

Policy& Policy::AddRule(PolicyRule rule) {
  rules_.push_back(std::move(rule));
  return *this;
}

PolicyAction Policy::Evaluate(const PolicyInput& input,
                              std::string* fired_rule) const {
  for (const PolicyRule& rule : rules_) {
    if (rule.Matches(input)) {
      if (fired_rule != nullptr) *fired_rule = rule.name;
      return rule.action;
    }
  }
  if (fired_rule != nullptr) *fired_rule = "<default>";
  return default_action_;
}

}  // namespace pisrep::core
