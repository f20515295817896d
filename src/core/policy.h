#ifndef PISREP_CORE_POLICY_H_
#define PISREP_CORE_POLICY_H_

#include <optional>
#include <string>
#include <vector>

#include "core/behavior.h"
#include "util/status.h"

namespace pisrep::core {

/// What the execution filter should do with a pending program.
enum class PolicyAction : std::uint8_t { kAllow = 0, kDeny = 1, kAsk = 2 };

const char* PolicyActionName(PolicyAction action);

/// Everything the policy engine may condition on for a pending execution
/// (§4.2: signature status, software rating, reported behaviours). No rule
/// condition reads §4.2's vendor rating yet, so it is not an input. List
/// membership is not one either: the client decides every white- or
/// black-listed binary before it consults the policy (§3.1).
struct PolicyInput {
  bool has_valid_signature = false;  ///< verified against the trust store
  bool vendor_trusted = false;       ///< signer explicitly trusted
  bool vendor_blocked = false;       ///< signer explicitly blocked
  bool has_company_name = false;     ///< §3.3: absence is a PIS signal

  std::optional<double> rating;         ///< community score, absent if unrated
  int vote_count = 0;
  /// Score from a subscribed expert feed (§4.2 subscriptions), if the feed
  /// has assessed this binary.
  std::optional<double> feed_rating;

  /// A subscribed expert feed carries a signed advisory flagging the
  /// software as privacy-invasive (§4.2 expert feeds, PR 10 trust plane).
  bool expert_flagged = false;

  /// Behaviours reported by the community *and* any subscribed feed.
  BehaviorSet reported_behaviors = kNoBehaviors;
};

/// One rule: if all present conditions match the input, the rule fires with
/// its action. Absent (nullopt / zero) conditions are ignored.
struct PolicyRule {
  std::string name;                 ///< for reports and traces
  PolicyAction action = PolicyAction::kAsk;

  /// Condition flags; each tri-state optional must equal the input if set.
  std::optional<bool> require_valid_signature;
  std::optional<bool> require_vendor_trusted;
  std::optional<bool> require_vendor_blocked;
  std::optional<bool> require_company_name;
  std::optional<bool> require_expert_flag;

  /// Rating window [min_rating, max_rating]; either side optional, and
  /// exclusive when its `_strict` flag is set (§4.2's "rating over 7.5"
  /// does not admit 7.5). A rule with a rating bound does not fire on
  /// unrated software.
  std::optional<double> min_rating;
  std::optional<double> max_rating;
  bool min_rating_strict = false;
  bool max_rating_strict = false;
  int min_votes = 0;

  /// Feed-score window, bounded like the rating window; a rule with a
  /// feed bound does not fire when the subscribed feed has no entry for
  /// the software.
  std::optional<double> min_feed_rating;
  std::optional<double> max_feed_rating;
  bool min_feed_rating_strict = false;
  bool max_feed_rating_strict = false;

  /// The rule fires only when the input reports none of these behaviours.
  BehaviorSet forbidden_behaviors = kNoBehaviors;
  /// The rule fires only when the input reports all of these behaviours.
  BehaviorSet required_behaviors = kNoBehaviors;

  /// True when every condition matches `input`.
  bool Matches(const PolicyInput& input) const;
};

/// An ordered rule list with a default action; the first matching rule wins.
/// This is the §4.2 "software policy manager": corporations or users encode
/// what may run — e.g. "anything signed by a trusted vendor; otherwise only
/// software rated above 7.5 that shows no advertisements." Policies are
/// written as rule text and built by trust::ParsePolicyRules.
class Policy {
 public:
  Policy() = default;
  explicit Policy(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  Policy& AddRule(PolicyRule rule);
  void set_default_action(PolicyAction action) { default_action_ = action; }
  PolicyAction default_action() const { return default_action_; }
  const std::vector<PolicyRule>& rules() const { return rules_; }

  /// Evaluates the rules in order; returns the first match's action and
  /// reports which rule fired through `fired_rule` when non-null.
  PolicyAction Evaluate(const PolicyInput& input,
                        std::string* fired_rule = nullptr) const;

 private:
  std::string name_;
  std::vector<PolicyRule> rules_;
  PolicyAction default_action_ = PolicyAction::kAsk;
};

}  // namespace pisrep::core

#endif  // PISREP_CORE_POLICY_H_
