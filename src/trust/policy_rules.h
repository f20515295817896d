#ifndef PISREP_TRUST_POLICY_RULES_H_
#define PISREP_TRUST_POLICY_RULES_H_

#include <string>
#include <string_view>

#include "core/policy.h"
#include "util/status.h"

namespace pisrep::trust {

/// Parses a declarative rule text into a core::Policy (§4.2 "software
/// policy manager": administrators write what may run instead of patching
/// client code). One rule per line, first match wins:
///
///   # §4.2 worked example
///   deny if vendor-blocked
///   deny if expert-flagged
///   allow if signed-by trusted vendor
///   allow if rating > 7.5 and votes >= 3 and no ads
///   deny if rating < 3 and votes >= 3
///   default ask
///
/// Grammar (case-insensitive, '#' starts a comment):
///   line      := "default" action | action "if" cond ("and" cond)*
///   action    := "allow" | "deny" | "ask"
///   cond      := ["not"] flag
///              | ("rating" | "feed-rating") op number
///              | "votes" ">=" integer
///              | "no" behaviors | "shows" behaviors
///   flag      := "signed" | "signed-by trusted vendor" | "vendor-trusted"
///              | "vendor-blocked" | "expert-flagged" | "company-name"
///   op        := ">" | ">=" | "<" | "<="
///   behaviors := "ads" | behavior token (core::BehaviorFromName)
///
/// `>` and `<` compile to strict bounds, `>=` and `<=` to inclusive ones:
/// `rating > 7.5` does not admit a score of exactly 7.5 (§4.2 "over 7.5"),
/// while `rating >= 7.5` does.
/// "no ads" is sugar for shows_ads + popup_ads. The rule's name is its
/// trimmed source line, which is what per-rule decision metrics report.
/// The white/black lists are not part of the language: the client decides
/// every listed binary before it evaluates the policy (§3.1).
util::Result<core::Policy> ParsePolicyRules(std::string_view text,
                                            std::string_view name);

/// The paper's §4.2 worked example plus the expert-flag deny of the signed
/// trust plane — the policy the README quickstart, the examples and the
/// benches run.
std::string_view PaperExampleRules();

}  // namespace pisrep::trust

#endif  // PISREP_TRUST_POLICY_RULES_H_
