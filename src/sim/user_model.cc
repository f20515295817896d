#include "sim/user_model.h"

#include <algorithm>
#include <cmath>

namespace pisrep::sim {

UserBehavior MakeUserBehavior(UserProfile profile) {
  UserBehavior b;
  b.profile = profile;
  switch (profile) {
    case UserProfile::kExpert:
      b.rating_noise = 0.5;
      b.rating_bias = 0.0;
      b.comment_quality = 0.95;
      b.reports_behaviors = 0.9;
      b.informed_skill = 0.97;
      b.uninformed_caution = 0.7;
      b.prompt_patience = 0.85;
      b.remark_propensity = 0.4;
      break;
    case UserProfile::kAverage:
      b.rating_noise = 1.2;
      b.rating_bias = 0.2;
      b.comment_quality = 0.7;
      b.reports_behaviors = 0.5;
      b.informed_skill = 0.85;
      b.uninformed_caution = 0.35;
      b.prompt_patience = 0.6;
      b.remark_propensity = 0.15;
      break;
    case UserProfile::kNovice:
      // §2.1: novices "may give the installer of a program bundled with
      // many different PIS a high rating, commenting that it is a great
      // free and highly recommended program".
      b.rating_noise = 2.2;
      b.rating_bias = 1.8;
      b.comment_quality = 0.3;
      b.reports_behaviors = 0.15;
      b.informed_skill = 0.6;
      b.uninformed_caution = 0.1;
      b.prompt_patience = 0.4;
      b.remark_propensity = 0.05;
      break;
    case UserProfile::kMalicious:
      b.rating_noise = 0.5;
      b.rating_bias = 0.0;
      b.comment_quality = 0.05;
      b.reports_behaviors = 0.0;
      b.informed_skill = 0.0;
      b.uninformed_caution = 0.0;
      b.prompt_patience = 1.0;  // attackers never miss a chance to vote
      b.remark_propensity = 0.0;
      break;
  }
  return b;
}

int SimUserModel::RateSoftware(const SoftwareSpec& spec) {
  double quality = spec.true_quality;
  if (behavior_.profile == UserProfile::kMalicious) {
    // Invert: praise PIS, bury legitimate software.
    quality = 11.0 - quality;
    return static_cast<int>(std::clamp(
        std::round(quality), static_cast<double>(core::kMinRating),
        static_cast<double>(core::kMaxRating)));
  }
  double noisy = quality + behavior_.rating_bias +
                 rng_.NextGaussian(0.0, behavior_.rating_noise);
  return static_cast<int>(std::clamp(
      std::round(noisy), static_cast<double>(core::kMinRating),
      static_cast<double>(core::kMaxRating)));
}

bool SimUserModel::DecideAllow(const client::PromptInfo& info,
                               const SoftwareSpec& spec) {
  bool is_pis = SoftwareEcosystem::IsPis(spec.truth);

  bool has_information =
      (info.score.has_value() && info.score->vote_count > 0) ||
      info.reported_behaviors != core::kNoBehaviors;
  if (has_information) {
    // What would the information itself suggest? A displayed score below 5
    // or any reported severe/moderate behaviour reads as "questionable".
    bool info_says_bad =
        (info.score.has_value() && info.score->vote_count > 0 &&
         info.score->score < 5.0) ||
        core::AssessConsequence(info.reported_behaviors) !=
            core::ConsequenceLevel::kTolerable;
    // A skilled user follows correct information; an unskilled one
    // sometimes ignores it.
    bool follow = rng_.NextBool(behavior_.informed_skill);
    if (follow) return !info_says_bad;
    return !rng_.NextBool(0.5);
  }

  // No information: the uninformed default. This branch is what the
  // reputation system exists to eliminate.
  if (rng_.NextBool(behavior_.uninformed_caution)) {
    // Cautious: deny unknown unsigned software, allow signed-and-valid.
    return info.signature.valid;
  }
  // Click-through: allow (the behaviour behind the paper's 80% infection
  // figure).
  (void)is_pis;
  return true;
}

core::BehaviorSet SimUserModel::ReportBehaviors(const SoftwareSpec& spec) {
  core::BehaviorSet reported = core::kNoBehaviors;
  for (core::Behavior b : core::AllBehaviors()) {
    if (core::HasBehavior(spec.behaviors, b) &&
        rng_.NextBool(behavior_.reports_behaviors)) {
      reported = core::WithBehavior(reported, b);
    }
  }
  return reported;
}

}  // namespace pisrep::sim
