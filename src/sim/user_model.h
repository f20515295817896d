#ifndef PISREP_SIM_USER_MODEL_H_
#define PISREP_SIM_USER_MODEL_H_

#include <string>

#include "client/client_app.h"
#include "sim/software_ecosystem.h"
#include "util/random.h"

namespace pisrep::sim {

/// Skill archetypes from §2.1's discussion: experienced users whose votes
/// should carry weight, average users, "ignorant users voting and leaving
/// feedback on programs they know nothing or little about", and malicious
/// users who purposely abuse the system.
enum class UserProfile { kExpert = 0, kAverage = 1, kNovice = 2, kMalicious = 3 };

/// Behavioural parameters of one simulated user.
struct UserBehavior {
  UserProfile profile = UserProfile::kAverage;
  /// Rating = true_quality + bias + N(0, noise), clamped to [1, 10].
  double rating_noise = 1.0;
  double rating_bias = 0.0;
  /// Probability a submitted comment is genuinely helpful (drives the
  /// remarks other users give its author, and thus trust factors).
  double comment_quality = 0.7;
  /// Probability the user reports the behaviours they actually observed.
  double reports_behaviors = 0.6;
  /// Probability of making the ground-truth-correct allow/deny choice when
  /// reputation information is available.
  double informed_skill = 0.85;
  /// Probability of (correctly) distrusting unknown software with no
  /// reputation information; low for novices — they click through.
  double uninformed_caution = 0.3;
  /// Probability the user answers a rating prompt instead of dismissing it.
  double prompt_patience = 0.7;
  /// Probability the user meta-moderates a comment shown in a prompt
  /// (§2.1's first mitigation relies on users "rating the feedback of other
  /// users").
  double remark_propensity = 0.15;
};

/// Canonical parameters per archetype.
UserBehavior MakeUserBehavior(UserProfile profile);

/// Decision + rating logic for one simulated user. Stateless apart from the
/// RNG reference: the same model drives both direct (native-API) and
/// RPC-client simulations.
class SimUserModel {
 public:
  SimUserModel(UserBehavior behavior, util::Rng rng)
      : behavior_(behavior), rng_(std::move(rng)) {}

  const UserBehavior& behavior() const { return behavior_; }

  /// The score this user submits for `spec` (§1: grading between 1 and 10).
  /// Malicious users invert the scale (praise PIS, trash legitimate).
  int RateSoftware(const SoftwareSpec& spec);

  /// Whether the user, shown `info` for a program whose ground truth is
  /// `spec`, chooses to allow it. This is the paper's central bet: with
  /// reputation information, medium-consent software gets an *informed*
  /// decision (Table 2).
  bool DecideAllow(const client::PromptInfo& info, const SoftwareSpec& spec);

  /// Whether the user answers a rating prompt.
  bool AnswersRatingPrompt() { return rng_.NextBool(behavior_.prompt_patience); }

  /// Behaviours the user includes in their report (observed, possibly
  /// under-reported).
  core::BehaviorSet ReportBehaviors(const SoftwareSpec& spec);

  /// Whether this user's comment text is helpful (decides the remarks it
  /// attracts).
  bool WritesHelpfulComment() {
    return rng_.NextBool(behavior_.comment_quality);
  }

  util::Rng& rng() { return rng_; }

 private:
  UserBehavior behavior_;
  util::Rng rng_;
};

}  // namespace pisrep::sim

#endif  // PISREP_SIM_USER_MODEL_H_
