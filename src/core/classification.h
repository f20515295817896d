#ifndef PISREP_CORE_CLASSIFICATION_H_
#define PISREP_CORE_CLASSIFICATION_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace pisrep::core {

/// Degree of informed consent the user gave to a software's behaviour
/// (Table 1, rows).
enum class ConsentLevel : std::uint8_t { kLow = 0, kMedium = 1, kHigh = 2 };

/// Severity of the software's negative consequences (Table 1, columns).
enum class ConsequenceLevel : std::uint8_t {
  kTolerable = 0,
  kModerate = 1,
  kSevere = 2,
};

/// The nine cells of the paper's PIS classification (Table 1), numbered
/// exactly as in the paper.
enum class PisCategory : std::uint8_t {
  kLegitimate = 1,       ///< high consent, tolerable consequences
  kAdverse = 2,          ///< high consent, moderate consequences
  kDoubleAgent = 3,      ///< high consent, severe consequences
  kSemiTransparent = 4,  ///< medium consent, tolerable consequences
  kUnsolicited = 5,      ///< medium consent, moderate consequences
  kSemiParasite = 6,     ///< medium consent, severe consequences
  kCovert = 7,           ///< low consent, tolerable consequences
  kTrojan = 8,           ///< low consent, moderate consequences
  kParasite = 9,         ///< low consent, severe consequences
};

/// The cell label used in Table 1 ("Legitimate software", "Double agents"…).
const char* PisCategoryName(PisCategory category);

/// Maps a (consent, consequence) pair to its Table-1 cell.
PisCategory Classify(ConsentLevel consent, ConsequenceLevel consequence);

/// Inverse of Classify: the consent row of a category.
ConsentLevel CategoryConsent(PisCategory category);
/// Inverse of Classify: the consequence column of a category.
ConsequenceLevel CategoryConsequence(PisCategory category);

/// Paper §1.1: "All software that has low user consent, or which impairs
/// severe negative consequences should be regarded as malicious software."
bool IsMalware(PisCategory category);

/// Paper §1.1: "any software that has high user consent, and which results
/// in tolerable negative consequences should be regarded as legitimate."
bool IsLegitimate(PisCategory category);

/// Paper §1.1: spyware is the remaining group — medium consent or moderate
/// consequences, excluding the malware cells.
bool IsSpyware(PisCategory category);

/// The Table-2 transformation (§4.1): once the reputation system gives the
/// user the knowledge to make an informed decision, medium consent collapses
/// into high (the user knowingly accepts) or low (the software only runs by
/// evading the now-informed user). `informed_user_accepts` is that decision.
/// High- and low-consent categories are unchanged.
PisCategory TransformWithReputation(PisCategory category,
                                    bool informed_user_accepts);

/// Parses a category from its paper cell number (1..9).
util::Result<PisCategory> PisCategoryFromNumber(int number);

}  // namespace pisrep::core

#endif  // PISREP_CORE_CLASSIFICATION_H_
