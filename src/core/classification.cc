#include "core/classification.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace pisrep::core {

const char* PisCategoryName(PisCategory category) {
  switch (category) {
    case PisCategory::kLegitimate:
      return "Legitimate software";
    case PisCategory::kAdverse:
      return "Adverse software";
    case PisCategory::kDoubleAgent:
      return "Double agents";
    case PisCategory::kSemiTransparent:
      return "Semi-transparent software";
    case PisCategory::kUnsolicited:
      return "Unsolicited software";
    case PisCategory::kSemiParasite:
      return "Semi-parasites";
    case PisCategory::kCovert:
      return "Covert software";
    case PisCategory::kTrojan:
      return "Trojans";
    case PisCategory::kParasite:
      return "Parasites";
  }
  return "?";
}

PisCategory Classify(ConsentLevel consent, ConsequenceLevel consequence) {
  // Table 1 numbering: row-major, high consent first.
  int row;
  switch (consent) {
    case ConsentLevel::kHigh:
      row = 0;
      break;
    case ConsentLevel::kMedium:
      row = 1;
      break;
    case ConsentLevel::kLow:
      row = 2;
      break;
    default:
      row = 2;
  }
  int col = static_cast<int>(consequence);
  return static_cast<PisCategory>(row * 3 + col + 1);
}

ConsentLevel CategoryConsent(PisCategory category) {
  int cell = static_cast<int>(category) - 1;
  switch (cell / 3) {
    case 0:
      return ConsentLevel::kHigh;
    case 1:
      return ConsentLevel::kMedium;
    default:
      return ConsentLevel::kLow;
  }
}

ConsequenceLevel CategoryConsequence(PisCategory category) {
  int cell = static_cast<int>(category) - 1;
  return static_cast<ConsequenceLevel>(cell % 3);
}

bool IsMalware(PisCategory category) {
  return CategoryConsent(category) == ConsentLevel::kLow ||
         CategoryConsequence(category) == ConsequenceLevel::kSevere;
}

bool IsLegitimate(PisCategory category) {
  return CategoryConsent(category) == ConsentLevel::kHigh &&
         CategoryConsequence(category) == ConsequenceLevel::kTolerable;
}

bool IsSpyware(PisCategory category) {
  return !IsMalware(category) && !IsLegitimate(category);
}

PisCategory TransformWithReputation(PisCategory category,
                                    bool informed_user_accepts) {
  if (CategoryConsent(category) != ConsentLevel::kMedium) return category;
  ConsentLevel new_consent =
      informed_user_accepts ? ConsentLevel::kHigh : ConsentLevel::kLow;
  return Classify(new_consent, CategoryConsequence(category));
}

util::Result<PisCategory> PisCategoryFromNumber(int number) {
  if (number < 1 || number > 9) {
    return util::Status::InvalidArgument(
        util::StrFormat("PIS category number out of range: %d", number));
  }
  return static_cast<PisCategory>(number);
}

}  // namespace pisrep::core
