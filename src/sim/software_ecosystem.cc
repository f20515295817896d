#include "sim/software_ecosystem.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/string_util.h"

namespace pisrep::sim {

namespace {

using core::Behavior;
using core::BehaviorSet;
using core::ConsentLevel;
using core::ConsequenceLevel;
using core::PisCategory;

/// Probability that an honest vendor signs a given binary.
constexpr double kSignedFractionLegit = 0.8;
/// Probability that a PIS vendor signs (rare; certificates burn).
constexpr double kSignedFractionPis = 0.05;
/// Probability that a PIS vendor strips its company name (§3.3 signal).
constexpr double kAnonymousPisFraction = 0.4;

/// Candidate behaviours per consequence column, used so generated behaviour
/// sets are consistent with the ground-truth category.
const std::vector<Behavior>& SevereBehaviors() {
  // Leaky singleton, safe during static teardown.
  // pisrep-lint: allow(raw-new-delete)
  static const auto& v = *new std::vector<Behavior>{
      Behavior::kSendsPersonalData, Behavior::kDialsPremium,
      Behavior::kKeylogging};
  return v;
}
const std::vector<Behavior>& ModerateBehaviors() {
  // Leaky singleton, safe during static teardown.
  // pisrep-lint: allow(raw-new-delete)
  static const auto& v = *new std::vector<Behavior>{
      Behavior::kPopupAds,        Behavior::kTracksUsage,
      Behavior::kNoUninstall,     Behavior::kChangesSettings,
      Behavior::kBundlesSoftware, Behavior::kDegradesPerformance};
  return v;
}
const std::vector<Behavior>& TolerableBehaviors() {
  // Leaky singleton, safe during static teardown.
  // pisrep-lint: allow(raw-new-delete)
  static const auto& v = *new std::vector<Behavior>{
      Behavior::kShowsAds, Behavior::kStartupRegistration};
  return v;
}

BehaviorSet GenerateBehaviors(ConsequenceLevel level, util::Rng& rng) {
  BehaviorSet set = core::kNoBehaviors;
  auto add_some = [&](const std::vector<Behavior>& pool, int min_count) {
    int count = min_count + static_cast<int>(rng.NextBelow(2));
    for (int i = 0; i < count; ++i) {
      set = core::WithBehavior(set, pool[rng.NextIndex(pool.size())]);
    }
  };
  switch (level) {
    case ConsequenceLevel::kSevere:
      add_some(SevereBehaviors(), 1);
      add_some(ModerateBehaviors(), 1);
      break;
    case ConsequenceLevel::kModerate:
      add_some(ModerateBehaviors(), 1);
      if (rng.NextBool(0.5)) add_some(TolerableBehaviors(), 1);
      break;
    case ConsequenceLevel::kTolerable:
      if (rng.NextBool(0.4)) add_some(TolerableBehaviors(), 1);
      break;
  }
  // Defensive: the generated set must map back to the intended column.
  PISREP_CHECK(core::AssessConsequence(set) == level ||
               (level == ConsequenceLevel::kTolerable &&
                set == core::kNoBehaviors))
      << "behaviour generation inconsistent with category";
  return set;
}

core::DisclosureProfile GenerateDisclosure(ConsentLevel level,
                                           util::Rng& rng) {
  core::DisclosureProfile profile;
  switch (level) {
    case ConsentLevel::kHigh:
      profile.disclosed = true;
      profile.plain_language = true;
      profile.eula_word_count = 300 + static_cast<int>(rng.NextBelow(1500));
      break;
    case ConsentLevel::kMedium:
      // §1: the behaviour is "stated in the license agreement that the user
      // already has accepted" — disclosed, but buried.
      profile.disclosed = true;
      profile.plain_language = rng.NextBool(0.2);
      profile.eula_word_count = 4000 + static_cast<int>(rng.NextBelow(6000));
      break;
    case ConsentLevel::kLow:
      profile.disclosed = false;
      profile.plain_language = false;
      profile.eula_word_count = 0;
      break;
  }
  return profile;
}

}  // namespace

double SoftwareEcosystem::TrueQualityFor(PisCategory category) {
  switch (category) {
    case PisCategory::kLegitimate:
      return 8.5;
    case PisCategory::kAdverse:
      return 6.0;
    case PisCategory::kDoubleAgent:
      return 3.0;
    case PisCategory::kSemiTransparent:
      return 7.0;
    case PisCategory::kUnsolicited:
      return 4.5;
    case PisCategory::kSemiParasite:
      return 2.5;
    case PisCategory::kCovert:
      return 3.5;
    case PisCategory::kTrojan:
      return 2.0;
    case PisCategory::kParasite:
      return 1.2;
  }
  return 5.0;
}

SoftwareEcosystem SoftwareEcosystem::Generate(const EcosystemConfig& config) {
  PISREP_CHECK(config.num_software > 0 && config.num_vendors > 0)
      << "ecosystem needs software and vendors";
  SoftwareEcosystem eco;
  util::Rng rng(config.seed);

  // Vendors.
  int num_pis_vendors = static_cast<int>(
      std::round(config.num_vendors * config.pis_vendor_fraction));
  for (int i = 0; i < config.num_vendors; ++i) {
    VendorProfile vendor;
    vendor.legitimate = i >= num_pis_vendors;
    vendor.name = util::StrFormat("%s-%02d",
                                  vendor.legitimate ? "TrustSoft" : "AdCorp",
                                  i);
    vendor.keys = crypto::GenerateKeyPair(rng);
    eco.vendors_.push_back(std::move(vendor));
  }

  // Normalized category CDF.
  double weight_total = 0.0;
  for (double w : config.category_weights) weight_total += w;
  PISREP_CHECK(weight_total > 0.0) << "category weights must not all be zero";

  for (int i = 0; i < config.num_software; ++i) {
    // Pick the ground-truth category.
    double u = rng.NextDouble() * weight_total;
    int cell = 0;
    double acc = 0.0;
    for (int c = 0; c < 9; ++c) {
      acc += config.category_weights[c];
      if (u <= acc) {
        cell = c;
        break;
      }
      cell = c;
    }
    PisCategory category = static_cast<PisCategory>(cell + 1);

    SoftwareSpec spec;
    spec.truth = category;
    spec.behaviors = GenerateBehaviors(core::CategoryConsequence(category),
                                       rng);
    spec.disclosure = GenerateDisclosure(core::CategoryConsent(category),
                                         rng);
    spec.true_quality = std::clamp(
        TrueQualityFor(category) + rng.NextGaussian(0.0, 0.4),
        static_cast<double>(core::kMinRating),
        static_cast<double>(core::kMaxRating));

    // Assign a vendor consistent with the category: PIS mostly comes from
    // PIS vendors, legitimate software from honest ones.
    bool is_pis = IsPis(category);
    std::vector<std::size_t> candidates;
    for (std::size_t v = 0; v < eco.vendors_.size(); ++v) {
      if (eco.vendors_[v].legitimate != is_pis) candidates.push_back(v);
    }
    if (candidates.empty()) {
      for (std::size_t v = 0; v < eco.vendors_.size(); ++v) {
        candidates.push_back(v);
      }
    }
    spec.vendor_index =
        static_cast<int>(candidates[rng.NextIndex(candidates.size())]);
    const VendorProfile& vendor = eco.vendors_[spec.vendor_index];

    // §3.3: some PIS vendors strip the company name from the binary.
    std::string company = vendor.name;
    if (is_pis && rng.NextBool(kAnonymousPisFraction)) {
      company.clear();
    }

    std::string file_name = util::StrFormat("app_%04d.exe", i);
    std::string version = util::StrFormat("%d.%d",
                                          1 + static_cast<int>(rng.NextBelow(5)),
                                          static_cast<int>(rng.NextBelow(10)));
    // Random content makes every digest unique.
    std::string content =
        util::StrFormat("binary:%04d:", i) + rng.NextToken(64);
    spec.image =
        client::FileImage(file_name, content, company, version);

    double sign_prob =
        vendor.legitimate ? kSignedFractionLegit : kSignedFractionPis;
    if (!company.empty() && rng.NextBool(sign_prob)) {
      spec.image.Sign(vendor.name, vendor.keys.private_key);
    }

    eco.specs_.push_back(std::move(spec));
  }

  // Zipf popularity over a random permutation of the corpus (so rank is
  // independent of category).
  std::vector<std::size_t> ranks(eco.specs_.size());
  for (std::size_t i = 0; i < ranks.size(); ++i) ranks[i] = i;
  for (std::size_t i = ranks.size(); i > 1; --i) {
    std::swap(ranks[i - 1], ranks[rng.NextIndex(i)]);
  }
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    double rank = static_cast<double>(i) + 1.0;
    eco.specs_[ranks[i]].popularity =
        1.0 / std::pow(rank, config.zipf_exponent);
  }

  double total = 0.0;
  eco.popularity_cdf_.reserve(eco.specs_.size());
  for (const SoftwareSpec& spec : eco.specs_) {
    total += spec.popularity;
    eco.popularity_cdf_.push_back(total);
  }
  return eco;
}

std::size_t SoftwareEcosystem::SamplePopular(util::Rng& rng) const {
  double u = rng.NextDouble() * popularity_cdf_.back();
  auto it = std::lower_bound(popularity_cdf_.begin(), popularity_cdf_.end(),
                             u);
  return static_cast<std::size_t>(
      std::min<std::ptrdiff_t>(it - popularity_cdf_.begin(),
                               static_cast<std::ptrdiff_t>(specs_.size()) - 1));
}

}  // namespace pisrep::sim
