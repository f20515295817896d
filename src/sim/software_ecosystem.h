#ifndef PISREP_SIM_SOFTWARE_ECOSYSTEM_H_
#define PISREP_SIM_SOFTWARE_ECOSYSTEM_H_

#include <array>
#include <string>
#include <vector>

#include "client/file_image.h"
#include "core/behavior.h"
#include "core/classification.h"
#include "crypto/signing.h"
#include "util/random.h"

namespace pisrep::sim {

/// A simulated software vendor: name, signing keys, and whether it is an
/// honest company (honest vendors sign their binaries and embed their
/// company name; PIS vendors often do neither, §3.3).
struct VendorProfile {
  std::string name;
  crypto::KeyPair keys;
  bool legitimate = true;
};

/// One program in the synthetic ecosystem, with full ground truth that a
/// real deployment would lack — this is what lets the simulation *measure*
/// what the paper could only argue.
struct SoftwareSpec {
  client::FileImage image;
  int vendor_index = -1;               ///< into SoftwareEcosystem::vendors()
  core::PisCategory truth = core::PisCategory::kLegitimate;
  core::BehaviorSet behaviors = core::kNoBehaviors;
  core::DisclosureProfile disclosure;
  /// Latent quality on the 1..10 rating scale that an omniscient honest
  /// rater would converge to; derived from the category.
  double true_quality = 5.0;
  /// Zipf popularity weight (higher = more commonly installed).
  double popularity = 1.0;
};

/// Ecosystem generation parameters.
struct EcosystemConfig {
  int num_software = 200;
  int num_vendors = 30;
  /// Fraction of vendors that are PIS shops.
  double pis_vendor_fraction = 0.3;
  /// Weights over the nine Table-1 categories (index = category number - 1).
  /// The default mix skews legitimate with a realistic grey-zone tail.
  std::array<double, 9> category_weights = {
      0.45,   // 1 legitimate
      0.08,   // 2 adverse
      0.02,   // 3 double agents
      0.10,   // 4 semi-transparent
      0.12,   // 5 unsolicited
      0.04,   // 6 semi-parasites
      0.07,   // 7 covert
      0.08,   // 8 trojans
      0.04,   // 9 parasites
  };
  /// Zipf exponent for popularity.
  double zipf_exponent = 1.0;
  std::uint64_t seed = 42;
};

/// Generator and container for the synthetic software corpus.
class SoftwareEcosystem {
 public:
  /// Builds a deterministic ecosystem from the config.
  static SoftwareEcosystem Generate(const EcosystemConfig& config);

  const std::vector<VendorProfile>& vendors() const { return vendors_; }
  const std::vector<SoftwareSpec>& specs() const { return specs_; }
  const SoftwareSpec& spec(std::size_t i) const { return specs_[i]; }
  std::size_t size() const { return specs_.size(); }

  /// Samples a software index with probability proportional to popularity.
  std::size_t SamplePopular(util::Rng& rng) const;

  /// The latent quality an honest rater converges to for `category`
  /// (midpoint of the category's plausible range).
  static double TrueQualityFor(core::PisCategory category);

  /// True when running this program harms the user (spyware or malware in
  /// the Table-1 sense): everything except legitimate software.
  static bool IsPis(core::PisCategory category) {
    return !core::IsLegitimate(category);
  }

 private:
  std::vector<VendorProfile> vendors_;
  std::vector<SoftwareSpec> specs_;
  std::vector<double> popularity_cdf_;
};

}  // namespace pisrep::sim

#endif  // PISREP_SIM_SOFTWARE_ECOSYSTEM_H_
