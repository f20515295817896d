#ifndef PISREP_CORE_TYPES_H_
#define PISREP_CORE_TYPES_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/clock.h"
#include "util/sha1.h"
#include "util/status.h"

namespace pisrep::core {

/// A software executable's identity: the SHA-1 digest of its file content
/// (§3.3). Changing a single byte of the program changes its identity, so
/// ratings can never follow a behaviourally-different binary.
using SoftwareId = util::Sha1Digest;
using SoftwareIdHash = util::Sha1DigestHash;

/// Parses a 40-hex-character SHA-1 (either case) into a SoftwareId.
util::Result<SoftwareId> SoftwareIdFromHex(std::string_view hex);

/// Server-assigned account identifier.
using UserId = std::int64_t;

/// Vendors are identified by the company name embedded in the executable
/// (§3.3); an *absent* company name is itself a signal of PIS.
using VendorId = std::string;

/// Rating bounds (§1: "grading it between 1 and 10").
inline constexpr int kMinRating = 1;
inline constexpr int kMaxRating = 10;

/// True when `score` is a legal rating value.
constexpr bool IsValidRating(std::int64_t score) {
  return score >= kMinRating && score <= kMaxRating;
}

/// Metadata stored for each software executable (§3.3).
struct SoftwareMeta {
  SoftwareId id;            ///< SHA-1 digest of the file content
  std::string file_name;    ///< executable file name
  std::int64_t file_size = 0;
  VendorId company;         ///< may be empty — a PIS signal in itself
  std::string version;

  friend bool operator==(const SoftwareMeta&, const SoftwareMeta&) = default;
};

/// One user's submitted vote on one software.
struct RatingRecord {
  UserId user = 0;
  SoftwareId software;
  int score = kMinRating;
  std::string comment;
  util::TimePoint submitted_at = 0;
};

/// Aggregated community score for a software, recomputed by the daily job.
struct SoftwareScore {
  SoftwareId software;
  double score = 0.0;       ///< trust-weighted mean in [1, 10]
  int vote_count = 0;
  double weight_sum = 0.0;  ///< total trust weight behind the score
  util::TimePoint computed_at = 0;
};

/// Aggregated score for a vendor: the plain mean over its software scores
/// (§3.2).
struct VendorScore {
  VendorId vendor;
  double score = 0.0;
  int software_count = 0;
  util::TimePoint computed_at = 0;
};

}  // namespace pisrep::core

#endif  // PISREP_CORE_TYPES_H_
