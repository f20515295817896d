#ifndef PISREP_CORE_RATING_AGGREGATOR_H_
#define PISREP_CORE_RATING_AGGREGATOR_H_

#include <vector>

#include "core/types.h"
#include "util/clock.h"
#include "util/status.h"

namespace pisrep::core {

/// How often the server recomputes software scores (§3.2: "calculated at
/// fixed points in time (currently once in every 24-hour period)").
inline constexpr util::Duration kAggregationPeriod = util::kDay;

/// One vote as seen by the aggregator: the score and the voter's trust
/// factor at aggregation time.
struct WeightedVote {
  double score = 0.0;   ///< rating in [1, 10]
  double weight = 1.0;  ///< voter's trust factor
};

/// Aggregation arithmetic (§3.2: "users' trust factors are taken into
/// consideration when calculating the final score"). Pure functions: the
/// scheduled job in server/ feeds them from the vote store.
class RatingAggregator {
 public:
  /// Trust-weighted mean. Empty input yields a zero-vote score of 0.
  static SoftwareScore Aggregate(const SoftwareId& software,
                                 const std::vector<WeightedVote>& votes,
                                 util::TimePoint now);

  /// Unweighted mean, used as the ablation baseline in bench F1.
  static SoftwareScore AggregateUnweighted(
      const SoftwareId& software, const std::vector<WeightedVote>& votes,
      util::TimePoint now);

  /// Vendor score: the plain mean of the vendor's software scores (§3.2).
  /// Software with zero votes is excluded.
  static VendorScore AggregateVendor(const VendorId& vendor,
                                     const std::vector<SoftwareScore>& scores,
                                     util::TimePoint now);

  /// Cluster vendor score from per-shard `legs` (each shard's
  /// AggregateVendor result for `vendor`): their means weighted by their
  /// software counts, summed in the order given, so callers that pass the
  /// legs in ring-member order agree bit for bit. Legs without scored
  /// software are skipped; computed_at is the newest leg's. NotFound when
  /// no leg has any.
  static util::Result<VendorScore> MergeVendor(
      const VendorId& vendor, const std::vector<VendorScore>& legs);
};

}  // namespace pisrep::core

#endif  // PISREP_CORE_RATING_AGGREGATOR_H_
