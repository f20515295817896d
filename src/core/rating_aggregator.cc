#include "core/rating_aggregator.h"

#include <algorithm>

namespace pisrep::core {

SoftwareScore RatingAggregator::Aggregate(
    const SoftwareId& software, const std::vector<WeightedVote>& votes,
    util::TimePoint now) {
  SoftwareScore result;
  result.software = software;
  result.computed_at = now;
  double weighted_sum = 0.0;
  for (const WeightedVote& vote : votes) {
    weighted_sum += vote.score * vote.weight;
    result.weight_sum += vote.weight;
    ++result.vote_count;
  }
  if (result.weight_sum > 0.0) {
    result.score = weighted_sum / result.weight_sum;
  }
  return result;
}

SoftwareScore RatingAggregator::AggregateUnweighted(
    const SoftwareId& software, const std::vector<WeightedVote>& votes,
    util::TimePoint now) {
  std::vector<WeightedVote> flattened;
  flattened.reserve(votes.size());
  for (const WeightedVote& vote : votes) {
    flattened.push_back(WeightedVote{vote.score, 1.0});
  }
  return Aggregate(software, flattened, now);
}

VendorScore RatingAggregator::AggregateVendor(
    const VendorId& vendor, const std::vector<SoftwareScore>& scores,
    util::TimePoint now) {
  VendorScore result;
  result.vendor = vendor;
  result.computed_at = now;
  double sum = 0.0;
  for (const SoftwareScore& score : scores) {
    if (score.vote_count == 0) continue;
    sum += score.score;
    ++result.software_count;
  }
  if (result.software_count > 0) {
    result.score = sum / result.software_count;
  }
  return result;
}

util::Result<VendorScore> RatingAggregator::MergeVendor(
    const VendorId& vendor, const std::vector<VendorScore>& legs) {
  VendorScore merged;
  merged.vendor = vendor;
  double weighted_sum = 0.0;
  for (const VendorScore& leg : legs) {
    if (leg.software_count <= 0) continue;
    weighted_sum += leg.score * leg.software_count;
    merged.software_count += leg.software_count;
    merged.computed_at = std::max(merged.computed_at, leg.computed_at);
  }
  if (merged.software_count == 0) {
    return util::Status::NotFound("vendor has no scored software");
  }
  merged.score = weighted_sum / merged.software_count;
  return merged;
}

}  // namespace pisrep::core
