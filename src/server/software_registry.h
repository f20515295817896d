#ifndef PISREP_SERVER_SOFTWARE_REGISTRY_H_
#define PISREP_SERVER_SOFTWARE_REGISTRY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/behavior.h"
#include "core/types.h"
#include "storage/database.h"
#include "util/status.h"

namespace pisrep::server {

/// Persistent registry of software executables, vendors, aggregated scores
/// and community behaviour reports (§3.3).
///
/// Backed by four tables in the embedded database:
///   software(id, file_name, file_size, company, version)
///   software_scores(id, score, vote_count, weight_sum, computed_at,
///                   bootstrap_score, bootstrap_weight)
///   vendor_scores(vendor, score, software_count, computed_at)
///   behavior_reports(key, software, behavior, report_count)
class SoftwareRegistry {
 public:
  /// Creates the backing tables if absent. The database must outlive the
  /// registry.
  explicit SoftwareRegistry(storage::Database* db);

  /// Registers an executable. Re-registering the same digest with identical
  /// metadata is a no-op; conflicting metadata for an existing digest fails
  /// (the digest covers the file content, so this indicates a client bug).
  util::Status RegisterSoftware(const core::SoftwareMeta& meta);

  bool HasSoftware(const core::SoftwareId& id) const;
  util::Result<core::SoftwareMeta> GetSoftware(
      const core::SoftwareId& id) const;

  /// All registered software produced by `vendor` (company-name match).
  std::vector<core::SoftwareMeta> SoftwareByVendor(
      const core::VendorId& vendor) const;

  /// Visits the ids SoftwareByVendor(vendor) lists, in the same order,
  /// without materializing their rows (the aggregation's vendor pass).
  void ForEachSoftwareOfVendor(
      const core::VendorId& vendor,
      const std::function<void(const core::SoftwareId&)>& visit) const;

  /// The company `id` is registered under; empty when it has none or is
  /// not registered.
  core::VendorId VendorOf(const core::SoftwareId& id) const;

  /// Every non-empty company, in the order AllSoftware first lists one of
  /// its titles.
  std::vector<core::VendorId> AllVendors() const;

  /// All registered software ids.
  std::vector<core::SoftwareId> AllSoftware() const;
  std::size_t SoftwareCount() const;

  /// Case-insensitive substring search over file names (the §3 web
  /// interface's search box).
  std::vector<core::SoftwareMeta> SearchByName(std::string_view query) const;

  /// Every computed vendor score.
  std::vector<core::VendorScore> AllVendorScores() const;

  /// Aggregated score access (written by the aggregation job).
  util::Status PutScore(const core::SoftwareScore& score);
  util::Result<core::SoftwareScore> GetScore(const core::SoftwareId& id) const;

  /// The `limit` best (or worst) scored software with at least one vote,
  /// via the ordered score index — no full scan.
  std::vector<core::SoftwareScore> TopScored(std::size_t limit,
                                             bool best) const;

  /// Bootstrap prior (§2.1): a pre-seeded score with synthetic weight that
  /// the aggregation job blends with real votes.
  util::Status PutBootstrapPrior(const core::SoftwareId& id, double score,
                                 double weight);
  /// Returns {score, weight}; weight 0 when no prior exists.
  std::pair<double, double> GetBootstrapPrior(const core::SoftwareId& id) const;

  /// Software whose bootstrap prior changed since the last call, in
  /// change order (incremental-aggregation input). Consuming clears it.
  std::vector<core::SoftwareId> TakeDirtyPriors();

  util::Status PutVendorScore(const core::VendorScore& score);
  util::Result<core::VendorScore> GetVendorScore(
      const core::VendorId& vendor) const;

  /// Community behaviour reporting: each submitted rating may flag observed
  /// behaviours; reports are counted per (software, behavior). `count`
  /// lets high-confidence sources (e.g. the §5 runtime analyzer's "hard
  /// evidence") weigh as several independent reports.
  util::Status ReportBehaviors(const core::SoftwareId& id,
                               core::BehaviorSet behaviors, int count = 1);

  /// Behaviours reported by at least `min_reports` raters.
  core::BehaviorSet ReportedBehaviors(const core::SoftwareId& id,
                                      int min_reports = 1) const;

  /// §3.1 "run statistics": anonymous community execution counters. Clients
  /// batch-report how often they launched a program; the totals are shown
  /// alongside ratings ("how widely used is this?").
  util::Status AddRuns(const core::SoftwareId& id, std::int64_t count);
  std::int64_t RunCount(const core::SoftwareId& id) const;

  /// Every digest with a run counter, whether or not the software is
  /// registered (run stats attach to the bare digest). Snapshot
  /// materialization input.
  std::vector<std::pair<core::SoftwareId, std::int64_t>> AllRunCounts() const;

  /// Monotonic counter bumped by every successful mutation that can change
  /// a QuerySoftware or QueryVendor answer (metadata, scores, priors,
  /// behaviour reports, vendor scores). The snapshot read path compares it
  /// against the generation recorded at publication to decide whether the
  /// published snapshot still reflects current content. Run counters are
  /// left out: a snapshot hit reads RunCount live, so a run report never
  /// stales the published snapshot.
  std::uint64_t content_generation() const { return content_generation_; }

  /// Number of reports for one behaviour.
  std::int64_t BehaviorReportCount(const core::SoftwareId& id,
                                   core::Behavior behavior) const;

  /// Pins the score rows of `ids` resident in the hot tier (DESIGN.md §15)
  /// — the live ScoreSnapshot references them, so they must not be
  /// demoted under it. Refcounted; every PinScores must be paired with an
  /// UnpinScores of the same ids. Unknown ids are skipped (a score row
  /// can be deleted by shard migration between aggregation runs). No-ops
  /// when the scores table is untiered.
  void PinScores(const std::vector<core::SoftwareId>& ids);
  void UnpinScores(const std::vector<core::SoftwareId>& ids);

 private:
  storage::Database* db_;
  /// Tier-aware facades (DESIGN.md §15): pass-throughs when the table is
  /// untiered, transparent hot/cold access when it is. Reads must go
  /// through them — the raw Table holds only the resident subset.
  storage::TieredTable* software_;
  storage::TieredTable* scores_;
  storage::TieredTable* vendor_scores_;
  storage::TieredTable* behavior_reports_;
  storage::TieredTable* run_stats_;
  /// Priors written since the aggregation job last consumed them
  /// (first-touch order).
  std::vector<core::SoftwareId> dirty_prior_order_;
  std::unordered_set<core::SoftwareId, core::SoftwareIdHash>
      dirty_prior_set_;
  std::uint64_t content_generation_ = 0;
};

}  // namespace pisrep::server

#endif  // PISREP_SERVER_SOFTWARE_REGISTRY_H_
