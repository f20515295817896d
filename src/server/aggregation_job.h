#ifndef PISREP_SERVER_AGGREGATION_JOB_H_
#define PISREP_SERVER_AGGREGATION_JOB_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/rating_aggregator.h"
#include "net/event_loop.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/account_manager.h"
#include "server/software_registry.h"
#include "server/vote_store.h"

namespace pisrep::server {

/// Instrumentation for one aggregation run (logged, exposed for tests and
/// the A4 benchmark).
struct AggregationStats {
  std::uint64_t run = 0;        ///< 1-based run counter
  bool full_sweep = false;      ///< true when every rated software was redone
  std::size_t candidates = 0;   ///< distinct software with >= 1 vote
  std::size_t recomputed = 0;   ///< software whose score was recomputed
  std::size_t skipped = 0;      ///< candidates - recomputed (clean entries)
  std::size_t dirty_votes = 0;  ///< dirtied by SubmitRating / SetApproved
  std::size_t dirty_trust = 0;  ///< dirtied via a voter's trust change
  std::size_t dirty_priors = 0; ///< dirtied by a bootstrap-prior write
  std::size_t vendors_recomputed = 0;
  std::size_t shards = 0;       ///< chunks the compute ran in (0: none)
  std::int64_t wall_micros = 0; ///< real elapsed time (instrumentation only)
  /// Wall time of each phase, summing to wall_micros (instrumentation
  /// only): taking the dirty sets and assembling the targets; the trust
  /// snapshot and score compute; the score write-back; the vendor pass
  /// (owners, means and writes).
  std::int64_t select_micros = 0;
  std::int64_t compute_micros = 0;
  std::int64_t write_micros = 0;
  std::int64_t vendor_micros = 0;
  /// Software whose score write landed this run, in write order. Filled
  /// only when AggregationJob::set_collect_recomputed is on (the tiered
  /// server pins these rows resident under the published snapshot);
  /// otherwise left empty so untiered runs pay nothing.
  std::vector<core::SoftwareId> recomputed_ids;

  /// The kInfo log line for this run. The metrics emission and the log
  /// derive from the same snapshot via this single formatter, so the two
  /// surfaces can never disagree (asserted in aggregation_incremental_test).
  std::string Summary() const;
};

/// The score recomputation job (§3.2: "Software ratings are calculated at
/// fixed points in time (currently once in every 24-hour period). During
/// this work users' trust factors are taken into consideration").
///
/// The paper recomputes everything every 24 h; at millions of votes that
/// makes the recompute cost — not the period — the scaling limit. This job
/// is therefore *incremental*: each run recomputes only the union of
///
///   - software touched by SubmitRating / SetApproved (VoteStore dirty set),
///   - software voted on (linkably) by accounts whose trust factor changed
///     since the previous run (AccountManager trust generation, mapped back
///     through VotesByUser; pseudonymous votes carry frozen weights and are
///     immune to trust changes),
///   - software whose bootstrap prior was rewritten (SoftwareRegistry),
///
/// and vendor scores only for vendors owning a recomputed title. A
/// `full_sweep` escape hatch, a forced full sweep every Nth run
/// (set_full_sweep_every), and an unconditional full sweep on a job's first
/// run (dirty state is in-memory and lost on restart) guard against drift.
///
/// Parallelism: per-software gather+aggregate, the vendor owners and the
/// per-vendor means are read-only over the database and fan out through
/// util::ParallelFor, TickWidth() wide; every write (PutScore /
/// PutVendorScore) happens on the calling thread — storage::Database stays
/// single-writer, and results are byte-identical to the sequential path
/// because per-software and per-vendor arithmetic order never changes.
class AggregationJob {
 public:
  /// Every Nth scheduled run is widened to a full sweep by default.
  static constexpr std::uint64_t kDefaultFullSweepEvery = 16;

  AggregationJob(SoftwareRegistry* registry, VoteStore* votes,
                 AccountManager* accounts);

  /// Ablation switch: when false, every vote weighs 1 regardless of the
  /// voter's trust factor (the §2.1 "unweighted" baseline).
  void set_trust_weighting(bool enabled) { trust_weighting_ = enabled; }
  bool trust_weighting() const { return trust_weighting_; }

  /// Registered titles from which a run fans out; below it the run stays
  /// on the calling thread and starts no thread. This is not where the
  /// fanned-out tick starts to win: it already does at 128 titles. It
  /// keeps small processes, such as the test binaries `ctest -j` runs side
  /// by side, free of threads, because fanning out also costs the rest of
  /// the process, and below this size an inline tick takes tens of
  /// milliseconds at most (DESIGN §9.2).
  static constexpr std::size_t kTickSplitTitles = 512;

  /// How wide a run started now fans out: the set_fan_out_width override
  /// when one is set, else util::HardwareWidth() from kTickSplitTitles
  /// registered titles up, else 1 (inline). The server renders its
  /// snapshot at the same width.
  std::size_t TickWidth() const;

  /// Overrides the split rule: every run fans out `width` wide (1: inline)
  /// whatever the store's size; 0 restores the rule. For the bit-equality
  /// tests and the A4 benchmark.
  void set_fan_out_width(std::size_t width) { fan_out_width_ = width; }

  /// Forces a full sweep every `n` runs; 0 disables the periodic guard
  /// (the first run and the explicit escape hatch still sweep fully).
  void set_full_sweep_every(std::uint64_t n) { full_sweep_every_ = n; }

  /// When on, each run records the ids it recomputed in
  /// AggregationStats::recomputed_ids (consumed by the tiered server's
  /// snapshot-pinning hook). Off by default — the vector can be large.
  void set_collect_recomputed(bool collect) { collect_recomputed_ = collect; }

  /// Recomputes scores as of `now` — incrementally, unless `full_sweep`
  /// asks for the paper's recompute-everything behaviour. Returns the
  /// number of software entries whose score was recomputed.
  std::size_t RunOnce(util::TimePoint now, bool full_sweep = false);

  /// Stats for the most recent RunOnce.
  const AggregationStats& last_stats() const { return stats_; }

  /// Hook invoked on the calling thread at the end of every completed run
  /// (scheduled and manual), after all score/vendor writes have landed.
  /// The reputation server publishes its read-path snapshot from here, so
  /// publication can never observe a half-written run.
  void set_post_run(std::function<void(const AggregationStats&)> hook) {
    post_run_ = std::move(hook);
  }

  /// After each run the AggregationStats snapshot is folded into run /
  /// sweep / recompute counters, a run-duration histogram and the
  /// `pisrep_server_aggregation_phase_micros{phase=...}` histograms on
  /// `metrics`, and the run executes under an `aggregation.run` root span
  /// on `tracer`. Either may be null; both must outlive the job.
  void AttachObservability(obs::MetricsRegistry* metrics,
                           obs::Tracer* tracer);

  /// Installs the job on the loop, first run after one period. The job
  /// reschedules itself after each run; CancelSchedule (or destroying the
  /// job) stops the chain. Calling Schedule again replaces any existing
  /// schedule. Scheduled runs are incremental (with the periodic forced
  /// full sweep).
  void Schedule(net::EventLoop* loop,
                util::Duration period = core::kAggregationPeriod);

  /// Stops the periodic schedule. Already-queued loop events become
  /// no-ops, so this is safe to call at any point (server shutdown).
  void CancelSchedule() { schedule_token_.reset(); }

  std::uint64_t runs() const { return runs_; }

 private:
  void ScheduleNext();
  /// Adds the freshly finished run's stats_ to the registry counters.
  void EmitStats();

  SoftwareRegistry* registry_;
  VoteStore* votes_;
  AccountManager* accounts_;
  bool trust_weighting_ = true;
  /// set_fan_out_width's override; 0 means the split rule decides.
  std::size_t fan_out_width_ = 0;
  std::uint64_t full_sweep_every_ = kDefaultFullSweepEvery;
  bool collect_recomputed_ = false;
  /// Trust generation already folded into scores by previous runs.
  std::uint64_t trust_generation_seen_ = 0;
  std::uint64_t runs_ = 0;
  AggregationStats stats_;
  std::function<void(const AggregationStats&)> post_run_;
  net::EventLoop* loop_ = nullptr;
  util::Duration period_ = 0;
  /// Liveness token: queued loop callbacks hold a weak_ptr and fire only
  /// while this schedule (and this job) is still alive.
  std::shared_ptr<int> schedule_token_;

  obs::Tracer* tracer_ = nullptr;
  obs::Counter* runs_metric_ = nullptr;
  obs::Counter* full_sweeps_metric_ = nullptr;
  obs::Counter* recomputed_metric_ = nullptr;
  obs::Counter* skipped_metric_ = nullptr;
  obs::Counter* dirty_votes_metric_ = nullptr;
  obs::Counter* dirty_trust_metric_ = nullptr;
  obs::Counter* dirty_priors_metric_ = nullptr;
  obs::Counter* vendors_metric_ = nullptr;
  obs::Histogram* run_micros_ = nullptr;
  obs::Histogram* select_micros_ = nullptr;
  obs::Histogram* compute_micros_ = nullptr;
  obs::Histogram* write_micros_ = nullptr;
  obs::Histogram* vendor_micros_ = nullptr;
};

/// Family of the per-phase wall-time histograms (label `phase`: select,
/// compute, write, vendor from the job; publish from the server).
inline constexpr std::string_view kAggregationPhaseMicros =
    "pisrep_server_aggregation_phase_micros";

/// Buckets (µs) shared by the run and phase histograms.
std::vector<double> AggregationMicrosBuckets();

}  // namespace pisrep::server

#endif  // PISREP_SERVER_AGGREGATION_JOB_H_
