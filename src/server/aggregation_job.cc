#include "server/aggregation_job.h"

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/clock.h"
#include "util/logging.h"
#include "util/parallel_for.h"

namespace pisrep::server {

std::string AggregationStats::Summary() const {
  return "aggregation run " + std::to_string(run) +
         (full_sweep ? " (full sweep)" : " (incremental)") + ": recomputed " +
         std::to_string(recomputed) + "/" + std::to_string(candidates) +
         " software (dirty: votes=" + std::to_string(dirty_votes) +
         " trust=" + std::to_string(dirty_trust) +
         " priors=" + std::to_string(dirty_priors) + "), " +
         std::to_string(vendors_recomputed) +
         " vendors, shards=" + std::to_string(shards) + ", " +
         std::to_string(wall_micros) + "us (select=" +
         std::to_string(select_micros) +
         "us compute=" + std::to_string(compute_micros) +
         "us write=" + std::to_string(write_micros) +
         "us vendor=" + std::to_string(vendor_micros) + "us)";
}

std::vector<double> AggregationMicrosBuckets() {
  return {100.0, 1000.0, 10000.0, 100000.0, 1000000.0};
}

AggregationJob::AggregationJob(SoftwareRegistry* registry, VoteStore* votes,
                               AccountManager* accounts)
    : registry_(registry), votes_(votes), accounts_(accounts) {}

void AggregationJob::AttachObservability(obs::MetricsRegistry* metrics,
                                         obs::Tracer* tracer) {
  tracer_ = tracer;
  if (metrics == nullptr) {
    runs_metric_ = nullptr;
    full_sweeps_metric_ = nullptr;
    recomputed_metric_ = nullptr;
    skipped_metric_ = nullptr;
    dirty_votes_metric_ = nullptr;
    dirty_trust_metric_ = nullptr;
    dirty_priors_metric_ = nullptr;
    vendors_metric_ = nullptr;
    run_micros_ = nullptr;
    select_micros_ = nullptr;
    compute_micros_ = nullptr;
    write_micros_ = nullptr;
    vendor_micros_ = nullptr;
    return;
  }
  runs_metric_ = metrics->GetCounter("pisrep_server_aggregation_runs_total");
  full_sweeps_metric_ =
      metrics->GetCounter("pisrep_server_aggregation_full_sweeps_total");
  recomputed_metric_ =
      metrics->GetCounter("pisrep_server_aggregation_recomputed_total");
  skipped_metric_ =
      metrics->GetCounter("pisrep_server_aggregation_skipped_total");
  dirty_votes_metric_ = metrics->GetCounter(
      obs::WithLabel("pisrep_server_aggregation_dirty_total", "kind",
                     "votes"));
  dirty_trust_metric_ = metrics->GetCounter(
      obs::WithLabel("pisrep_server_aggregation_dirty_total", "kind",
                     "trust"));
  dirty_priors_metric_ = metrics->GetCounter(
      obs::WithLabel("pisrep_server_aggregation_dirty_total", "kind",
                     "priors"));
  vendors_metric_ = metrics->GetCounter(
      "pisrep_server_aggregation_vendors_recomputed_total");
  // Wall-clock-valued (instrumentation only): same caveat as
  // stats_.wall_micros and the phase fields, which they mirror.
  run_micros_ = metrics->GetHistogram("pisrep_server_aggregation_run_micros",
                                      AggregationMicrosBuckets());
  auto phase = [&](std::string_view name) {
    return metrics->GetHistogram(
        obs::WithLabel(kAggregationPhaseMicros, "phase", name),
        AggregationMicrosBuckets());
  };
  select_micros_ = phase("select");
  compute_micros_ = phase("compute");
  write_micros_ = phase("write");
  vendor_micros_ = phase("vendor");
}

void AggregationJob::EmitStats() {
  // Every figure below comes from the same stats_ snapshot that Summary()
  // formats into the log line, so the two surfaces cannot diverge.
  if (runs_metric_ == nullptr) return;
  runs_metric_->Increment();
  if (stats_.full_sweep) full_sweeps_metric_->Increment();
  recomputed_metric_->Increment(stats_.recomputed);
  skipped_metric_->Increment(stats_.skipped);
  dirty_votes_metric_->Increment(stats_.dirty_votes);
  dirty_trust_metric_->Increment(stats_.dirty_trust);
  dirty_priors_metric_->Increment(stats_.dirty_priors);
  vendors_metric_->Increment(stats_.vendors_recomputed);
  run_micros_->Observe(static_cast<double>(stats_.wall_micros));
  select_micros_->Observe(static_cast<double>(stats_.select_micros));
  compute_micros_->Observe(static_cast<double>(stats_.compute_micros));
  write_micros_->Observe(static_cast<double>(stats_.write_micros));
  vendor_micros_->Observe(static_cast<double>(stats_.vendor_micros));
}

std::size_t AggregationJob::TickWidth() const {
  if (fan_out_width_ != 0) return fan_out_width_;
  return registry_->SoftwareCount() >= kTickSplitTitles ? util::HardwareWidth()
                                                         : 1;
}

std::size_t AggregationJob::RunOnce(util::TimePoint now, bool full_sweep) {
  ++runs_;
  // Root span: aggregation runs are loop events, not RPC handlers, so
  // there is no inbound trace to continue.
  obs::Span span;
  if (tracer_ != nullptr) span = tracer_->StartSpan("aggregation.run");
  const std::int64_t started = util::MonotonicMicros();
  // The first run after construction is always a full sweep: dirty state is
  // in-memory and did not observe whatever happened before a restart.
  const bool sweep =
      full_sweep || runs_ == 1 ||
      (full_sweep_every_ != 0 && runs_ % full_sweep_every_ == 0);

  const std::size_t width = TickWidth();

  // Consume every dirty source even when sweeping, so the next incremental
  // run starts from a clean slate instead of redoing already-swept work.
  std::vector<core::SoftwareId> dirty_votes = votes_->TakeDirtySoftware();
  std::vector<core::SoftwareId> dirty_priors = registry_->TakeDirtyPriors();
  const std::uint64_t trust_generation = accounts_->trust_generation();
  std::vector<core::UserId> trust_changed =
      accounts_->TrustChangedSince(trust_generation_seen_);
  trust_generation_seen_ = trust_generation;
  accounts_->PruneTrustChangesBefore(trust_generation);

  stats_ = AggregationStats{};
  stats_.run = runs_;
  stats_.full_sweep = sweep;
  stats_.candidates = votes_->RatedSoftwareCount();
  stats_.dirty_votes = dirty_votes.size();
  stats_.dirty_priors = dirty_priors.size();

  // Target assembly. Incremental targets are deduplicated in a fixed order
  // (vote-dirty, then trust-dirty, then prior-dirty) so repeated runs over
  // the same dirt recompute in the same sequence. Ids without votes are
  // skipped: a full sweep would not touch them either (RatedSoftware), so
  // skipping keeps the two modes byte-identical. Each target's vote count
  // is read once, here; `slot_of` maps a target to its index.
  std::vector<core::SoftwareId> targets;
  std::vector<std::size_t> vote_counts;
  std::unordered_map<core::SoftwareId, std::size_t, core::SoftwareIdHash>
      slot_of;
  slot_of.reserve(sweep ? votes_->RatedSoftwareCount()
                        : dirty_votes.size() + dirty_priors.size());
  auto add = [&](const core::SoftwareId& id) {
    const std::size_t count = votes_->VoteCountFor(id);
    if (count == 0) return false;
    if (!slot_of.emplace(id, targets.size()).second) return false;
    targets.push_back(id);
    vote_counts.push_back(count);
    return true;
  };
  if (sweep) {
    std::vector<core::SoftwareId> rated = votes_->RatedSoftware();
    targets.reserve(rated.size());
    vote_counts.reserve(rated.size());
    for (const core::SoftwareId& id : rated) add(id);
  } else {
    for (const core::SoftwareId& id : dirty_votes) add(id);
    if (trust_weighting_) {
      // A trust change re-weighs only *linkable* votes; pseudonymous votes
      // carry a frozen snapshot and are immune (§3.2).
      for (core::UserId user : trust_changed) {
        for (const StoredRating& stored : votes_->VotesByUser(user)) {
          if (stored.trust_snapshot > 0.0) continue;
          if (add(stored.record.software)) ++stats_.dirty_trust;
        }
      }
    }
    for (const core::SoftwareId& id : dirty_priors) add(id);
  }
  const std::int64_t selected = util::MonotonicMicros();
  stats_.select_micros = selected - started;

  // When the run will touch more votes than there are accounts, snapshot
  // every trust factor in one users-table scan up front. Per-vote
  // TrustFactor() copies a full account row (five string columns) per call;
  // fanned out, those copies all contend on the allocator and eat the
  // parallel speedup. The map holds the same live values a per-vote lookup
  // would see (nothing mutates accounts mid-run), so output is unchanged.
  std::unordered_map<core::UserId, double> trust_cache;
  bool use_trust_cache = false;
  if (trust_weighting_) {
    std::size_t vote_work = 0;
    for (std::size_t count : vote_counts) vote_work += count;
    if (vote_work >= accounts_->AccountCount()) {
      trust_cache = accounts_->AllTrustFactors();
      use_trust_cache = true;
    }
  }

  // Phase 1 — pure compute, fanned out `width` wide. Chunks only *read*
  // (votes, trust factors, priors) and write disjoint slots of a pre-sized
  // results vector; per-software arithmetic order never changes, so
  // parallel output is bit-identical to serial.
  auto compute = [&](std::size_t slot) {
    const core::SoftwareId& software = targets[slot];
    std::vector<core::WeightedVote> weighted;
    weighted.reserve(vote_counts[slot] + 1);
    votes_->ForEachVoteOn(
        software, [&](core::UserId user, int score, double trust_snapshot) {
          // Pseudonymous votes carry their weight frozen at vote time;
          // linkable votes use the voter's *current* trust factor (§3.2).
          // The ablation switch flattens everything to 1.
          double weight = 1.0;
          if (trust_weighting_) {
            if (trust_snapshot > 0.0) {
              weight = trust_snapshot;
            } else if (use_trust_cache) {
              auto it = trust_cache.find(user);
              // A miss means the voter has no account row; fall through to
              // TrustFactor so the unknown-user default stays in one place.
              weight = it != trust_cache.end() ? it->second
                                               : accounts_->TrustFactor(user);
            } else {
              weight = accounts_->TrustFactor(user);
            }
          }
          weighted.push_back(
              core::WeightedVote{static_cast<double>(score), weight});
        });
    // Blend the bootstrap prior (§2.1 second approach) as synthetic weight:
    // imported scores behave like an existing body of votes, so a handful
    // of novice ratings become "one out of many, rather than the one and
    // only".
    auto [boot_score, boot_weight] = registry_->GetBootstrapPrior(software);
    if (boot_weight > 0.0) {
      weighted.push_back(core::WeightedVote{boot_score, boot_weight});
    }
    core::SoftwareScore score =
        core::RatingAggregator::Aggregate(software, weighted, now);
    if (boot_weight > 0.0) {
      // The prior is not a community vote; do not count it as one.
      score.vote_count -= 1;
    }
    return score;
  };

  std::vector<core::SoftwareScore> results(targets.size());
  stats_.shards = util::ParallelFor(
      width, targets.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) results[i] = compute(i);
      });
  const std::int64_t computed = util::MonotonicMicros();
  stats_.compute_micros = computed - selected;

  // Phase 2 — writes, sequential on the calling thread in target order
  // (storage::Database is single-writer).
  std::size_t recomputed = 0;
  if (collect_recomputed_) stats_.recomputed_ids.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    util::Status put = registry_->PutScore(results[i]);
    if (!put.ok()) {
      PISREP_LOG(kWarning) << "aggregation: PutScore("
                           << targets[i].ToHex() << ") failed: " << put;
      // The store keeps the old score; the vendor pass must read that one.
      slot_of.erase(targets[i]);
      continue;
    }
    ++recomputed;
    if (collect_recomputed_) stats_.recomputed_ids.push_back(targets[i]);
  }
  stats_.recomputed = recomputed;
  stats_.skipped = stats_.candidates - std::min(stats_.candidates,
                                                targets.size());
  const std::int64_t written = util::MonotonicMicros();
  stats_.write_micros = written - computed;

  // Vendor scores: mean over the vendor's scored software (§3.2), for every
  // vendor owning a target or a dirty prior, and every vendor on a sweep.
  // A rewritten prior on a zero-vote title never enters `targets` (its
  // visible row was updated by PutBootstrapPrior directly), but the vendor
  // mean reads that row, so its vendor is dirty too. Owners are looked up
  // fanned out and deduplicated in first-touch order.
  std::vector<core::VendorId> vendors;
  if (sweep) {
    vendors = registry_->AllVendors();
  } else {
    std::vector<core::VendorId> owners(targets.size() + dirty_priors.size());
    util::ParallelFor(
        width, owners.size(), [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            owners[i] = registry_->VendorOf(
                i < targets.size() ? targets[i]
                                   : dirty_priors[i - targets.size()]);
          }
        });
    std::unordered_set<std::string_view> seen;
    for (const core::VendorId& owner : owners) {
      if (!owner.empty() && seen.insert(owner).second) {
        vendors.push_back(owner);
      }
    }
  }
  // Each mean sums its vendor's titles in SoftwareByVendor order however
  // the vendor was reached, so sweep and incremental runs agree bit for
  // bit. A target's score comes from phase 1 (it is what PutScore just
  // stored); every other title's from the store. The means are computed
  // fanned out; the writes stay on this thread, in vendor order.
  const auto& target_slots = slot_of;
  std::vector<std::optional<core::VendorScore>> means(vendors.size());
  util::ParallelFor(
      width, vendors.size(), [&](std::size_t begin, std::size_t end) {
        std::vector<core::SoftwareScore> scores;
        for (std::size_t i = begin; i < end; ++i) {
          scores.clear();
          registry_->ForEachSoftwareOfVendor(
              vendors[i], [&](const core::SoftwareId& software) {
                auto slot = target_slots.find(software);
                if (slot != target_slots.end()) {
                  scores.push_back(results[slot->second]);
                  return;
                }
                auto score = registry_->GetScore(software);
                if (score.ok()) scores.push_back(*score);
              });
          if (scores.empty()) continue;
          means[i] =
              core::RatingAggregator::AggregateVendor(vendors[i], scores, now);
        }
      });
  for (const std::optional<core::VendorScore>& mean : means) {
    if (!mean.has_value()) continue;
    util::Status put = registry_->PutVendorScore(*mean);
    if (!put.ok()) {
      PISREP_LOG(kWarning) << "aggregation: PutVendorScore(" << mean->vendor
                           << ") failed: " << put;
      continue;
    }
    ++stats_.vendors_recomputed;
  }

  const std::int64_t finished = util::MonotonicMicros();
  stats_.vendor_micros = finished - written;
  stats_.wall_micros = finished - started;
  EmitStats();
  PISREP_LOG(kInfo) << stats_.Summary();
  span.Finish();
  // Post-run hook (snapshot publication): runs on the calling thread, once
  // every write of this run is in the stores, for scheduled and manual
  // runs alike.
  if (post_run_) post_run_(stats_);
  return recomputed;
}

void AggregationJob::Schedule(net::EventLoop* loop, util::Duration period) {
  CancelSchedule();
  loop_ = loop;
  period_ = period;
  schedule_token_ = std::make_shared<int>(0);
  ScheduleNext();
}

void AggregationJob::ScheduleNext() {
  // A self-rescheduling chain (not SchedulePeriodic): each link checks the
  // token, so cancellation — including destruction of the job — turns any
  // still-queued event into a no-op instead of a dangling call.
  loop_->ScheduleAfter(
      period_, [this, token = std::weak_ptr<int>(schedule_token_)] {
        if (token.expired()) return;
        RunOnce(loop_->Now());
        ScheduleNext();
      });
}

}  // namespace pisrep::server
