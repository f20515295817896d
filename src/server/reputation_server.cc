#include "server/reputation_server.h"

#include <utility>

#include "util/clock.h"
#include "util/hmac.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "xml/xml_node.h"

namespace pisrep::server {

namespace {

using core::SoftwareId;
using core::SoftwareIdFromHex;
using util::Result;
using util::Status;
using xml::XmlNode;

/// How often the tiered storage engine's eviction schedule runs
/// (storage::Database::TierTick: fault promotion, age/LRU demotion,
/// cold-store GC) when the database is tiered and a loop is attached.
constexpr util::Duration kTierTickPeriod = util::kHour;
/// Upper bound on score rows pinned resident under the published snapshot;
/// recomputed ids beyond it stay demotable (they fault back in on demand).
constexpr std::size_t kMaxPinnedScores = 10000;

Result<core::SoftwareMeta> MetaFromXml(const XmlNode& node) {
  core::SoftwareMeta meta;
  PISREP_ASSIGN_OR_RETURN(std::string id_hex, node.Attribute("id"));
  PISREP_ASSIGN_OR_RETURN(meta.id, SoftwareIdFromHex(id_hex));
  meta.file_name = node.AttributeOr("file_name", "");
  auto size = util::ParseInt64(node.AttributeOr("file_size", "0"));
  meta.file_size = size.ok() ? *size : 0;
  meta.company = node.AttributeOr("company", "");
  meta.version = node.AttributeOr("version", "");
  return meta;
}

SnapshotBuildOptions SnapshotOptionsOf(const ReputationServer::Config& config) {
  SnapshotBuildOptions options;
  options.max_comments_per_query = config.max_comments_per_query;
  options.behavior_report_threshold = config.behavior_report_threshold;
  return options;
}

}  // namespace

ReputationServer::ReputationServer(storage::Database* db,
                                   net::EventLoop* loop, Config config)
    : config_(std::move(config)),
      db_(db),
      loop_(loop),
      accounts_(db, config_.accounts),
      registry_(db),
      votes_(db),
      flood_(config_.flood),
      moderation_(&votes_),
      feeds_(db),
      manifests_(db),
      aggregation_(&registry_, &votes_, &accounts_),
      bootstrap_(&registry_) {
  aggregation_.set_trust_weighting(config_.trust_weighting);
  if (config_.metrics != nullptr || config_.tracer != nullptr) {
    votes_.AttachMetrics(config_.metrics);
    flood_.AttachMetrics(config_.metrics);
    aggregation_.AttachObservability(config_.metrics, config_.tracer);
    if (loop_ != nullptr && config_.metrics != nullptr) {
      loop_->AttachMetrics(config_.metrics);
    }
  }
  if (loop_ != nullptr) {
    aggregation_.Schedule(loop_, config_.aggregation_period);
  }
  // Signed trust plane (PR 10). A server without explicit audit keys gets
  // a deterministic pair so checkpoints always verify in tests and
  // single-node setups; real deployments pin their own through Config.
  if (config_.trust.audit_keys.public_key.n == 0) {
    util::Rng audit_rng(0x5ec5e701d);
    config_.trust.audit_keys = crypto::GenerateKeyPair(audit_rng);
  }
  for (const crypto::Certificate& cert : config_.trust.pinned_certificates) {
    trust_keys_.AddCertificate(cert);
  }
  if (config_.trust.audit_log) {
    audit_ = std::make_unique<trust::AuditLog>(db_);
  }
  moderation_.SetObserver([this](const PendingComment& comment,
                                 bool approved) {
    AuditAppend("moderation",
                std::string(approved ? "approve" : "reject") +
                    " author=" + std::to_string(comment.author) +
                    " software=" + comment.software.ToHex());
  });
  if (config_.metrics != nullptr) {
    snapshot_age_gauge_ =
        config_.metrics->GetGauge("pisrep_server_query_snapshot_age");
    snapshot_epoch_gauge_ =
        config_.metrics->GetGauge("pisrep_server_snapshot_epoch");
    publish_micros_ = config_.metrics->GetHistogram(
        obs::WithLabel(kAggregationPhaseMicros, "phase", "publish"),
        AggregationMicrosBuckets());
    snapshot_hits_metric_ =
        config_.metrics->GetCounter("pisrep_server_snapshot_hits_total");
    snapshot_misses_metric_ =
        config_.metrics->GetCounter("pisrep_server_snapshot_misses_total");
    trust_sig_verified_metric_ = config_.metrics->GetCounter(
        "pisrep_trust_signatures_verified_total");
    trust_sig_rejected_metric_ = config_.metrics->GetCounter(
        "pisrep_trust_signatures_rejected_total");
    trust_audit_appends_metric_ =
        config_.metrics->GetCounter("pisrep_trust_audit_appends_total");
    trust_checkpoints_metric_ =
        config_.metrics->GetCounter("pisrep_trust_checkpoints_total");
    trust_chain_length_gauge_ =
        config_.metrics->GetGauge("pisrep_trust_audit_chain_length");
    trust_checkpoint_age_gauge_ =
        config_.metrics->GetGauge("pisrep_trust_checkpoint_age");
    if (audit_ != nullptr && trust_chain_length_gauge_ != nullptr) {
      trust_chain_length_gauge_->Set(
          static_cast<std::int64_t>(audit_->head_index()));
    }
  }
  // Epoch publication (DESIGN.md §14): one snapshot over the recovered
  // database now, then one after every aggregation run — the post-run hook
  // fires after all of the run's writes, for scheduled and manual runs.
  // On a tiered database the hook also swaps the snapshot pin set so the
  // rows the published snapshot references stay resident (§15).
  if (db_->tier_enabled()) aggregation_.set_collect_recomputed(true);
  aggregation_.set_post_run([this](const AggregationStats& stats) {
    PublishSnapshot();
    RepinScores(stats);
  });
  PublishSnapshot();
  UpdateStorageMetrics();
  if (loop_ != nullptr && db_->tier_enabled()) {
    tier_token_ = std::make_shared<int>(0);
    loop_->SchedulePeriodic(
        loop_->Now() + kTierTickPeriod, kTierTickPeriod,
        [this, token = std::weak_ptr<int>(tier_token_)] {
          if (token.expired()) return;
          TierTickNow();
        });
  }
  if (loop_ != nullptr && config_.metrics != nullptr &&
      config_.metrics_snapshot_period > 0) {
    snapshot_logger_ = std::make_unique<obs::SnapshotLogger>(
        config_.metrics, config_.metrics_snapshot_period);
    snapshot_token_ = std::make_shared<int>(0);
    // Tick at the snapshot period; the logger itself also rate-limits, so
    // a duplicate schedule could never double-log.
    loop_->SchedulePeriodic(
        loop_->Now() + config_.metrics_snapshot_period,
        config_.metrics_snapshot_period,
        [this, token = std::weak_ptr<int>(snapshot_token_)] {
          if (token.expired()) return;
          snapshot_logger_->Tick(loop_->Now());
        });
  }
}

util::TimePoint ReputationServer::Now() const {
  return loop_ != nullptr ? loop_->Now() : 0;
}

Puzzle ReputationServer::RequestPuzzle(std::string_view forced_nonce) {
  return flood_.IssuePuzzle(forced_nonce);
}

Status ReputationServer::Register(std::string_view source,
                                  std::string_view username,
                                  std::string_view password,
                                  std::string_view email,
                                  std::string_view puzzle_nonce,
                                  std::string_view puzzle_solution,
                                  util::TimePoint now) {
  Status allowed = flood_.CheckRegistrationAllowed(source, now);
  if (!allowed.ok()) {
    ++stats_.registrations_rejected;
    return allowed;
  }
  Status puzzle_ok = flood_.CheckPuzzle(puzzle_nonce, puzzle_solution);
  if (!puzzle_ok.ok()) {
    ++stats_.registrations_rejected;
    return puzzle_ok;
  }
  auto token = accounts_.Register(username, password, email, now);
  if (!token.ok()) {
    ++stats_.registrations_rejected;
    return token.status();
  }
  flood_.RecordRegistration(source, now);
  ++stats_.registrations;
  if (config_.accounts.require_activation) {
    // Deliver the activation token via the simulated e-mail system; it must
    // never travel back over the registration channel (that would let bots
    // skip the valid-mailbox requirement, §2.1).
    mailbox_[util::ToLower(util::Trim(email))] =
        ActivationMail{std::string(util::Trim(username)), *token};
  }
  return Status::Ok();
}

Result<ActivationMail> ReputationServer::FetchMail(std::string_view email) {
  auto it = mailbox_.find(util::ToLower(util::Trim(email)));
  if (it == mailbox_.end()) {
    return Status::NotFound("no mail for this address");
  }
  ActivationMail mail = it->second;
  mailbox_.erase(it);
  return mail;
}

Status ReputationServer::Activate(std::string_view username,
                                  std::string_view token) {
  return accounts_.Activate(username, token);
}

Result<std::string> ReputationServer::Login(std::string_view username,
                                            std::string_view password,
                                            util::TimePoint now) {
  auto session = accounts_.Login(username, password, now);
  if (session.ok()) ++stats_.logins;
  return session;
}

Result<SoftwareInfo> ReputationServer::QuerySoftware(
    std::string_view session, const SoftwareId& id) {
  PISREP_RETURN_IF_ERROR(accounts_.Authenticate(session).status());
  ++stats_.queries;

  SoftwareInfo info;
  std::shared_ptr<const ScoreSnapshot> snapshot = snapshot_.Current();
  if (snapshot->registry_generation == registry_.content_generation() &&
      snapshot->votes_generation == votes_.content_generation()) {
    // Nothing but run counters changed since publication: the snapshot
    // answer, with the run count read live, is bit-identical to what
    // MaterializeTitle would render, minus the store walk. Any other
    // mutation bumps a generation and forces the walk until the next
    // publication re-arms the gate.
    ++stats_.snapshot_hits;
    if (snapshot_hits_metric_) snapshot_hits_metric_->Increment();
    if (snapshot_age_gauge_) {
      snapshot_age_gauge_->Set(Now() - snapshot->published_at);
    }
    info = LookupSnapshotInfo(*snapshot, id);
    info.run_count = registry_.RunCount(id);
  } else {
    ++stats_.snapshot_misses;
    if (snapshot_misses_metric_) snapshot_misses_metric_->Increment();
    info = MaterializeTitle(registry_, votes_, SnapshotOptionsOf(config_), id);
  }
  AnnotateManifest(&info);
  return info;
}

void ReputationServer::PublishSnapshot() {
  const std::int64_t started = util::MonotonicMicros();
  std::shared_ptr<const ScoreSnapshot> snapshot =
      BuildScoreSnapshot(registry_, votes_, SnapshotOptionsOf(config_),
                         ++snapshot_epoch_, Now(), aggregation_.TickWidth());
  snapshot_.Publish(snapshot);
  if (publish_micros_) {
    publish_micros_->Observe(
        static_cast<double>(util::MonotonicMicros() - started));
  }
  if (snapshot_epoch_gauge_) {
    snapshot_epoch_gauge_->Set(static_cast<std::int64_t>(snapshot->epoch));
  }
  if (snapshot_age_gauge_) snapshot_age_gauge_->Set(0);
}

void ReputationServer::TierTickNow() {
  if (!db_->tier_enabled()) return;
  Status ticked = db_->TierTick(Now());
  if (!ticked.ok()) {
    PISREP_LOG(kWarning) << "tier tick failed: " << ticked;
  }
  UpdateStorageMetrics();
}

void ReputationServer::RepinScores(const AggregationStats& stats) {
  if (!db_->tier_enabled()) return;
  registry_.UnpinScores(pinned_scores_);
  pinned_scores_ = stats.recomputed_ids;
  if (pinned_scores_.size() > kMaxPinnedScores) {
    pinned_scores_.resize(kMaxPinnedScores);
  }
  registry_.PinScores(pinned_scores_);
}

void ReputationServer::UpdateStorageMetrics() {
  if (config_.metrics == nullptr) return;
  obs::MetricsRegistry* metrics = config_.metrics;
  // WAL compaction counters exist for every durable database, tiered or
  // not (the seed of the pisrep_storage_* family).
  metrics->GetGauge("pisrep_storage_wal_frames_since_compaction")
      ->Set(static_cast<std::int64_t>(db_->FramesSinceCompaction()));
  std::size_t compactions = db_->compactions();
  metrics->GetCounter("pisrep_storage_compactions_total")
      ->Increment(compactions - compactions_seen_);
  compactions_seen_ = compactions;
  if (!db_->tier_enabled()) return;
  storage::DatabaseTierStats now = db_->TierStats();
  metrics->GetGauge("pisrep_storage_hot_rows")
      ->Set(static_cast<std::int64_t>(now.hot_rows));
  metrics->GetGauge("pisrep_storage_cold_rows")
      ->Set(static_cast<std::int64_t>(now.cold_rows));
  metrics->GetGauge("pisrep_storage_pinned_rows")
      ->Set(static_cast<std::int64_t>(now.pinned_rows));
  metrics->GetGauge("pisrep_storage_resident_bytes")
      ->Set(static_cast<std::int64_t>(now.resident_bytes));
  metrics->GetGauge("pisrep_storage_cold_file_bytes")
      ->Set(static_cast<std::int64_t>(now.cold_file_bytes));
  metrics->GetGauge("pisrep_storage_cold_dead_bytes")
      ->Set(static_cast<std::int64_t>(now.cold_dead_bytes));
  metrics->GetCounter("pisrep_storage_hits_total")
      ->Increment(now.hits - storage_seen_.hits);
  metrics->GetCounter("pisrep_storage_faults_total")
      ->Increment(now.faults - storage_seen_.faults);
  metrics->GetCounter("pisrep_storage_promotions_total")
      ->Increment(now.promotions - storage_seen_.promotions);
  metrics->GetCounter("pisrep_storage_demotions_total")
      ->Increment(now.demotions - storage_seen_.demotions);
  metrics->GetCounter("pisrep_storage_cold_reads_total")
      ->Increment(now.cold_reads - storage_seen_.cold_reads);
  metrics->GetCounter("pisrep_storage_cold_appends_total")
      ->Increment(now.cold_appends - storage_seen_.cold_appends);
  metrics->GetCounter("pisrep_storage_gc_runs_total")
      ->Increment(now.gc_runs - storage_seen_.gc_runs);
  metrics->GetCounter("pisrep_storage_gc_reclaimed_bytes_total")
      ->Increment(now.gc_reclaimed_bytes - storage_seen_.gc_reclaimed_bytes);
  storage_seen_ = now;
}

void ReputationServer::AuditAppend(std::string_view kind,
                                   std::string_view payload) {
  if (audit_ == nullptr) return;
  auto entry = audit_->Append(kind, payload, Now());
  if (!entry.ok()) {
    PISREP_LOG(kWarning) << "audit append failed: " << entry.status();
    return;
  }
  if (trust_audit_appends_metric_) trust_audit_appends_metric_->Increment();
  if (config_.trust.checkpoint_every > 0 &&
      entry->index % config_.trust.checkpoint_every == 0) {
    Status checkpointed = audit_->WriteCheckpoint(
        config_.trust.audit_keys.private_key, Now());
    if (!checkpointed.ok()) {
      PISREP_LOG(kWarning) << "audit checkpoint failed: " << checkpointed;
    } else if (trust_checkpoints_metric_) {
      trust_checkpoints_metric_->Increment();
    }
  }
  if (trust_chain_length_gauge_) {
    trust_chain_length_gauge_->Set(
        static_cast<std::int64_t>(audit_->head_index()));
  }
  if (trust_checkpoint_age_gauge_) {
    // Age in entries, not wall time: how much history the next checkpoint
    // has yet to pin (deterministic under simulated clocks).
    trust_checkpoint_age_gauge_->Set(static_cast<std::int64_t>(
        audit_->head_index() - audit_->last_checkpoint_index()));
  }
}

void ReputationServer::AnnotateManifest(SoftwareInfo* info) const {
  auto index = manifests_.Snapshot();
  if (index == nullptr) return;
  auto it = index->find(info->meta.id);
  if (it == index->end()) return;
  info->vendor_signed = true;
  info->signed_vendor = it->second.vendor;
}

Status ReputationServer::SubmitManifest(
    const trust::SoftwareManifest& manifest) {
  if (!trust::VerifyManifest(trust_keys_, manifest)) {
    ++stats_.signatures_rejected;
    if (trust_sig_rejected_metric_) trust_sig_rejected_metric_->Increment();
    return Status::PermissionDenied(
        "manifest signature does not verify against a pinned vendor key");
  }
  if (trust_sig_verified_metric_) trust_sig_verified_metric_->Increment();
  PISREP_RETURN_IF_ERROR(manifests_.Put(manifest, Now()));
  ++stats_.manifests_accepted;
  AuditAppend("manifest", "vendor=" + manifest.vendor +
                              " software=" + manifest.software.ToHex() +
                              " version=" + manifest.version);
  return Status::Ok();
}

Status ReputationServer::PublishAdvisory(
    const trust::ExpertAdvisory& advisory) {
  if (!trust::VerifyAdvisory(trust_keys_, advisory)) {
    ++stats_.signatures_rejected;
    if (trust_sig_rejected_metric_) trust_sig_rejected_metric_->Increment();
    return Status::PermissionDenied(
        "advisory signature does not verify against a pinned expert key");
  }
  if (trust_sig_verified_metric_) trust_sig_verified_metric_->Increment();
  // Republishing through the ordinary feed plumbing: the expert's feed is
  // created on first advisory, owned by the reserved system publisher.
  if (!feeds_.HasFeed(advisory.expert)) {
    PISREP_RETURN_IF_ERROR(feeds_.CreateFeed(
        advisory.expert, kExpertPublisher, "signed expert advisories"));
  }
  FeedEntry entry;
  entry.feed = advisory.expert;
  entry.software = advisory.software;
  entry.score = advisory.score;
  entry.behaviors = advisory.behaviors;
  entry.note = advisory.note;
  entry.published_at = advisory.issued_at;
  entry.expert_flagged = advisory.flagged;
  PISREP_RETURN_IF_ERROR(feeds_.Publish(entry, kExpertPublisher));
  ++stats_.advisories_accepted;
  AuditAppend("advisory",
              "expert=" + advisory.expert +
                  " software=" + advisory.software.ToHex() +
                  " flagged=" + (advisory.flagged ? "1" : "0"));
  return Status::Ok();
}

Status ReputationServer::ReportExecutions(std::string_view session,
                                          const SoftwareId& software,
                                          std::int64_t count) {
  PISREP_RETURN_IF_ERROR(accounts_.Authenticate(session).status());
  return registry_.AddRuns(software, count);
}

Status ReputationServer::SubmitRating(std::string_view session,
                                      const core::SoftwareMeta& meta,
                                      int score, std::string_view comment,
                                      core::BehaviorSet behaviors,
                                      util::TimePoint now) {
  PISREP_ASSIGN_OR_RETURN(core::UserId user, accounts_.Authenticate(session));
  Status flood_ok = flood_.CheckVoteAllowed(user, now);
  if (!flood_ok.ok()) {
    ++stats_.votes_rejected_flood;
    return flood_ok;
  }
  PISREP_RETURN_IF_ERROR(registry_.RegisterSoftware(meta));

  core::RatingRecord record;
  record.user = user;
  record.software = meta.id;
  record.score = score;
  record.comment = std::string(comment);
  record.submitted_at = now;

  double trust_snapshot = 0.0;
  if (config_.pseudonymous_votes) {
    // §5 (idemix suggestion): store the vote under a pseudonym derived from
    // (user, software). The same user always maps to the same pseudonym for
    // one software — preserving the one-vote rule — but pseudonyms for
    // different software are unlinkable without the server secret, and the
    // ratings table never holds the account id. The trust factor is frozen
    // now, since it cannot be looked up later.
    record.user = PseudonymFor(user, meta.id);
    trust_snapshot = accounts_.TrustFactor(user);
  }

  bool approved = !config_.moderation_enabled || comment.empty();
  Status submitted = votes_.SubmitRating(record, approved, trust_snapshot);
  if (!submitted.ok()) {
    if (submitted.code() == util::StatusCode::kAlreadyExists) {
      ++stats_.votes_rejected_duplicate;
    }
    return submitted;
  }
  flood_.RecordVote(user, now);
  ++stats_.votes_accepted;
  // The audit payload names the stored author — the pseudonym under
  // pseudonymous voting, so the tamper-evident log never de-anonymizes.
  AuditAppend("vote", "user=" + std::to_string(record.user) +
                          " software=" + meta.id.ToHex() +
                          " score=" + std::to_string(score));

  if (!approved) {
    moderation_.Enqueue(PendingComment{user, meta.id, record.comment, now});
  }
  if (behaviors != core::kNoBehaviors) {
    PISREP_RETURN_IF_ERROR(registry_.ReportBehaviors(meta.id, behaviors));
  }
  return Status::Ok();
}

core::UserId ReputationServer::PseudonymFor(core::UserId user,
                                            const SoftwareId& software) const {
  util::Sha256Digest mac = util::HmacSha256(
      config_.pseudonym_secret,
      std::to_string(user) + ":" + software.ToHex());
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits = (bits << 8) | mac.bytes[i];
  // Negative ids mark pseudonyms; they can never collide with account ids.
  return -static_cast<core::UserId>(bits >> 1) - 1;
}

Status ReputationServer::SubmitRemark(std::string_view session,
                                      core::UserId author,
                                      const SoftwareId& software,
                                      bool positive, util::TimePoint now) {
  PISREP_ASSIGN_OR_RETURN(core::UserId rater, accounts_.Authenticate(session));
  if (author < 0) {
    // Pseudonymous comment: there is no account to credit or debit — the
    // unlinkability/meta-moderation trade-off of pseudonymous voting.
    return Status::FailedPrecondition(
        "cannot remark on a pseudonymous comment");
  }
  // Regression fix (PR 10): a rater created inside the current aggregation
  // window has never been through a trust recomputation — its §3.2 weight
  // is unearned, and a burst of day-zero sock-puppet accounts could swing
  // another user's trust factor before the first aggregation saw them.
  // The rejection is itself an audited trust decision.
  PISREP_ASSIGN_OR_RETURN(Account rater_account, accounts_.GetAccount(rater));
  if (now - rater_account.joined_at < config_.aggregation_period) {
    ++stats_.remarks_rejected_young;
    AuditAppend("remark-rejected",
                "rater=" + std::to_string(rater) +
                    " author=" + std::to_string(author) +
                    " reason=rater-younger-than-aggregation-window");
    return Status::FailedPrecondition(
        "rater account too new: trust factor not yet aggregated");
  }
  Remark remark;
  remark.rater = rater;
  remark.author = author;
  remark.software = software;
  remark.positive = positive;
  remark.submitted_at = now;
  PISREP_RETURN_IF_ERROR(votes_.SubmitRemark(remark));
  ++stats_.remarks_accepted;
  AuditAppend("remark", "rater=" + std::to_string(rater) +
                            " author=" + std::to_string(author) +
                            " software=" + software.ToHex() +
                            " positive=" + (positive ? "1" : "0"));
  // §3.2: remarks feed the comment author's trust factor.
  return accounts_.ApplyRemark(author, positive, now).status();
}

Result<core::VendorScore> ReputationServer::QueryVendor(
    std::string_view session, const core::VendorId& vendor) {
  PISREP_RETURN_IF_ERROR(accounts_.Authenticate(session).status());
  return registry_.GetVendorScore(vendor);
}

Status ReputationServer::CreateFeed(std::string_view session,
                                    std::string_view name,
                                    std::string_view description) {
  PISREP_ASSIGN_OR_RETURN(core::UserId user, accounts_.Authenticate(session));
  return feeds_.CreateFeed(name, user, description);
}

Status ReputationServer::PublishFeedEntry(std::string_view session,
                                          const FeedEntry& entry) {
  PISREP_ASSIGN_OR_RETURN(core::UserId user, accounts_.Authenticate(session));
  return feeds_.Publish(entry, user);
}

Result<FeedEntry> ReputationServer::QueryFeed(std::string_view session,
                                              std::string_view feed,
                                              const SoftwareId& software) {
  PISREP_RETURN_IF_ERROR(accounts_.Authenticate(session).status());
  return feeds_.Lookup(feed, software);
}

// ---------------------------------------------------------------------
// RPC adapter
// ---------------------------------------------------------------------

Status ReputationServer::AttachRpc(net::SimNetwork* network,
                                   std::string address) {
  rpc_ = std::make_unique<net::RpcServer>(network, std::move(address));
  rpc_->AttachObservability(config_.metrics, config_.tracer);
  PISREP_RETURN_IF_ERROR(rpc_->Start());
  RegisterRpcMethods();
  return Status::Ok();
}

void ReputationServer::Stop() {
  rpc_.reset();  // unbinds the address; in-flight requests go unanswered
  aggregation_.CancelSchedule();
  snapshot_token_.reset();  // queued snapshot ticks become no-ops
  tier_token_.reset();      // queued tier ticks become no-ops
  accounts_.DropSessions();
}

void ReputationServer::RegisterRpcMethods() {
  rpc_->RegisterMethod("RequestPuzzle", [this](const XmlNode& request)
                           -> Result<XmlNode> {
    Puzzle puzzle = RequestPuzzle(request.ChildText("nonce").value_or(""));
    XmlNode result("result");
    XmlNode& node = result.AddChild("puzzle");
    node.SetAttribute("nonce", puzzle.nonce);
    node.SetAttribute("bits", std::to_string(puzzle.difficulty_bits));
    return result;
  });

  rpc_->RegisterMethod(
      "Register", [this](const XmlNode& request) -> Result<XmlNode> {
        PISREP_ASSIGN_OR_RETURN(std::string source,
                                request.ChildText("source"));
        PISREP_ASSIGN_OR_RETURN(std::string username,
                                request.ChildText("username"));
        PISREP_ASSIGN_OR_RETURN(std::string password,
                                request.ChildText("password"));
        PISREP_ASSIGN_OR_RETURN(std::string email,
                                request.ChildText("email"));
        std::string nonce = request.ChildText("nonce").value_or("");
        std::string solution = request.ChildText("solution").value_or("");
        PISREP_RETURN_IF_ERROR(Register(source, username, password, email,
                                        nonce, solution, Now()));
        return XmlNode("result");
      });

  rpc_->RegisterMethod(
      "Activate", [this](const XmlNode& request) -> Result<XmlNode> {
        PISREP_ASSIGN_OR_RETURN(std::string username,
                                request.ChildText("username"));
        PISREP_ASSIGN_OR_RETURN(std::string token,
                                request.ChildText("token"));
        PISREP_RETURN_IF_ERROR(Activate(username, token));
        return XmlNode("result");
      });

  rpc_->RegisterMethod(
      "Login", [this](const XmlNode& request) -> Result<XmlNode> {
        PISREP_ASSIGN_OR_RETURN(std::string username,
                                request.ChildText("username"));
        PISREP_ASSIGN_OR_RETURN(std::string password,
                                request.ChildText("password"));
        PISREP_ASSIGN_OR_RETURN(std::string session,
                                Login(username, password, Now()));
        XmlNode result("result");
        result.AddTextChild("session", session);
        return result;
      });

  rpc_->RegisterMethod(
      "QuerySoftware", [this](const XmlNode& request) -> Result<XmlNode> {
        PISREP_ASSIGN_OR_RETURN(std::string session,
                                request.ChildText("session"));
        PISREP_ASSIGN_OR_RETURN(std::string id_hex, request.ChildText("id"));
        PISREP_ASSIGN_OR_RETURN(SoftwareId id, SoftwareIdFromHex(id_hex));
        PISREP_ASSIGN_OR_RETURN(SoftwareInfo info,
                                QuerySoftware(session, id));
        return proto::SoftwareInfoToXml(info);
      });

  rpc_->RegisterMethod(
      "SubmitRating", [this](const XmlNode& request) -> Result<XmlNode> {
        PISREP_ASSIGN_OR_RETURN(std::string session,
                                request.ChildText("session"));
        const XmlNode* software = request.FindChild("software");
        if (software == nullptr) {
          return Status::InvalidArgument("missing <software> element");
        }
        PISREP_ASSIGN_OR_RETURN(core::SoftwareMeta meta,
                                MetaFromXml(*software));
        PISREP_ASSIGN_OR_RETURN(std::int64_t score,
                                request.ChildInt("score"));
        std::string comment = request.ChildText("comment").value_or("");
        PISREP_ASSIGN_OR_RETURN(
            core::BehaviorSet behaviors,
            core::BehaviorSetFromString(
                request.ChildText("behaviors").value_or("")));
        PISREP_RETURN_IF_ERROR(SubmitRating(session, meta,
                                            static_cast<int>(score), comment,
                                            behaviors, Now()));
        return XmlNode("result");
      });

  rpc_->RegisterMethod(
      "ReportExecutions", [this](const XmlNode& request) -> Result<XmlNode> {
        PISREP_ASSIGN_OR_RETURN(std::string session,
                                request.ChildText("session"));
        PISREP_ASSIGN_OR_RETURN(std::string id_hex, request.ChildText("id"));
        PISREP_ASSIGN_OR_RETURN(SoftwareId id, SoftwareIdFromHex(id_hex));
        PISREP_ASSIGN_OR_RETURN(std::int64_t count,
                                request.ChildInt("count"));
        PISREP_RETURN_IF_ERROR(ReportExecutions(session, id, count));
        return XmlNode("result");
      });

  rpc_->RegisterMethod(
      "SubmitRemark", [this](const XmlNode& request) -> Result<XmlNode> {
        PISREP_ASSIGN_OR_RETURN(std::string session,
                                request.ChildText("session"));
        PISREP_ASSIGN_OR_RETURN(std::int64_t author,
                                request.ChildInt("author"));
        PISREP_ASSIGN_OR_RETURN(std::string id_hex, request.ChildText("id"));
        PISREP_ASSIGN_OR_RETURN(SoftwareId id, SoftwareIdFromHex(id_hex));
        PISREP_ASSIGN_OR_RETURN(std::int64_t positive,
                                request.ChildInt("positive"));
        PISREP_RETURN_IF_ERROR(
            SubmitRemark(session, author, id, positive != 0, Now()));
        return XmlNode("result");
      });

  rpc_->RegisterMethod(
      "QueryVendor", [this](const XmlNode& request) -> Result<XmlNode> {
        PISREP_ASSIGN_OR_RETURN(std::string session,
                                request.ChildText("session"));
        PISREP_ASSIGN_OR_RETURN(std::string vendor,
                                request.ChildText("vendor"));
        PISREP_ASSIGN_OR_RETURN(core::VendorScore score,
                                QueryVendor(session, vendor));
        XmlNode result("result");
        XmlNode& node = result.AddChild("vendor");
        node.SetAttribute("name", score.vendor);
        node.SetAttribute("score", util::StrFormat("%.6f", score.score));
        node.SetAttribute("count", std::to_string(score.software_count));
        return result;
      });

  rpc_->RegisterMethod(
      "QueryFeed", [this](const XmlNode& request) -> Result<XmlNode> {
        PISREP_ASSIGN_OR_RETURN(std::string session,
                                request.ChildText("session"));
        PISREP_ASSIGN_OR_RETURN(std::string feed, request.ChildText("feed"));
        PISREP_ASSIGN_OR_RETURN(std::string id_hex, request.ChildText("id"));
        PISREP_ASSIGN_OR_RETURN(SoftwareId id, SoftwareIdFromHex(id_hex));
        PISREP_ASSIGN_OR_RETURN(FeedEntry entry,
                                QueryFeed(session, feed, id));
        XmlNode result("result");
        result.AddChild(proto::FeedEntryToXml(entry));
        return result;
      });

  // Signed trust plane (PR 10). Like the replication-plane methods these
  // take no session: the pinned-key signature inside the payload IS the
  // authentication, and a forged one is rejected before any state changes.
  rpc_->RegisterMethod(
      "SubmitManifest", [this](const XmlNode& request) -> Result<XmlNode> {
        const XmlNode* node = request.FindChild("manifest");
        if (node == nullptr) {
          return Status::InvalidArgument("missing <manifest> element");
        }
        PISREP_ASSIGN_OR_RETURN(trust::SoftwareManifest manifest,
                                trust::ManifestFromXml(*node));
        PISREP_RETURN_IF_ERROR(SubmitManifest(manifest));
        return XmlNode("result");
      });

  rpc_->RegisterMethod(
      "PublishAdvisory", [this](const XmlNode& request) -> Result<XmlNode> {
        const XmlNode* node = request.FindChild("advisory");
        if (node == nullptr) {
          return Status::InvalidArgument("missing <advisory> element");
        }
        PISREP_ASSIGN_OR_RETURN(trust::ExpertAdvisory advisory,
                                trust::AdvisoryFromXml(*node));
        PISREP_RETURN_IF_ERROR(PublishAdvisory(advisory));
        return XmlNode("result");
      });

  // Audit-chain head for external monitors and the offline verifier's
  // remote mode. Public data: the head commits the history, it reveals
  // nothing about entry contents.
  rpc_->RegisterMethod(
      "QueryAuditHead", [this](const XmlNode&) -> Result<XmlNode> {
        if (audit_ == nullptr) {
          return Status::Unavailable("audit log disabled");
        }
        XmlNode result("result");
        result.SetAttribute("index", std::to_string(audit_->head_index()));
        result.SetAttribute("hash", audit_->head_hash());
        result.SetAttribute("checkpoints",
                            std::to_string(audit_->checkpoint_count()));
        result.SetAttribute(
            "checkpoint_index",
            std::to_string(audit_->last_checkpoint_index()));
        return result;
      });

  // Cluster-internal: the router pulls every vendor aggregate this shard
  // has published, with the table's version, and merges them into its
  // vendor index. Unauthenticated like the replication-plane methods —
  // the payload is exactly the aggregates QueryVendor already serves,
  // with no per-user data. The snapshot keeps the rows sorted by name, so
  // the response bytes are deterministic.
  rpc_->RegisterMethod(
      "QueryVendorIndex", [this](const XmlNode&) -> Result<XmlNode> {
        std::shared_ptr<const ScoreSnapshot> snapshot = snapshot_.Current();
        PISREP_CHECK(snapshot != nullptr)
            << "the constructor publishes the first snapshot";
        XmlNode result("result");
        result.SetAttribute(kVendorVersionAttribute,
                            std::to_string(snapshot->vendor_version));
        for (const core::VendorScore& vendor : snapshot->vendors) {
          result.AddChild(VendorIndexRow(vendor));
        }
        return result;
      });
}

}  // namespace pisrep::server
