#ifndef PISREP_SERVER_REPUTATION_SERVER_H_
#define PISREP_SERVER_REPUTATION_SERVER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/behavior.h"
#include "core/types.h"
#include "crypto/signing.h"
#include "crypto/trust_store.h"
#include "net/event_loop.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "obs/snapshot_logger.h"
#include "obs/trace.h"
#include "proto/wire.h"
#include "server/account_manager.h"
#include "server/aggregation_job.h"
#include "server/bootstrap.h"
#include "server/feeds.h"
#include "server/flood_guard.h"
#include "server/moderation.h"
#include "server/score_snapshot.h"
#include "server/software_registry.h"
#include "server/vote_store.h"
#include "storage/database.h"
#include "trust/audit_log.h"
#include "trust/manifest_store.h"
#include "trust/signed_statement.h"

namespace pisrep::server {

/// An activation e-mail in the simulated mailbox.
struct ActivationMail {
  std::string username;
  std::string token;
};

/// Everything the client displays about a pending software travels over the
/// wire, so the struct lives in proto/; the alias keeps the historical
/// server-side spelling.
using SoftwareInfo = proto::SoftwareInfo;

/// Operation counters for reports and benches.
struct ServerStats {
  std::uint64_t registrations = 0;
  std::uint64_t registrations_rejected = 0;
  std::uint64_t logins = 0;
  std::uint64_t queries = 0;
  /// Queries answered straight from the published snapshot / rendered from
  /// the live stores after a post-publication mutation (subset of
  /// `queries`).
  std::uint64_t snapshot_hits = 0;
  std::uint64_t snapshot_misses = 0;
  std::uint64_t votes_accepted = 0;
  std::uint64_t votes_rejected_duplicate = 0;
  std::uint64_t votes_rejected_flood = 0;
  std::uint64_t remarks_accepted = 0;
  /// Remarks rejected because the rater's account is younger than one
  /// aggregation window — its trust factor has never been recomputed, so
  /// its meta-moderation weight is unearned (PR 10 regression fix).
  std::uint64_t remarks_rejected_young = 0;
  std::uint64_t manifests_accepted = 0;
  std::uint64_t advisories_accepted = 0;
  /// Signed statements whose signature failed verification.
  std::uint64_t signatures_rejected = 0;
};

/// Reserved publisher id for expert advisory feeds: advisories arrive
/// signed rather than through a logged-in session, so their feeds are
/// owned by this system account (negative, hence never a real account id;
/// no session can authenticate as it, so only the signed-advisory path
/// publishes into these feeds).
inline constexpr core::UserId kExpertPublisher = -424242;

/// The reputation-system server (§3.2): accounts, votes, comment remarks,
/// software/vendor registry, daily aggregation, flood protection,
/// moderation, bootstrap import and expert feeds — exposed both as a native
/// in-process API (used by fast simulations and tests) and as XML RPC over
/// the simulated network (used by the client library, §3.2's protocol).
class ReputationServer {
 public:
  struct Config {
    AccountManager::Config accounts;
    FloodGuard::Config flood;
    /// When true, comments require administrator approval before other
    /// users see them (§2.1, third mitigation).
    bool moderation_enabled = false;
    /// Max comments returned per software query.
    std::size_t max_comments_per_query = 10;
    /// Behaviours are surfaced once this many raters reported them.
    int behavior_report_threshold = 2;
    /// How often the aggregation job runs (§3.2: 24 h). Exposed for the
    /// staleness-vs-cost ablation.
    util::Duration aggregation_period = core::kAggregationPeriod;
    /// Ablation switch: weigh votes by trust factor (§3.2) or not.
    bool trust_weighting = true;
    /// §5 future work: pseudonymous voting. When true, ratings are stored
    /// under a per-(user, software) pseudonym derived with `pseudonym_secret`
    /// instead of the account id — votes on different programs cannot be
    /// linked to each other or to an account (cf. the paper's idemix
    /// suggestion), while the one-vote-per-software property is preserved.
    /// The voter's trust factor is snapshotted into the vote, and comments
    /// lose meta-moderation (remarks need linkable authorship).
    bool pseudonymous_votes = false;
    std::string pseudonym_secret = "pisrep-pseudonym-secret";
    /// Observability (optional, both null by default — instrumented paths
    /// then cost one branch each). Neither is owned; both must outlive the
    /// server. The registry feeds the `/metrics` portal endpoint, the
    /// tracer records RPC and aggregation spans.
    obs::MetricsRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
    /// When > 0 (and a loop and registry are present), a metrics digest is
    /// logged at kInfo every period of *sim* time.
    util::Duration metrics_snapshot_period = 0;
    /// Signed trust plane (PR 10, DESIGN.md §16).
    struct TrustOptions {
      /// Append every accepted vote / remark / moderation decision /
      /// signed statement to the hash-chained audit log.
      bool audit_log = true;
      /// Sign a head checkpoint every N audit appends (0 disables).
      std::size_t checkpoint_every = 256;
      /// The server's audit-checkpoint signing keys. When left unset a
      /// deterministic pair is generated so single-server setups work out
      /// of the box; deployments pin their own.
      crypto::KeyPair audit_keys;
      /// Vendor and expert public keys pinned at startup; signed
      /// manifests and advisories verify against these (and only these).
      std::vector<crypto::Certificate> pinned_certificates;
    } trust;
  };

  /// The database must outlive the server. The loop is used for the daily
  /// aggregation schedule and may be null for purely manual operation.
  ReputationServer(storage::Database* db, net::EventLoop* loop,
                   Config config);

  // ------------------------------------------------------------------
  // Native API
  // ------------------------------------------------------------------

  /// Issues a registration puzzle (client must solve it before Register).
  /// A non-empty `forced_nonce` (cluster router broadcast) is used as the
  /// puzzle nonce instead of a random one — see FloodGuard::IssuePuzzle.
  Puzzle RequestPuzzle(std::string_view forced_nonce = {});

  /// Registers an account. On success the activation token travels via the
  /// simulated e-mail system (FetchMail), never via the RPC response.
  util::Status Register(std::string_view source, std::string_view username,
                        std::string_view password, std::string_view email,
                        std::string_view puzzle_nonce,
                        std::string_view puzzle_solution,
                        util::TimePoint now);

  /// Pops the pending activation mail for `email`, if any.
  util::Result<ActivationMail> FetchMail(std::string_view email);

  util::Status Activate(std::string_view username, std::string_view token);

  util::Result<std::string> Login(std::string_view username,
                                  std::string_view password,
                                  util::TimePoint now);

  /// Looks up everything known about a software id (DESIGN.md §14.1): from
  /// the published snapshot while no content mutation happened since its
  /// publication, otherwise rendered from the live stores by
  /// MaterializeTitle. Either way the answer is the same.
  util::Result<SoftwareInfo> QuerySoftware(std::string_view session,
                                           const core::SoftwareId& id);

  /// The published snapshot (one is published at construction). Readers
  /// hold the shared_ptr while reading and thereby pin their epoch; any
  /// thread may read it concurrently with the loop thread's publications.
  std::shared_ptr<const ScoreSnapshot> CurrentSnapshot() const {
    return snapshot_.Current();
  }

  /// Rebuilds and publishes the snapshot from current store contents.
  /// Called automatically at construction and after every aggregation
  /// run; exposed for benches that mutate stores directly. The render
  /// fans out aggregation().TickWidth() wide, like the run: from
  /// AggregationJob::kTickSplitTitles titles up, on one thread per
  /// hardware thread, started for the call and joined before it returns.
  void PublishSnapshot();

  /// Runs one tiered-storage eviction pass now (the scheduled tick calls
  /// this; exposed for tests and manual operation). No-op when the
  /// database is untiered.
  void TierTickNow();

  /// Re-exports the pisrep_storage_* metrics (tier gauges, cold-store and
  /// compaction counters) from the database's current counters. Called
  /// automatically after every tier tick; no-op without a metrics
  /// registry.
  void UpdateStorageMetrics();

  /// Score rows currently pinned resident for the published snapshot.
  std::size_t pinned_score_count() const { return pinned_scores_.size(); }

  /// Submits a rating (registering the software from `meta` if new).
  util::Status SubmitRating(std::string_view session,
                            const core::SoftwareMeta& meta, int score,
                            std::string_view comment,
                            core::BehaviorSet behaviors, util::TimePoint now);

  /// §3.1 run statistics: records `count` anonymous executions of
  /// `software`. The digest need not be registered yet; counters attach to
  /// the id and surface once the software is known.
  util::Status ReportExecutions(std::string_view session,
                                const core::SoftwareId& software,
                                std::int64_t count);

  /// Submits a remark on the comment `author` left on `software`; adjusts
  /// the author's trust factor per §3.2.
  util::Status SubmitRemark(std::string_view session, core::UserId author,
                            const core::SoftwareId& software, bool positive,
                            util::TimePoint now);

  util::Result<core::VendorScore> QueryVendor(std::string_view session,
                                              const core::VendorId& vendor);

  /// Accepts a vendor-signed software manifest (PR 10). The signature IS
  /// the authentication: it must verify against a pinned vendor-role key,
  /// no session required. Verified manifests annotate QuerySoftware
  /// answers with the (vendor_signed, signed_vendor) facts.
  util::Status SubmitManifest(const trust::SoftwareManifest& manifest);

  /// Accepts an expert-signed advisory (PR 10) and republishes it through
  /// the ordinary feed plumbing under a feed named after the expert —
  /// clients subscribed to the expert pick it up over QueryFeed,
  /// expert-flag included.
  util::Status PublishAdvisory(const trust::ExpertAdvisory& advisory);

  util::Status CreateFeed(std::string_view session, std::string_view name,
                          std::string_view description);
  util::Status PublishFeedEntry(std::string_view session,
                                const FeedEntry& entry);
  util::Result<FeedEntry> QueryFeed(std::string_view session,
                                    std::string_view feed,
                                    const core::SoftwareId& software);

  // ------------------------------------------------------------------
  // RPC adapter
  // ------------------------------------------------------------------

  /// Binds the XML RPC front-end at `address` on `network`.
  util::Status AttachRpc(net::SimNetwork* network, std::string address);

  /// Simulates a crash/shutdown: unbinds the RPC front-end (clients see
  /// timeouts, exactly as with a dead process) and cancels the periodic
  /// aggregation. Durable state lives in the database; in-memory sessions
  /// are lost, as a real restart would lose them. "Restarting" is opening
  /// a new ReputationServer over the same database (whose WAL replay —
  /// with salvage, see storage::Database::OpenOptions — is the recovery
  /// path), after which clients re-login.
  void Stop();

  // ------------------------------------------------------------------
  // Component access (administration, benches, tests)
  // ------------------------------------------------------------------

  AccountManager& accounts() { return accounts_; }
  crypto::TrustStore& trust_keys() { return trust_keys_; }
  trust::ManifestStore& manifests() { return manifests_; }
  /// The audit log, or null when Config::trust.audit_log is off.
  trust::AuditLog* audit() { return audit_.get(); }
  /// Public half of the audit-checkpoint signing key (what tools/audit
  /// verifies checkpoints against).
  const crypto::PublicKey& audit_public_key() const {
    return config_.trust.audit_keys.public_key;
  }
  VoteStore& votes() { return votes_; }
  SoftwareRegistry& registry() { return registry_; }
  ModerationQueue& moderation() { return moderation_; }
  FeedStore& feeds() { return feeds_; }
  AggregationJob& aggregation() { return aggregation_; }
  BootstrapImporter& bootstrap() { return bootstrap_; }
  const ServerStats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  /// The RPC front-end while attached (null otherwise). Cluster shards
  /// register extra methods (heartbeats, replication control) and install
  /// the replication response gate through this.
  net::RpcServer* rpc_server() { return rpc_.get(); }
  /// The attached metrics registry, or null (drives the web portal's
  /// /metrics endpoint).
  obs::MetricsRegistry* metrics() const { return config_.metrics; }

  util::TimePoint Now() const;

  /// The unlinkable per-(user, software) pseudonym used when
  /// `pseudonymous_votes` is on. Always negative. Exposed for tests.
  core::UserId PseudonymFor(core::UserId user,
                            const core::SoftwareId& software) const;

 private:
  void RegisterRpcMethods();
  /// Swaps the snapshot pin set to this run's recomputed score rows.
  void RepinScores(const AggregationStats& stats);
  /// Appends to the audit log (no-op when disabled), writes the periodic
  /// signed checkpoint, and refreshes the pisrep_trust_* gauges. Every
  /// accepted mutation routes through here — the single audit choke point.
  void AuditAppend(std::string_view kind, std::string_view payload);
  /// Adds the verified-manifest facts to a QuerySoftware answer.
  void AnnotateManifest(SoftwareInfo* info) const;

  Config config_;
  storage::Database* db_;
  net::EventLoop* loop_;
  AccountManager accounts_;
  SoftwareRegistry registry_;
  VoteStore votes_;
  FloodGuard flood_;
  ModerationQueue moderation_;
  FeedStore feeds_;
  /// Signed trust plane (PR 10): pinned vendor/expert keys, verified
  /// manifests, and the hash-chained audit log (null when disabled).
  crypto::TrustStore trust_keys_;
  trust::ManifestStore manifests_;
  std::unique_ptr<trust::AuditLog> audit_;
  AggregationJob aggregation_;
  BootstrapImporter bootstrap_;
  std::unordered_map<std::string, ActivationMail> mailbox_;
  std::unique_ptr<net::RpcServer> rpc_;
  ServerStats stats_;
  /// Epoch-snapshot read path (DESIGN.md §14). The publisher is the only
  /// cross-thread surface; everything feeding it runs on the loop thread.
  SnapshotPublisher snapshot_;
  std::uint64_t snapshot_epoch_ = 0;
  obs::Gauge* snapshot_age_gauge_ = nullptr;
  obs::Gauge* snapshot_epoch_gauge_ = nullptr;
  obs::Histogram* publish_micros_ = nullptr;
  obs::Counter* snapshot_hits_metric_ = nullptr;
  obs::Counter* snapshot_misses_metric_ = nullptr;
  obs::Counter* trust_sig_verified_metric_ = nullptr;
  obs::Counter* trust_sig_rejected_metric_ = nullptr;
  obs::Counter* trust_audit_appends_metric_ = nullptr;
  obs::Counter* trust_checkpoints_metric_ = nullptr;
  obs::Gauge* trust_chain_length_gauge_ = nullptr;
  obs::Gauge* trust_checkpoint_age_gauge_ = nullptr;
  std::unique_ptr<obs::SnapshotLogger> snapshot_logger_;
  /// Liveness token for the snapshot-logger schedule (same pattern as the
  /// aggregation job): Stop() resets it and queued ticks become no-ops.
  std::shared_ptr<int> snapshot_token_;
  /// Liveness token for the tier-tick schedule.
  std::shared_ptr<int> tier_token_;
  /// Score rows pinned under the current snapshot (swapped by RepinScores
  /// after each aggregation run).
  std::vector<core::SoftwareId> pinned_scores_;
  /// Counter baselines for the monotonic pisrep_storage_* exports (the
  /// registry's counters only increment; the database reports totals).
  storage::DatabaseTierStats storage_seen_;
  std::size_t compactions_seen_ = 0;
};

}  // namespace pisrep::server

#endif  // PISREP_SERVER_REPUTATION_SERVER_H_
