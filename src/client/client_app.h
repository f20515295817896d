#ifndef PISREP_CLIENT_CLIENT_APP_H_
#define PISREP_CLIENT_CLIENT_APP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "client/file_image.h"
#include "client/interceptor.h"
#include "client/offline_queue.h"
#include "client/safety_lists.h"
#include "client/server_cache.h"
#include "client/signature_check.h"
#include "core/policy.h"
#include "core/prompt_policy.h"
#include "crypto/trust_store.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/wire.h"

namespace pisrep::client {

/// Everything shown to the user when the client asks about a pending
/// execution (§3.1: the client "fetches the information about the executing
/// software to show the user").
struct PromptInfo {
  core::SoftwareMeta meta;
  SignatureCheckResult signature;
  bool known = false;   ///< present in the reputation system
  bool offline = false; ///< server unreachable; info may be stale/absent
  std::optional<core::SoftwareScore> score;
  std::optional<core::VendorScore> vendor_score;
  core::BehaviorSet reported_behaviors = core::kNoBehaviors;
  std::vector<core::RatingRecord> comments;
  /// Assessment from the subscribed expert feed (§4.2), when one exists.
  std::optional<proto::FeedEntry> feed_entry;
  /// §3.1 run statistics: community-wide execution count.
  std::int64_t run_count = 0;
  /// Server-verified vendor manifest facts (PR 10): the server checked a
  /// signed manifest for this binary against its pinned vendor keys.
  bool vendor_signed = false;
  std::string signed_vendor;
};

/// The user's answer to an allow/deny prompt.
struct UserDecision {
  bool allow = false;
  /// Remember the decision on the white/black list so this binary never
  /// prompts again.
  bool remember = true;
};

/// A rating the user chose to submit when prompted.
struct RatingSubmission {
  int score = core::kMinRating;
  std::string comment;
  core::BehaviorSet behaviors = core::kNoBehaviors;
};

/// Counters describing the client's decision traffic.
struct ClientStats {
  std::uint64_t executions = 0;
  std::uint64_t allowed_whitelist = 0;
  std::uint64_t denied_blacklist = 0;
  std::uint64_t policy_allowed = 0;
  std::uint64_t policy_denied = 0;
  std::uint64_t prompts_shown = 0;
  std::uint64_t user_allowed = 0;
  std::uint64_t user_denied = 0;
  std::uint64_t rating_prompts = 0;
  std::uint64_t ratings_submitted = 0;
  std::uint64_t server_queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t offline_decisions = 0;
  /// Prompts answered from an expired cache entry while the server was
  /// unreachable (stale-while-revalidate; the info is marked offline).
  std::uint64_t stale_served = 0;
  /// Ratings parked in the offline outbox because the server was down.
  std::uint64_t ratings_queued = 0;
  /// Queued ratings that later landed on the server via replay.
  std::uint64_t ratings_replayed = 0;
  /// Automatic re-logins after the server forgot our session (restart).
  std::uint64_t relogins = 0;
  /// Cluster `ownership-moved` redirects followed (client pointed straight
  /// at a shard whose ring ownership moved).
  std::uint64_t redirects_followed = 0;
};

/// The reputation-system client application (§3.1): sits behind the
/// execution hook, consults the white/black lists, the vendor trust store,
/// the policy manager and the reputation server, prompts the user when the
/// policy says "ask", and schedules rating requests for frequently-used
/// software.
class ClientApp {
 public:
  struct Config {
    /// Network address of this client endpoint.
    std::string address;
    /// Network address of the reputation server's RPC front-end.
    std::string server_address;
    /// Account credentials.
    std::string username;
    std::string password;
    std::string email;
    /// The decision policy (§4.2 policy manager) as rule text for
    /// trust::ParsePolicyRules, evaluated after the white/black lists. The
    /// default asks about every unlisted binary, the proof-of-concept
    /// behaviour (§3.1). Text that does not parse logs a warning and falls
    /// back to that default.
    std::string policy_rules = "default ask";
    /// Prompt thresholds (§3.1 defaults: 50 executions, 2/week).
    core::PromptScheduler::Config prompts;
    /// What to do when the server is unreachable and the policy says to
    /// ask but no prompt handler is installed.
    ExecDecision fallback_decision = ExecDecision::kAllow;
    /// TTL for cached server responses.
    util::Duration cache_ttl = util::kHour;
    /// RPC timeout and per-call retry budget (timeouts double per retry).
    util::Duration rpc_timeout = 5 * util::kSecond;
    int rpc_retries = 2;
    /// Per-server circuit breaker (fail fast while the server is down).
    net::RpcClient::BreakerConfig breaker;
    /// §3.3 countermeasure against polymorphic re-hashing: when the digest
    /// is unknown to the server but the file embeds a company name, fetch
    /// the *vendor* score so the policy/user can judge the publisher even
    /// though this exact binary has never been rated.
    bool vendor_fallback = false;
    /// §4.2 subscriptions: name of an expert feed whose assessments are
    /// fetched alongside community data and exposed to the policy engine
    /// and the prompt. Empty disables.
    std::string subscribed_feed;
    /// §3.1 run statistics: report anonymous execution counts to the
    /// server, batched per program. 0 disables reporting.
    int run_report_batch = 5;
    /// Optional client-local database. When set, the white/black lists are
    /// persisted in it and survive client restarts (§3.1: the lists exist
    /// precisely so the user is never asked about the same binary twice).
    /// Must outlive the ClientApp.
    storage::Database* local_db = nullptr;
    /// Observability (optional, both null by default). Neither is owned;
    /// both must outlive the ClientApp. Wires the RPC client, response
    /// cache and offline queue into the registry/tracer.
    obs::MetricsRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
  };

  using StatusCallback = std::function<void(util::Status)>;
  using PromptHandler =
      std::function<void(const PromptInfo&, std::function<void(UserDecision)>)>;
  using RatingHandler = std::function<void(
      const PromptInfo&, std::function<void(std::optional<RatingSubmission>)>)>;

  ClientApp(net::SimNetwork* network, net::EventLoop* loop, Config config);

  /// Binds the client's network endpoint.
  util::Status Start();

  /// Installs the allow/deny prompt UI. Without one, "ask" resolves to the
  /// configured fallback decision.
  void SetPromptHandler(PromptHandler handler);
  /// Installs the rating-request UI. Without one, rating prompts are
  /// silently skipped.
  void SetRatingHandler(RatingHandler handler);

  // --- Account lifecycle (asynchronous, via RPC) ---------------------

  /// Requests a puzzle, solves it, and registers the configured account.
  void Register(StatusCallback done);
  /// Activates with the token from the activation e-mail.
  void Activate(std::string_view token, StatusCallback done);
  /// Logs in and stores the session for subsequent calls.
  void Login(StatusCallback done);

  bool logged_in() const { return !session_.empty(); }

  // --- The decision pipeline -----------------------------------------

  /// Entry point for a pending execution; `done` fires exactly once.
  /// (Also reachable via interceptor().OnExecutionRequest.)
  void HandleExecution(const FileImage& image, DecisionCallback done);

  /// Submits a rating directly (outside the prompt flow).
  void SubmitRating(const core::SoftwareMeta& meta,
                    const RatingSubmission& submission, StatusCallback done);

  /// Submits a remark on another user's comment.
  void SubmitRemark(core::UserId author, const core::SoftwareId& software,
                    bool positive, StatusCallback done);

  // --- Component access ----------------------------------------------

  ExecutionInterceptor& interceptor() { return interceptor_; }
  SafetyLists& lists() { return lists_; }
  crypto::TrustStore& trust_store() { return trust_store_; }
  core::PromptScheduler& prompt_scheduler() { return prompt_scheduler_; }
  ServerCache& cache() { return cache_; }
  OfflineQueue& offline_queue() { return offline_queue_; }
  const ClientStats& stats() const { return stats_; }
  const Config& config() const { return config_; }
  net::RpcClient& rpc() { return rpc_; }

 private:
  /// Issues a digest-routed call, following one cluster `ownership-moved`
  /// redirect: a client pointed straight at a shard (no router in front)
  /// retries against the owner the shard named. Non-cluster deployments
  /// never produce the redirect, so this is Call plus one branch.
  void CallRouted(const std::string& method, xml::XmlNode params,
                  net::RpcClient::ResponseCallback callback);
  void QueryServer(const core::SoftwareId& id,
                   std::function<void(PromptInfo)> done,
                   PromptInfo partial);
  /// Answers `done` from an expired-but-present cache entry (marked
  /// offline); returns false when nothing usable is cached.
  bool TryServeStale(const core::SoftwareId& id, const PromptInfo& partial,
                     const std::function<void(PromptInfo)>& done);
  /// Builds and sends the SubmitRating RPC (shared by the live path and
  /// the offline-queue replay).
  void SendRating(const core::SoftwareMeta& meta, int score,
                  const std::string& comment, core::BehaviorSet behaviors,
                  StatusCallback done);
  /// Kicks off one background re-login (no-op while one is in flight).
  /// Used when the server rejects our session — it restarted and lost its
  /// in-memory session table.
  void MaybeRelogin();
  /// Arms the outbox replay timer (no-op if already armed or queue empty).
  void ScheduleReplay(util::Duration delay);
  /// Replays the head of the outbox; chains itself until the queue drains
  /// or the server fails again (then re-arms the timer with backoff).
  void ReplayNext();
  void FetchVendorFallback(const core::SoftwareId& id, PromptInfo info,
                           std::function<void(PromptInfo)> done);
  void FetchFeedEntry(const core::SoftwareId& id, PromptInfo info,
                      std::function<void(PromptInfo)> done);
  void FinishQuery(const core::SoftwareId& id, PromptInfo info,
                   std::function<void(PromptInfo)> done);
  void DecideWithInfo(const FileImage& image, PromptInfo info,
                      DecisionCallback done);
  /// The `pisrep_trust_policy_<action>_total{rule=...}` counter of a fired
  /// rule, looked up in the registry on the rule's first decision only.
  /// The policy never changes, so a rule always fires with one action.
  obs::Counter* RuleCounter(core::PolicyAction action,
                            const std::string& rule);
  void PostAllow(const FileImage& image, const PromptInfo& info);
  void MaybePromptForRating(const FileImage& image, const PromptInfo& info);
  void AccumulateRunReport(const core::SoftwareId& id);

  net::EventLoop* loop_;
  Config config_;
  /// `config_.policy_rules`, parsed once.
  core::Policy policy_;
  /// RuleCounter's handles, by rule name.
  std::unordered_map<std::string, obs::Counter*> rule_counters_;
  net::RpcClient rpc_;
  ExecutionInterceptor interceptor_;
  SafetyLists lists_;
  crypto::TrustStore trust_store_;
  SignatureChecker signature_checker_;
  core::PromptScheduler prompt_scheduler_;
  ServerCache cache_;
  PromptHandler prompt_handler_;
  RatingHandler rating_handler_;
  std::string session_;
  /// Subscribed-feed lookups, including negative results (nullopt).
  std::unordered_map<core::SoftwareId, std::optional<proto::FeedEntry>,
                     core::SoftwareIdHash>
      feed_cache_;
  /// §3.1 run statistics pending upload, per program.
  std::unordered_map<core::SoftwareId, int, core::SoftwareIdHash>
      pending_run_reports_;
  OfflineQueue offline_queue_;
  /// A replay timer is already scheduled on the loop.
  bool replay_scheduled_ = false;
  /// A replay chain is currently in flight (one rating at a time).
  bool replay_active_ = false;
  /// A background re-login is in flight.
  bool relogin_pending_ = false;
  /// Liveness token for loop callbacks (replay timers) so a destroyed
  /// client's events become no-ops.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
  ClientStats stats_;
};

}  // namespace pisrep::client

#endif  // PISREP_CLIENT_CLIENT_APP_H_
