#ifndef PISREP_SIM_SCENARIO_H_
#define PISREP_SIM_SCENARIO_H_

#include <array>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/router.h"
#include "core/prompt_policy.h"
#include "net/event_loop.h"
#include "net/fault_injector.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/reputation_server.h"
#include "sim/baseline_av.h"
#include "sim/host.h"
#include "sim/metrics.h"
#include "sim/software_ecosystem.h"
#include "storage/database.h"
#include "util/random.h"

namespace pisrep::sim {

/// End-to-end simulation parameters: a population of hosts running a
/// software mix, optionally protected by the reputation client (full RPC
/// path through the simulated network) or by the signature baseline.
struct ScenarioConfig {
  EcosystemConfig ecosystem;

  int num_users = 60;
  /// Protection mix; the remainder runs the reputation client.
  double frac_unprotected = 0.0;
  double frac_av = 0.0;
  /// Skill mix; the remainder is kAverage.
  double frac_expert = 0.15;
  double frac_novice = 0.25;
  double frac_malicious = 0.0;

  /// Installed programs per host (uniform in [min, max]).
  int installs_min = 8;
  int installs_max = 15;
  /// Probability that a sampled PIS program is vetoed at install time —
  /// models curated (IT-approved) software acquisition on corporate
  /// machines; 0 reproduces a home user's indiscriminate downloads.
  double install_pis_veto = 0.0;
  /// Mean program launches per host per day (exponential interarrival).
  double executions_per_day = 6.0;
  util::Duration duration = 30 * util::kDay;

  /// Community churn: this fraction of users joins late, uniformly spread
  /// over `join_spread` from the start — a growing deployment instead of a
  /// fully-formed one. Hosts run nothing before their user arrives.
  double late_join_fraction = 0.0;
  util::Duration join_spread = 10 * util::kDay;

  /// Established-community warm-up: after onboarding, the clock advances by
  /// this much and members accrue remark history proportional to their
  /// skill (experts earn praise, malicious accounts collect negative
  /// remarks), so trust factors reflect a deployment with a past rather
  /// than a week-one community. 0 starts cold.
  util::Duration community_age = 0;

  /// Client-side policy for reputation hosts, as rule text for
  /// trust::ParsePolicyRules (see client::ClientApp::Config::policy_rules).
  std::string policy_rules = "default ask";
  /// Prompt thresholds; defaults are lowered from the paper's 50/2 so a
  /// 30-day simulation generates enough votes (the paper's deployment ran
  /// for months).
  core::PromptScheduler::Config prompts{/*executions_before_prompt=*/5,
                                        /*max_prompts_per_week=*/20};
  /// §4.2 vendor white-listing: trust every honest vendor's certificate in
  /// every client's store.
  bool trust_legit_vendors = false;
  /// TTL of the clients' server-response cache.
  util::Duration client_cache_ttl = util::kHour;
  /// Whether simulated users pin their allow/deny answers on the
  /// white/black lists (§3.1 default). When false, every launch re-decides
  /// from fresh reputation data — the regime where the cache matters.
  bool remember_decisions = true;

  server::ReputationServer::Config server;
  BaselineConfig baseline;
  net::NetworkConfig network;

  /// Cluster mode: when > 1, the scenario runs this many shard servers
  /// (each with a replicated backup) behind a cluster::Router bound at
  /// "server" — clients are untouched and talk to the same address as in
  /// single-server mode. 1 keeps the historical single-server path
  /// bit-identical. Cluster shards are in-memory (`server_db_path` must
  /// stay empty); durability comes from replication, not a WAL file.
  int num_shards = 1;
  cluster::ReplicationConfig replication;
  /// Gossip failure detection for the cluster. Disabled by default so
  /// benches and chaos tests drive failures explicitly and the event loop
  /// can drain; enable for decentralized auto-failover.
  cluster::GossipConfig cluster_gossip{.enabled = false};
  /// Background replica digest comparison; disabled by default for the
  /// same drain reason.
  cluster::AntiEntropyConfig cluster_anti_entropy{.enabled = false};

  /// Observability for the whole scenario (optional, not owned; must
  /// outlive the runner). When set, the server, every client, the event
  /// loop and the fault injector all report into the same registry/tracer
  /// — one scrapeable surface per simulated deployment. Survives the
  /// chaos server restart: the restarted server re-fetches the same
  /// metric handles by name.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;

  /// When non-empty, the server runs on a WAL-backed database at this path
  /// (durability integration testing); empty keeps it in-memory.
  std::string server_db_path;

  /// Scripted fault schedule (chaos engineering): when enabled, drives the
  /// FaultInjector and the server lifecycle through three fixed windows
  /// (ScenarioRunner::ScheduleChaos), exercising every degradation path at
  /// once — stale-cache prompts and offline outboxes during the partition,
  /// session recovery after the crash, retry/breaker behaviour under loss
  /// and corruption.
  struct ChaosConfig {
    bool enabled = false;
  };
  ChaosConfig chaos;

  /// §2.1 bootstrapping: pre-seed the most popular fraction of the corpus
  /// with reliable external scores before the run.
  bool bootstrap = false;
  double bootstrap_fraction = 0.5;
  int bootstrap_votes = 25;

  std::uint64_t seed = 1234;
};

/// Aggregated results of a scenario run.
struct ScenarioResult {
  /// Outcomes indexed by ProtectionKind value; groups with zero hosts are
  /// present but empty.
  std::array<GroupOutcome, 3> groups;

  /// Mean absolute error between final aggregated scores and ground-truth
  /// quality, over software with at least one community vote.
  double score_mae = 0.0;
  int scored_software = 0;
  /// Software with *any* visible score (community votes or bootstrap
  /// prior) — the coverage a querying user experiences — and the MAE over
  /// those entries.
  int visible_software = 0;
  double visible_score_mae = 0.0;
  std::size_t total_votes = 0;
  std::size_t total_remarks = 0;
  server::ServerStats server_stats;

  const GroupOutcome& group(ProtectionKind kind) const {
    return groups[static_cast<std::size_t>(kind)];
  }
};

/// Builds and drives a full simulation: server + RPC + clients + hosts +
/// users + (optional) baseline scanner, on one deterministic event loop.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(ScenarioConfig config);
  ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Runs the whole scenario and returns the aggregated results. Call once.
  ScenarioResult Run();

  // Component access for benches that need to intervene mid-run or inspect
  // internals afterwards (attack drivers, score dumps, ...).
  net::EventLoop& loop() { return loop_; }
  net::SimNetwork& network() { return *network_; }
  net::FaultInjector& faults() { return injector_; }
  /// The single server (single-server mode only; aborts in cluster mode —
  /// use cluster() there).
  server::ReputationServer& server();
  /// The shard cluster and router in cluster mode; null otherwise.
  cluster::ShardCluster* cluster() { return cluster_.get(); }
  cluster::Router* router() { return router_.get(); }
  SoftwareEcosystem& ecosystem() { return eco_; }
  SignatureBaseline& baseline() { return baseline_; }
  std::vector<std::unique_ptr<SimHost>>& hosts() { return hosts_; }
  util::Rng& rng() { return rng_; }

  /// Ground-truth lookup by digest (includes polymorphic variants only if
  /// registered by the caller).
  const SoftwareSpec* FindSpec(const core::SoftwareId& id) const;

  /// Simulated server crash: the RPC endpoint vanishes, the periodic
  /// aggregation stops, every session dies. Exposed so benches can script
  /// their own fault timelines beyond ChaosConfig's. In cluster mode this
  /// fences shard 0's primary instead.
  void CrashServer();
  /// Brings a fresh server process up over the same database (recovering
  /// durable state from its WAL when one is configured). In cluster mode
  /// this promotes shard 0's backup — the replicated equivalent of a
  /// restart-with-recovery.
  void RestartServer();

 private:
  void SetUpHosts();
  void WireClient(SimHost* host, int index);
  void SetUpAccounts();
  /// Register → activate → login over RPC; steps that fail while a fault
  /// window is open retry hourly instead of aborting the run.
  void OnboardClient(client::ClientApp* app);
  void ActivateClient(client::ClientApp* app, const std::string& token);
  void LoginClient(client::ClientApp* app);
  void ScheduleChaos(util::TimePoint start);
  void ApplyCommunityHistory();
  void ApplyBootstrap();
  void ScheduleExecutions();
  ScenarioResult Collect();

  ScenarioConfig config_;
  util::Rng rng_;
  net::EventLoop loop_;
  /// Declared before network_ so it outlives the network that consults it.
  net::FaultInjector injector_;
  std::unique_ptr<net::SimNetwork> network_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::ReputationServer> server_;
  std::unique_ptr<cluster::ShardCluster> cluster_;
  std::unique_ptr<cluster::Router> router_;
  SoftwareEcosystem eco_;
  SignatureBaseline baseline_;
  std::vector<std::unique_ptr<SimHost>> hosts_;
  std::vector<util::TimePoint> join_times_;  ///< parallel to hosts_
  std::array<GroupOutcome, 3> outcomes_;
  std::unordered_map<core::SoftwareId, std::size_t, core::SoftwareIdHash>
      digest_index_;
  bool ran_ = false;
};

}  // namespace pisrep::sim

#endif  // PISREP_SIM_SCENARIO_H_
