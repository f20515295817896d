#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "server/bootstrap.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pisrep::sim {

namespace {
using util::StrFormat;

constexpr std::string_view kHelpfulPrefix = "helpful: ";
constexpr std::string_view kNoisePrefix = "noise: ";
}  // namespace

ScenarioRunner::ScenarioRunner(ScenarioConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      injector_(&loop_, config_.seed ^ 0xfa017),
      eco_(SoftwareEcosystem::Generate(config_.ecosystem)),
      baseline_(config_.baseline) {
  network_ = std::make_unique<net::SimNetwork>(&loop_, config_.network);
  network_->AttachFaultInjector(&injector_);
  // Scenario-level observability fans out to every component; the server
  // config carries the pointers so RestartServer re-wires automatically.
  if (config_.metrics != nullptr) {
    config_.server.metrics = config_.metrics;
    injector_.AttachMetrics(config_.metrics);
  }
  if (config_.tracer != nullptr) {
    config_.server.tracer = config_.tracer;
    config_.tracer->set_clock(&loop_.clock());
  }
  if (config_.num_shards > 1) {
    // Cluster mode: N shards behind a router at the same "server" address
    // the clients already use.
    PISREP_CHECK(config_.server_db_path.empty())
        << "cluster shards are in-memory; server_db_path is single-server";
    cluster::ClusterConfig cluster_config;
    cluster_config.num_shards = config_.num_shards;
    cluster_config.server = config_.server;
    cluster_config.replication = config_.replication;
    cluster_config.gossip = config_.cluster_gossip;
    cluster_config.anti_entropy = config_.cluster_anti_entropy;
    cluster_ = std::make_unique<cluster::ShardCluster>(network_.get(), &loop_,
                                                       cluster_config);
    util::Status cluster_status = cluster_->Start();
    PISREP_CHECK(cluster_status.ok()) << cluster_status.ToString();
    cluster::RouterConfig router_config;
    router_config.service_address = "server";
    router_ = std::make_unique<cluster::Router>(network_.get(), &loop_,
                                                router_config, config_.metrics,
                                                config_.tracer);
    util::Status router_status = router_->Start();
    PISREP_CHECK(router_status.ok()) << router_status.ToString();
    for (int i = 0; i < config_.num_shards; ++i) {
      router_->AddShard(cluster_->ShardName(i));
    }
  } else {
    // Salvage mode: a chaos run may crash the server mid-append; the
    // restarted server must come up on whatever prefix survived.
    storage::Database::OpenOptions db_options;
    db_options.salvage_corruption = true;
    db_ = storage::Database::Open(config_.server_db_path, db_options).value();
    server_ = std::make_unique<server::ReputationServer>(db_.get(), &loop_,
                                                         config_.server);
    util::Status rpc_status = server_->AttachRpc(network_.get(), "server");
    PISREP_CHECK(rpc_status.ok()) << rpc_status.ToString();
  }

  for (std::size_t i = 0; i < eco_.size(); ++i) {
    digest_index_.emplace(eco_.spec(i).image.Digest(), i);
  }
  for (std::size_t i = 0; i < outcomes_.size(); ++i) {
    outcomes_[i].label = ProtectionKindName(static_cast<ProtectionKind>(i));
  }
}

ScenarioRunner::~ScenarioRunner() = default;

server::ReputationServer& ScenarioRunner::server() {
  PISREP_CHECK(server_ != nullptr)
      << "no single server in cluster mode; use cluster()";
  return *server_;
}

const SoftwareSpec* ScenarioRunner::FindSpec(
    const core::SoftwareId& id) const {
  auto it = digest_index_.find(id);
  return it == digest_index_.end() ? nullptr : &eco_.spec(it->second);
}

void ScenarioRunner::SetUpHosts() {
  int num_unprotected =
      static_cast<int>(std::round(config_.num_users * config_.frac_unprotected));
  int num_av = static_cast<int>(std::round(config_.num_users * config_.frac_av));

  for (int i = 0; i < config_.num_users; ++i) {
    ProtectionKind kind = ProtectionKind::kReputation;
    if (i < num_unprotected) {
      kind = ProtectionKind::kNone;
    } else if (i < num_unprotected + num_av) {
      kind = ProtectionKind::kSignatureAv;
    }

    // Skill profile by position within the population (deterministic mix).
    double u = rng_.NextDouble();
    UserProfile profile = UserProfile::kAverage;
    if (u < config_.frac_expert) {
      profile = UserProfile::kExpert;
    } else if (u < config_.frac_expert + config_.frac_novice) {
      profile = UserProfile::kNovice;
    } else if (u <
               config_.frac_expert + config_.frac_novice +
                   config_.frac_malicious) {
      profile = UserProfile::kMalicious;
    }

    // Installed mix: popularity-weighted, deduplicated.
    int installs = static_cast<int>(rng_.NextInt(config_.installs_min,
                                                 config_.installs_max));
    std::unordered_set<std::size_t> chosen;
    int guard = 0;
    while (static_cast<int>(chosen.size()) < installs &&
           guard++ < installs * 50) {
      std::size_t candidate = eco_.SamplePopular(rng_);
      if (SoftwareEcosystem::IsPis(eco_.spec(candidate).truth) &&
          rng_.NextBool(config_.install_pis_veto)) {
        continue;
      }
      chosen.insert(candidate);
    }
    std::vector<std::size_t> installed(chosen.begin(), chosen.end());
    std::sort(installed.begin(), installed.end());

    SimUserModel user(MakeUserBehavior(profile),
                      rng_.Fork(1000 + static_cast<std::uint64_t>(i)));
    auto host = std::make_unique<SimHost>(StrFormat("host-%03d", i), kind,
                                          std::move(user),
                                          std::move(installed));
    ++outcomes_[static_cast<std::size_t>(kind)].hosts;

    if (kind == ProtectionKind::kSignatureAv) {
      host->AttachBaseline(&baseline_);
    } else if (kind == ProtectionKind::kReputation) {
      WireClient(host.get(), i);
    }

    util::TimePoint join = 0;
    if (config_.late_join_fraction > 0.0 &&
        rng_.NextBool(config_.late_join_fraction)) {
      join = static_cast<util::TimePoint>(rng_.NextBelow(
          static_cast<std::uint64_t>(
              std::max<util::Duration>(config_.join_spread, 1))));
    }
    join_times_.push_back(join);
    hosts_.push_back(std::move(host));
  }
}

void ScenarioRunner::WireClient(SimHost* host, int index) {
  client::ClientApp::Config cfg;
  cfg.address = StrFormat("client-%03d", index);
  cfg.server_address = "server";
  cfg.username = StrFormat("user_%03d", index);
  cfg.password = StrFormat("pw-%03d!", index);
  cfg.email = StrFormat("user_%03d@example.com", index);
  cfg.policy_rules = config_.policy_rules;
  cfg.prompts = config_.prompts;
  cfg.cache_ttl = config_.client_cache_ttl;
  cfg.metrics = config_.metrics;
  cfg.tracer = config_.tracer;

  auto client = std::make_unique<client::ClientApp>(network_.get(), &loop_,
                                                    std::move(cfg));
  util::Status started = client->Start();
  PISREP_CHECK(started.ok()) << started.ToString();

  // Certificates are public: every client knows every vendor's key. Trust
  // decisions are the local user's (§4.2).
  for (const VendorProfile& vendor : eco_.vendors()) {
    client->trust_store().AddCertificate(
        crypto::Certificate{vendor.name, vendor.keys.public_key, 0, false});
    if (config_.trust_legit_vendors && vendor.legitimate) {
      client->trust_store().TrustVendor(vendor.name);
    }
  }

  client::ClientApp* app = client.get();
  GroupOutcome* outcome =
      &outcomes_[static_cast<std::size_t>(ProtectionKind::kReputation)];

  app->SetPromptHandler([this, host, app, outcome](
                            const client::PromptInfo& info,
                            std::function<void(client::UserDecision)> done) {
    ++outcome->prompts;
    const SoftwareSpec* spec = FindSpec(info.meta.id);
    client::UserDecision decision;
    if (spec == nullptr) {
      // Unknown binary (e.g. polymorphic variant injected by an attack
      // driver): fall back to the uninformed path with no ground truth —
      // treat as a moderately risky unknown.
      decision.allow = host->user().rng().NextBool(0.5);
    } else {
      decision.allow = host->user().DecideAllow(info, *spec);
    }
    decision.remember = config_.remember_decisions;

    // Meta-moderation: the user may remark on the comments they were shown
    // (§2.1 first mitigation).
    for (const core::RatingRecord& comment : info.comments) {
      if (!host->user().rng().NextBool(
              host->user().behavior().remark_propensity)) {
        continue;
      }
      bool helpful = util::StartsWith(comment.comment, kHelpfulPrefix);
      app->SubmitRemark(comment.user, info.meta.id, helpful,
                        [](util::Status) {});
    }
    done(decision);
  });

  app->SetRatingHandler(
      [this, host](const client::PromptInfo& info,
                   std::function<void(std::optional<client::RatingSubmission>)>
                       done) {
        const SoftwareSpec* spec = FindSpec(info.meta.id);
        if (spec == nullptr || !host->user().AnswersRatingPrompt()) {
          done(std::nullopt);
          return;
        }
        client::RatingSubmission submission;
        submission.score = host->user().RateSoftware(*spec);
        bool helpful = host->user().WritesHelpfulComment();
        submission.comment =
            std::string(helpful ? kHelpfulPrefix : kNoisePrefix) +
            StrFormat("%s rated %d", host->name().c_str(), submission.score);
        submission.behaviors = host->user().ReportBehaviors(*spec);
        done(submission);
      });

  host->AttachClient(std::move(client));
}

void ScenarioRunner::SetUpAccounts() {
  // Register → fetch activation mail → activate → login, all through the
  // RPC path, staggered to avoid a thundering herd at t=0.
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    SimHost* host = hosts_[i].get();
    if (host->protection() != ProtectionKind::kReputation) continue;
    client::ClientApp* app = host->client();
    loop_.ScheduleAfter(
        join_times_[i] +
            static_cast<util::Duration>(i) * 100 * util::kMillisecond,
        [this, app] { OnboardClient(app); });
  }
  loop_.RunUntil(loop_.Now() + util::kHour);
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    const auto& host = hosts_[i];
    // Late joiners onboard while the simulation runs; only day-zero users
    // must be logged in before executions start.
    if (host->protection() == ProtectionKind::kReputation &&
        join_times_[i] == 0) {
      PISREP_CHECK(host->client()->logged_in())
          << host->name() << " failed to log in";
    }
  }
}

void ScenarioRunner::OnboardClient(client::ClientApp* app) {
  app->Register([this, app](util::Status status) {
    if (status.code() == util::StatusCode::kAlreadyExists) {
      // A previous attempt's response was lost but the registration
      // landed; the activation mail was fetched then, so head straight
      // for login.
      LoginClient(app);
      return;
    }
    if (!status.ok()) {
      // Server unreachable (likely a fault window); the host simply comes
      // online later.
      loop_.ScheduleAfter(util::kHour, [this, app] { OnboardClient(app); });
      return;
    }
    auto mail = [&] {
      if (cluster_ != nullptr) return cluster_->FetchMail(app->config().email);
      return server_->FetchMail(app->config().email);
    }();
    if (!mail.ok() && cluster_ != nullptr) {
      // Shard 0 (the canonical mailbox) may be mid-failover; pending mail
      // is process state and dies with the old primary. Re-onboarding is
      // safe: registration replies AlreadyExists and we fall through to
      // login with the deterministic tokens.
      loop_.ScheduleAfter(util::kHour, [this, app] { OnboardClient(app); });
      return;
    }
    PISREP_CHECK(mail.ok()) << "no activation mail for "
                            << app->config().email;
    ActivateClient(app, mail->token);
  });
}

void ScenarioRunner::ActivateClient(client::ClientApp* app,
                                    const std::string& token) {
  app->Activate(token, [this, app, token](util::Status status) {
    if (status.code() == util::StatusCode::kUnavailable ||
        status.code() == util::StatusCode::kDataLoss) {
      loop_.ScheduleAfter(util::kHour,
                          [this, app, token] { ActivateClient(app, token); });
      return;
    }
    // Any other error means the token was already consumed by a retry
    // whose response we never saw — either way, try logging in.
    LoginClient(app);
  });
}

void ScenarioRunner::LoginClient(client::ClientApp* app) {
  app->Login([this, app](util::Status status) {
    if (!status.ok()) {
      loop_.ScheduleAfter(util::kHour, [this, app] { LoginClient(app); });
    }
  });
}

void ScenarioRunner::ApplyCommunityHistory() {
  if (config_.community_age <= 0) return;
  loop_.RunUntil(loop_.Now() + config_.community_age);
  std::int64_t weeks = config_.community_age / util::kWeek;
  util::TimePoint now = loop_.Now();

  // In cluster mode the remark history must land on every shard: each
  // shard weighs its own votes by the author's local trust factor, and
  // accounts exist everywhere (broadcast registration, identical ids).
  std::vector<server::ReputationServer*> account_servers;
  if (cluster_ != nullptr) {
    for (int s = 0; s < cluster_->num_shards(); ++s) {
      account_servers.push_back(cluster_->primary(s));
    }
  } else {
    account_servers.push_back(server_.get());
  }

  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    SimHost* host = hosts_[i].get();
    if (host->protection() != ProtectionKind::kReputation) continue;
    auto account = account_servers.front()->accounts().GetAccountByUsername(
        host->client()->config().username);
    if (!account.ok()) continue;
    // Remark history per week of age, by archetype: helpful commenters
    // accumulate praise, noise accumulates censure.
    double positives_per_week = 0.0;
    double negatives_per_week = 0.0;
    switch (host->user().behavior().profile) {
      case UserProfile::kExpert:
        positives_per_week = 6.0;
        break;
      case UserProfile::kAverage:
        positives_per_week = 1.5;
        negatives_per_week = 0.2;
        break;
      case UserProfile::kNovice:
        positives_per_week = 0.3;
        negatives_per_week = 0.5;
        break;
      case UserProfile::kMalicious:
        positives_per_week = 0.1;
        negatives_per_week = 1.0;
        break;
    }
    int positives = static_cast<int>(positives_per_week * weeks);
    int negatives = static_cast<int>(negatives_per_week * weeks);
    for (server::ReputationServer* target : account_servers) {
      for (int r = 0; r < positives; ++r) {
        // Seeding trust history for a known-valid account; the updated
        // factor is recomputed from scratch by the next aggregation run.
        (void)target->accounts().ApplyRemark(account->id, true, now);
      }
      for (int r = 0; r < negatives; ++r) {
        // Seeding trust history for a known-valid account (see above).
        (void)target->accounts().ApplyRemark(account->id, false, now);
      }
    }
  }
}

void ScenarioRunner::ApplyBootstrap() {
  if (!config_.bootstrap) return;
  // Seed the most popular fraction, as a real bootstrap would cover the
  // widely-known programs first.
  std::vector<std::size_t> order(eco_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return eco_.spec(a).popularity > eco_.spec(b).popularity;
  });
  std::size_t count = static_cast<std::size_t>(
      std::round(static_cast<double>(order.size()) *
                 config_.bootstrap_fraction));
  std::vector<server::BootstrapRecord> records;
  for (std::size_t i = 0; i < count; ++i) {
    const SoftwareSpec& spec = eco_.spec(order[i]);
    server::BootstrapRecord record;
    record.meta = spec.image.Meta();
    // The external database is "more or less reliable": close to truth.
    record.score = std::clamp(spec.true_quality + rng_.NextGaussian(0.0, 0.5),
                              1.0, 10.0);
    record.vote_count = config_.bootstrap_votes;
    records.push_back(std::move(record));
  }
  if (cluster_ != nullptr) {
    // Partition the bootstrap records by ring owner: priors live only
    // where the software's votes will live.
    for (int s = 0; s < cluster_->num_shards(); ++s) {
      std::vector<server::BootstrapRecord> shard_records;
      for (const server::BootstrapRecord& record : records) {
        if (cluster_->ring().OwnerOf(record.meta.id) ==
            cluster_->ShardName(s)) {
          shard_records.push_back(record);
        }
      }
      auto imported = cluster_->primary(s)->bootstrap().Import(shard_records);
      PISREP_CHECK(imported.ok()) << imported.status().ToString();
    }
    cluster_->RunAggregationAll(loop_.Now());
    return;
  }
  auto imported = server_->bootstrap().Import(records);
  PISREP_CHECK(imported.ok()) << imported.status().ToString();
  // Make the priors immediately visible.
  server_->aggregation().RunOnce(loop_.Now());
}

void ScenarioRunner::ScheduleExecutions() {
  double mean_gap_ms =
      static_cast<double>(util::kDay) / config_.executions_per_day;
  util::TimePoint end = loop_.Now() + config_.duration;

  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    SimHost* host = hosts_[i].get();
    GroupOutcome* outcome =
        &outcomes_[static_cast<std::size_t>(host->protection())];
    // Self-rescheduling execution process with exponential interarrival.
    // The lambda holds only a weak reference to itself; the strong
    // references live in the event queue, so the process frees itself
    // once it stops rescheduling (past `end`, or when the loop dies).
    auto step = std::make_shared<std::function<void()>>();
    util::Rng exec_rng = rng_.Fork(50'000 + i);
    auto rng_ptr = std::make_shared<util::Rng>(std::move(exec_rng));
    std::weak_ptr<std::function<void()>> weak_step = step;
    *step = [this, host, outcome, end, mean_gap_ms, weak_step, rng_ptr] {
      if (loop_.Now() >= end) return;
      std::size_t idx = host->SampleInstalled(*rng_ptr);
      // The AV lab sees samples as they circulate, regardless of who runs
      // them (telemetry, honeypots).
      baseline_.ObserveSample(eco_.spec(idx), loop_.Now());
      host->ExecuteOne(eco_, idx, loop_.Now(), outcome);
      util::Duration gap = std::max<util::Duration>(
          util::kSecond,
          static_cast<util::Duration>(rng_ptr->NextExponential(mean_gap_ms)));
      if (auto self = weak_step.lock()) {
        loop_.ScheduleAfter(gap, [self] { (*self)(); });
      }
    };
    // A machine only starts launching programs once its user has joined
    // (plus an hour for onboarding to finish).
    util::Duration first =
        join_times_[i] + (join_times_[i] > 0 ? util::kHour : 0) +
        static_cast<util::Duration>(
            rng_.NextBelow(static_cast<std::uint64_t>(mean_gap_ms) + 1));
    loop_.ScheduleAfter(first, [step] { (*step)(); });
  }
}

void ScenarioRunner::CrashServer() {
  PISREP_LOG(kInfo) << "chaos: server crash at t=" << loop_.Now();
  if (cluster_ != nullptr) {
    cluster_->KillPrimary(0);
    return;
  }
  server_->Stop();
}

void ScenarioRunner::RestartServer() {
  PISREP_LOG(kInfo) << "chaos: server restart at t=" << loop_.Now();
  if (cluster_ != nullptr) {
    // The replicated equivalent of restart-with-recovery: promote shard
    // 0's backup (which holds every acked write) to a fresh primary.
    util::Status promoted = cluster_->TriggerFailover(0);
    if (!promoted.ok()) {
      PISREP_LOG(kWarning) << "chaos: shard 0 promotion refused: "
                           << promoted.ToString();
    }
    return;
  }
  // A fresh process over the same database: durable state (accounts,
  // votes, registry) comes back; sessions and pending mail do not.
  server_ = std::make_unique<server::ReputationServer>(db_.get(), &loop_,
                                                       config_.server);
  util::Status rpc_status = server_->AttachRpc(network_.get(), "server");
  PISREP_CHECK(rpc_status.ok()) << rpc_status.ToString();
}

void ScenarioRunner::ScheduleChaos(util::TimePoint start) {
  if (!config_.chaos.enabled) return;
  // Offsets are relative to the start of the execution phase. The windows
  // keep clear of onboarding (first hour, plus `join_spread` when late
  // joiners are on): onboarding retries hourly, so hosts that happen to
  // join mid-fault simply come up late.
  //
  // Server isolated from the whole client population.
  constexpr util::Duration kPartitionStart = 5 * util::kDay;
  constexpr util::Duration kPartitionEnd = 6 * util::kDay;
  // Server process down: Stop() at start, then a new server over the same
  // database (WAL replay is the recovery path). Sessions are lost; clients
  // re-login automatically when replaying queued ratings.
  constexpr util::Duration kCrashStart = 12 * util::kDay;
  constexpr util::Duration kCrashEnd = 12 * util::kDay + 6 * util::kHour;
  // Degraded-network window: extra loss, duplication and corruption.
  constexpr util::Duration kDegradeStart = 20 * util::kDay;
  constexpr util::Duration kDegradeEnd = 22 * util::kDay;
  constexpr double kDegradeLoss = 0.10;
  constexpr double kDegradeDuplication = 0.02;
  constexpr double kDegradeCorruption = 0.05;
  injector_.IsolateWindow(start + kPartitionStart, start + kPartitionEnd,
                          "server");
  injector_.ScheduleWindow(
      start + kCrashStart, start + kCrashEnd, [this] { CrashServer(); },
      [this] { RestartServer(); });
  injector_.DegradeWindow(start + kDegradeStart, start + kDegradeEnd,
                          kDegradeLoss, kDegradeDuplication,
                          kDegradeCorruption);
}

ScenarioResult ScenarioRunner::Collect() {
  // Final aggregation so scores reflect every vote.
  if (cluster_ != nullptr) {
    cluster_->RunAggregationAll(loop_.Now());
  } else {
    server_->aggregation().RunOnce(loop_.Now());
  }

  ScenarioResult result;
  result.groups = outcomes_;

  // Fold client-side prompt counters into the reputation group.
  GroupOutcome& rep =
      result.groups[static_cast<std::size_t>(ProtectionKind::kReputation)];
  rep.prompts = 0;
  for (const auto& host : hosts_) {
    if (host->protection() == ProtectionKind::kReputation) {
      rep.prompts += host->client()->stats().prompts_shown;
    }
  }

  double abs_error = 0.0;
  int scored = 0;
  double visible_error = 0.0;
  int visible = 0;
  for (std::size_t i = 0; i < eco_.size(); ++i) {
    core::SoftwareId digest = eco_.spec(i).image.Digest();
    auto score = [&] {
      if (cluster_ != nullptr) return cluster_->GetScore(digest);
      return server_->registry().GetScore(digest);
    }();
    if (!score.ok()) continue;
    ++visible;
    visible_error += std::abs(score->score - eco_.spec(i).true_quality);
    if (score->vote_count == 0) continue;
    abs_error += std::abs(score->score - eco_.spec(i).true_quality);
    ++scored;
  }
  result.score_mae = scored > 0 ? abs_error / scored : 0.0;
  result.scored_software = scored;
  result.visible_software = visible;
  result.visible_score_mae = visible > 0 ? visible_error / visible : 0.0;
  if (cluster_ != nullptr) {
    // Vote and remark rows live only on their owning shard, so the sums
    // are exact. Stats are summed too — note registrations count once per
    // shard (account operations are broadcast).
    for (int s = 0; s < cluster_->num_shards(); ++s) {
      server::ReputationServer* shard = cluster_->primary(s);
      if (shard == nullptr) continue;
      result.total_votes += shard->votes().TotalVotes();
      result.total_remarks += shard->votes().TotalRemarks();
      const server::ServerStats& stats = shard->stats();
      result.server_stats.registrations += stats.registrations;
      result.server_stats.registrations_rejected +=
          stats.registrations_rejected;
      result.server_stats.logins += stats.logins;
      result.server_stats.queries += stats.queries;
      result.server_stats.votes_accepted += stats.votes_accepted;
      result.server_stats.votes_rejected_duplicate +=
          stats.votes_rejected_duplicate;
      result.server_stats.votes_rejected_flood += stats.votes_rejected_flood;
      result.server_stats.remarks_accepted += stats.remarks_accepted;
    }
    return result;
  }
  result.total_votes = server_->votes().TotalVotes();
  result.total_remarks = server_->votes().TotalRemarks();
  result.server_stats = server_->stats();
  return result;
}

ScenarioResult ScenarioRunner::Run() {
  PISREP_CHECK(!ran_) << "ScenarioRunner::Run is single-shot";
  ran_ = true;

  SetUpHosts();
  SetUpAccounts();
  ApplyCommunityHistory();
  ApplyBootstrap();
  util::TimePoint start = loop_.Now();
  ScheduleChaos(start);
  ScheduleExecutions();
  // Grace period so in-flight RPCs at the deadline still resolve.
  loop_.RunUntil(start + config_.duration + util::kMinute);
  return Collect();
}

}  // namespace pisrep::sim
