// Tests for the paper's §4.2/§5 extension features: pseudonymous voting,
// the runtime analyzer, and the client's vendor-score fallback.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "client/client_app.h"
#include "server/reputation_server.h"
#include "sim/runtime_analyzer.h"
#include "sim/software_ecosystem.h"
#include "storage/database.h"
#include "util/sha1.h"

namespace pisrep {
namespace {

using core::SoftwareMeta;
using util::kDay;

SoftwareMeta ExtMeta(const std::string& tag, const std::string& company) {
  SoftwareMeta meta;
  meta.id = util::Sha1::Hash("ext-content-" + tag);
  meta.file_name = tag + ".exe";
  meta.file_size = 2000;
  meta.company = company;
  meta.version = "1.0";
  return meta;
}

class PseudonymTest : public ::testing::Test {
 protected:
  PseudonymTest() {
    db_ = storage::Database::Open("").value();
    server::ReputationServer::Config config;
    config.flood.registration_puzzle_bits = 0;
    config.flood.max_registrations_per_source_per_day = 0;
    config.flood.max_votes_per_user_per_day = 0;
    config.pseudonymous_votes = true;
    server_ = std::make_unique<server::ReputationServer>(db_.get(), &loop_,
                                                         config);
  }

  std::string MakeUser(const std::string& name) {
    std::string email = name + "@x.com";
    EXPECT_TRUE(
        server_->Register("s", name, "password", email, "", "", 0).ok());
    auto mail = server_->FetchMail(email);
    EXPECT_TRUE(server_->Activate(name, mail->token).ok());
    return *server_->Login(name, "password", 0);
  }

  net::EventLoop loop_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::ReputationServer> server_;
};

TEST_F(PseudonymTest, RatingsTableHoldsNoAccountIds) {
  std::string session = MakeUser("alice");
  core::UserId alice_id =
      server_->accounts().GetAccountByUsername("alice")->id;
  SoftwareMeta meta = ExtMeta("p1", "Acme");
  ASSERT_TRUE(server_
                  ->SubmitRating(session, meta, 7, "fine tool",
                                 core::kNoBehaviors, 0)
                  .ok());
  auto votes = server_->votes().VotesForSoftware(meta.id);
  ASSERT_EQ(votes.size(), 1u);
  EXPECT_LT(votes[0].record.user, 0);  // pseudonym, not the account id
  EXPECT_NE(votes[0].record.user, alice_id);
  EXPECT_GT(votes[0].trust_snapshot, 0.0);
  // And the account's own vote listing is empty: nothing links back.
  EXPECT_TRUE(server_->votes().VotesByUser(alice_id).empty());
}

TEST_F(PseudonymTest, PseudonymsAreUnlinkableAcrossSoftware) {
  core::UserId user = 42;
  core::UserId p1 = server_->PseudonymFor(user, ExtMeta("a", "X").id);
  core::UserId p2 = server_->PseudonymFor(user, ExtMeta("b", "X").id);
  EXPECT_NE(p1, p2);
  EXPECT_LT(p1, 0);
  EXPECT_LT(p2, 0);
  // Stable per (user, software): the one-vote rule depends on it.
  EXPECT_EQ(p1, server_->PseudonymFor(user, ExtMeta("a", "X").id));
  // Different users map to different pseudonyms for the same software.
  EXPECT_NE(p1, server_->PseudonymFor(user + 1, ExtMeta("a", "X").id));
}

TEST_F(PseudonymTest, OneVoteRuleSurvivesPseudonymization) {
  std::string session = MakeUser("bob");
  SoftwareMeta meta = ExtMeta("p2", "Acme");
  ASSERT_TRUE(
      server_->SubmitRating(session, meta, 8, "", core::kNoBehaviors, 0)
          .ok());
  EXPECT_EQ(server_->SubmitRating(session, meta, 2, "", core::kNoBehaviors, 0)
                .code(),
            util::StatusCode::kAlreadyExists);
}

TEST_F(PseudonymTest, AggregationUsesSnapshottedTrust) {
  std::string expert = MakeUser("expert");
  core::UserId expert_id =
      server_->accounts().GetAccountByUsername("expert")->id;
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(server_->accounts()
                    .ApplyRemark(expert_id, true, 30 * util::kWeek)
                    .ok());
  }
  ASSERT_EQ(server_->accounts().TrustFactor(expert_id), 100.0);

  SoftwareMeta meta = ExtMeta("p3", "Acme");
  ASSERT_TRUE(server_
                  ->SubmitRating(expert, meta, 2, "", core::kNoBehaviors,
                                 30 * util::kWeek)
                  .ok());
  std::string novice = MakeUser("novice");
  ASSERT_TRUE(server_
                  ->SubmitRating(novice, meta, 9, "", core::kNoBehaviors,
                                 30 * util::kWeek)
                  .ok());
  server_->aggregation().RunOnce(31 * util::kWeek);
  auto score = server_->registry().GetScore(meta.id);
  ASSERT_TRUE(score.ok());
  // (2*100 + 9*1) / 101 ≈ 2.07 — the snapshot carried the expert's weight.
  EXPECT_NEAR(score->score, 209.0 / 101.0, 1e-9);
}

TEST_F(PseudonymTest, RemarksOnPseudonymousCommentsAreRejected) {
  std::string author = MakeUser("carol");
  SoftwareMeta meta = ExtMeta("p4", "Acme");
  ASSERT_TRUE(server_
                  ->SubmitRating(author, meta, 5, "some comment",
                                 core::kNoBehaviors, 0)
                  .ok());
  auto votes = server_->votes().VotesForSoftware(meta.id);
  ASSERT_EQ(votes.size(), 1u);
  std::string reader = MakeUser("dave");
  EXPECT_EQ(server_
                ->SubmitRemark(reader, votes[0].record.user, meta.id, true,
                               0)
                .code(),
            util::StatusCode::kFailedPrecondition);
}

// --- Runtime analyzer -------------------------------------------------------

class RuntimeAnalyzerTest : public ::testing::Test {
 protected:
  RuntimeAnalyzerTest() {
    db_ = storage::Database::Open("").value();
    registry_ = std::make_unique<server::SoftwareRegistry>(db_.get());
    feeds_ = std::make_unique<server::FeedStore>(db_.get());
  }

  sim::SoftwareSpec SpywareSpec() {
    sim::SoftwareSpec spec;
    spec.image = client::FileImage("spy.exe", "spy-bytes", "AdCorp", "1.0");
    spec.truth = core::PisCategory::kUnsolicited;
    spec.behaviors =
        static_cast<core::BehaviorSet>(core::Behavior::kPopupAds) |
        static_cast<core::BehaviorSet>(core::Behavior::kTracksUsage);
    return spec;
  }

  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::SoftwareRegistry> registry_;
  std::unique_ptr<server::FeedStore> feeds_;
};

TEST_F(RuntimeAnalyzerTest, PublishesHardEvidenceToRegistryAndFeed) {
  sim::RuntimeAnalyzer::Config config;
  config.sensitivity = 1.0;
  config.false_positive_rate = 0.0;
  config.evidence_weight = 5;
  sim::RuntimeAnalyzer analyzer(config, registry_.get(), feeds_.get());
  ASSERT_TRUE(analyzer.SetUpFeed(/*publisher=*/1).ok());

  sim::SoftwareSpec spec = SpywareSpec();
  auto result = analyzer.Analyze(spec, 1, 100);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->detected, spec.behaviors);
  EXPECT_EQ(result->true_positives, 2);
  EXPECT_EQ(result->false_positives, 0);

  // Registry: evidence weight counts as 5 user reports per behaviour.
  EXPECT_EQ(registry_->BehaviorReportCount(spec.image.Digest(),
                                           core::Behavior::kPopupAds),
            5);
  // Even a conservative surfacing threshold sees the analyzer's finding.
  EXPECT_EQ(registry_->ReportedBehaviors(spec.image.Digest(), 5),
            spec.behaviors);

  // Feed: moderate-consequence behaviours score 4.0.
  auto entry = feeds_->Lookup("runtime-analysis", spec.image.Digest());
  ASSERT_TRUE(entry.ok());
  EXPECT_DOUBLE_EQ(entry->score, 4.0);
  EXPECT_EQ(entry->behaviors, spec.behaviors);
}

TEST_F(RuntimeAnalyzerTest, ReanalysisDoesNotInflateEvidence) {
  sim::RuntimeAnalyzer::Config config;
  config.sensitivity = 1.0;
  config.false_positive_rate = 0.0;
  sim::RuntimeAnalyzer analyzer(config, registry_.get(), feeds_.get());
  ASSERT_TRUE(analyzer.SetUpFeed(1).ok());
  sim::SoftwareSpec spec = SpywareSpec();
  ASSERT_TRUE(analyzer.Analyze(spec, 1, 0).ok());
  std::int64_t count = registry_->BehaviorReportCount(
      spec.image.Digest(), core::Behavior::kPopupAds);
  ASSERT_TRUE(analyzer.Analyze(spec, 1, 1).ok());
  EXPECT_EQ(registry_->BehaviorReportCount(spec.image.Digest(),
                                           core::Behavior::kPopupAds),
            count);
  EXPECT_EQ(analyzer.analyzed_count(), 1u);
}

TEST_F(RuntimeAnalyzerTest, CleanSoftwareScoresWell) {
  sim::RuntimeAnalyzer::Config config;
  config.sensitivity = 1.0;
  config.false_positive_rate = 0.0;
  sim::RuntimeAnalyzer analyzer(config, registry_.get(), feeds_.get());
  ASSERT_TRUE(analyzer.SetUpFeed(1).ok());
  sim::SoftwareSpec clean;
  clean.image = client::FileImage("clean.exe", "clean-bytes", "Acme", "1.0");
  clean.truth = core::PisCategory::kLegitimate;
  clean.behaviors = core::kNoBehaviors;
  auto result = analyzer.Analyze(clean, 1, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->detected, core::kNoBehaviors);
  auto entry = feeds_->Lookup("runtime-analysis", clean.image.Digest());
  ASSERT_TRUE(entry.ok());
  EXPECT_DOUBLE_EQ(entry->score, 8.0);
}

TEST_F(RuntimeAnalyzerTest, ImperfectSensitivityMissesSome) {
  sim::RuntimeAnalyzer::Config config;
  config.sensitivity = 0.0;  // blind sandbox
  config.false_positive_rate = 0.0;
  sim::RuntimeAnalyzer analyzer(config, registry_.get(), feeds_.get());
  ASSERT_TRUE(analyzer.SetUpFeed(1).ok());
  sim::SoftwareSpec spec = SpywareSpec();
  auto result = analyzer.Analyze(spec, 1, 0);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->detected, core::kNoBehaviors);
  EXPECT_EQ(result->missed, 2);
}

// --- Client vendor fallback -----------------------------------------------------

TEST(VendorFallbackTest, UnknownVariantGetsVendorScore) {
  net::EventLoop loop;
  net::NetworkConfig net_config;
  net_config.jitter = 0;
  net::SimNetwork network(&loop, net_config);
  auto db = storage::Database::Open("").value();
  server::ReputationServer::Config server_config;
  server_config.flood.registration_puzzle_bits = 0;
  server_config.flood.max_registrations_per_source_per_day = 0;
  server::ReputationServer server(db.get(), &loop, server_config);
  ASSERT_TRUE(server.AttachRpc(&network, "server").ok());

  // Community rates the vendor's base release badly.
  ASSERT_TRUE(
      server.Register("s", "rater", "password", "r@x.com", "", "", 0).ok());
  auto mail = server.FetchMail("r@x.com");
  ASSERT_TRUE(server.Activate("rater", mail->token).ok());
  std::string session = *server.Login("rater", "password", 0);
  SoftwareMeta base = ExtMeta("base-release", "ShadyVendor");
  ASSERT_TRUE(
      server.SubmitRating(session, base, 2, "", core::kNoBehaviors, 0).ok());
  server.aggregation().RunOnce(kDay);

  // A client with vendor_fallback sees the vendor score for an unknown
  // variant from the same company.
  client::ClientApp::Config config;
  config.address = "client";
  config.server_address = "server";
  config.username = "user";
  config.password = "pw-user";
  config.email = "u@x.com";
  config.vendor_fallback = true;
  client::ClientApp app(&network, &loop, config);
  ASSERT_TRUE(app.Start().ok());

  bool onboarded = false;
  app.Register([&](util::Status status) {
    ASSERT_TRUE(status.ok());
    auto m = server.FetchMail("u@x.com");
    app.Activate(m->token, [&](util::Status) {
      app.Login([&](util::Status) { onboarded = true; });
    });
  });
  loop.RunUntil(loop.Now() + util::kMinute);
  ASSERT_TRUE(onboarded);

  client::FileImage variant("variant.exe", "totally-new-bytes",
                            "ShadyVendor", "1.1");
  std::optional<client::PromptInfo> seen;
  app.SetPromptHandler([&](const client::PromptInfo& info,
                           std::function<void(client::UserDecision)> done) {
    seen = info;
    done(client::UserDecision{false, false});
  });
  app.HandleExecution(variant, [](client::ExecDecision) {});
  loop.RunUntil(loop.Now() + util::kMinute);

  ASSERT_TRUE(seen.has_value());
  EXPECT_FALSE(seen->known);  // the digest is new
  ASSERT_TRUE(seen->vendor_score.has_value());  // ...but the vendor is not
  EXPECT_NEAR(seen->vendor_score->score, 2.0, 1e-6);
}

// --- Feed subscription end-to-end -------------------------------------------

TEST(FeedSubscriptionTest, AnalyzerVerdictDrivesSubscribedClientPolicy) {
  net::EventLoop loop;
  net::NetworkConfig net_config;
  net_config.jitter = 0;
  net::SimNetwork network(&loop, net_config);
  auto db = storage::Database::Open("").value();
  server::ReputationServer::Config server_config;
  server_config.flood.registration_puzzle_bits = 0;
  server_config.flood.max_registrations_per_source_per_day = 0;
  server::ReputationServer server(db.get(), &loop, server_config);
  ASSERT_TRUE(server.AttachRpc(&network, "server").ok());

  // The security lab runs the §5 runtime analyzer and publishes hard
  // evidence into its feed.
  sim::RuntimeAnalyzer::Config analyzer_config;
  analyzer_config.sensitivity = 1.0;
  analyzer_config.false_positive_rate = 0.0;
  analyzer_config.feed_name = "security-lab";
  sim::RuntimeAnalyzer analyzer(analyzer_config, &server.registry(),
                                &server.feeds());
  ASSERT_TRUE(analyzer.SetUpFeed(/*publisher=*/9001).ok());

  sim::SoftwareSpec spyware;
  spyware.image =
      client::FileImage("dialer.exe", "dialer-bytes", "ShadyCo", "1.0");
  spyware.truth = core::PisCategory::kParasite;
  spyware.behaviors =
      static_cast<core::BehaviorSet>(core::Behavior::kDialsPremium);
  ASSERT_TRUE(analyzer.Analyze(spyware, 9001, 0).ok());

  // A client subscribes to the lab's feed (§4.2) with a policy that denies
  // anything the lab scored 4 or below — no community votes needed.
  client::ClientApp::Config config;
  config.address = "client";
  config.server_address = "server";
  config.username = "sub";
  config.password = "pw-sub1";
  config.email = "sub@x.com";
  config.subscribed_feed = "security-lab";
  config.policy_rules = "deny if feed-rating <= 4\ndefault ask";
  config.fallback_decision = client::ExecDecision::kAllow;

  client::ClientApp app(&network, &loop, config);
  ASSERT_TRUE(app.Start().ok());
  bool onboarded = false;
  app.Register([&](util::Status status) {
    ASSERT_TRUE(status.ok());
    auto mail = server.FetchMail("sub@x.com");
    app.Activate(mail->token, [&](util::Status) {
      app.Login([&](util::Status) { onboarded = true; });
    });
  });
  loop.RunUntil(loop.Now() + util::kMinute);
  ASSERT_TRUE(onboarded);

  std::optional<client::ExecDecision> decision;
  app.HandleExecution(spyware.image,
                      [&](client::ExecDecision d) { decision = d; });
  loop.RunUntil(loop.Now() + util::kMinute);
  ASSERT_TRUE(decision.has_value());
  // Zero community votes, yet the execution is denied on the lab's verdict.
  EXPECT_EQ(*decision, client::ExecDecision::kDeny);
  EXPECT_EQ(app.stats().policy_denied, 1u);

  // A clean program from the same run sails through to the fallback.
  client::FileImage clean("notepad.exe", "clean-bytes", "Honest Co", "1.0");
  decision.reset();
  app.HandleExecution(clean, [&](client::ExecDecision d) { decision = d; });
  loop.RunUntil(loop.Now() + util::kMinute);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, client::ExecDecision::kAllow);
}

TEST(FeedSubscriptionTest, FeedLookupsAreCachedIncludingAbsence) {
  net::EventLoop loop;
  net::NetworkConfig net_config;
  net_config.jitter = 0;
  net::SimNetwork network(&loop, net_config);
  auto db = storage::Database::Open("").value();
  server::ReputationServer::Config server_config;
  server_config.flood.registration_puzzle_bits = 0;
  server_config.flood.max_registrations_per_source_per_day = 0;
  server::ReputationServer server(db.get(), &loop, server_config);
  ASSERT_TRUE(server.AttachRpc(&network, "server").ok());
  ASSERT_TRUE(server.feeds().CreateFeed("lab", 1, "d").ok());

  client::ClientApp::Config config;
  config.address = "client";
  config.server_address = "server";
  config.username = "u";
  config.password = "pw-u123";
  config.email = "u@x.com";
  config.subscribed_feed = "lab";
  client::ClientApp app(&network, &loop, config);
  ASSERT_TRUE(app.Start().ok());
  bool onboarded = false;
  app.Register([&](util::Status status) {
    ASSERT_TRUE(status.ok());
    auto mail = server.FetchMail("u@x.com");
    app.Activate(mail->token, [&](util::Status) {
      app.Login([&](util::Status) { onboarded = true; });
    });
  });
  loop.RunUntil(loop.Now() + util::kMinute);
  ASSERT_TRUE(onboarded);

  app.SetPromptHandler([](const client::PromptInfo&,
                          std::function<void(client::UserDecision)> done) {
    done(client::UserDecision{true, /*remember=*/false});
  });
  client::FileImage image("app.exe", "app-bytes", "V", "1.0");
  for (int i = 0; i < 3; ++i) {
    app.HandleExecution(image, [](client::ExecDecision) {});
    loop.RunUntil(loop.Now() + util::kMinute);
  }
  // One QuerySoftware + one QueryFeed; the repeats hit both caches.
  EXPECT_EQ(app.stats().server_queries, 1u);
  EXPECT_EQ(app.stats().cache_hits, 2u);
}

// --- Client-local persistence (§3.1 lists) --------------------------------------

TEST(ClientPersistenceTest, SafetyListsSurviveClientRestart) {
  net::EventLoop loop;
  net::SimNetwork network(&loop, net::NetworkConfig{});
  auto client_db = storage::Database::Open("").value();

  client::FileImage bad("bad.exe", "bad-bytes", "", "1.0");
  client::FileImage good("good.exe", "good-bytes", "Acme", "1.0");

  client::ClientApp::Config config;
  config.address = "pc";
  config.server_address = "server";
  config.username = "u";
  config.password = "pw-u123";
  config.email = "u@x.com";
  config.local_db = client_db.get();
  {
    client::ClientApp app(&network, &loop, config);
    ASSERT_TRUE(app.Start().ok());
    ASSERT_TRUE(app.lists().AddToBlacklist(bad.Digest()).ok());
    ASSERT_TRUE(app.lists().AddToWhitelist(good.Digest()).ok());
  }
  network.Unbind("pc");  // the old client process is gone

  // A fresh client over the same local database: decisions remembered, no
  // prompts, no server needed.
  client::ClientApp app(&network, &loop, config);
  ASSERT_TRUE(app.Start().ok());
  std::optional<client::ExecDecision> decision;
  app.HandleExecution(bad, [&](client::ExecDecision d) { decision = d; });
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, client::ExecDecision::kDeny);
  decision.reset();
  app.HandleExecution(good, [&](client::ExecDecision d) { decision = d; });
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, client::ExecDecision::kAllow);
  EXPECT_EQ(app.stats().prompts_shown, 0u);
}

// --- Run statistics (§3.1) ----------------------------------------------------

TEST(RunStatsTest, ServerAccumulatesAnonymousRunCounts) {
  net::EventLoop loop;
  auto db = storage::Database::Open("").value();
  server::ReputationServer::Config config;
  config.flood.registration_puzzle_bits = 0;
  config.flood.max_registrations_per_source_per_day = 0;
  server::ReputationServer server(db.get(), &loop, config);
  ASSERT_TRUE(
      server.Register("s", "runner", "password", "r@x.com", "", "", 0).ok());
  auto mail = server.FetchMail("r@x.com");
  ASSERT_TRUE(server.Activate("runner", mail->token).ok());
  std::string session = *server.Login("runner", "password", 0);

  core::SoftwareId id = util::Sha1::Hash("run-stats-app");
  EXPECT_EQ(server.registry().RunCount(id), 0);
  ASSERT_TRUE(server.ReportExecutions(session, id, 5).ok());
  ASSERT_TRUE(server.ReportExecutions(session, id, 3).ok());
  EXPECT_EQ(server.registry().RunCount(id), 8);
  // Validation: non-positive counts and dead sessions are rejected.
  EXPECT_FALSE(server.ReportExecutions(session, id, 0).ok());
  EXPECT_EQ(server.ReportExecutions("bogus", id, 1).code(),
            util::StatusCode::kUnauthenticated);
}

TEST(RunStatsTest, ClientBatchesRunReportsAndPromptShowsTotals) {
  net::EventLoop loop;
  net::NetworkConfig net_config;
  net_config.jitter = 0;
  net::SimNetwork network(&loop, net_config);
  auto db = storage::Database::Open("").value();
  server::ReputationServer::Config server_config;
  server_config.flood.registration_puzzle_bits = 0;
  server_config.flood.max_registrations_per_source_per_day = 0;
  server::ReputationServer server(db.get(), &loop, server_config);
  ASSERT_TRUE(server.AttachRpc(&network, "server").ok());

  client::ClientApp::Config config;
  config.address = "client";
  config.server_address = "server";
  config.username = "u";
  config.password = "pw-u123";
  config.email = "u@x.com";
  config.run_report_batch = 3;
  client::ClientApp app(&network, &loop, config);
  ASSERT_TRUE(app.Start().ok());
  bool onboarded = false;
  app.Register([&](util::Status status) {
    ASSERT_TRUE(status.ok());
    auto mail = server.FetchMail("u@x.com");
    app.Activate(mail->token, [&](util::Status) {
      app.Login([&](util::Status) { onboarded = true; });
    });
  });
  loop.RunUntil(loop.Now() + util::kMinute);
  ASSERT_TRUE(onboarded);

  client::FileImage image("runner.exe", "runner-bytes", "V", "1.0");
  ASSERT_TRUE(app.lists().AddToWhitelist(image.Digest()).ok());

  // Two allowed runs: below the batch of 3, nothing reported yet.
  for (int i = 0; i < 2; ++i) {
    app.HandleExecution(image, [](client::ExecDecision) {});
    loop.RunUntil(loop.Now() + util::kMinute);
  }
  EXPECT_EQ(server.registry().RunCount(image.Digest()), 0);
  // Third run flushes the batch.
  app.HandleExecution(image, [](client::ExecDecision) {});
  loop.RunUntil(loop.Now() + util::kMinute);
  EXPECT_EQ(server.registry().RunCount(image.Digest()), 3);

  // A second user's prompt includes the community run count.
  client::ClientApp::Config config2 = config;
  config2.address = "client2";
  config2.username = "u2";
  config2.email = "u2@x.com";
  client::ClientApp app2(&network, &loop, config2);
  ASSERT_TRUE(app2.Start().ok());
  bool onboarded2 = false;
  app2.Register([&](util::Status status) {
    ASSERT_TRUE(status.ok());
    auto mail = server.FetchMail("u2@x.com");
    app2.Activate(mail->token, [&](util::Status) {
      app2.Login([&](util::Status) { onboarded2 = true; });
    });
  });
  loop.RunUntil(loop.Now() + util::kMinute);
  ASSERT_TRUE(onboarded2);
  std::optional<client::PromptInfo> seen;
  app2.SetPromptHandler([&](const client::PromptInfo& info,
                            std::function<void(client::UserDecision)> done) {
    seen = info;
    done(client::UserDecision{false, false});
  });
  app2.HandleExecution(image, [](client::ExecDecision) {});
  loop.RunUntil(loop.Now() + util::kMinute);
  ASSERT_TRUE(seen.has_value());
  EXPECT_EQ(seen->run_count, 3);
}

}  // namespace
}  // namespace pisrep
