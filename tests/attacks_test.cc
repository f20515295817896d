// Direct unit tests for the attack drivers and the client interceptor seam.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/interceptor.h"
#include "core/rating_aggregator.h"
#include "server/reputation_server.h"
#include "sim/attacks.h"
#include "storage/database.h"
#include "util/sha1.h"

namespace pisrep::sim {
namespace {

core::SoftwareMeta AttackMeta() {
  core::SoftwareMeta meta;
  meta.id = util::Sha1::Hash("attack-test-target");
  meta.file_name = "target.exe";
  meta.file_size = 100;
  meta.company = std::string(1, 'V');
  meta.version = "1.0";
  return meta;
}

struct ServerFixture {
  ServerFixture(int puzzle_bits, int regs_per_source) {
    db = storage::Database::Open("").value();
    server::ReputationServer::Config config;
    config.flood.registration_puzzle_bits = puzzle_bits;
    config.flood.max_registrations_per_source_per_day = regs_per_source;
    config.flood.max_votes_per_user_per_day = 0;
    server = std::make_unique<server::ReputationServer>(db.get(), &loop,
                                                        config);
  }
  net::EventLoop loop;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<server::ReputationServer> server;
};

TEST(AttacksTest, SybilAccountsGoThroughFullOnboarding) {
  ServerFixture fx(/*puzzle_bits=*/4, /*regs_per_source=*/0);
  std::vector<std::string> sessions;
  AttackStats stats =
      Attacks::CreateSybilAccounts(*fx.server, 5, 2, 0, &sessions);
  EXPECT_EQ(stats.accounts_attempted, 5);
  EXPECT_EQ(stats.accounts_created, 5);
  EXPECT_EQ(sessions.size(), 5u);
  EXPECT_GE(stats.puzzle_hashes, 5u);  // real puzzle work happened
  EXPECT_EQ(fx.server->accounts().AccountCount(), 5u);
  // Sessions are live.
  for (const std::string& session : sessions) {
    EXPECT_TRUE(fx.server->accounts().Authenticate(session).ok());
  }
}

TEST(AttacksTest, SourceLimitRejectsExcessRegistrations) {
  ServerFixture fx(0, /*regs_per_source=*/2);
  std::vector<std::string> sessions;
  AttackStats stats =
      Attacks::CreateSybilAccounts(*fx.server, 10, /*num_sources=*/1, 0,
                                   &sessions);
  EXPECT_EQ(stats.accounts_created, 2);
  EXPECT_EQ(stats.accounts_rejected, 8);
}

TEST(AttacksTest, StartIndexAvoidsUsernameCollisions) {
  ServerFixture fx(0, 0);
  std::vector<std::string> sessions;
  AttackStats first =
      Attacks::CreateSybilAccounts(*fx.server, 3, 1, 0, &sessions, 0);
  AttackStats repeat =
      Attacks::CreateSybilAccounts(*fx.server, 3, 1, 0, &sessions, 0);
  AttackStats fresh =
      Attacks::CreateSybilAccounts(*fx.server, 3, 1, 0, &sessions, 3);
  EXPECT_EQ(first.accounts_created, 3);
  EXPECT_EQ(repeat.accounts_created, 0);  // usernames taken
  EXPECT_EQ(fresh.accounts_created, 3);
}

TEST(AttacksTest, FloodVotesRespectsOneVoteRule) {
  ServerFixture fx(0, 0);
  std::vector<std::string> sessions;
  Attacks::CreateSybilAccounts(*fx.server, 4, 4, 0, &sessions);
  AttackStats flood =
      Attacks::FloodVotes(*fx.server, sessions, AttackMeta(), 10, 0);
  EXPECT_EQ(flood.votes_accepted, 4);
  AttackStats again =
      Attacks::FloodVotes(*fx.server, sessions, AttackMeta(), 10, 0);
  EXPECT_EQ(again.votes_accepted, 0);
  EXPECT_EQ(again.votes_rejected, 4);
}

TEST(AttacksTest, CollusionIsBoundedByRemarkRulesAndTrustCap) {
  ServerFixture fx(0, 0);
  std::vector<std::string> sessions;
  Attacks::CreateSybilAccounts(*fx.server, 4, 4, 0, &sessions);
  std::vector<core::UserId> members;
  for (int i = 0; i < 4; ++i) {
    members.push_back(fx.server->accounts()
                          .GetAccountByUsername("sybil_0000" +
                                                std::to_string(i))
                          ->id);
  }
  Attacks::FloodVotes(*fx.server, sessions, AttackMeta(), 10, 0);
  // Day-zero blitz: every ring account is younger than the aggregation
  // window, so no remark carries weight yet (PR 10 young-rater rule).
  AttackStats blitz = Attacks::CollusiveTrustInflation(
      *fx.server, sessions, members, AttackMeta().id, 0);
  EXPECT_EQ(blitz.remarks_accepted, 0);
  EXPECT_EQ(blitz.remarks_rejected, 12);
  // Once the ring has aged through one aggregation window, the classic
  // bounds apply: each pairwise remark lands exactly once.
  const util::TimePoint aged = core::kAggregationPeriod;
  AttackStats ring = Attacks::CollusiveTrustInflation(
      *fx.server, sessions, members, AttackMeta().id, aged);
  EXPECT_EQ(ring.remarks_accepted, 12);  // 4 * 3 pairwise
  // A second blitz is fully rejected (one remark per comment per rater).
  AttackStats again = Attacks::CollusiveTrustInflation(
      *fx.server, sessions, members, AttackMeta().id, aged);
  EXPECT_EQ(again.remarks_accepted, 0);
  EXPECT_EQ(again.remarks_rejected, 12);
  // Week-1 ceiling: nobody exceeds trust 5 no matter the praise.
  for (core::UserId member : members) {
    EXPECT_LE(fx.server->accounts().TrustFactor(member), 5.0);
  }
}

TEST(AttacksTest, PolymorphicVariantsHaveFreshDigests) {
  SoftwareSpec base;
  base.image = client::FileImage("x.exe", "base", "V", "1.0");
  auto v1 = Attacks::PolymorphicVariant(base, 1);
  auto v2 = Attacks::PolymorphicVariant(base, 2);
  EXPECT_NE(v1.Digest(), base.image.Digest());
  EXPECT_NE(v1.Digest(), v2.Digest());
  // Metadata (and thus the vendor) carries over — the §3.3 handle.
  EXPECT_EQ(v1.company(), "V");
  // Deterministic per instance number.
  EXPECT_EQ(v1.Digest(), Attacks::PolymorphicVariant(base, 1).Digest());
}

// --- Interceptor seam -------------------------------------------------------

TEST(InterceptorTest, NoHandlerAllowsEverything) {
  client::ExecutionInterceptor interceptor;
  client::FileImage image("a.exe", "a", "", "");
  std::optional<client::ExecDecision> decision;
  interceptor.OnExecutionRequest(
      image, [&](client::ExecDecision d) { decision = d; });
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, client::ExecDecision::kAllow);
  EXPECT_EQ(interceptor.intercepted(), 1u);
  EXPECT_EQ(interceptor.allowed(), 1u);
}

TEST(InterceptorTest, HandlerDrivesCountersAndDecision) {
  client::ExecutionInterceptor interceptor;
  interceptor.SetHandler(
      [](const client::FileImage& image, client::DecisionCallback done) {
        done(image.file_name() == "bad.exe" ? client::ExecDecision::kDeny
                                            : client::ExecDecision::kAllow);
      });
  std::optional<client::ExecDecision> decision;
  interceptor.OnExecutionRequest(
      client::FileImage("bad.exe", "b", "", ""),
      [&](client::ExecDecision d) { decision = d; });
  EXPECT_EQ(*decision, client::ExecDecision::kDeny);
  interceptor.OnExecutionRequest(client::FileImage("ok.exe", "o", "", ""),
                                 [&](client::ExecDecision d) { decision = d; });
  EXPECT_EQ(*decision, client::ExecDecision::kAllow);
  EXPECT_EQ(interceptor.intercepted(), 2u);
  EXPECT_EQ(interceptor.denied(), 1u);
  EXPECT_EQ(interceptor.allowed(), 1u);
}

}  // namespace
}  // namespace pisrep::sim
