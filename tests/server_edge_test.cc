// Edge-case coverage for the server stack beyond the happy paths in
// server_test.cc: sessions, throttles through the public API, query caps,
// and vendor/feed corner cases.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "server/reputation_server.h"
#include "storage/database.h"
#include "util/sha1.h"

namespace pisrep::server {
namespace {

using core::SoftwareMeta;
using util::kDay;

SoftwareMeta EdgeMeta(const std::string& tag, const std::string& company) {
  SoftwareMeta meta;
  meta.id = util::Sha1::Hash("edge-" + tag);
  meta.file_name = tag + ".exe";
  meta.file_size = 512;
  meta.company = company;
  meta.version = "2.0";
  return meta;
}

class ServerEdgeTest : public ::testing::Test {
 protected:
  ServerEdgeTest() {
    ReputationServer::Config config;
    Reset(config);
  }

  void Reset(ReputationServer::Config config) {
    config.flood.registration_puzzle_bits = 0;
    config.flood.max_registrations_per_source_per_day = 0;
    server_.reset();
    db_ = storage::Database::Open("").value();
    server_ = std::make_unique<ReputationServer>(db_.get(), &loop_, config);
  }

  std::string MakeUser(const std::string& name, util::TimePoint now = 0) {
    std::string email = name + "@edge.example";
    EXPECT_TRUE(
        server_->Register("src", name, "password", email, "", "", now).ok());
    auto mail = server_->FetchMail(email);
    EXPECT_TRUE(server_->Activate(name, mail->token).ok());
    return *server_->Login(name, "password", now);
  }

  net::EventLoop loop_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<ReputationServer> server_;
};

TEST_F(ServerEdgeTest, LogoutInvalidatesSession) {
  std::string session = MakeUser("alice");
  ASSERT_TRUE(server_->accounts().Authenticate(session).ok());
  server_->accounts().Logout(session);
  EXPECT_EQ(server_->accounts().Authenticate(session).status().code(),
            util::StatusCode::kUnauthenticated);
  // Queries with the dead session fail accordingly.
  EXPECT_EQ(
      server_->QuerySoftware(session, EdgeMeta("x", "V").id).status().code(),
      util::StatusCode::kUnauthenticated);
}

TEST_F(ServerEdgeTest, UsernamesAreTrimmedConsistently) {
  ASSERT_TRUE(
      server_->Register("s", "  bob  ", "password", "b@x.com", "", "", 0)
          .ok());
  auto mail = server_->FetchMail("b@x.com");
  ASSERT_TRUE(mail.ok());
  EXPECT_EQ(mail->username, "bob");
  ASSERT_TRUE(server_->Activate("bob", mail->token).ok());
  // Login works with either spelling.
  EXPECT_TRUE(server_->Login("bob", "password", 0).ok());
  EXPECT_TRUE(server_->Login("  bob ", "password", 0).ok());
  // And the trimmed name is taken.
  EXPECT_EQ(server_->Register("s", "bob ", "password", "b2@x.com", "", "", 0)
                .code(),
            util::StatusCode::kAlreadyExists);
}

TEST_F(ServerEdgeTest, LoginUpdatesLastLoginTimestamp) {
  MakeUser("carol", 100);
  ASSERT_TRUE(server_->Login("carol", "password", 5000).ok());
  auto account = server_->accounts().GetAccountByUsername("carol");
  ASSERT_TRUE(account.ok());
  EXPECT_EQ(account->last_login, 5000);
  EXPECT_EQ(account->joined_at, 100);
}

TEST_F(ServerEdgeTest, CommentListIsCappedAndNewestFirst) {
  ReputationServer::Config config;
  config.max_comments_per_query = 3;
  Reset(config);

  SoftwareMeta meta = EdgeMeta("popular", "V");
  for (int i = 0; i < 6; ++i) {
    std::string session = MakeUser("user" + std::to_string(i));
    ASSERT_TRUE(server_
                    ->SubmitRating(session, meta, 5,
                                   "comment " + std::to_string(i),
                                   core::kNoBehaviors, i * kDay)
                    .ok());
  }
  std::string reader = MakeUser("reader");
  auto info = server_->QuerySoftware(reader, meta.id);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->comments.size(), 3u);
  EXPECT_EQ(info->comments[0].comment, "comment 5");
  EXPECT_EQ(info->comments[1].comment, "comment 4");
  EXPECT_EQ(info->comments[2].comment, "comment 3");
}

TEST_F(ServerEdgeTest, VoteThrottleSurfacesThroughSubmitRating) {
  ReputationServer::Config config;
  config.flood.max_votes_per_user_per_day = 2;
  Reset(config);

  std::string session = MakeUser("dave");
  ASSERT_TRUE(server_
                  ->SubmitRating(session, EdgeMeta("a", "V"), 5, "",
                                 core::kNoBehaviors, 0)
                  .ok());
  ASSERT_TRUE(server_
                  ->SubmitRating(session, EdgeMeta("b", "V"), 5, "",
                                 core::kNoBehaviors, 0)
                  .ok());
  EXPECT_EQ(server_
                ->SubmitRating(session, EdgeMeta("c", "V"), 5, "",
                               core::kNoBehaviors, 0)
                .code(),
            util::StatusCode::kResourceExhausted);
  EXPECT_EQ(server_->stats().votes_rejected_flood, 1u);
  // Next day the budget refreshes.
  EXPECT_TRUE(server_
                  ->SubmitRating(session, EdgeMeta("c", "V"), 5, "",
                                 core::kNoBehaviors, kDay)
                  .ok());
}

TEST_F(ServerEdgeTest, UnknownVendorQueryIsNotFound) {
  std::string session = MakeUser("erin");
  EXPECT_EQ(server_->QueryVendor(session, "NoSuchVendor").status().code(),
            util::StatusCode::kNotFound);
}

TEST_F(ServerEdgeTest, AnonymousSoftwareHasNoVendorScore) {
  std::string session = MakeUser("frank");
  SoftwareMeta meta = EdgeMeta("anon", /*company=*/"");
  ASSERT_TRUE(
      server_->SubmitRating(session, meta, 4, "", core::kNoBehaviors, 0)
          .ok());
  server_->aggregation().RunOnce(kDay);
  auto info = server_->QuerySoftware(session, meta.id);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info->score.has_value());
  // §3.3: no company name → nothing to aggregate a vendor score over.
  EXPECT_FALSE(info->vendor_score.has_value());
}

TEST_F(ServerEdgeTest, VotesByUserAndAllUserIds) {
  std::string session = MakeUser("grace");
  core::UserId id = server_->accounts().GetAccountByUsername("grace")->id;
  ASSERT_TRUE(server_
                  ->SubmitRating(session, EdgeMeta("g1", "V"), 7, "",
                                 core::kNoBehaviors, 0)
                  .ok());
  ASSERT_TRUE(server_
                  ->SubmitRating(session, EdgeMeta("g2", "V"), 3, "",
                                 core::kNoBehaviors, 0)
                  .ok());
  EXPECT_EQ(server_->votes().VotesByUser(id).size(), 2u);
  auto ids = server_->accounts().AllUserIds();
  EXPECT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], id);
}

TEST_F(ServerEdgeTest, FeedNamesAndEntriesEnumerate) {
  std::string org = MakeUser("org");
  ASSERT_TRUE(server_->CreateFeed(org, "lab-a", "a").ok());
  ASSERT_TRUE(server_->CreateFeed(org, "lab-b", "b").ok());
  FeedEntry entry;
  entry.feed = "lab-a";
  entry.software = EdgeMeta("fx", "V").id;
  entry.score = 6.0;
  ASSERT_TRUE(server_->PublishFeedEntry(org, entry).ok());
  entry.software = EdgeMeta("fy", "V").id;
  ASSERT_TRUE(server_->PublishFeedEntry(org, entry).ok());

  EXPECT_EQ(server_->feeds().FeedNames().size(), 2u);
  EXPECT_EQ(server_->feeds().Entries("lab-a").size(), 2u);
  EXPECT_TRUE(server_->feeds().Entries("lab-b").empty());
  // Re-publishing the same software updates rather than duplicates.
  entry.score = 2.0;
  ASSERT_TRUE(server_->PublishFeedEntry(org, entry).ok());
  EXPECT_EQ(server_->feeds().Entries("lab-a").size(), 2u);
}

TEST_F(ServerEdgeTest, QueryFeedWithoutEntryIsNotFound) {
  std::string org = MakeUser("henry");
  ASSERT_TRUE(server_->CreateFeed(org, "lab", "d").ok());
  EXPECT_EQ(server_->QueryFeed(org, "lab", EdgeMeta("zz", "V").id)
                .status()
                .code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(server_->QueryFeed(org, "no-such-feed", EdgeMeta("zz", "V").id)
                .status()
                .code(),
            util::StatusCode::kNotFound);
}

TEST(AccountRecoveryTest, UserIdSequenceResumesAfterRestart) {
  std::string path = testing::TempDir() + "/pisrep_idseq.wal";
  std::remove(path.c_str());
  core::UserId first_id = 0;
  {
    auto db = storage::Database::Open(path).value();
    AccountManager::Config config;
    config.require_activation = false;
    AccountManager accounts(db.get(), config);
    first_id = 0;
    ASSERT_TRUE(accounts.Register("alice", "password", "a@x.com", 0).ok());
    first_id = accounts.GetAccountByUsername("alice")->id;
  }
  {
    auto db = storage::Database::Open(path).value();
    AccountManager::Config config;
    config.require_activation = false;
    AccountManager accounts(db.get(), config);
    ASSERT_TRUE(accounts.Register("bob", "password", "b@x.com", 0).ok());
    core::UserId second_id = accounts.GetAccountByUsername("bob")->id;
    // The id sequence continues past recovered accounts — no collisions.
    EXPECT_GT(second_id, first_id);
    EXPECT_EQ(accounts.AccountCount(), 2u);
  }
  std::remove(path.c_str());
}

TEST_F(ServerEdgeTest, TopScoredUsesOrderedIndexAndSkipsPriors) {
  // Three rated programs plus one bootstrap-only prior.
  struct Entry {
    const char* tag;
    int score;
  };
  for (const Entry& e :
       {Entry{"worst", 1}, Entry{"mid", 5}, Entry{"best", 9}}) {
    std::string session = MakeUser(std::string("rater-") + e.tag);
    ASSERT_TRUE(server_
                    ->SubmitRating(session, EdgeMeta(e.tag, "V"), e.score,
                                   "", core::kNoBehaviors, 0)
                    .ok());
  }
  server::BootstrapRecord prior;
  prior.meta = EdgeMeta("prior-only", "V");
  prior.score = 10.0;
  prior.vote_count = 50;
  ASSERT_TRUE(server_->bootstrap().Import({prior}).ok());
  server_->aggregation().RunOnce(kDay);

  auto best = server_->registry().TopScored(2, /*best=*/true);
  ASSERT_EQ(best.size(), 2u);
  EXPECT_EQ(best[0].software, EdgeMeta("best", "V").id);  // 9, not the 10-prior
  EXPECT_EQ(best[1].software, EdgeMeta("mid", "V").id);

  auto worst = server_->registry().TopScored(1, /*best=*/false);
  ASSERT_EQ(worst.size(), 1u);
  EXPECT_EQ(worst[0].software, EdgeMeta("worst", "V").id);
}

TEST_F(ServerEdgeTest, ScoreWeightTracksTrustAtAggregationTime) {
  // §3.2: the job weighs votes with the *current* trust factor, so a
  // voter's later reputation changes re-weight their old votes.
  std::string session = MakeUser("ivy");
  core::UserId id = server_->accounts().GetAccountByUsername("ivy")->id;
  SoftwareMeta meta = EdgeMeta("w", "V");
  ASSERT_TRUE(server_
                  ->SubmitRating(session, meta, 10, "", core::kNoBehaviors,
                                 0)
                  .ok());
  std::string other = MakeUser("jack");
  ASSERT_TRUE(server_
                  ->SubmitRating(other, meta, 2, "", core::kNoBehaviors, 0)
                  .ok());
  server_->aggregation().RunOnce(kDay);
  double before = server_->registry().GetScore(meta.id)->score;
  EXPECT_NEAR(before, 6.0, 1e-9);

  // Ivy earns trust; her old vote now dominates.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        server_->accounts().ApplyRemark(id, true, 30 * util::kWeek).ok());
  }
  server_->aggregation().RunOnce(30 * util::kWeek);
  double after = server_->registry().GetScore(meta.id)->score;
  EXPECT_NEAR(after, (10.0 * 100 + 2.0) / 101.0, 1e-9);
}

}  // namespace
}  // namespace pisrep::server
