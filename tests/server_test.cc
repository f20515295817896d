#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "proto/wire.h"
#include "server/reputation_server.h"
#include "server/score_snapshot.h"
#include "sim/attacks.h"
#include "storage/database.h"
#include "util/parallel_for.h"
#include "util/sha1.h"
#include "xml/xml_writer.h"

namespace pisrep::server {
namespace {

using core::SoftwareId;
using core::SoftwareMeta;
using util::kDay;
using util::kWeek;

SoftwareMeta TestMeta(const std::string& tag, const std::string& company) {
  SoftwareMeta meta;
  meta.id = util::Sha1::Hash("content-" + tag);
  meta.file_name = tag + ".exe";
  meta.file_size = 1000 + static_cast<std::int64_t>(tag.size());
  meta.company = company;
  meta.version = "1.0";
  return meta;
}

std::string Render(const SoftwareInfo& info) {
  return xml::WriteXml(proto::SoftwareInfoToXml(info));
}

/// What the live stores render for `id` under the server's own settings:
/// the oracle every snapshot answer must match byte for byte.
std::string LiveRender(ReputationServer& server, const SoftwareId& id) {
  SnapshotBuildOptions options;
  options.max_comments_per_query = server.config().max_comments_per_query;
  options.behavior_report_threshold =
      server.config().behavior_report_threshold;
  return Render(
      MaterializeTitle(server.registry(), server.votes(), options, id));
}

/// Fixture with a server on an in-memory database, no puzzles (tested
/// separately), and no activation friction unless a test opts in.
class ServerTest : public ::testing::Test {
 protected:
  ServerTest() { Reset(DefaultConfig()); }

  static ReputationServer::Config DefaultConfig() {
    ReputationServer::Config config;
    config.flood.registration_puzzle_bits = 0;
    config.flood.max_registrations_per_source_per_day = 0;
    config.flood.max_votes_per_user_per_day = 0;
    return config;
  }

  void Reset(ReputationServer::Config config) {
    server_.reset();
    db_ = storage::Database::Open("").value();
    server_ = std::make_unique<ReputationServer>(db_.get(), &loop_, config);
  }

  /// Registers, activates and logs a user in; returns the session.
  std::string MakeUser(const std::string& name, util::TimePoint now = 0) {
    std::string email = name + "@test.example";
    EXPECT_TRUE(server_
                    ->Register("src-" + name, name, "password", email, "",
                               "", now)
                    .ok());
    auto mail = server_->FetchMail(email);
    EXPECT_TRUE(mail.ok());
    EXPECT_TRUE(server_->Activate(name, mail->token).ok());
    auto session = server_->Login(name, "password", now);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    return *session;
  }

  net::EventLoop loop_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<ReputationServer> server_;
};

// --- Accounts --------------------------------------------------------------

TEST_F(ServerTest, RegistrationActivationLoginFlow) {
  ASSERT_TRUE(server_
                  ->Register("src", "alice", "secret99", "a@example.com", "",
                             "", 0)
                  .ok());
  // Cannot log in before activation.
  EXPECT_EQ(server_->Login("alice", "secret99", 0).status().code(),
            util::StatusCode::kFailedPrecondition);

  auto mail = server_->FetchMail("a@example.com");
  ASSERT_TRUE(mail.ok());
  EXPECT_EQ(mail->username, "alice");
  ASSERT_TRUE(server_->Activate("alice", mail->token).ok());

  auto session = server_->Login("alice", "secret99", 5);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(*server_->accounts().Authenticate(*session), 1);

  // Mail is consumed.
  EXPECT_FALSE(server_->FetchMail("a@example.com").ok());
}

TEST_F(ServerTest, BadActivationTokenRejected) {
  ASSERT_TRUE(
      server_->Register("src", "bob", "pass1234", "b@x.com", "", "", 0).ok());
  EXPECT_EQ(server_->Activate("bob", "wrong-token").code(),
            util::StatusCode::kPermissionDenied);
  EXPECT_FALSE(server_->Activate("ghost", "token").ok());
}

TEST_F(ServerTest, DuplicateUsernameRejected) {
  ASSERT_TRUE(
      server_->Register("s", "carol", "pw123", "c1@x.com", "", "", 0).ok());
  auto dup = server_->Register("s", "carol", "pw456", "c2@x.com", "", "", 0);
  EXPECT_EQ(dup.code(), util::StatusCode::kAlreadyExists);
}

TEST_F(ServerTest, OneAccountPerEmail) {
  // §3.2: "it is possible to sign up only once per e-mail address" — and
  // matching is case/whitespace-insensitive on the peppered hash.
  ASSERT_TRUE(
      server_->Register("s", "dave", "pw123", "d@x.com", "", "", 0).ok());
  auto dup = server_->Register("s", "dave2", "pw123", "  D@X.COM ", "", "", 0);
  EXPECT_EQ(dup.code(), util::StatusCode::kAlreadyExists);
}

TEST_F(ServerTest, EmailIsStoredOnlyAsPepperedHash) {
  MakeUser("eve");
  auto account = server_->accounts().GetAccountByUsername("eve");
  ASSERT_TRUE(account.ok());
  // No plaintext anywhere in the stored fields.
  EXPECT_EQ(account->email_hash.find("eve@test.example"), std::string::npos);
  EXPECT_EQ(account->email_hash.size(), 64u);  // hex SHA-256
  EXPECT_EQ(account->email_hash,
            server_->accounts().HashEmail("EVE@test.example"));
  // Different pepper → different hash (the pepper matters).
  AccountManager::Config other;
  other.email_pepper = "other-pepper";
  auto db2 = storage::Database::Open("").value();
  AccountManager other_mgr(db2.get(), other);
  EXPECT_NE(other_mgr.HashEmail("eve@test.example"), account->email_hash);
}

TEST_F(ServerTest, PasswordsAreSaltedHashes) {
  MakeUser("frank");
  MakeUser("grace");
  auto f = server_->accounts().GetAccountByUsername("frank");
  auto g = server_->accounts().GetAccountByUsername("grace");
  ASSERT_TRUE(f.ok() && g.ok());
  // Same password, different salts → different hashes.
  EXPECT_NE(f->password_hash, g->password_hash);
  EXPECT_NE(f->password_salt, g->password_salt);
  EXPECT_EQ(f->password_hash.find("password"), std::string::npos);
}

TEST_F(ServerTest, WrongPasswordIsUniformUnauthenticated) {
  MakeUser("henry");
  EXPECT_EQ(server_->Login("henry", "wrong", 0).status().code(),
            util::StatusCode::kUnauthenticated);
  EXPECT_EQ(server_->Login("no-such-user", "pw", 0).status().code(),
            util::StatusCode::kUnauthenticated);
}

TEST_F(ServerTest, RegistrationValidatesInput) {
  EXPECT_FALSE(server_->Register("s", "", "pw123", "a@x.com", "", "", 0).ok());
  EXPECT_FALSE(
      server_->Register("s", "user", "pw", "a@x.com", "", "", 0).ok());
  EXPECT_FALSE(
      server_->Register("s", "user", "pw123", "not-an-email", "", "", 0).ok());
}

// --- Votes ----------------------------------------------------------------

TEST_F(ServerTest, OneVotePerUserPerSoftware) {
  std::string session = MakeUser("ivy");
  SoftwareMeta meta = TestMeta("app1", "Acme");
  ASSERT_TRUE(
      server_->SubmitRating(session, meta, 8, "nice", core::kNoBehaviors, 0)
          .ok());
  // §2.1: "each user only votes for a software program exactly once."
  auto again =
      server_->SubmitRating(session, meta, 3, "changed my mind",
                            core::kNoBehaviors, 0);
  EXPECT_EQ(again.code(), util::StatusCode::kAlreadyExists);
  EXPECT_EQ(server_->stats().votes_rejected_duplicate, 1u);
}

TEST_F(ServerTest, RatingMustBeOneToTen) {
  std::string session = MakeUser("jack");
  SoftwareMeta meta = TestMeta("app2", "Acme");
  EXPECT_FALSE(
      server_->SubmitRating(session, meta, 0, "", core::kNoBehaviors, 0)
          .ok());
  EXPECT_FALSE(
      server_->SubmitRating(session, meta, 11, "", core::kNoBehaviors, 0)
          .ok());
  EXPECT_TRUE(
      server_->SubmitRating(session, meta, 10, "", core::kNoBehaviors, 0)
          .ok());
}

TEST_F(ServerTest, VoteRequiresValidSession) {
  SoftwareMeta meta = TestMeta("app3", "Acme");
  EXPECT_EQ(server_
                ->SubmitRating("bogus-session", meta, 5, "",
                               core::kNoBehaviors, 0)
                .code(),
            util::StatusCode::kUnauthenticated);
}

TEST_F(ServerTest, QueryReturnsAggregatedScoreAndComments) {
  std::string s1 = MakeUser("kate");
  std::string s2 = MakeUser("liam");
  SoftwareMeta meta = TestMeta("app4", "Acme");
  ASSERT_TRUE(server_
                  ->SubmitRating(s1, meta, 8, "solid tool",
                                 core::kNoBehaviors, 0)
                  .ok());
  ASSERT_TRUE(server_
                  ->SubmitRating(s2, meta, 6, "",
                                 static_cast<core::BehaviorSet>(
                                     core::Behavior::kShowsAds),
                                 0)
                  .ok());
  server_->aggregation().RunOnce(kDay);

  auto info = server_->QuerySoftware(s1, meta.id);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->known);
  ASSERT_TRUE(info->score.has_value());
  EXPECT_EQ(info->score->vote_count, 2);
  EXPECT_NEAR(info->score->score, 7.0, 1e-9);  // equal trust (both new)
  ASSERT_EQ(info->comments.size(), 1u);        // empty comments filtered
  EXPECT_EQ(info->comments[0].comment, "solid tool");
  // One behaviour report is below the default threshold of 2.
  EXPECT_EQ(info->reported_behaviors, core::kNoBehaviors);
}

TEST_F(ServerTest, BehaviorReportsSurfaceAtThreshold) {
  std::string s1 = MakeUser("mona");
  std::string s2 = MakeUser("nick");
  SoftwareMeta meta = TestMeta("app5", "AdCorp");
  core::BehaviorSet ads =
      static_cast<core::BehaviorSet>(core::Behavior::kPopupAds);
  ASSERT_TRUE(server_->SubmitRating(s1, meta, 4, "", ads, 0).ok());
  ASSERT_TRUE(server_->SubmitRating(s2, meta, 3, "", ads, 0).ok());

  auto info = server_->QuerySoftware(s1, meta.id);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(core::HasBehavior(info->reported_behaviors,
                                core::Behavior::kPopupAds));
  EXPECT_EQ(
      server_->registry().BehaviorReportCount(meta.id,
                                              core::Behavior::kPopupAds),
      2);
}

TEST_F(ServerTest, UnknownSoftwareQueryIsNotAnError) {
  std::string session = MakeUser("olga");
  auto info = server_->QuerySoftware(session, util::Sha1::Hash("mystery"));
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->known);
  EXPECT_FALSE(info->score.has_value());
}

TEST_F(ServerTest, ConflictingMetadataForSameDigestRejected) {
  std::string session = MakeUser("pete");
  SoftwareMeta meta = TestMeta("app6", "Acme");
  ASSERT_TRUE(
      server_->SubmitRating(session, meta, 7, "", core::kNoBehaviors, 0)
          .ok());
  SoftwareMeta conflicting = meta;
  conflicting.company = "Somebody Else";
  std::string other = MakeUser("quinn");
  EXPECT_EQ(server_
                ->SubmitRating(other, conflicting, 7, "",
                               core::kNoBehaviors, 0)
                .code(),
            util::StatusCode::kAlreadyExists);
}

// --- Trust + aggregation -----------------------------------------------------

TEST_F(ServerTest, TrustWeightedAggregationFavorsTrustedUsers) {
  std::string expert = MakeUser("expert");
  core::UserId expert_id =
      server_->accounts().GetAccountByUsername("expert")->id;
  // Manually raise the expert's trust (as months of good remarks would).
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(
        server_->accounts().ApplyRemark(expert_id, true, 30 * kWeek).ok());
  }
  EXPECT_EQ(server_->accounts().TrustFactor(expert_id), 100.0);

  SoftwareMeta meta = TestMeta("bundle", "AdCorp");
  ASSERT_TRUE(server_
                  ->SubmitRating(expert, meta, 2, "helpful: bundles spyware",
                                 core::kNoBehaviors, 30 * kWeek)
                  .ok());
  for (int i = 0; i < 5; ++i) {
    std::string novice = MakeUser("novice" + std::to_string(i));
    ASSERT_TRUE(server_
                    ->SubmitRating(novice, meta, 9, "great free program",
                                   core::kNoBehaviors, 30 * kWeek)
                    .ok());
  }
  server_->aggregation().RunOnce(30 * kWeek + kDay);

  auto score = server_->registry().GetScore(meta.id);
  ASSERT_TRUE(score.ok());
  // (2*100 + 9*5) / 105 ≈ 2.33 — the expert's weight dominates.
  EXPECT_NEAR(score->score, 245.0 / 105.0, 1e-9);
  EXPECT_EQ(score->vote_count, 6);
}

TEST_F(ServerTest, RemarksAdjustAuthorTrust) {
  std::string author = MakeUser("author");
  core::UserId author_id =
      server_->accounts().GetAccountByUsername("author")->id;
  SoftwareMeta meta = TestMeta("app7", "Acme");
  ASSERT_TRUE(server_
                  ->SubmitRating(author, meta, 7, "useful insight",
                                 core::kNoBehaviors, 0)
                  .ok());

  // Remarks land after the raters' first aggregation window: a younger
  // account's trust factor has never been aggregated and is rejected.
  std::string reader = MakeUser("reader");
  ASSERT_TRUE(
      server_->SubmitRemark(reader, author_id, meta.id, true, kWeek).ok());
  EXPECT_EQ(server_->accounts().TrustFactor(author_id), 2.0);

  // Same reader cannot remark twice on the same comment.
  EXPECT_EQ(
      server_->SubmitRemark(reader, author_id, meta.id, true, kWeek).code(),
      util::StatusCode::kAlreadyExists);

  std::string critic = MakeUser("critic");
  ASSERT_TRUE(
      server_->SubmitRemark(critic, author_id, meta.id, false, kWeek).ok());
  EXPECT_EQ(server_->accounts().TrustFactor(author_id), 1.0);  // clamped
  EXPECT_EQ(server_->votes().RemarkBalance(author_id, meta.id), 0);
}

TEST_F(ServerTest, CannotRemarkOwnCommentOrMissingComment) {
  std::string author = MakeUser("rita");
  core::UserId author_id =
      server_->accounts().GetAccountByUsername("rita")->id;
  SoftwareMeta meta = TestMeta("app8", "Acme");
  ASSERT_TRUE(server_
                  ->SubmitRating(author, meta, 7, "x", core::kNoBehaviors, 0)
                  .ok());
  EXPECT_EQ(
      server_->SubmitRemark(author, author_id, meta.id, true, kWeek).code(),
      util::StatusCode::kInvalidArgument);

  std::string other = MakeUser("sam");
  EXPECT_EQ(server_
                ->SubmitRemark(other, author_id,
                               util::Sha1::Hash("never-rated"), true, kWeek)
                .code(),
            util::StatusCode::kNotFound);
}

TEST_F(ServerTest, VendorScoreIsMeanOfItsSoftware) {
  std::string s = MakeUser("tess");
  SoftwareMeta app_a = TestMeta("va", "MegaSoft");
  SoftwareMeta app_b = TestMeta("vb", "MegaSoft");
  ASSERT_TRUE(
      server_->SubmitRating(s, app_a, 9, "", core::kNoBehaviors, 0).ok());
  std::string s2 = MakeUser("uma");
  ASSERT_TRUE(
      server_->SubmitRating(s2, app_b, 5, "", core::kNoBehaviors, 0).ok());
  server_->aggregation().RunOnce(kDay);

  auto vendor = server_->QueryVendor(s, "MegaSoft");
  ASSERT_TRUE(vendor.ok());
  EXPECT_EQ(vendor->software_count, 2);
  EXPECT_NEAR(vendor->score, 7.0, 1e-9);
}

TEST_F(ServerTest, AggregationJobRunsDailyOnTheLoop) {
  std::string s = MakeUser("vera");
  SoftwareMeta meta = TestMeta("daily", "Acme");
  ASSERT_TRUE(
      server_->SubmitRating(s, meta, 8, "", core::kNoBehaviors, 0).ok());
  EXPECT_FALSE(server_->registry().GetScore(meta.id).ok());
  loop_.RunUntil(kDay);  // first scheduled run
  auto score = server_->registry().GetScore(meta.id);
  ASSERT_TRUE(score.ok());
  EXPECT_EQ(score->vote_count, 1);
  EXPECT_EQ(server_->aggregation().runs(), 1u);
  loop_.RunUntil(3 * kDay);
  EXPECT_EQ(server_->aggregation().runs(), 3u);
}

// --- Flood guard / puzzles ---------------------------------------------------

TEST(FloodGuardTest, PuzzleSolutionsVerifyAndAreSingleUse) {
  FloodGuard::Config config;
  config.registration_puzzle_bits = 8;
  FloodGuard guard(config);
  Puzzle puzzle = guard.IssuePuzzle();
  std::uint64_t attempts = 0;
  std::string solution = FloodGuard::SolvePuzzle(puzzle, &attempts);
  EXPECT_GE(attempts, 1u);
  EXPECT_TRUE(
      FloodGuard::SolutionValid(puzzle.nonce, solution, 8));
  EXPECT_TRUE(guard.CheckPuzzle(puzzle.nonce, solution).ok());
  // Nonce redeemed: second use fails.
  EXPECT_FALSE(guard.CheckPuzzle(puzzle.nonce, solution).ok());
}

TEST(FloodGuardTest, WrongSolutionRejected) {
  FloodGuard::Config config;
  config.registration_puzzle_bits = 8;
  FloodGuard guard(config);
  Puzzle puzzle = guard.IssuePuzzle();
  EXPECT_FALSE(guard.CheckPuzzle(puzzle.nonce, "not-a-solution").ok());
}

TEST(FloodGuardTest, HigherDifficultyCostsMoreHashes) {
  FloodGuard::Config easy_config;
  easy_config.registration_puzzle_bits = 4;
  FloodGuard easy(easy_config);
  FloodGuard::Config hard_config;
  hard_config.registration_puzzle_bits = 14;
  FloodGuard hard(hard_config);

  std::uint64_t easy_total = 0, hard_total = 0;
  for (int i = 0; i < 5; ++i) {
    std::uint64_t attempts = 0;
    FloodGuard::SolvePuzzle(easy.IssuePuzzle(), &attempts);
    easy_total += attempts;
    FloodGuard::SolvePuzzle(hard.IssuePuzzle(), &attempts);
    hard_total += attempts;
  }
  EXPECT_GT(hard_total, easy_total * 10);
}

TEST(FloodGuardTest, RegistrationLimitPerSourcePerDay) {
  FloodGuard::Config config;
  config.max_registrations_per_source_per_day = 2;
  FloodGuard guard(config);
  EXPECT_TRUE(guard.CheckRegistrationAllowed("src", 0).ok());
  guard.RecordRegistration("src", 0);
  guard.RecordRegistration("src", 0);
  EXPECT_EQ(guard.CheckRegistrationAllowed("src", 0).code(),
            util::StatusCode::kResourceExhausted);
  // Other sources are unaffected; the next day resets.
  EXPECT_TRUE(guard.CheckRegistrationAllowed("other", 0).ok());
  EXPECT_TRUE(guard.CheckRegistrationAllowed("src", kDay).ok());
}

TEST(FloodGuardTest, VoteLimitPerUserPerDay) {
  FloodGuard::Config config;
  config.max_votes_per_user_per_day = 3;
  FloodGuard guard(config);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(guard.CheckVoteAllowed(1, 0).ok());
    guard.RecordVote(1, 0);
  }
  EXPECT_FALSE(guard.CheckVoteAllowed(1, 0).ok());
  EXPECT_TRUE(guard.CheckVoteAllowed(2, 0).ok());
  EXPECT_TRUE(guard.CheckVoteAllowed(1, kDay).ok());
}

TEST_F(ServerTest, RegistrationRequiresPuzzleWhenEnabled) {
  ReputationServer::Config config = DefaultConfig();
  config.flood.registration_puzzle_bits = 8;
  Reset(config);

  // No puzzle → rejected.
  EXPECT_EQ(server_
                ->Register("s", "w1", "pw123", "w1@x.com", "", "", 0)
                .code(),
            util::StatusCode::kPermissionDenied);

  Puzzle puzzle = server_->RequestPuzzle();
  std::string solution = FloodGuard::SolvePuzzle(puzzle);
  EXPECT_TRUE(server_
                  ->Register("s", "w1", "pw123", "w1@x.com", puzzle.nonce,
                             solution, 0)
                  .ok());
  EXPECT_EQ(server_->stats().registrations_rejected, 1u);
}

// --- Moderation ---------------------------------------------------------------

TEST_F(ServerTest, ModerationGatesCommentVisibility) {
  ReputationServer::Config config = DefaultConfig();
  config.moderation_enabled = true;
  Reset(config);

  std::string author = MakeUser("xena");
  std::string reader = MakeUser("yuri");
  SoftwareMeta meta = TestMeta("modapp", "Acme");
  ASSERT_TRUE(server_
                  ->SubmitRating(author, meta, 6, "needs review",
                                 core::kNoBehaviors, 0)
                  .ok());
  // The vote counts for scoring immediately; the comment is hidden.
  auto info = server_->QuerySoftware(reader, meta.id);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->comments.empty());
  EXPECT_EQ(server_->moderation().PendingCount(), 1u);

  ASSERT_TRUE(server_->moderation().ApproveNext().ok());
  info = server_->QuerySoftware(reader, meta.id);
  ASSERT_EQ(info->comments.size(), 1u);
  EXPECT_EQ(info->comments[0].comment, "needs review");
}

TEST_F(ServerTest, ModerationRejectKeepsCommentHidden) {
  ReputationServer::Config config = DefaultConfig();
  config.moderation_enabled = true;
  Reset(config);

  std::string author = MakeUser("zara");
  SoftwareMeta meta = TestMeta("modapp2", "Acme");
  ASSERT_TRUE(server_
                  ->SubmitRating(author, meta, 2, "spam spam spam",
                                 core::kNoBehaviors, 0)
                  .ok());
  ASSERT_TRUE(server_->moderation().RejectNext().ok());
  auto info = server_->QuerySoftware(author, meta.id);
  EXPECT_TRUE(info->comments.empty());
  EXPECT_EQ(server_->moderation().rejected_count(), 1u);
  EXPECT_FALSE(server_->moderation().ApproveNext().ok());  // queue empty
}

// --- Bootstrap -----------------------------------------------------------------

TEST_F(ServerTest, BootstrapPriorBlendsWithLiveVotes) {
  SoftwareMeta meta = TestMeta("boot", "Acme");
  BootstrapRecord record;
  record.meta = meta;
  record.score = 8.0;
  record.vote_count = 20;
  ASSERT_TRUE(server_->bootstrap().Import({record}).ok());
  server_->aggregation().RunOnce(0);

  // Prior only: score is the imported one, with zero community votes.
  auto score = server_->registry().GetScore(meta.id);
  ASSERT_TRUE(score.ok());
  EXPECT_NEAR(score->score, 8.0, 1e-9);
  EXPECT_EQ(score->vote_count, 0);

  // One novice voting 1 barely moves it: (8*20 + 1*1) / 21 ≈ 7.67.
  std::string novice = MakeUser("newbie");
  ASSERT_TRUE(
      server_->SubmitRating(novice, meta, 1, "", core::kNoBehaviors, 0).ok());
  server_->aggregation().RunOnce(kDay);
  score = server_->registry().GetScore(meta.id);
  EXPECT_NEAR(score->score, 161.0 / 21.0, 1e-9);
  EXPECT_EQ(score->vote_count, 1);
}

TEST_F(ServerTest, BootstrapCsvImport) {
  SoftwareMeta meta = TestMeta("csv", "CsvCorp");
  std::string csv = "# header comment\n" + meta.id.ToHex() +
                    ",csv.exe,1003,CsvCorp,1.0,7.5,12\n\n";
  auto imported = server_->bootstrap().ImportCsv(csv);
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(*imported, 1u);
  auto prior = server_->registry().GetBootstrapPrior(meta.id);
  EXPECT_NEAR(prior.first, 7.5, 1e-9);
  EXPECT_NEAR(prior.second, 12.0, 1e-9);
}

TEST_F(ServerTest, BootstrapRejectsMalformedInput) {
  EXPECT_FALSE(server_->bootstrap().ImportCsv("too,few,fields").ok());
  BootstrapRecord bad;
  bad.meta = TestMeta("bad", "X");
  bad.score = 42.0;
  bad.vote_count = 5;
  EXPECT_FALSE(server_->bootstrap().Import({bad}).ok());
}

// --- Feeds ----------------------------------------------------------------------

TEST_F(ServerTest, FeedPublishAndQuery) {
  std::string org = MakeUser("org");
  std::string subscriber = MakeUser("sub");
  ASSERT_TRUE(server_->CreateFeed(org, "security-lab", "expert ratings").ok());

  SoftwareMeta meta = TestMeta("feedapp", "AdCorp");
  FeedEntry entry;
  entry.feed = "security-lab";
  entry.software = meta.id;
  entry.score = 2.5;
  entry.behaviors = static_cast<core::BehaviorSet>(core::Behavior::kPopupAds);
  entry.note = "shows aggressive pop-ups";
  ASSERT_TRUE(server_->PublishFeedEntry(org, entry).ok());

  auto fetched = server_->QueryFeed(subscriber, "security-lab", meta.id);
  ASSERT_TRUE(fetched.ok());
  EXPECT_NEAR(fetched->score, 2.5, 1e-9);
  EXPECT_EQ(fetched->note, "shows aggressive pop-ups");
}

TEST_F(ServerTest, OnlyFeedOwnerMayPublish) {
  std::string owner = MakeUser("owner");
  std::string impostor = MakeUser("impostor");
  ASSERT_TRUE(server_->CreateFeed(owner, "lab", "d").ok());
  FeedEntry entry;
  entry.feed = "lab";
  entry.software = util::Sha1::Hash("x");
  entry.score = 5.0;
  EXPECT_EQ(server_->PublishFeedEntry(impostor, entry).code(),
            util::StatusCode::kPermissionDenied);
  EXPECT_FALSE(server_->CreateFeed(impostor, "lab", "dup").ok());
}

// --- Persistence of the whole server state ---------------------------------------

// --- Epoch-snapshot read path (DESIGN.md §14) -------------------------------

TEST_F(ServerTest, SnapshotServesQueriesAfterPublication) {
  std::string s1 = MakeUser("rhea");
  std::string s2 = MakeUser("sven");
  SoftwareMeta meta = TestMeta("snap1", "Acme");
  ASSERT_TRUE(server_
                  ->SubmitRating(s1, meta, 8, "fine", core::kNoBehaviors, 0)
                  .ok());
  ASSERT_TRUE(
      server_->SubmitRating(s2, meta, 6, "", core::kNoBehaviors, 0).ok());
  server_->aggregation().RunOnce(kDay);

  ASSERT_NE(server_->CurrentSnapshot(), nullptr);
  std::uint64_t hits_before = server_->stats().snapshot_hits;
  auto info = server_->QuerySoftware(s1, meta.id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(server_->stats().snapshot_hits, hits_before + 1);
  EXPECT_EQ(server_->stats().snapshot_misses, 0u);
  ASSERT_TRUE(info->score.has_value());
  EXPECT_NEAR(info->score->score, 7.0, 1e-9);
  ASSERT_EQ(info->comments.size(), 1u);
  EXPECT_EQ(info->comments[0].comment, "fine");
  // A hit still authenticates first.
  EXPECT_EQ(server_->QuerySoftware("bogus-session", meta.id).status().code(),
            util::StatusCode::kUnauthenticated);
}

TEST_F(ServerTest, MutationForcesSlowPathUntilNextPublication) {
  std::string s1 = MakeUser("tara");
  std::string s2 = MakeUser("ugo");
  SoftwareMeta meta = TestMeta("snap2", "Acme");
  ASSERT_TRUE(
      server_->SubmitRating(s1, meta, 8, "", core::kNoBehaviors, 0).ok());
  server_->aggregation().RunOnce(kDay);

  ASSERT_TRUE(server_->QuerySoftware(s1, meta.id).ok());
  EXPECT_EQ(server_->stats().snapshot_hits, 1u);

  // A fresh vote dirties the vote store: the snapshot is stale, so the
  // next query must walk the live stores (and see the new comment at
  // once — exactly the historical freshness semantics).
  ASSERT_TRUE(server_
                  ->SubmitRating(s2, meta, 2, "spyware!", core::kNoBehaviors,
                                 kDay)
                  .ok());
  auto info = server_->QuerySoftware(s1, meta.id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(server_->stats().snapshot_hits, 1u);
  EXPECT_EQ(server_->stats().snapshot_misses, 1u);
  ASSERT_EQ(info->comments.size(), 1u);
  EXPECT_EQ(info->comments[0].comment, "spyware!");

  // The next aggregation republishes; queries return to the fast path.
  server_->aggregation().RunOnce(2 * kDay);
  ASSERT_TRUE(server_->QuerySoftware(s1, meta.id).ok());
  EXPECT_EQ(server_->stats().snapshot_hits, 2u);
}

TEST_F(ServerTest, EveryContentMutationForcesTheLiveRender) {
  ReputationServer::Config config = DefaultConfig();
  config.moderation_enabled = true;
  Reset(config);
  std::string s1 = MakeUser("gale");
  std::string s2 = MakeUser("hugo");
  SoftwareMeta meta = TestMeta("gate", "Acme");
  ASSERT_TRUE(server_
                  ->SubmitRating(s1, meta, 7, "held for review",
                                 core::kNoBehaviors, 0)
                  .ok());
  core::SoftwareScore score;
  score.software = meta.id;
  score.score = 6.5;
  score.vote_count = 2;
  score.weight_sum = 2.0;
  score.computed_at = kDay;
  core::VendorScore vendor;
  vendor.vendor = meta.company;
  vendor.score = 6.5;
  vendor.software_count = 1;
  vendor.computed_at = kDay;

  // Every mutation that bumps a content generation; after each, the next
  // query of a published title must miss the snapshot and show the live
  // stores.
  const std::vector<std::pair<std::string, std::function<util::Status()>>>
      mutations = {
          {"SubmitRating",
           [&] {
             return server_->SubmitRating(s2, meta, 3, "", core::kNoBehaviors,
                                          kDay);
           }},
          {"SetApproved", [&] { return server_->moderation().ApproveNext(); }},
          {"ReportBehaviors",
           [&] {
             return server_->registry().ReportBehaviors(
                 meta.id,
                 static_cast<core::BehaviorSet>(core::Behavior::kShowsAds));
           }},
          {"RegisterSoftware of another title",
           [&] {
             return server_->registry().RegisterSoftware(
                 TestMeta("gate-other", "Acme"));
           }},
          {"PutBootstrapPrior",
           [&] {
             return server_->registry().PutBootstrapPrior(meta.id, 4.0, 2.0);
           }},
          {"PutScore", [&] { return server_->registry().PutScore(score); }},
          {"PutVendorScore",
           [&] { return server_->registry().PutVendorScore(vendor); }},
      };
  for (const auto& [name, mutate] : mutations) {
    SCOPED_TRACE(name);
    server_->PublishSnapshot();
    ASSERT_TRUE(server_->QuerySoftware(s1, meta.id).ok());
    const std::uint64_t hits = server_->stats().snapshot_hits;
    const std::uint64_t misses = server_->stats().snapshot_misses;
    ASSERT_TRUE(mutate().ok());
    auto info = server_->QuerySoftware(s1, meta.id);
    ASSERT_TRUE(info.ok());
    EXPECT_EQ(server_->stats().snapshot_hits, hits);
    EXPECT_EQ(server_->stats().snapshot_misses, misses + 1);
    EXPECT_EQ(Render(*info), LiveRender(*server_, meta.id));
  }

  // Run reports alone leave the gate armed: after a republish, a query
  // still hits and reads the run count live.
  server_->PublishSnapshot();
  const std::uint64_t misses = server_->stats().snapshot_misses;
  ASSERT_TRUE(server_->ReportExecutions(s2, meta.id, 3).ok());
  auto info = server_->QuerySoftware(s1, meta.id);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(server_->stats().snapshot_misses, misses);
  EXPECT_EQ(info->run_count, 3);
  EXPECT_EQ(Render(*info), LiveRender(*server_, meta.id));
}

TEST_F(ServerTest, RunReportsKeepQueriesOnTheSnapshot) {
  std::string s1 = MakeUser("abel");
  std::string s2 = MakeUser("bria");
  SoftwareMeta meta = TestMeta("snap5", "Initech");
  ASSERT_TRUE(server_
                  ->SubmitRating(s1, meta, 9, "solid", core::kNoBehaviors, 0)
                  .ok());
  ASSERT_TRUE(
      server_->SubmitRating(s2, meta, 4, "nags", core::kNoBehaviors, 0).ok());
  SoftwareId ghost = util::Sha1::Hash("run-only-app");
  ASSERT_TRUE(server_->ReportExecutions(s1, ghost, 2).ok());
  server_->aggregation().RunOnce(kDay);

  // A registered title, a digest known only by its runs at publication,
  // and a digest whose first run comes after it.
  SoftwareId fresh = util::Sha1::Hash("first-run-after-publish");
  std::map<SoftwareId, std::int64_t> runs = {
      {meta.id, 0}, {ghost, 2}, {fresh, 0}};
  std::uint64_t hits = server_->stats().snapshot_hits;
  for (std::int64_t count = 1; count <= 3; ++count) {
    for (auto& [id, expected_runs] : runs) {
      ASSERT_TRUE(server_->ReportExecutions(s2, id, count).ok());
      expected_runs += count;
      auto fast = server_->QuerySoftware(s1, id);
      ASSERT_TRUE(fast.ok());
      EXPECT_EQ(server_->stats().snapshot_hits, ++hits);
      EXPECT_EQ(server_->stats().snapshot_misses, 0u);
      EXPECT_EQ(fast->run_count, expected_runs);
      EXPECT_EQ(Render(*fast), LiveRender(*server_, id));
    }
  }
}

TEST_F(ServerTest, SnapshotEntryMatchesTheLiveRenderByteForByte) {
  std::string s1 = MakeUser("wade");
  std::string s2 = MakeUser("xena");
  SoftwareMeta meta = TestMeta("snap4", "Initech");
  core::BehaviorSet ads =
      static_cast<core::BehaviorSet>(core::Behavior::kShowsAds);
  ASSERT_TRUE(server_->SubmitRating(s1, meta, 9, "great", ads, 0).ok());
  ASSERT_TRUE(server_->SubmitRating(s2, meta, 5, "meh", ads, 0).ok());
  ASSERT_TRUE(server_->ReportExecutions(s1, meta.id, 3).ok());
  server_->aggregation().RunOnce(kDay);

  std::shared_ptr<const ScoreSnapshot> snapshot = server_->CurrentSnapshot();
  ASSERT_NE(snapshot, nullptr);
  for (const SoftwareId& id : {meta.id, util::Sha1::Hash("never-seen")}) {
    EXPECT_EQ(Render(LookupSnapshotInfo(*snapshot, id)),
              LiveRender(*server_, id));
  }

  // Scheduled ticks on a store large enough to split: the run and the
  // render fan out as wide as the host, and every entry still equals the
  // live render. Every fourth title stays without votes.
  std::vector<SoftwareMeta> catalogue;
  for (std::size_t i = 0; i < AggregationJob::kTickSplitTitles; ++i) {
    SoftwareMeta title = TestMeta("split" + std::to_string(i),
                                  "Vendor" + std::to_string(i % 7));
    if (i % 4 == 3) {
      ASSERT_TRUE(server_->registry().RegisterSoftware(title).ok());
    } else {
      ASSERT_TRUE(server_
                      ->SubmitRating(s1, title, 1 + static_cast<int>(i % 10),
                                     "take " + std::to_string(i),
                                     core::kNoBehaviors, 0)
                      .ok());
    }
    catalogue.push_back(std::move(title));
  }
  auto expect_every_entry_live = [&] {
    std::shared_ptr<const ScoreSnapshot> published =
        server_->CurrentSnapshot();
    ASSERT_EQ(published->by_software.size(),
              server_->registry().SoftwareCount());
    for (const SoftwareId& id : server_->registry().AllSoftware()) {
      EXPECT_EQ(Render(LookupSnapshotInfo(*published, id)),
                LiveRender(*server_, id))
          << id.ToHex();
    }
  };
  loop_.RunUntil(kDay);
  EXPECT_EQ(server_->aggregation().runs(), 2u);
  EXPECT_EQ(server_->aggregation().last_stats().shards > 1,
            util::HardwareWidth() > 1);
  expect_every_entry_live();

  // The next tick recomputes Vendor0 through one vote on one of its titles;
  // the entries of its other titles, unvoted this tick, must carry the new
  // vendor score.
  auto vendor_before = server_->registry().GetVendorScore("Vendor0");
  ASSERT_TRUE(vendor_before.ok());
  ASSERT_TRUE(server_
                  ->SubmitRating(s2, catalogue[0], 10, "", core::kNoBehaviors,
                                 kDay)
                  .ok());
  loop_.RunUntil(2 * kDay);
  EXPECT_EQ(server_->aggregation().last_stats().recomputed, 1u);
  auto vendor_after = server_->registry().GetVendorScore("Vendor0");
  ASSERT_TRUE(vendor_after.ok());
  EXPECT_NE(vendor_after->score, vendor_before->score);
  const SoftwareId& sibling = catalogue[7].id;  // Vendor0, not voted today
  std::shared_ptr<const ScoreSnapshot> published = server_->CurrentSnapshot();
  const SoftwareInfo entry = LookupSnapshotInfo(*published, sibling);
  ASSERT_TRUE(entry.vendor_score.has_value());
  EXPECT_EQ(entry.vendor_score->score, vendor_after->score);
  // A registered title without votes (every fourth) and one with reported
  // behaviours, among all the others.
  EXPECT_FALSE(
      LookupSnapshotInfo(*published, catalogue[3].id).score.has_value());
  EXPECT_NE(LookupSnapshotInfo(*published, meta.id).reported_behaviors,
            core::kNoBehaviors);
  expect_every_entry_live();
}

TEST_F(ServerTest, RunOnlyDigestsAppearInSnapshot) {
  // Executions reported against a digest nobody registered must survive
  // the snapshot rewrite of the read path (run counters attach before
  // registration by design, §3.1).
  std::string session = MakeUser("zoe");
  SoftwareId ghost = util::Sha1::Hash("ghost-app");
  ASSERT_TRUE(server_->ReportExecutions(session, ghost, 7).ok());
  server_->aggregation().RunOnce(kDay);
  auto info = server_->QuerySoftware(session, ghost);
  ASSERT_TRUE(info.ok());
  EXPECT_FALSE(info->known);
  EXPECT_EQ(info->run_count, 7);
  EXPECT_EQ(server_->stats().snapshot_misses, 0u);
}

TEST(ServerPersistenceTest, StateSurvivesRestartViaWal) {
  std::string path =
      testing::TempDir() + "/pisrep_server_restart.wal";
  std::remove(path.c_str());
  core::SoftwareId app_id;
  {
    auto db = storage::Database::Open(path);
    ASSERT_TRUE(db.ok());
    net::EventLoop loop;
    ReputationServer::Config config;
    config.flood.registration_puzzle_bits = 0;
    ReputationServer server(db->get(), &loop, config);
    ASSERT_TRUE(
        server.Register("s", "alice", "pw123", "a@x.com", "", "", 0).ok());
    auto mail = server.FetchMail("a@x.com");
    ASSERT_TRUE(server.Activate("alice", mail->token).ok());
    auto session = server.Login("alice", "pw123", 0);
    SoftwareMeta meta = TestMeta("persist", "Acme");
    app_id = meta.id;
    ASSERT_TRUE(server
                    .SubmitRating(*session, meta, 9, "helpful: keeper",
                                  core::kNoBehaviors, 0)
                    .ok());
    server.aggregation().RunOnce(kDay);
  }
  {
    auto db = storage::Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    net::EventLoop loop;
    ReputationServer::Config config;
    config.flood.registration_puzzle_bits = 0;
    ReputationServer server(db->get(), &loop, config);
    // Account, software, votes and scores all recovered.
    EXPECT_EQ(server.accounts().AccountCount(), 1u);
    auto session = server.Login("alice", "pw123", 2 * kDay);
    ASSERT_TRUE(session.ok());
    auto info = server.QuerySoftware(*session, app_id);
    ASSERT_TRUE(info.ok());
    EXPECT_TRUE(info->known);
    ASSERT_TRUE(info->score.has_value());
    EXPECT_NEAR(info->score->score, 9.0, 1e-9);
    ASSERT_EQ(info->comments.size(), 1u);
    // Sessions are transient (by design): duplicate vote still rejected.
    SoftwareMeta meta = TestMeta("persist", "Acme");
    EXPECT_EQ(server
                  .SubmitRating(*session, meta, 1, "", core::kNoBehaviors,
                                2 * kDay)
                  .code(),
              util::StatusCode::kAlreadyExists);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pisrep::server
