#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "client/client_app.h"
#include "client/file_image.h"
#include "client/safety_lists.h"
#include "client/server_cache.h"
#include "client/signature_check.h"
#include "server/reputation_server.h"
#include "storage/database.h"
#include "trust/policy_rules.h"
#include "util/random.h"

namespace pisrep::client {
namespace {

using util::kDay;
using util::kHour;
using util::kSecond;

// --- FileImage ---------------------------------------------------------------

TEST(FileImageTest, DigestIsContentHash) {
  FileImage a("a.exe", "content-bytes", "Acme", "1.0");
  FileImage b("b.exe", "content-bytes", "Other", "2.0");
  // Identity is the *content* digest — names and metadata don't matter.
  EXPECT_EQ(a.Digest(), b.Digest());
  FileImage c("a.exe", "content-bytesX", "Acme", "1.0");
  EXPECT_NE(a.Digest(), c.Digest());
}

TEST(FileImageTest, MetaCarriesSection33Fields) {
  FileImage image("tool.exe", "12345", "Acme", "3.1");
  core::SoftwareMeta meta = image.Meta();
  EXPECT_EQ(meta.id, image.Digest());
  EXPECT_EQ(meta.file_name, "tool.exe");
  EXPECT_EQ(meta.file_size, 5);
  EXPECT_EQ(meta.company, "Acme");
  EXPECT_EQ(meta.version, "3.1");
}

TEST(FileImageTest, RepackChangesDigestAndDropsSignature) {
  util::Rng rng(1);
  crypto::KeyPair keys = crypto::GenerateKeyPair(rng);
  FileImage image("x.exe", "original", "Acme", "1.0");
  image.Sign("Acme", keys.private_key);
  ASSERT_TRUE(image.signature().has_value());

  FileImage variant = image.Repack("salt-1");
  EXPECT_NE(variant.Digest(), image.Digest());
  EXPECT_FALSE(variant.signature().has_value());
  // Different salts → different digests (the §3.3 evasion).
  EXPECT_NE(variant.Digest(), image.Repack("salt-2").Digest());
}

// --- SafetyLists ----------------------------------------------------------------

TEST(SafetyListsTest, ListsAreMutuallyExclusive) {
  SafetyLists lists;
  core::SoftwareId id = util::Sha1::Hash("app");
  ASSERT_TRUE(lists.AddToWhitelist(id).ok());
  EXPECT_TRUE(lists.IsWhitelisted(id));
  ASSERT_TRUE(lists.AddToBlacklist(id).ok());
  EXPECT_TRUE(lists.IsBlacklisted(id));
  EXPECT_FALSE(lists.IsWhitelisted(id));
  ASSERT_TRUE(lists.Remove(id).ok());
  EXPECT_FALSE(lists.IsBlacklisted(id));
}

TEST(SafetyListsTest, PersistsAcrossReopen) {
  auto db = storage::Database::Open("").value();
  core::SoftwareId white = util::Sha1::Hash("white");
  core::SoftwareId black = util::Sha1::Hash("black");
  {
    SafetyLists lists(db.get());
    ASSERT_TRUE(lists.AddToWhitelist(white).ok());
    ASSERT_TRUE(lists.AddToBlacklist(black).ok());
  }
  {
    SafetyLists lists(db.get());  // reload from the same database
    EXPECT_TRUE(lists.IsWhitelisted(white));
    EXPECT_TRUE(lists.IsBlacklisted(black));
    EXPECT_EQ(lists.whitelist_size(), 1u);
    EXPECT_EQ(lists.blacklist_size(), 1u);
  }
}

// --- SignatureChecker --------------------------------------------------------------

TEST(SignatureCheckerTest, ChecksAgainstTrustStore) {
  util::Rng rng(2);
  crypto::KeyPair acme = crypto::GenerateKeyPair(rng);
  crypto::TrustStore store;
  store.AddCertificate(crypto::Certificate{"Acme", acme.public_key, 0, false});
  SignatureChecker checker(&store);

  FileImage unsigned_image("u.exe", "data", "Acme", "1.0");
  SignatureCheckResult result = checker.Check(unsigned_image);
  EXPECT_FALSE(result.has_signature);
  EXPECT_FALSE(result.valid);

  FileImage signed_image("s.exe", "data2", "Acme", "1.0");
  signed_image.Sign("Acme", acme.private_key);
  result = checker.Check(signed_image);
  EXPECT_TRUE(result.has_signature);
  EXPECT_TRUE(result.valid);
  EXPECT_FALSE(result.vendor_trusted);  // no trust decision yet

  store.TrustVendor("Acme");
  result = checker.Check(signed_image);
  EXPECT_TRUE(result.vendor_trusted);

  store.BlockVendor("Acme");
  result = checker.Check(signed_image);
  EXPECT_TRUE(result.vendor_blocked);
  EXPECT_FALSE(result.vendor_trusted);
}

TEST(SignatureCheckerTest, ForgedSignatureIsInvalid) {
  util::Rng rng(3);
  crypto::KeyPair acme = crypto::GenerateKeyPair(rng);
  crypto::KeyPair mallory = crypto::GenerateKeyPair(rng);
  crypto::TrustStore store;
  store.AddCertificate(crypto::Certificate{"Acme", acme.public_key, 0, false});
  store.TrustVendor("Acme");
  SignatureChecker checker(&store);

  // Mallory signs malware claiming to be Acme.
  FileImage forged("f.exe", "evil", "Acme", "1.0");
  forged.Sign("Acme", mallory.private_key);
  SignatureCheckResult result = checker.Check(forged);
  EXPECT_TRUE(result.has_signature);
  EXPECT_FALSE(result.valid);
  // Trust never applies to an invalid signature.
  EXPECT_FALSE(result.vendor_trusted);
}

// --- ServerCache -------------------------------------------------------------------

TEST(ServerCacheTest, TtlExpiry) {
  ServerCache cache(kHour);
  core::SoftwareId id = util::Sha1::Hash("cached");
  server::SoftwareInfo info;
  info.known = true;
  cache.Put(id, info, 0);
  EXPECT_TRUE(cache.Get(id, 30 * util::kMinute).has_value());
  EXPECT_FALSE(cache.Get(id, 2 * kHour).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ServerCacheTest, InvalidateRemovesEntry) {
  ServerCache cache(kHour);
  core::SoftwareId id = util::Sha1::Hash("inv");
  cache.Put(id, server::SoftwareInfo{}, 0);
  cache.Invalidate(id);
  EXPECT_FALSE(cache.Get(id, 0).has_value());
}

TEST(ServerCacheTest, StaleEntriesServeUntilStaleTtl) {
  ServerCache cache(kHour, /*stale_ttl=*/4 * kHour);
  core::SoftwareId id = util::Sha1::Hash("stale");
  server::SoftwareInfo info;
  info.known = true;
  cache.Put(id, info, 0);
  // Expired for the fresh path, still within the stale horizon.
  EXPECT_FALSE(cache.Get(id, 2 * kHour).has_value());
  auto stale = cache.GetStale(id, 2 * kHour);
  ASSERT_TRUE(stale.has_value());
  EXPECT_TRUE(stale->known);
  EXPECT_EQ(cache.stale_hits(), 1u);
  // Beyond stale_ttl nothing is served.
  EXPECT_FALSE(cache.GetStale(id, 5 * kHour).has_value());
}

TEST(ServerCacheTest, LruCapEvictsLeastRecentlyUsed) {
  ServerCache cache(kHour, kHour, /*max_entries=*/3);
  core::SoftwareId a = util::Sha1::Hash("a");
  core::SoftwareId b = util::Sha1::Hash("b");
  core::SoftwareId c = util::Sha1::Hash("c");
  core::SoftwareId d = util::Sha1::Hash("d");
  cache.Put(a, server::SoftwareInfo{}, 0);
  cache.Put(b, server::SoftwareInfo{}, 0);
  cache.Put(c, server::SoftwareInfo{}, 0);
  // Touch `a` so `b` becomes the least recently used, then overflow.
  EXPECT_TRUE(cache.Get(a, 0).has_value());
  cache.Put(d, server::SoftwareInfo{}, 0);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Get(b, 0).has_value());  // the victim
  EXPECT_TRUE(cache.Get(a, 0).has_value());
  EXPECT_TRUE(cache.Get(c, 0).has_value());
  EXPECT_TRUE(cache.Get(d, 0).has_value());
}

// --- OfflineQueue -----------------------------------------------------------------

QueuedRating MakeQueued(int score) {
  QueuedRating rating;
  rating.meta.file_name = "q.exe";
  rating.score = score;
  return rating;
}

TEST(OfflineQueueTest, FifoWithCapEvictsOldest) {
  OfflineQueue::Config config;
  config.max_entries = 3;
  OfflineQueue queue(config);
  for (int i = 1; i <= 4; ++i) queue.Push(MakeQueued(i));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.queued(), 4u);
  EXPECT_EQ(queue.dropped(), 1u);
  EXPECT_EQ(queue.Front().score, 2);  // the oldest entry was evicted
  queue.PopFront();
  EXPECT_EQ(queue.Front().score, 3);
}

TEST(OfflineQueueTest, BackoffDoublesToCapAndResets) {
  OfflineQueue::Config config;
  config.initial_backoff = 5 * kSecond;
  config.max_backoff = 30 * kSecond;
  OfflineQueue queue(config);
  EXPECT_EQ(queue.NextBackoff(), 5 * kSecond);
  EXPECT_EQ(queue.NextBackoff(), 10 * kSecond);
  EXPECT_EQ(queue.NextBackoff(), 20 * kSecond);
  EXPECT_EQ(queue.NextBackoff(), 30 * kSecond);  // capped
  EXPECT_EQ(queue.NextBackoff(), 30 * kSecond);
  queue.ResetBackoff();
  EXPECT_EQ(queue.NextBackoff(), 5 * kSecond);
}

// --- End-to-end client pipeline over RPC ---------------------------------------------

class ClientPipelineTest : public ::testing::Test {
 protected:
  ClientPipelineTest()
      : network_(&loop_, MakeNetConfig()),
        db_(storage::Database::Open("").value()) {
    server::ReputationServer::Config config;
    config.flood.registration_puzzle_bits = 4;  // cheap but real
    config.flood.max_registrations_per_source_per_day = 0;
    config.flood.max_votes_per_user_per_day = 0;
    server_ = std::make_unique<server::ReputationServer>(db_.get(), &loop_,
                                                         config);
    EXPECT_TRUE(server_->AttachRpc(&network_, "server").ok());
  }

  static net::NetworkConfig MakeNetConfig() {
    net::NetworkConfig config;
    config.base_latency = 10 * util::kMillisecond;
    config.jitter = 5 * util::kMillisecond;
    return config;
  }

  std::unique_ptr<ClientApp> MakeClient(const std::string& name,
                                        ClientApp::Config overrides = {}) {
    ClientApp::Config config = std::move(overrides);
    config.address = name;
    config.server_address = "server";
    config.username = name;
    config.password = "pw-" + name;
    config.email = name + "@example.com";
    auto app = std::make_unique<ClientApp>(&network_, &loop_,
                                           std::move(config));
    EXPECT_TRUE(app->Start().ok());
    return app;
  }

  /// Runs the register → mail → activate → login chain to completion.
  void Onboard(ClientApp& app) {
    bool done = false;
    app.Register([&](util::Status status) {
      ASSERT_TRUE(status.ok()) << status.ToString();
      auto mail = server_->FetchMail(app.config().email);
      ASSERT_TRUE(mail.ok());
      app.Activate(mail->token, [&](util::Status activated) {
        ASSERT_TRUE(activated.ok());
        app.Login([&](util::Status logged_in) {
          ASSERT_TRUE(logged_in.ok());
          done = true;
        });
      });
    });
    loop_.RunUntil(loop_.Now() + util::kMinute);
    ASSERT_TRUE(done);
    ASSERT_TRUE(app.logged_in());
  }

  /// Drives the loop until pending work drains.
  void Drain() { loop_.RunUntil(loop_.Now() + util::kMinute); }

  net::EventLoop loop_;
  net::SimNetwork network_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::ReputationServer> server_;
};

TEST_F(ClientPipelineTest, OnboardingViaRpcWorks) {
  auto app = MakeClient("alice");
  Onboard(*app);
  EXPECT_EQ(server_->accounts().AccountCount(), 1u);
  EXPECT_EQ(server_->stats().logins, 1u);
}

TEST_F(ClientPipelineTest, BlacklistDeniesWithoutPromptOrServer) {
  auto app = MakeClient("bob");
  Onboard(*app);
  FileImage image("bad.exe", "bad-bytes", "", "1.0");
  ASSERT_TRUE(app->lists().AddToBlacklist(image.Digest()).ok());

  std::optional<ExecDecision> decision;
  app->HandleExecution(image, [&](ExecDecision d) { decision = d; });
  // Resolves synchronously — no server round-trip for listed software.
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, ExecDecision::kDeny);
  EXPECT_EQ(app->stats().denied_blacklist, 1u);
  EXPECT_EQ(app->stats().server_queries, 0u);
}

TEST_F(ClientPipelineTest, WhitelistAllowsImmediately) {
  auto app = MakeClient("carol");
  Onboard(*app);
  FileImage image("good.exe", "good-bytes", "Acme", "1.0");
  ASSERT_TRUE(app->lists().AddToWhitelist(image.Digest()).ok());

  std::optional<ExecDecision> decision;
  app->HandleExecution(image, [&](ExecDecision d) { decision = d; });
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, ExecDecision::kAllow);
}

TEST_F(ClientPipelineTest, UnknownSoftwarePromptsUserAndRemembersDecision) {
  auto app = MakeClient("dave");
  Onboard(*app);

  int prompts = 0;
  app->SetPromptHandler([&](const PromptInfo& info,
                            std::function<void(UserDecision)> done) {
    ++prompts;
    EXPECT_FALSE(info.known);  // nobody rated it yet
    done(UserDecision{/*allow=*/false, /*remember=*/true});
  });

  FileImage image("mystery.exe", "mystery-bytes", "", "1.0");
  std::optional<ExecDecision> decision;
  app->HandleExecution(image, [&](ExecDecision d) { decision = d; });
  Drain();
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, ExecDecision::kDeny);
  EXPECT_EQ(prompts, 1);
  EXPECT_TRUE(app->lists().IsBlacklisted(image.Digest()));

  // Second execution: no prompt, denied from the blacklist.
  decision.reset();
  app->HandleExecution(image, [&](ExecDecision d) { decision = d; });
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, ExecDecision::kDeny);
  EXPECT_EQ(prompts, 1);
}

TEST_F(ClientPipelineTest, PromptShowsCommunityDataFromServer) {
  auto rater = MakeClient("erin");
  Onboard(*rater);
  // Erin rates the software directly.
  FileImage image("shared.exe", "shared-bytes", "Acme", "2.0");
  RatingSubmission submission;
  submission.score = 3;
  submission.comment = "helpful: shows popups constantly";
  submission.behaviors =
      static_cast<core::BehaviorSet>(core::Behavior::kPopupAds);
  bool rated = false;
  rater->SubmitRating(image.Meta(), submission, [&](util::Status status) {
    ASSERT_TRUE(status.ok()) << status.ToString();
    rated = true;
  });
  Drain();
  ASSERT_TRUE(rated);
  server_->aggregation().RunOnce(loop_.Now());

  // A second user executing it sees the score and comment in the prompt.
  server::ReputationServer::Config config;
  auto app = MakeClient("frank");
  Onboard(*app);
  std::optional<PromptInfo> seen;
  app->SetPromptHandler([&](const PromptInfo& info,
                            std::function<void(UserDecision)> done) {
    seen = info;
    done(UserDecision{false, false});
  });
  app->HandleExecution(image, [](ExecDecision) {});
  Drain();
  ASSERT_TRUE(seen.has_value());
  EXPECT_TRUE(seen->known);
  ASSERT_TRUE(seen->score.has_value());
  EXPECT_NEAR(seen->score->score, 3.0, 1e-6);
  ASSERT_EQ(seen->comments.size(), 1u);
  EXPECT_EQ(seen->comments[0].comment, "helpful: shows popups constantly");
}

TEST_F(ClientPipelineTest, PolicyAutoAllowsTrustedSignedVendor) {
  util::Rng rng(7);
  crypto::KeyPair acme = crypto::GenerateKeyPair(rng);

  ClientApp::Config overrides;
  overrides.policy_rules = std::string(trust::PaperExampleRules());
  auto app = MakeClient("grace", std::move(overrides));
  Onboard(*app);
  app->trust_store().AddCertificate(
      crypto::Certificate{"Acme", acme.public_key, 0, false});
  app->trust_store().TrustVendor("Acme");

  int prompts = 0;
  app->SetPromptHandler([&](const PromptInfo&,
                            std::function<void(UserDecision)> done) {
    ++prompts;
    done(UserDecision{false, false});
  });

  FileImage image("signed.exe", "signed-bytes", "Acme", "1.0");
  image.Sign("Acme", acme.private_key);
  std::optional<ExecDecision> decision;
  app->HandleExecution(image, [&](ExecDecision d) { decision = d; });
  Drain();
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, ExecDecision::kAllow);
  EXPECT_EQ(prompts, 0);  // §4.2: signature white-listing avoids the prompt
  EXPECT_EQ(app->stats().policy_allowed, 1u);
}

TEST_F(ClientPipelineTest, RatingPromptFiresAfterThresholdAndSubmits) {
  ClientApp::Config overrides;
  overrides.prompts = core::PromptScheduler::Config{3, 10};
  auto app = MakeClient("henry", std::move(overrides));
  Onboard(*app);

  app->SetPromptHandler([](const PromptInfo&,
                           std::function<void(UserDecision)> done) {
    done(UserDecision{true, true});  // allow and whitelist
  });
  int rating_prompts = 0;
  app->SetRatingHandler(
      [&](const PromptInfo&,
          std::function<void(std::optional<RatingSubmission>)> done) {
        ++rating_prompts;
        RatingSubmission submission;
        submission.score = 9;
        submission.comment = "helpful: daily driver";
        done(submission);
      });

  FileImage image("fav.exe", "fav-bytes", "Acme", "1.0");
  for (int i = 0; i < 5; ++i) {
    app->HandleExecution(image, [](ExecDecision) {});
    Drain();
  }
  EXPECT_EQ(rating_prompts, 1);  // fired once past the threshold
  EXPECT_EQ(app->stats().ratings_submitted, 1u);
  EXPECT_EQ(server_->votes().TotalVotes(), 1u);
  EXPECT_TRUE(app->prompt_scheduler().IsRated(image.Digest()));
}

TEST_F(ClientPipelineTest, OfflineFallsBackWhenServerUnreachable) {
  ClientApp::Config overrides;
  overrides.fallback_decision = ExecDecision::kDeny;
  overrides.rpc_timeout = 2 * kSecond;
  auto app = MakeClient("ivy", std::move(overrides));
  Onboard(*app);
  network_.Unbind("server");  // server goes dark

  FileImage image("offline.exe", "offline-bytes", "", "1.0");
  std::optional<ExecDecision> decision;
  app->HandleExecution(image, [&](ExecDecision d) { decision = d; });
  Drain();
  ASSERT_TRUE(decision.has_value());
  // No prompt handler installed → fallback decision applies.
  EXPECT_EQ(*decision, ExecDecision::kDeny);
  EXPECT_EQ(app->stats().offline_decisions, 1u);
}

TEST_F(ClientPipelineTest, CacheSkipsRepeatServerQueries) {
  auto app = MakeClient("jack");
  Onboard(*app);
  app->SetPromptHandler([](const PromptInfo&,
                           std::function<void(UserDecision)> done) {
    done(UserDecision{true, /*remember=*/false});  // allow, don't whitelist
  });

  FileImage image("c.exe", "c-bytes", "", "1.0");
  for (int i = 0; i < 3; ++i) {
    app->HandleExecution(image, [](ExecDecision) {});
    Drain();
  }
  EXPECT_EQ(app->stats().server_queries, 1u);
  EXPECT_EQ(app->stats().cache_hits, 2u);
}

}  // namespace
}  // namespace pisrep::client
