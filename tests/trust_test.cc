#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/client_app.h"
#include "client/file_image.h"
#include "core/behavior.h"
#include "core/policy.h"
#include "crypto/signing.h"
#include "crypto/trust_store.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "net/rpc.h"
#include "obs/metrics.h"
#include "proto/wire.h"
#include "server/reputation_server.h"
#include "storage/database.h"
#include "storage/tiered_table.h"
#include "storage/value.h"
#include "trust/audit_log.h"
#include "trust/policy_rules.h"
#include "trust/signed_statement.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/sha1.h"
#include "web/portal.h"
#include "xml/xml_node.h"

namespace pisrep::trust {
namespace {

using core::PolicyAction;
using core::PolicyInput;
using storage::Row;
using storage::Value;
using util::StatusCode;

crypto::Certificate MakeCert(const std::string& name,
                             const crypto::PublicKey& key,
                             crypto::KeyRole role) {
  crypto::Certificate cert;
  cert.vendor = name;
  cert.public_key = key;
  cert.role = role;
  return cert;
}

/// Deterministic vendor + expert identities shared by the suites below.
struct TestIdentities {
  TestIdentities() {
    util::Rng vendor_rng(0xbeef01);
    util::Rng expert_rng(0xbeef02);
    vendor = crypto::GenerateKeyPair(vendor_rng);
    expert = crypto::GenerateKeyPair(expert_rng);
    store.AddCertificate(
        MakeCert("PixelWorks", vendor.public_key, crypto::KeyRole::kVendor));
    store.AddCertificate(
        MakeCert("SpywareLab", expert.public_key, crypto::KeyRole::kExpert));
  }

  crypto::KeyPair vendor;
  crypto::KeyPair expert;
  crypto::TrustStore store;
};

SoftwareManifest MakeManifest(const TestIdentities& ids,
                              const std::string& file = "photo_editor.exe") {
  SoftwareManifest manifest;
  manifest.vendor = "PixelWorks";
  manifest.file_name = file;
  manifest.version = "1.0";
  manifest.software = util::Sha1::Hash("bytes-of-" + file);
  SignManifest(ids.vendor.private_key, &manifest);
  return manifest;
}

ExpertAdvisory MakeAdvisory(const TestIdentities& ids,
                            const std::string& file = "free_smileys.exe") {
  ExpertAdvisory advisory;
  advisory.expert = "SpywareLab";
  advisory.software = util::Sha1::Hash("bytes-of-" + file);
  advisory.flagged = true;
  advisory.score = 1.5;
  advisory.behaviors =
      core::WithBehavior(core::kNoBehaviors, core::Behavior::kPopupAds);
  advisory.note = "bundles an ad injector";
  advisory.issued_at = util::kDay;
  SignAdvisory(ids.expert.private_key, &advisory);
  return advisory;
}

// --- Signed statements -------------------------------------------------------

TEST(SignedStatementTest, ManifestSignsVerifiesAndRejectsTampering) {
  TestIdentities ids;
  SoftwareManifest manifest = MakeManifest(ids);
  EXPECT_TRUE(VerifyManifest(ids.store, manifest));

  SoftwareManifest wrong_version = manifest;
  wrong_version.version = "1.1";
  EXPECT_FALSE(VerifyManifest(ids.store, wrong_version));

  SoftwareManifest wrong_binary = manifest;
  wrong_binary.software = util::Sha1::Hash("other-bytes");
  EXPECT_FALSE(VerifyManifest(ids.store, wrong_binary));

  SoftwareManifest forged = manifest;
  forged.signature ^= 1;
  EXPECT_FALSE(VerifyManifest(ids.store, forged));

  // Unknown signer: no pinned certificate, nothing to verify against.
  SoftwareManifest unknown = manifest;
  unknown.vendor = "NoSuchCo";
  EXPECT_FALSE(VerifyManifest(ids.store, unknown));
}

TEST(SignedStatementTest, RolesAndRevocationGateVerification) {
  TestIdentities ids;

  // An expert key must not white-list software: a manifest "signed by" the
  // expert certificate never verifies even with a valid signature.
  SoftwareManifest cross_role;
  cross_role.vendor = "SpywareLab";
  cross_role.file_name = "sneaky.exe";
  cross_role.version = "1.0";
  cross_role.software = util::Sha1::Hash("sneaky");
  SignManifest(ids.expert.private_key, &cross_role);
  EXPECT_FALSE(VerifyManifest(ids.store, cross_role));

  // And vice versa: a vendor key cannot publish advisories.
  ExpertAdvisory vendor_advisory = MakeAdvisory(ids);
  vendor_advisory.expert = "PixelWorks";
  SignAdvisory(ids.vendor.private_key, &vendor_advisory);
  EXPECT_FALSE(VerifyAdvisory(ids.store, vendor_advisory));

  // Revocation kills a previously-good manifest.
  SoftwareManifest manifest = MakeManifest(ids);
  ASSERT_TRUE(VerifyManifest(ids.store, manifest));
  ASSERT_TRUE(ids.store.RevokeCertificate("PixelWorks").ok());
  EXPECT_FALSE(VerifyManifest(ids.store, manifest));
}

TEST(SignedStatementTest, XmlRoundTripPreservesSignatures) {
  TestIdentities ids;

  SoftwareManifest manifest = MakeManifest(ids);
  auto manifest_back = ManifestFromXml(ManifestToXml(manifest));
  ASSERT_TRUE(manifest_back.ok()) << manifest_back.status().ToString();
  EXPECT_EQ(manifest_back->vendor, manifest.vendor);
  EXPECT_EQ(manifest_back->software, manifest.software);
  EXPECT_TRUE(VerifyManifest(ids.store, *manifest_back));

  ExpertAdvisory advisory = MakeAdvisory(ids);
  auto advisory_back = AdvisoryFromXml(AdvisoryToXml(advisory));
  ASSERT_TRUE(advisory_back.ok()) << advisory_back.status().ToString();
  EXPECT_EQ(advisory_back->expert, advisory.expert);
  EXPECT_EQ(advisory_back->flagged, advisory.flagged);
  EXPECT_EQ(advisory_back->behaviors, advisory.behaviors);
  EXPECT_TRUE(VerifyAdvisory(ids.store, *advisory_back));
}

// --- Declarative policy rules ------------------------------------------------

/// A grid of policy inputs spanning every fact the §4.2 example conditions
/// on, with each rating and vote bound on both sides.
std::vector<PolicyInput> InputGrid() {
  std::vector<PolicyInput> grid;
  for (bool trusted_sig : {false, true}) {
    for (bool vendor_blocked : {false, true}) {
      for (bool expert_flagged : {false, true}) {
        for (double rating : {-1.0, 2.0, 3.0, 5.0, 7.5, 9.0}) {
          for (int votes : {2, 3, 5}) {
            for (core::BehaviorSet ads :
                 {core::kNoBehaviors,
                  static_cast<core::BehaviorSet>(core::Behavior::kShowsAds),
                  static_cast<core::BehaviorSet>(core::Behavior::kPopupAds)}) {
              PolicyInput input;
              input.has_valid_signature = trusted_sig;
              input.vendor_trusted = trusted_sig;
              input.vendor_blocked = vendor_blocked;
              input.expert_flagged = expert_flagged;
              if (rating >= 0) input.rating = rating;
              input.vote_count = votes;
              input.reported_behaviors = ads;
              grid.push_back(input);
            }
          }
        }
      }
    }
  }
  return grid;
}

/// The §4.2 worked example written as plain code, independently of the
/// rule text: blocked vendors and expert-flagged software never run,
/// trusted signatures run, software rated over 7.5 by at least three votes
/// runs unless it shows ads, software rated under 3 by at least three votes
/// never runs, and the user is asked about everything else.
PolicyAction Section42Oracle(const PolicyInput& input) {
  if (input.vendor_blocked) return PolicyAction::kDeny;
  if (input.expert_flagged) return PolicyAction::kDeny;
  if (input.has_valid_signature && input.vendor_trusted) {
    return PolicyAction::kAllow;
  }
  const bool shows_ads =
      core::HasBehavior(input.reported_behaviors, core::Behavior::kShowsAds) ||
      core::HasBehavior(input.reported_behaviors, core::Behavior::kPopupAds);
  if (input.rating.has_value() && input.vote_count >= 3) {
    if (*input.rating > 7.5 && !shows_ads) return PolicyAction::kAllow;
    if (*input.rating < 3.0) return PolicyAction::kDeny;
  }
  return PolicyAction::kAsk;
}

core::Policy PaperExamplePolicy() {
  auto parsed = ParsePolicyRules(PaperExampleRules(), "paper-example");
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.ok() ? *std::move(parsed) : core::Policy();
}

TEST(PolicyRulesTest, PaperExampleMatchesSection42OracleOnFullGrid) {
  core::Policy policy = PaperExamplePolicy();
  for (const PolicyInput& input : InputGrid()) {
    std::string fired;
    EXPECT_EQ(policy.Evaluate(input, &fired), Section42Oracle(input))
        << "signed=" << input.has_valid_signature
        << " blocked=" << input.vendor_blocked
        << " flagged=" << input.expert_flagged
        << " rating=" << (input.rating ? *input.rating : -1)
        << " votes=" << input.vote_count
        << " behaviors=" << input.reported_behaviors << " fired=" << fired;
  }
}

TEST(PolicyRulesTest, PaperExampleTrustedSignatureAllows) {
  core::Policy policy = PaperExamplePolicy();
  PolicyInput input;
  input.has_valid_signature = true;
  input.vendor_trusted = true;
  std::string fired;
  EXPECT_EQ(policy.Evaluate(input, &fired), PolicyAction::kAllow);
  EXPECT_EQ(fired, "allow if signed-by trusted vendor");
  // Valid signature from an unknown vendor is not enough.
  input.vendor_trusted = false;
  EXPECT_EQ(policy.Evaluate(input, &fired), PolicyAction::kAsk);
  EXPECT_EQ(fired, "<default>");
}

TEST(PolicyRulesTest, PaperExampleRatingRule) {
  core::Policy policy = PaperExamplePolicy();
  // §4.2: "only is allowed if it has a rating over 7.5/10 and does not show
  // any advertisements."
  PolicyInput input;
  input.rating = 8.0;
  input.vote_count = 5;
  std::string fired;
  EXPECT_EQ(policy.Evaluate(input, &fired), PolicyAction::kAllow);
  EXPECT_EQ(fired, "allow if rating > 7.5 and votes >= 3 and no ads");

  input.reported_behaviors = static_cast<core::BehaviorSet>(
      core::Behavior::kShowsAds);
  EXPECT_EQ(policy.Evaluate(input), PolicyAction::kAsk);

  input.reported_behaviors = core::kNoBehaviors;
  input.rating = 7.4;
  EXPECT_EQ(policy.Evaluate(input), PolicyAction::kAsk);

  // Too few votes → not trusted yet.
  input.rating = 9.0;
  input.vote_count = 1;
  EXPECT_EQ(policy.Evaluate(input), PolicyAction::kAsk);
}

TEST(PolicyRulesTest, PaperExampleBoundsAreStrict) {
  // §4.2: "a rating over 7.5/10" — exactly 7.5 (say, votes of 7 and 8 with
  // equal trust) is not over it, and exactly 3.0 is not below 3.
  core::Policy policy = PaperExamplePolicy();
  PolicyInput input;
  input.vote_count = 5;
  std::string fired;
  input.rating = 7.5;
  EXPECT_EQ(policy.Evaluate(input, &fired), PolicyAction::kAsk);
  EXPECT_EQ(fired, "<default>");
  input.rating = std::nextafter(7.5, 10.0);
  EXPECT_EQ(policy.Evaluate(input, &fired), PolicyAction::kAllow);
  EXPECT_EQ(fired, "allow if rating > 7.5 and votes >= 3 and no ads");
  input.rating = 3.0;
  EXPECT_EQ(policy.Evaluate(input, &fired), PolicyAction::kAsk);
  EXPECT_EQ(fired, "<default>");
  input.rating = std::nextafter(3.0, 0.0);
  EXPECT_EQ(policy.Evaluate(input, &fired), PolicyAction::kDeny);
  EXPECT_EQ(fired, "deny if rating < 3 and votes >= 3");
}

TEST(PolicyRulesTest, PaperExampleDeniesBadlyRatedAndBlockedVendors) {
  core::Policy policy = PaperExamplePolicy();
  PolicyInput input;
  input.rating = 2.0;
  input.vote_count = 10;
  std::string fired;
  EXPECT_EQ(policy.Evaluate(input, &fired), PolicyAction::kDeny);
  EXPECT_EQ(fired, "deny if rating < 3 and votes >= 3");

  PolicyInput blocked;
  blocked.vendor_blocked = true;
  blocked.rating = 9.9;
  blocked.vote_count = 100;
  EXPECT_EQ(policy.Evaluate(blocked, &fired), PolicyAction::kDeny);
  EXPECT_EQ(fired, "deny if vendor-blocked");

  // An expert advisory outweighs the community's rating too.
  PolicyInput flagged;
  flagged.expert_flagged = true;
  flagged.rating = 9.0;
  flagged.vote_count = 10;
  EXPECT_EQ(policy.Evaluate(flagged, &fired), PolicyAction::kDeny);
  EXPECT_EQ(fired, "deny if expert-flagged");
}

TEST(PolicyRulesTest, GrammarCoversFlagsComparisonsAndBehaviors) {
  auto policy = ParsePolicyRules(
      "# comment line\n"
      "deny if shows keylogging  # trailing comment\n"
      "allow if not vendor-blocked and rating >= 6 and votes >= 2 and no ads\n"
      "deny if feed-rating < 4\n"
      "default deny\n",
      "grammar");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  ASSERT_EQ(policy->rules().size(), 3u);
  EXPECT_EQ(policy->default_action(), PolicyAction::kDeny);

  PolicyInput keylogger;
  keylogger.reported_behaviors =
      core::WithBehavior(core::kNoBehaviors, core::Behavior::kKeylogging);
  EXPECT_EQ(policy->Evaluate(keylogger), PolicyAction::kDeny);

  PolicyInput good;
  good.rating = 8.0;
  good.vote_count = 3;
  std::string fired;
  EXPECT_EQ(policy->Evaluate(good, &fired), PolicyAction::kAllow);
  EXPECT_EQ(fired,
            "allow if not vendor-blocked and rating >= 6 and votes >= 2 and "
            "no ads");

  PolicyInput bad_feed;
  bad_feed.feed_rating = 2.0;
  EXPECT_EQ(policy->Evaluate(bad_feed), PolicyAction::kDeny);

  PolicyInput nothing;
  EXPECT_EQ(policy->Evaluate(nothing, &fired), PolicyAction::kDeny);
  EXPECT_EQ(fired, "<default>");
}

TEST(PolicyRulesTest, ComparisonStrictnessFollowsTheOperator) {
  auto policy = ParsePolicyRules(
      "allow if rating > 7.5\n"
      "allow if rating >= 7\n"
      "deny if rating < 3\n"
      "deny if rating <= 3\n"
      "deny if feed-rating < 2\n"
      "allow if feed-rating >= 9\n"
      "default ask\n",
      "bounds");
  ASSERT_TRUE(policy.ok()) << policy.status().ToString();
  auto fired_on = [&](std::optional<double> rating,
                      std::optional<double> feed_rating) {
    PolicyInput input;
    input.rating = rating;
    input.feed_rating = feed_rating;
    std::string fired;
    policy->Evaluate(input, &fired);
    return fired;
  };
  // `>` and `<` exclude their bound; `>=` and `<=` admit it.
  EXPECT_EQ(fired_on(7.5, std::nullopt), "allow if rating >= 7");
  EXPECT_EQ(fired_on(7.6, std::nullopt), "allow if rating > 7.5");
  EXPECT_EQ(fired_on(7.0, std::nullopt), "allow if rating >= 7");
  EXPECT_EQ(fired_on(3.0, std::nullopt), "deny if rating <= 3");
  EXPECT_EQ(fired_on(2.9, std::nullopt), "deny if rating < 3");
  EXPECT_EQ(fired_on(std::nullopt, 2.0), "<default>");
  EXPECT_EQ(fired_on(std::nullopt, 1.9), "deny if feed-rating < 2");
  EXPECT_EQ(fired_on(std::nullopt, 9.0), "allow if feed-rating >= 9");
}

TEST(PolicyRulesTest, ParserRejectsMalformedRules) {
  EXPECT_EQ(ParsePolicyRules("frobnicate if moon", "bad").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParsePolicyRules("allow whenever convenient", "bad")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParsePolicyRules("deny if gremlins", "bad").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParsePolicyRules("allow if rating ~ 5", "bad").status().code(),
            StatusCode::kInvalidArgument);
  // The lists are not part of the language: the client decides listed
  // binaries before any rule runs.
  EXPECT_EQ(ParsePolicyRules("deny if blacklisted", "bad").status().code(),
            StatusCode::kInvalidArgument);
  // Comment-only text parses to nothing — that is an error, not an
  // allow-everything policy.
  EXPECT_EQ(ParsePolicyRules("# nothing here\n", "bad").status().code(),
            StatusCode::kInvalidArgument);
  // A bare default is a legal (if blunt) policy.
  EXPECT_TRUE(ParsePolicyRules("default deny", "ok").ok());
}

// --- Audit log ---------------------------------------------------------------

TEST(AuditLogTest, AppendExtendsChainAndReopenRecoversHead) {
  auto db = storage::Database::Open("");
  ASSERT_TRUE(db.ok());
  AuditLog log(db->get());
  EXPECT_EQ(log.head_index(), 0u);
  EXPECT_EQ(log.head_hash(), GenesisHashHex());

  std::string prev = GenesisHashHex();
  for (int i = 1; i <= 5; ++i) {
    auto entry =
        log.Append("vote", "payload-" + std::to_string(i), i * util::kMinute);
    ASSERT_TRUE(entry.ok()) << entry.status().ToString();
    EXPECT_EQ(entry->index, static_cast<std::uint64_t>(i));
    // Each link is exactly the published chain function of its predecessor.
    EXPECT_EQ(entry->hash_hex,
              ChainHashHex(prev, i, "vote", "payload-" + std::to_string(i),
                           i * util::kMinute));
    prev = entry->hash_hex;
  }
  EXPECT_EQ(log.head_index(), 5u);
  EXPECT_EQ(log.head_hash(), prev);

  // A second AuditLog over the same database (WAL replay / promotion)
  // recovers the identical head and keeps extending the same chain.
  AuditLog reopened(db->get());
  EXPECT_EQ(reopened.head_index(), 5u);
  EXPECT_EQ(reopened.head_hash(), prev);
  ASSERT_TRUE(reopened.Append("remark", "after-reopen", util::kHour).ok());
  EXPECT_EQ(reopened.head_index(), 6u);

  ChainVerifyResult chain = VerifyAuditChain(db->get());
  EXPECT_TRUE(chain.ok) << chain.error;
  EXPECT_EQ(chain.entries, 6u);
  EXPECT_EQ(chain.head_hash, reopened.head_hash());
}

TEST(AuditLogTest, CheckpointsVerifyUnderTheRightKeyOnly) {
  auto db = storage::Database::Open("");
  ASSERT_TRUE(db.ok());
  util::Rng rng(0xc4ec);
  crypto::KeyPair keys = crypto::GenerateKeyPair(rng);
  crypto::KeyPair other = crypto::GenerateKeyPair(rng);

  AuditLog log(db->get());
  EXPECT_EQ(log.WriteCheckpoint(keys.private_key, 0).code(),
            StatusCode::kFailedPrecondition);  // empty chain

  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(log.Append("vote", std::to_string(i), i).ok());
    ASSERT_TRUE(log.WriteCheckpoint(keys.private_key, i).ok());
  }
  EXPECT_EQ(log.checkpoint_count(), 4u);
  EXPECT_EQ(log.last_checkpoint_index(), 4u);

  CheckpointVerifyResult good = VerifyCheckpoints(db->get(), keys.public_key);
  EXPECT_TRUE(good.ok) << good.error;
  EXPECT_EQ(good.checked, 4u);

  CheckpointVerifyResult wrong_key =
      VerifyCheckpoints(db->get(), other.public_key);
  EXPECT_FALSE(wrong_key.ok);
  EXPECT_EQ(wrong_key.first_bad_index, 1u);
}

/// Builds an N-entry chain in a fresh in-memory database.
std::unique_ptr<storage::Database> BuildChain(int entries) {
  auto db = storage::Database::Open("").value();
  AuditLog log(db.get());
  for (int i = 1; i <= entries; ++i) {
    EXPECT_TRUE(
        log.Append("vote", "payload-" + std::to_string(i), i * util::kMinute)
            .ok());
  }
  return db;
}

TEST(AuditLogTest, TamperSweepNamesTheExactFirstBadIndex) {
  constexpr int kEntries = 10;
  // Mutate every persisted field of every row, one (index, field) pair per
  // fresh chain, and require the verifier to name exactly that index —
  // the acceptance criterion behind tools/audit.
  for (int target = 1; target <= kEntries; ++target) {
    for (int field = 1; field <= 4; ++field) {  // kind, payload, at, hash
      auto db = BuildChain(kEntries);
      auto table = db->GetTiered(kAuditTable);
      ASSERT_TRUE(table.ok());
      auto row = (*table)->Get(Value::Int(target));
      ASSERT_TRUE(row.ok());
      Row mutated = *row;
      switch (field) {
        case 1:
          mutated[1] = Value::Str(mutated[1].AsStr() + "x");
          break;
        case 2: {
          std::string payload = mutated[2].AsStr();
          payload[0] ^= 0x01;  // single-bit flip
          mutated[2] = Value::Str(payload);
          break;
        }
        case 3:
          mutated[3] = Value::Int(mutated[3].AsInt() + 1);
          break;
        case 4: {
          std::string hash = mutated[4].AsStr();
          hash[0] = hash[0] == '0' ? '1' : '0';
          mutated[4] = Value::Str(hash);
          break;
        }
      }
      ASSERT_TRUE((*table)->Upsert(std::move(mutated)).ok());

      ChainVerifyResult chain = VerifyAuditChain(db.get());
      EXPECT_FALSE(chain.ok)
          << "index " << target << " field " << field << " undetected";
      EXPECT_EQ(chain.first_bad_index, static_cast<std::uint64_t>(target))
          << "index " << target << " field " << field;

      AuditChainStatus status = AuditChainStatusOf(db.get());
      EXPECT_TRUE(status.present);
      EXPECT_FALSE(status.ok);
    }
  }

  // Deleting an interior row surfaces as a gap at exactly that index.
  for (int target = 1; target < kEntries; ++target) {
    auto db = BuildChain(kEntries);
    auto table = db->GetTiered(kAuditTable);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->Delete(Value::Int(target)).ok());
    ChainVerifyResult chain = VerifyAuditChain(db.get());
    EXPECT_FALSE(chain.ok);
    EXPECT_EQ(chain.first_bad_index, static_cast<std::uint64_t>(target));
  }
}

TEST(AuditLogTest, CheckpointPinsTruncatedTail) {
  // Deleting the *last* entry re-hashes consistently (the bare chain just
  // looks shorter), so truncation is exactly what the signed checkpoint
  // catches: its recorded head index no longer exists in the log.
  auto db = storage::Database::Open("").value();
  util::Rng rng(0x7a11);
  crypto::KeyPair keys = crypto::GenerateKeyPair(rng);
  AuditLog log(db.get());
  for (int i = 1; i <= 6; ++i) {
    ASSERT_TRUE(log.Append("vote", std::to_string(i), i).ok());
  }
  ASSERT_TRUE(log.WriteCheckpoint(keys.private_key, util::kHour).ok());

  auto table = db->GetTiered(kAuditTable);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Delete(Value::Int(6)).ok());

  EXPECT_TRUE(VerifyAuditChain(db.get()).ok);  // the bare chain can't see it
  CheckpointVerifyResult cps = VerifyCheckpoints(db.get(), keys.public_key);
  EXPECT_FALSE(cps.ok);
  EXPECT_EQ(cps.first_bad_index, 6u);
}

// --- Server integration ------------------------------------------------------

class TrustServerTest : public ::testing::Test {
 protected:
  TrustServerTest() {
    server::ReputationServer::Config config;
    Reset(config);
  }

  void Reset(server::ReputationServer::Config config) {
    config.flood.registration_puzzle_bits = 0;
    config.flood.max_registrations_per_source_per_day = 0;
    config.flood.max_votes_per_user_per_day = 0;
    config.trust.pinned_certificates = {
        MakeCert("PixelWorks", ids_.vendor.public_key,
                 crypto::KeyRole::kVendor),
        MakeCert("SpywareLab", ids_.expert.public_key,
                 crypto::KeyRole::kExpert)};
    db_ = storage::Database::Open("").value();
    server_ = std::make_unique<server::ReputationServer>(db_.get(), &loop_,
                                                         std::move(config));
  }

  std::string MakeUser(const std::string& name) {
    std::string email = name + "@trust.example";
    EXPECT_TRUE(
        server_->Register("s", name, "password", email, "", "", 0).ok());
    auto mail = server_->FetchMail(email);
    EXPECT_TRUE(mail.ok());
    EXPECT_TRUE(server_->Activate(name, mail->token).ok());
    return *server_->Login(name, "password", 0);
  }

  core::SoftwareMeta MakeMeta(const std::string& name) {
    core::SoftwareMeta meta;
    meta.id = util::Sha1::Hash("bytes-of-" + name);
    meta.file_name = name;
    meta.file_size = 1024;
    meta.company = "PixelWorks";
    meta.version = "1.0";
    return meta;
  }

  TestIdentities ids_;
  net::EventLoop loop_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::ReputationServer> server_;
};

TEST_F(TrustServerTest, ManifestAnnotatesQueriesAdvisoryFeedsExperts) {
  std::string session = MakeUser("alice");
  SoftwareManifest manifest = MakeManifest(ids_);
  ASSERT_TRUE(server_->SubmitManifest(manifest).ok());
  EXPECT_EQ(server_->stats().manifests_accepted, 1u);

  // The verified manifest annotates answers even before any vote exists.
  auto info = server_->QuerySoftware(session, manifest.software);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->vendor_signed);
  EXPECT_EQ(info->signed_vendor, "PixelWorks");

  ExpertAdvisory advisory = MakeAdvisory(ids_);
  ASSERT_TRUE(server_->PublishAdvisory(advisory).ok());
  EXPECT_EQ(server_->stats().advisories_accepted, 1u);

  // Republished through the ordinary feed plumbing under the expert's name.
  auto entry = server_->QueryFeed(session, "SpywareLab", advisory.software);
  ASSERT_TRUE(entry.ok()) << entry.status().ToString();
  EXPECT_TRUE(entry->expert_flagged);
  EXPECT_DOUBLE_EQ(entry->score, 1.5);
  EXPECT_EQ(entry->note, "bundles an ad injector");
}

TEST_F(TrustServerTest, ForgedStatementsAreRejectedAndCounted) {
  SoftwareManifest forged = MakeManifest(ids_);
  forged.version = "6.66";  // signature no longer covers the fields
  EXPECT_EQ(server_->SubmitManifest(forged).code(),
            StatusCode::kPermissionDenied);

  ExpertAdvisory resigned = MakeAdvisory(ids_);
  resigned.flagged = false;  // flag flipped after signing
  EXPECT_EQ(server_->PublishAdvisory(resigned).code(),
            StatusCode::kPermissionDenied);

  EXPECT_EQ(server_->stats().signatures_rejected, 2u);
  EXPECT_EQ(server_->stats().manifests_accepted, 0u);
  EXPECT_EQ(server_->stats().advisories_accepted, 0u);
  EXPECT_EQ(server_->manifests().size(), 0u);
}

TEST_F(TrustServerTest, AcceptedMutationsExtendAVerifiableChain) {
  server::ReputationServer::Config config;
  config.trust.checkpoint_every = 2;
  Reset(std::move(config));

  std::string alice = MakeUser("alice");
  std::string bob = MakeUser("bob");
  core::SoftwareMeta meta = MakeMeta("photo_editor.exe");
  ASSERT_TRUE(server_->SubmitRating(alice, meta, 9, "helpful: crisp UI",
                                    core::kNoBehaviors, 0)
                  .ok());
  ASSERT_TRUE(server_->SubmitManifest(MakeManifest(ids_)).ok());
  core::UserId alice_id =
      server_->accounts().GetAccountByUsername("alice")->id;
  ASSERT_TRUE(
      server_->SubmitRemark(bob, alice_id, meta.id, true, util::kWeek).ok());

  ASSERT_NE(server_->audit(), nullptr);
  EXPECT_GE(server_->audit()->head_index(), 3u);  // vote, manifest, remark
  EXPECT_GE(server_->audit()->checkpoint_count(), 1u);

  ChainVerifyResult chain = VerifyAuditChain(db_.get());
  EXPECT_TRUE(chain.ok) << chain.error;
  EXPECT_EQ(chain.head_hash, server_->audit()->head_hash());

  CheckpointVerifyResult cps =
      VerifyCheckpoints(db_.get(), server_->audit_public_key());
  EXPECT_TRUE(cps.ok) << cps.error;
  EXPECT_GE(cps.checked, 1u);
}

TEST_F(TrustServerTest, YoungRaterRemarksRejectedUntilAggregationWindow) {
  // Regression (PR 10 satellite): a freshly-registered account could remark
  // on comments although its own trust factor had never been aggregated.
  std::string alice = MakeUser("alice");
  std::string bob = MakeUser("bob");
  core::SoftwareMeta meta = MakeMeta("target.exe");
  ASSERT_TRUE(server_->SubmitRating(alice, meta, 2, "noise: junk",
                                    core::kNoBehaviors, 0)
                  .ok());
  core::UserId alice_id =
      server_->accounts().GetAccountByUsername("alice")->id;

  // One hour after joining: inside the first aggregation window.
  auto young = server_->SubmitRemark(bob, alice_id, meta.id, true, util::kHour);
  EXPECT_EQ(young.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server_->stats().remarks_rejected_young, 1u);
  EXPECT_EQ(server_->stats().remarks_accepted, 0u);

  // The rejection itself is an audited trust decision.
  ASSERT_NE(server_->audit(), nullptr);
  std::uint64_t head = server_->audit()->head_index();
  EXPECT_GE(head, 2u);  // vote + remark-rejected

  // Past the window the same remark lands.
  ASSERT_TRUE(
      server_->SubmitRemark(bob, alice_id, meta.id, true, util::kWeek).ok());
  EXPECT_EQ(server_->stats().remarks_accepted, 1u);
  EXPECT_GT(server_->audit()->head_index(), head);
}

TEST_F(TrustServerTest, TrustMetricsAndPortalPageAreWired) {
  obs::MetricsRegistry metrics;
  server::ReputationServer::Config config;
  config.metrics = &metrics;
  config.trust.checkpoint_every = 1;
  Reset(std::move(config));

  std::string session = MakeUser("alice");
  ASSERT_TRUE(server_->SubmitManifest(MakeManifest(ids_)).ok());
  SoftwareManifest forged = MakeManifest(ids_);
  forged.signature ^= 1;
  EXPECT_FALSE(server_->SubmitManifest(forged).ok());

  EXPECT_EQ(
      metrics.GetCounter("pisrep_trust_signatures_verified_total")->Value(),
      1u);
  EXPECT_EQ(
      metrics.GetCounter("pisrep_trust_signatures_rejected_total")->Value(),
      1u);
  EXPECT_GE(metrics.GetCounter("pisrep_trust_audit_appends_total")->Value(),
            1u);
  EXPECT_GE(metrics.GetCounter("pisrep_trust_checkpoints_total")->Value(), 1u);

  web::WebPortal portal(server_.get());
  auto page = portal.Handle("/trust");
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_NE(page->find("Pinned signing keys"), std::string::npos);
  EXPECT_NE(page->find("PixelWorks"), std::string::npos);
  EXPECT_NE(page->find("SpywareLab"), std::string::npos);
  EXPECT_NE(page->find(crypto::KeyFingerprint(ids_.vendor.public_key)),
            std::string::npos);
  EXPECT_NE(page->find("Signed statements"), std::string::npos);
  EXPECT_NE(page->find("Audit chains"), std::string::npos);
  ASSERT_NE(server_->audit(), nullptr);
  EXPECT_NE(page->find(server_->audit()->head_hash()), std::string::npos);
}

// --- RPC: both codecs --------------------------------------------------------

class TrustRpcTest : public ::testing::Test {
 protected:
  TrustRpcTest() : network_(&loop_, MakeNetConfig()) {
    db_ = storage::Database::Open("").value();
    server::ReputationServer::Config config;
    config.trust.pinned_certificates = {
        MakeCert("PixelWorks", ids_.vendor.public_key,
                 crypto::KeyRole::kVendor),
        MakeCert("SpywareLab", ids_.expert.public_key,
                 crypto::KeyRole::kExpert)};
    server_ = std::make_unique<server::ReputationServer>(db_.get(), &loop_,
                                                         std::move(config));
    EXPECT_TRUE(server_->AttachRpc(&network_, "server").ok());
    client_ = std::make_unique<net::RpcClient>(&network_, &loop_, "client",
                                               "server");
    EXPECT_TRUE(client_->Start().ok());
  }

  static net::NetworkConfig MakeNetConfig() {
    net::NetworkConfig config;
    config.base_latency = util::kMillisecond;
    config.jitter = 0;
    return config;
  }

  util::Status Call(const std::string& method, xml::XmlNode request) {
    util::Status result = util::Status::Internal("no reply");
    bool done = false;
    client_->Call(method, std::move(request),
                  [&](util::Result<xml::XmlNode> response) {
                    result = response.ok() ? util::Status::Ok()
                                           : response.status();
                    done = true;
                  });
    loop_.RunUntil(loop_.Now() + util::kMinute);
    EXPECT_TRUE(done);
    return result;
  }

  TestIdentities ids_;
  net::EventLoop loop_;
  net::SimNetwork network_;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::ReputationServer> server_;
  std::unique_ptr<net::RpcClient> client_;
};

TEST_F(TrustRpcTest, SignedStatementsAcceptAndRejectOverBothCodecs) {
  // The signature gate must behave identically whichever codec carries the
  // statement: XML first, then the binary framing over the same methods.
  for (proto::WireCodec codec :
       {proto::WireCodec::kXml, proto::WireCodec::kBinary}) {
    client_->set_codec(codec);
    const std::string tag =
        codec == proto::WireCodec::kXml ? "xml" : "binary";

    SoftwareManifest manifest = MakeManifest(ids_, "app-" + tag + ".exe");
    xml::XmlNode good("request");
    good.AddChild(ManifestToXml(manifest));
    EXPECT_TRUE(Call("SubmitManifest", std::move(good)).ok()) << tag;

    SoftwareManifest forged = manifest;
    forged.version = "6.66";
    xml::XmlNode bad("request");
    bad.AddChild(ManifestToXml(forged));
    EXPECT_EQ(Call("SubmitManifest", std::move(bad)).code(),
              StatusCode::kPermissionDenied)
        << tag;

    ExpertAdvisory advisory = MakeAdvisory(ids_, "pis-" + tag + ".exe");
    xml::XmlNode good_adv("request");
    good_adv.AddChild(AdvisoryToXml(advisory));
    EXPECT_TRUE(Call("PublishAdvisory", std::move(good_adv)).ok()) << tag;

    ExpertAdvisory tampered = advisory;
    tampered.score = 9.9;
    xml::XmlNode bad_adv("request");
    bad_adv.AddChild(AdvisoryToXml(tampered));
    EXPECT_EQ(Call("PublishAdvisory", std::move(bad_adv)).code(),
              StatusCode::kPermissionDenied)
        << tag;
  }

  EXPECT_EQ(server_->stats().manifests_accepted, 2u);
  EXPECT_EQ(server_->stats().advisories_accepted, 2u);
  EXPECT_EQ(server_->stats().signatures_rejected, 4u);
}

// --- Client: declarative rules and decision metrics --------------------------

TEST(TrustClientTest, PolicyRulesReplaceConfiguredPolicyOnlyWhenValid) {
  net::EventLoop loop;
  net::NetworkConfig ncfg;
  ncfg.base_latency = util::kMillisecond;
  ncfg.jitter = 0;
  net::SimNetwork network(&loop, ncfg);

  // An offline client is enough: an unlisted binary goes straight from the
  // lists to the parsed policy, and every "ask" reaches the prompt handler.
  auto decide = [&](const std::string& address,
                    std::optional<std::string> rules) {
    client::ClientApp::Config config;
    config.address = address;
    config.server_address = "server";
    if (rules.has_value()) config.policy_rules = *rules;
    client::ClientApp app(&network, &loop, std::move(config));
    app.SetPromptHandler([](const client::PromptInfo&,
                            std::function<void(client::UserDecision)> done) {
      done(client::UserDecision{true, false});
    });
    std::optional<client::ExecDecision> decision;
    app.HandleExecution(client::FileImage("tool.exe", "tool-bytes", "", "1.0"),
                        [&](client::ExecDecision d) { decision = d; });
    loop.RunUntil(loop.Now() + util::kMinute);
    EXPECT_TRUE(decision.has_value()) << address;
    return app.stats();
  };

  // Valid text replaces the default: denied without a prompt.
  client::ClientStats valid = decide("c1", "default deny");
  EXPECT_EQ(valid.policy_denied, 1u);
  EXPECT_EQ(valid.prompts_shown, 0u);

  // The default asks about every unlisted binary...
  client::ClientStats unset = decide("c2", std::nullopt);
  EXPECT_EQ(unset.prompts_shown, 1u);
  EXPECT_EQ(unset.policy_allowed + unset.policy_denied, 0u);

  // ...and broken text falls back to it rather than deciding on its own.
  client::ClientStats broken = decide("c3", "frobnicate if moon");
  EXPECT_EQ(broken.prompts_shown, 1u);
  EXPECT_EQ(broken.user_allowed, 1u);
  EXPECT_EQ(broken.policy_allowed + broken.policy_denied, 0u);
}

/// Sum of the per-rule decision counters over all three actions.
std::uint64_t PolicyDecisionsCounted(const obs::MetricsRegistry& metrics) {
  std::uint64_t total = 0;
  for (const obs::MetricSnapshot& metric : metrics.Snapshot()) {
    if (metric.name.rfind("pisrep_trust_policy_", 0) == 0) {
      total += metric.counter_value;
    }
  }
  return total;
}

TEST(TrustClientTest, PerRuleDecisionMetricsAreEmitted) {
  net::EventLoop loop;
  net::NetworkConfig ncfg;
  ncfg.base_latency = util::kMillisecond;
  ncfg.jitter = 0;
  net::SimNetwork network(&loop, ncfg);
  auto db = storage::Database::Open("").value();
  server::ReputationServer::Config server_config;
  server_config.accounts.require_activation = false;
  server_config.flood.registration_puzzle_bits = 0;
  server_config.flood.max_registrations_per_source_per_day = 0;
  server::ReputationServer server(db.get(), &loop, server_config);
  ASSERT_TRUE(server.AttachRpc(&network, "server").ok());

  obs::MetricsRegistry metrics;
  client::ClientApp::Config config;
  config.address = "client";
  config.server_address = "server";
  config.username = "carol";
  config.password = "password";
  config.email = "carol@trust.example";
  config.policy_rules =
      "deny if shows keylogging\n"
      "default deny\n";
  config.metrics = &metrics;
  client::ClientApp app(&network, &loop, std::move(config));
  ASSERT_TRUE(app.Start().ok());

  bool onboarded = false;
  app.Register([&](util::Status status) {
    ASSERT_TRUE(status.ok()) << status.ToString();
    app.Login([&](util::Status logged_in) {
      ASSERT_TRUE(logged_in.ok());
      onboarded = true;
    });
  });
  loop.RunUntil(loop.Now() + util::kMinute);
  ASSERT_TRUE(onboarded);

  // Unknown, unlisted software: the default rule denies and the decision is
  // attributed to "<default>" in the per-rule counter.
  auto default_denies = [&] {
    return metrics
        .GetCounter(obs::WithLabel("pisrep_trust_policy_deny_total", "rule",
                                   "<default>"))
        ->Value();
  };
  client::FileImage image("mystery.exe", "mystery-bytes", "", "1.0");
  std::optional<client::ExecDecision> decision;
  app.HandleExecution(image,
                      [&](client::ExecDecision d) { decision = d; });
  loop.RunUntil(loop.Now() + util::kMinute);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, client::ExecDecision::kDeny);
  EXPECT_EQ(default_denies(), 1u);
  EXPECT_EQ(PolicyDecisionsCounted(metrics), 1u);

  // The client keeps each fired rule's counter: the rule firing again, and
  // a second client on the same registry, move the same series.
  app.HandleExecution(client::FileImage("other.exe", "other-bytes", "", "1"),
                      [](client::ExecDecision) {});
  loop.RunUntil(loop.Now() + util::kMinute);
  EXPECT_EQ(default_denies(), 2u);
  client::ClientApp::Config twin_config;
  twin_config.address = "client-twin";
  twin_config.policy_rules = "default deny";
  twin_config.metrics = &metrics;
  client::ClientApp twin(&network, &loop, std::move(twin_config));
  twin.HandleExecution(image, [](client::ExecDecision) {});
  loop.RunUntil(loop.Now() + util::kMinute);
  EXPECT_EQ(default_denies(), 3u);
  EXPECT_EQ(PolicyDecisionsCounted(metrics), 3u);

  // The lists decide before the policy: a whitelisted binary runs under
  // `default deny`, and no per-rule counter moves.
  client::FileImage trusted("tool.exe", "tool-bytes", "", "1.0");
  ASSERT_TRUE(app.lists().AddToWhitelist(trusted.Digest()).ok());
  decision.reset();
  app.HandleExecution(trusted,
                      [&](client::ExecDecision d) { decision = d; });
  loop.RunUntil(loop.Now() + util::kMinute);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, client::ExecDecision::kAllow);
  EXPECT_EQ(app.stats().allowed_whitelist, 1u);
  EXPECT_EQ(PolicyDecisionsCounted(metrics), 3u);

  // Likewise a blacklisted binary is denied under `default allow`.
  client::ClientApp::Config permissive;
  permissive.address = "client-permissive";
  permissive.server_address = "server";
  permissive.policy_rules = "default allow";
  permissive.metrics = &metrics;
  client::ClientApp lenient(&network, &loop, std::move(permissive));
  client::FileImage listed("bad.exe", "bad-bytes", "", "1.0");
  ASSERT_TRUE(lenient.lists().AddToBlacklist(listed.Digest()).ok());
  decision.reset();
  lenient.HandleExecution(listed,
                          [&](client::ExecDecision d) { decision = d; });
  loop.RunUntil(loop.Now() + util::kMinute);
  ASSERT_TRUE(decision.has_value());
  EXPECT_EQ(*decision, client::ExecDecision::kDeny);
  EXPECT_EQ(lenient.stats().denied_blacklist, 1u);
  EXPECT_EQ(lenient.stats().policy_denied, 0u);
  EXPECT_EQ(PolicyDecisionsCounted(metrics), 3u);
}

}  // namespace
}  // namespace pisrep::trust
