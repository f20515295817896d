// Security lab: the paper's §5 future-work pipeline, end to end.
//
//   1. A lab runs automated runtime (sandbox) analysis on fresh samples and
//      publishes the findings as "hard evidence" — weighted behaviour
//      reports plus entries in a subscribable expert feed.
//   2. A client subscribes to that feed (§4.2) with a feed-aware policy, so
//      brand-new binaries with zero community votes are already covered.
//   3. Pseudonymous voting (the paper's idemix pointer) keeps the ratings
//      table free of account ids while preserving one-vote-per-software.

#include <cstdio>

#include "client/client_app.h"
#include "server/reputation_server.h"
#include "sim/runtime_analyzer.h"
#include "sim/software_ecosystem.h"
#include "storage/database.h"
#include "util/logging.h"

using namespace pisrep;

int main() {
  std::printf("pisrep security lab (paper section 5: future work)\n\n");

  net::EventLoop loop;
  net::SimNetwork network(&loop, net::NetworkConfig{});
  auto db = storage::Database::Open("").value();
  server::ReputationServer::Config server_config;
  server_config.flood.registration_puzzle_bits = 0;
  server_config.flood.max_registrations_per_source_per_day = 0;
  server_config.pseudonymous_votes = true;  // §5: pseudonym protection
  server::ReputationServer server(db.get(), &loop, server_config);
  PISREP_CHECK(server.AttachRpc(&network, "server").ok());

  // --- 1. The lab analyzes a small batch of fresh samples. ---------------
  sim::EcosystemConfig eco_config;
  eco_config.num_software = 12;
  eco_config.num_vendors = 6;
  eco_config.seed = 5;
  sim::SoftwareEcosystem eco = sim::SoftwareEcosystem::Generate(eco_config);

  sim::RuntimeAnalyzer::Config analyzer_config;
  analyzer_config.sensitivity = 0.95;
  analyzer_config.feed_name = "security-lab";
  sim::RuntimeAnalyzer analyzer(analyzer_config, &server.registry(),
                                &server.feeds());
  PISREP_CHECK(analyzer.SetUpFeed(/*publisher=*/1).ok());

  std::printf("runtime analysis of %zu fresh samples:\n", eco.size());
  for (const sim::SoftwareSpec& spec : eco.specs()) {
    auto result = analyzer.Analyze(spec, 1, loop.Now());
    if (!result.ok()) continue;
    auto entry =
        server.feeds().Lookup("security-lab", spec.image.Digest());
    std::printf("  %-14s -> lab score %.1f  behaviours [%s]\n",
                spec.image.file_name().c_str(),
                entry.ok() ? entry->score : 0.0,
                core::BehaviorSetToString(result->detected).c_str());
  }

  // --- 2. A subscribed client is protected from day zero. -----------------
  client::ClientApp::Config config;
  config.address = "workstation";
  config.server_address = "server";
  config.username = "employee";
  config.password = "pw-employee";
  config.email = "e@corp.example";
  config.subscribed_feed = "security-lab";
  config.vendor_fallback = true;
  config.policy_rules =
      "deny if feed-rating <= 4\n"
      "allow if feed-rating >= 7.5\n"
      "default ask\n";
  client::ClientApp app(&network, &loop, config);
  PISREP_CHECK(app.Start().ok());
  app.Register([&](util::Status status) {
    if (!status.ok()) return;
    auto mail = server.FetchMail("e@corp.example");
    app.Activate(mail->token, [&](util::Status) {
      app.Login([](util::Status) {});
    });
  });
  loop.RunUntil(loop.Now() + util::kMinute);

  app.SetPromptHandler([](const client::PromptInfo& info,
                          std::function<void(client::UserDecision)> done) {
    std::printf("    (prompted for %s — lab had no clear verdict)\n",
                info.meta.file_name.c_str());
    done(client::UserDecision{false, true});
  });

  std::printf("\nexecutions on the subscribed workstation "
              "(zero community votes exist):\n");
  int allowed = 0, denied = 0;
  for (const sim::SoftwareSpec& spec : eco.specs()) {
    app.HandleExecution(spec.image, [&](client::ExecDecision decision) {
      bool allow = decision == client::ExecDecision::kAllow;
      (allow ? allowed : denied)++;
      std::printf("  %-14s %-5s (truth: %s)\n",
                  spec.image.file_name().c_str(), allow ? "ALLOW" : "DENY",
                  core::PisCategoryName(spec.truth));
    });
    loop.RunUntil(loop.Now() + util::kMinute);
  }
  std::printf("summary: %d allowed, %d denied by lab verdicts alone\n",
              allowed, denied);

  // --- 3. Pseudonymous voting in action. -----------------------------------
  client::RatingSubmission vote;
  vote.score = 6;
  vote.comment = "runs fine on my machine";
  app.SubmitRating(eco.spec(0).image.Meta(), vote, [](util::Status) {});
  loop.RunUntil(loop.Now() + util::kMinute);
  auto votes = server.votes().VotesForSoftware(eco.spec(0).image.Digest());
  if (!votes.empty()) {
    std::printf("\npseudonymous vote stored: user field = %lld "
                "(negative pseudonym, trust snapshot %.1f) — the ratings "
                "table never learns the account id\n",
                static_cast<long long>(votes.back().record.user),
                votes.back().trust_snapshot);
  }
  return 0;
}
