// Policy manager: the §4.2 improvement in action.
//
// A corporate administrator writes an execution policy as rule text on top
// of the reputation data. The paper's worked example lets software signed
// by trusted vendors run, lets software rated above 7.5/10 with no
// advertising behaviours run, and asks about everything else; a corporate
// lockdown denies instead of asking — no user prompts at all. We push a
// small catalogue of files through the policies and print the decision
// matrix, naming each fired rule by its source line. White- and
// black-listed binaries never reach a policy: the client decides them
// first (§3.1).

#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "trust/policy_rules.h"
#include "util/logging.h"

using namespace pisrep;

namespace {

struct CatalogEntry {
  const char* description;
  core::PolicyInput input;
};

core::Policy Parse(std::string_view rules, std::string_view name) {
  auto policy = trust::ParsePolicyRules(rules, name);
  PISREP_CHECK(policy.ok()) << policy.status().ToString();
  return *std::move(policy);
}

void Evaluate(const core::Policy& policy,
              const std::vector<CatalogEntry>& catalog) {
  std::printf("\npolicy: %s (default action: %s)\n", policy.name().c_str(),
              core::PolicyActionName(policy.default_action()));
  std::printf("  %-52s | %-6s | rule\n", "software", "action");
  std::printf("  ----------------------------------------------------+--------"
              "+---------------------\n");
  for (const CatalogEntry& entry : catalog) {
    std::string rule;
    core::PolicyAction action = policy.Evaluate(entry.input, &rule);
    std::printf("  %-52s | %-6s | %s\n", entry.description,
                core::PolicyActionName(action), rule.c_str());
  }
}

}  // namespace

int main() {
  std::printf("pisrep policy manager example (paper section 4.2)\n");

  // Build the catalogue of pending executions as the policy engine sees
  // them: signature status + reputation data + reported behaviours.
  std::vector<CatalogEntry> catalog;

  {
    core::PolicyInput input;
    input.has_valid_signature = true;
    input.vendor_trusted = true;
    input.has_company_name = true;
    catalog.push_back({"office suite, valid signature from trusted vendor",
                       input});
  }
  {
    core::PolicyInput input;
    input.has_company_name = true;
    input.rating = 8.7;
    input.vote_count = 120;
    catalog.push_back({"popular open-source tool, rated 8.7 by 120 users",
                       input});
  }
  {
    core::PolicyInput input;
    input.has_company_name = true;
    input.rating = 8.9;
    input.vote_count = 45;
    input.reported_behaviors =
        static_cast<core::BehaviorSet>(core::Behavior::kShowsAds);
    catalog.push_back({"well-liked freeware that shows ads (rated 8.9)",
                       input});
  }
  {
    core::PolicyInput input;
    input.has_company_name = true;
    input.rating = 2.1;
    input.vote_count = 60;
    input.reported_behaviors =
        static_cast<core::BehaviorSet>(core::Behavior::kTracksUsage) |
        static_cast<core::BehaviorSet>(core::Behavior::kNoUninstall);
    catalog.push_back({"browser toolbar rated 2.1, tracks usage", input});
  }
  {
    core::PolicyInput input;
    input.has_company_name = false;  // §3.3: a PIS signal in itself
    catalog.push_back({"unknown binary with no company name, unrated",
                       input});
  }
  {
    core::PolicyInput input;
    input.vendor_blocked = true;
    input.has_valid_signature = true;
    input.has_company_name = true;
    input.rating = 9.5;
    input.vote_count = 300;
    catalog.push_back({"highly-rated software from a blocked vendor",
                       input});
  }

  Evaluate(Parse(trust::PaperExampleRules(), "paper-default"), catalog);
  Evaluate(Parse("allow if signed-by trusted vendor\n"
                 "default deny\n",
                 "corporate-lockdown"),
           catalog);

  // A custom policy: §4.2 lets organisations compose their own rules — for
  // example "allow trusted signatures; deny anything that registers itself
  // at startup; ask otherwise".
  core::Policy custom = Parse(
      "allow if signed-by trusted vendor\n"
      "deny if shows startup_registration\n"
      "default ask\n",
      "no-startup-programs");
  {
    core::PolicyInput input;
    input.has_company_name = true;
    input.rating = 7.0;
    input.vote_count = 30;
    input.reported_behaviors = static_cast<core::BehaviorSet>(
        core::Behavior::kStartupRegistration);
    catalog.push_back({"decent tool that insists on starting at boot",
                       input});
  }
  Evaluate(custom, catalog);
  return 0;
}
