#include "web/portal.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "core/rating_aggregator.h"
#include "obs/export.h"
#include "util/hex.h"
#include "util/string_util.h"
#include "web/html.h"

namespace pisrep::web {

namespace {

using core::SoftwareId;
using util::Result;
using util::Status;
using util::StrFormat;

/// Shared page chrome.
void PageHeader(std::string_view title, HtmlBuilder& html) {
  html.Open("html").Open("head");
  html.Element("title", std::string(title) + " - softwareputation");
  html.Close();  // head
  html.Open("body");
  html.Element("h1", title);
  html.Open("p");
  html.Link("/", "home").Text(" | ");
  html.Link("/top", "best rated").Text(" | ");
  html.Link("/worst", "worst rated").Text(" | ");
  html.Link("/stats", "statistics").Text(" | ");
  html.Link("/trust", "trust");
  html.Close();  // p
}

std::string ScoreText(const core::SoftwareScore& score) {
  return StrFormat("%.1f/10 (%d votes)", score.score, score.vote_count);
}

}  // namespace

std::vector<server::ReputationServer*> WebPortal::Shards() const {
  std::vector<server::ReputationServer*> shards = provider_();
  shards.erase(std::remove(shards.begin(), shards.end(), nullptr),
               shards.end());
  return shards;
}

server::ReputationServer* WebPortal::OwnerOf(const SoftwareId& id) const {
  // A software row lives on exactly one shard (digest partitioning), so
  // probing in shard order finds the owner without knowing the ring.
  for (server::ReputationServer* shard : Shards()) {
    if (shard->registry().HasSoftware(id)) return shard;
  }
  return nullptr;
}

Result<core::VendorScore> WebPortal::MergedVendorScore(
    const std::vector<server::ReputationServer*>& shards,
    const core::VendorId& vendor) const {
  std::vector<core::VendorScore> legs;
  for (server::ReputationServer* shard : shards) {
    auto leg = shard->registry().GetVendorScore(vendor);
    if (leg.ok()) legs.push_back(*std::move(leg));
  }
  return core::RatingAggregator::MergeVendor(vendor, legs);
}

std::string WebPortal::UrlDecode(std::string_view encoded) {
  std::string out;
  out.reserve(encoded.size());
  for (std::size_t i = 0; i < encoded.size(); ++i) {
    char c = encoded[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < encoded.size()) {
      auto decoded = util::HexDecode(encoded.substr(i + 1, 2));
      if (decoded.ok() && decoded->size() == 1) {
        out.push_back(static_cast<char>((*decoded)[0]));
        i += 2;
      } else {
        out.push_back(c);
      }
    } else {
      out.push_back(c);
    }
  }
  return out;
}

Result<std::string> WebPortal::Handle(std::string_view path) const {
  if (path == "/" || path.empty()) return HomePage();
  if (path == "/top") return TopListPage(/*best=*/true);
  if (path == "/worst") return TopListPage(/*best=*/false);
  if (path == "/stats") return StatsPage();
  if (path == "/trust") return TrustPage();
  if (path == "/metrics") return MetricsPage(/*json=*/false);
  if (path == "/metrics.json") return MetricsPage(/*json=*/true);
  if (util::StartsWith(path, "/software/")) {
    PISREP_ASSIGN_OR_RETURN(SoftwareId id,
                            core::SoftwareIdFromHex(path.substr(strlen("/software/"))));
    return SoftwarePage(id);
  }
  if (util::StartsWith(path, "/vendor/")) {
    return VendorPage(UrlDecode(path.substr(strlen("/vendor/"))));
  }
  if (util::StartsWith(path, "/search?q=")) {
    return SearchPage(UrlDecode(path.substr(strlen("/search?q="))));
  }
  return Status::NotFound("no such page: " + std::string(path));
}

std::string WebPortal::HomePage() const {
  std::vector<server::ReputationServer*> shards = Shards();
  std::size_t programs = 0;
  std::size_t votes = 0;
  // Accounts exist on every shard (broadcast registration); count once.
  std::size_t members = shards.empty() ? 0 : shards[0]->accounts().AccountCount();
  for (server::ReputationServer* shard : shards) {
    programs += shard->registry().SoftwareCount();
    votes += shard->votes().TotalVotes();
  }
  HtmlBuilder html;
  PageHeader("Software reputation portal", html);
  html.Open("p")
      .Text("Community ratings for the software on your computer. ")
      .Text(StrFormat("%zu programs tracked, %zu votes from %zu members.",
                      programs, votes, members))
      .Close();
  html.Open("form", {{"action", "/search"}, {"method", "get"}});
  html.Open("input", {{"name", "q"}, {"placeholder", "file name..."}});
  html.Close();
  html.Close();  // form
  return html.Finish();
}

Result<std::string> WebPortal::SoftwarePage(const SoftwareId& id) const {
  server::ReputationServer* owner = OwnerOf(id);
  if (owner == nullptr) {
    return Status::NotFound("software not registered: " + id.ToHex());
  }
  PISREP_ASSIGN_OR_RETURN(core::SoftwareMeta meta,
                          owner->registry().GetSoftware(id));
  HtmlBuilder html;
  PageHeader(meta.file_name, html);

  html.Open("table");
  html.TableRow({"SHA-1 id", id.ToHex()});
  html.TableRow({"file size", StrFormat("%lld bytes",
                                        static_cast<long long>(
                                            meta.file_size))});
  html.TableRow({"version", meta.version});
  if (meta.company.empty()) {
    // §3.3: an absent company name is itself a PIS signal — say so.
    html.TableRow({"company", "(none — treat with suspicion)"});
  } else {
    html.TableRow({"company", meta.company});
  }
  auto score = owner->registry().GetScore(id);
  html.TableRow({"community score",
                 score.ok() ? ScoreText(*score) : "not yet rated"});
  if (!meta.company.empty()) {
    // The vendor's catalogue spans shards; show the cluster-wide score.
    auto vendor = MergedVendorScore(Shards(), meta.company);
    if (vendor.ok()) {
      html.TableRow({"vendor score",
                     StrFormat("%.1f/10 over %d programs", vendor->score,
                               vendor->software_count)});
    }
  }
  core::BehaviorSet behaviors = owner->registry().ReportedBehaviors(
      id, owner->config().behavior_report_threshold);
  html.TableRow({"reported behaviours",
                 behaviors == core::kNoBehaviors
                     ? "none"
                     : core::BehaviorSetToString(behaviors)});
  html.TableRow({"community run count",
                 std::to_string(owner->registry().RunCount(id))});
  html.Close();  // table

  // §3: the web interface shows "all the comments that have been
  // submitted" (approved ones), with their meta-moderation balance.
  html.Element("h2", "comments");
  std::vector<server::StoredRating> votes =
      owner->votes().VotesForSoftware(id);
  std::sort(votes.begin(), votes.end(),
            [](const server::StoredRating& a, const server::StoredRating& b) {
              return a.record.submitted_at > b.record.submitted_at;
            });
  html.Open("ul");
  for (const server::StoredRating& vote : votes) {
    if (!vote.approved || vote.record.comment.empty()) continue;
    std::int64_t balance = owner->votes().RemarkBalance(vote.record.user, id);
    html.Open("li")
        .Text(StrFormat("[%d/10, helpfulness %+lld] ", vote.record.score,
                        static_cast<long long>(balance)))
        .Text(vote.record.comment)
        .Close();
  }
  html.Close();  // ul
  return html.Finish();
}

Result<std::string> WebPortal::VendorPage(std::string_view vendor) const {
  std::string name(vendor);
  std::vector<server::ReputationServer*> shards = Shards();
  // The catalogue is partitioned by digest; concatenate the per-shard
  // slices and order them deterministically regardless of sharding.
  std::vector<std::pair<server::ReputationServer*, core::SoftwareMeta>>
      catalogue;
  for (server::ReputationServer* shard : shards) {
    for (core::SoftwareMeta& meta : shard->registry().SoftwareByVendor(name)) {
      catalogue.emplace_back(shard, std::move(meta));
    }
  }
  if (catalogue.empty()) {
    return Status::NotFound("no software registered for vendor: " + name);
  }
  std::sort(catalogue.begin(), catalogue.end(),
            [](const auto& a, const auto& b) {
              if (a.second.file_name != b.second.file_name) {
                return a.second.file_name < b.second.file_name;
              }
              return a.second.id.ToHex() < b.second.id.ToHex();
            });
  HtmlBuilder html;
  PageHeader("Vendor: " + name, html);
  auto vendor_score = MergedVendorScore(shards, name);
  if (vendor_score.ok()) {
    html.Element("p", StrFormat("derived vendor score: %.1f/10 over %d "
                                "rated programs",
                                vendor_score->score,
                                vendor_score->software_count));
  }
  html.Open("table");
  html.TableRow({"file name", "version", "score"}, "th");
  for (const auto& [shard, meta] : catalogue) {
    auto score = shard->registry().GetScore(meta.id);
    html.Open("tr");
    html.Open("td");
    html.Link("/software/" + meta.id.ToHex(), meta.file_name);
    html.Close();
    html.Element("td", meta.version);
    html.Element("td", score.ok() ? ScoreText(*score) : "unrated");
    html.Close();  // tr
  }
  html.Close();  // table
  return html.Finish();
}

std::string WebPortal::SearchPage(std::string_view query) const {
  HtmlBuilder html;
  PageHeader("Search: " + std::string(query), html);
  std::vector<core::SoftwareMeta> hits;
  for (server::ReputationServer* shard : Shards()) {
    for (core::SoftwareMeta& meta : shard->registry().SearchByName(query)) {
      hits.push_back(std::move(meta));
    }
  }
  // Deterministic cross-shard order: by name, digest as tie-break.
  std::sort(hits.begin(), hits.end(),
            [](const core::SoftwareMeta& a, const core::SoftwareMeta& b) {
              if (a.file_name != b.file_name) return a.file_name < b.file_name;
              return a.id.ToHex() < b.id.ToHex();
            });
  html.Element("p", StrFormat("%zu result(s)", hits.size()));
  html.Open("ul");
  std::size_t shown = 0;
  for (const core::SoftwareMeta& meta : hits) {
    if (shown++ >= list_limit_) break;
    html.Open("li");
    html.Link("/software/" + meta.id.ToHex(), meta.file_name);
    html.Text(meta.company.empty() ? " (no company)"
                                   : " by " + meta.company);
    html.Close();
  }
  html.Close();  // ul
  return html.Finish();
}

std::string WebPortal::TopListPage(bool best) const {
  // Each shard serves its own top slice off the ordered score index; the
  // merge keeps the best `list_limit_` overall. Deterministic order:
  // score (descending for /top, ascending for /worst), digest ascending
  // as tie-break — independent of shard count and iteration order.
  std::vector<std::pair<server::ReputationServer*, core::SoftwareScore>>
      merged;
  for (server::ReputationServer* shard : Shards()) {
    for (core::SoftwareScore& score :
         shard->registry().TopScored(list_limit_, best)) {
      merged.emplace_back(shard, std::move(score));
    }
  }
  std::sort(merged.begin(), merged.end(),
            [best](const auto& a, const auto& b) {
              if (a.second.score != b.second.score) {
                return best ? a.second.score > b.second.score
                            : a.second.score < b.second.score;
              }
              return a.second.software.ToHex() < b.second.software.ToHex();
            });
  if (merged.size() > list_limit_) merged.resize(list_limit_);

  HtmlBuilder html;
  PageHeader(best ? "Best rated software" : "Worst rated software", html);
  html.Open("ol");
  for (const auto& [shard, score] : merged) {
    auto meta = shard->registry().GetSoftware(score.software);
    if (!meta.ok()) continue;
    html.Open("li");
    html.Link("/software/" + meta->id.ToHex(), meta->file_name);
    html.Text(" — " + ScoreText(score));
    html.Close();
  }
  html.Close();  // ol
  return html.Finish();
}

std::string WebPortal::StatsPage() const {
  std::vector<server::ReputationServer*> shards = Shards();
  server::ServerStats stats;
  std::size_t members = shards.empty() ? 0 : shards[0]->accounts().AccountCount();
  std::size_t programs = 0;
  std::size_t votes = 0;
  std::size_t remarks = 0;
  for (server::ReputationServer* shard : shards) {
    programs += shard->registry().SoftwareCount();
    votes += shard->votes().TotalVotes();
    remarks += shard->votes().TotalRemarks();
    stats.queries += shard->stats().queries;
    stats.votes_rejected_duplicate += shard->stats().votes_rejected_duplicate;
    stats.votes_rejected_flood += shard->stats().votes_rejected_flood;
    stats.registrations_rejected += shard->stats().registrations_rejected;
  }
  HtmlBuilder html;
  PageHeader("Deployment statistics", html);
  html.Open("table");
  html.TableRow({"registered members", std::to_string(members)});
  html.TableRow({"tracked programs", std::to_string(programs)});
  html.TableRow({"votes", std::to_string(votes)});
  html.TableRow({"comment remarks", std::to_string(remarks)});
  html.TableRow({"queries served", std::to_string(stats.queries)});
  html.TableRow({"duplicate votes rejected",
                 std::to_string(stats.votes_rejected_duplicate)});
  html.TableRow({"flood-limited votes",
                 std::to_string(stats.votes_rejected_flood)});
  html.TableRow({"registrations rejected",
                 std::to_string(stats.registrations_rejected)});
  html.Close();
  return html.Finish();
}

std::string WebPortal::TrustPage() const {
  std::vector<server::ReputationServer*> shards = Shards();
  HtmlBuilder html;
  PageHeader("Trust plane", html);

  // Pinned keys are broadcast state — identical on every shard; render the
  // first live backend's store.
  if (!shards.empty()) {
    crypto::TrustStore& keys = shards[0]->trust_keys();
    html.Element("h2", "Pinned signing keys");
    html.Open("table");
    html.TableRow({"role", "name", "key fingerprint"});
    for (crypto::KeyRole role :
         {crypto::KeyRole::kVendor, crypto::KeyRole::kExpert}) {
      for (const std::string& name : keys.NamesWithRole(role)) {
        auto certificate = keys.FindCertificate(name);
        if (!certificate.ok()) continue;
        html.TableRow({crypto::KeyRoleName(role), name,
                       crypto::KeyFingerprint(certificate->public_key)});
      }
    }
    html.Close();
  }

  std::uint64_t manifests = 0;
  std::uint64_t advisories = 0;
  std::uint64_t rejected = 0;
  for (server::ReputationServer* shard : shards) {
    manifests += shard->stats().manifests_accepted;
    advisories += shard->stats().advisories_accepted;
    rejected += shard->stats().signatures_rejected;
  }
  html.Element("h2", "Signed statements");
  html.Open("table");
  html.TableRow({"manifests accepted", std::to_string(manifests)});
  html.TableRow({"advisories accepted", std::to_string(advisories)});
  html.TableRow({"signatures rejected", std::to_string(rejected)});
  html.Close();

  html.Element("h2", "Audit chains");
  html.Open("table");
  html.TableRow({"shard", "entries", "head hash", "checkpoints"});
  int ordinal = 0;
  for (server::ReputationServer* shard : shards) {
    trust::AuditLog* audit = shard->audit();
    if (audit == nullptr) {
      html.TableRow({std::to_string(ordinal++), "disabled", "-", "-"});
      continue;
    }
    html.TableRow({std::to_string(ordinal++),
                   std::to_string(audit->head_index()), audit->head_hash(),
                   std::to_string(audit->checkpoint_count())});
  }
  html.Close();
  return html.Finish();
}

Result<std::string> WebPortal::MetricsPage(bool json) const {
  // Raw exposition, not HTML: the consumers are scrapers and tooling. All
  // shards share one registry in a cluster; the first live backend with
  // one attached serves it.
  for (server::ReputationServer* shard : Shards()) {
    const obs::MetricsRegistry* metrics = shard->metrics();
    if (metrics != nullptr) {
      return json ? obs::RenderJson(*metrics) : obs::RenderText(*metrics);
    }
  }
  return Status::Unavailable("no metrics registry attached");
}

}  // namespace pisrep::web
