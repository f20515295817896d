#ifndef PISREP_WEB_PORTAL_H_
#define PISREP_WEB_PORTAL_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "server/reputation_server.h"
#include "util/status.h"

namespace pisrep::web {

/// The §3 web interface: "an extension to the GUI client, where users e.g.
/// can read more information about some particular software program or
/// vendor along with all the comments that have been submitted", with
/// "more possibilities in searching the information stored in the
/// database."
///
/// The portal renders server state into HTML pages and routes URL paths:
///
///   /                      front page (totals + navigation)
///   /software/<sha1-hex>   one program: metadata, score, behaviours,
///                          every approved comment with its remark balance
///   /vendor/<name>         one vendor: derived score + software catalogue
///   /search?q=<query>      case-insensitive file-name search
///   /top                   best-rated programs
///   /worst                 worst-rated programs (the PIS wall of shame)
///   /stats                 deployment statistics
///   /metrics               live runtime metrics, Prometheus-style text
///   /metrics.json          the same metrics as JSON
///
/// Read-only by design: votes and remarks are submitted through the client
/// application; the web side only presents.
///
/// The portal reads one server *or* a whole shard cluster: the provider
/// returns every live backend, and pages merge across them
/// deterministically (software rows live on exactly one shard; vendor
/// scores merge weighted by software count; top/worst lists merge by
/// score, digest-tie-broken). A provider lets the backend set change under
/// the portal — a shard mid-failover simply drops out of a page render.
class WebPortal {
 public:
  using ServerProvider =
      std::function<std::vector<server::ReputationServer*>()>;

  /// Single-server portal. The server must outlive the portal.
  explicit WebPortal(server::ReputationServer* server,
                     std::size_t list_limit = 25)
      : provider_([server] {
          return std::vector<server::ReputationServer*>{server};
        }),
        list_limit_(list_limit) {}

  /// Multi-shard portal: `provider` is polled per page render and returns
  /// the live shard primaries (nulls are skipped). Every returned server
  /// must stay alive for the duration of one Handle call.
  explicit WebPortal(ServerProvider provider, std::size_t list_limit = 25)
      : provider_(std::move(provider)), list_limit_(list_limit) {}

  /// Routes a request path to the matching page. Unknown paths and
  /// malformed ids produce kNotFound / kInvalidArgument.
  util::Result<std::string> Handle(std::string_view path) const;

  // Individual page renderers (also used directly by tests).
  std::string HomePage() const;
  util::Result<std::string> SoftwarePage(const core::SoftwareId& id) const;
  util::Result<std::string> VendorPage(std::string_view vendor) const;
  std::string SearchPage(std::string_view query) const;
  std::string TopListPage(bool best) const;
  std::string StatsPage() const;
  /// The signed trust plane: pinned vendor/expert keys, verified-manifest
  /// count, signature accept/reject totals, and per-shard audit-chain
  /// health (length, head hash, checkpoints).
  std::string TrustPage() const;
  /// Text (`json == false`) or JSON exposition of the server's metrics
  /// registry; kUnavailable when no registry is attached.
  util::Result<std::string> MetricsPage(bool json) const;

  /// Decodes %XX escapes and '+' in a URL query component.
  static std::string UrlDecode(std::string_view encoded);

 private:
  /// The live backends this render (nulls filtered out).
  std::vector<server::ReputationServer*> Shards() const;
  /// The shard whose registry holds `id`, or null.
  server::ReputationServer* OwnerOf(const core::SoftwareId& id) const;
  /// Cross-shard vendor mean, weighted by per-shard software counts
  /// (core::RatingAggregator::MergeVendor, the merge the cluster router
  /// serves over RPC).
  util::Result<core::VendorScore> MergedVendorScore(
      const std::vector<server::ReputationServer*>& shards,
      const core::VendorId& vendor) const;

  ServerProvider provider_;
  std::size_t list_limit_;
};

}  // namespace pisrep::web

#endif  // PISREP_WEB_PORTAL_H_
