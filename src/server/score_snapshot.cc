#include "server/score_snapshot.h"

#include <algorithm>
#include <utility>

#include "util/logging.h"
#include "util/parallel_for.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "xml/xml_writer.h"

namespace pisrep::server {

proto::SoftwareInfo LookupSnapshotInfo(const ScoreSnapshot& snapshot,
                                       const core::SoftwareId& id) {
  auto it = snapshot.by_software.find(id);
  if (it != snapshot.by_software.end()) return it->second;
  // Unknown digest: the same shape MaterializeTitle returns for software
  // that is neither registered nor run-counted.
  proto::SoftwareInfo info;
  info.meta.id = id;
  info.known = false;
  return info;
}

xml::XmlNode VendorIndexRow(const core::VendorScore& vendor) {
  xml::XmlNode row("vendor");
  row.SetAttribute("name", vendor.vendor);
  row.SetAttribute("score", util::StrFormat("%.17g", vendor.score));
  row.SetAttribute("count", std::to_string(vendor.software_count));
  row.SetAttribute("computed_at", std::to_string(vendor.computed_at));
  return row;
}

proto::SoftwareInfo MaterializeTitle(const SoftwareRegistry& registry,
                                     const VoteStore& votes,
                                     const SnapshotBuildOptions& options,
                                     const core::SoftwareId& id) {
  proto::SoftwareInfo info;
  // Run statistics attach to the digest and exist even before the first
  // rating registers the software.
  info.run_count = registry.RunCount(id);
  auto meta = registry.GetSoftware(id);
  if (!meta.ok()) {
    info.meta.id = id;
    info.known = false;
    return info;
  }
  info.meta = *meta;
  info.known = true;
  auto score = registry.GetScore(id);
  if (score.ok()) info.score = *score;
  if (!info.meta.company.empty()) {
    auto vendor = registry.GetVendorScore(info.meta.company);
    if (vendor.ok()) info.vendor_score = *vendor;
  }
  info.reported_behaviors =
      registry.ReportedBehaviors(id, options.behavior_report_threshold);
  info.comments = votes.VisibleComments(id, options.max_comments_per_query);
  return info;
}

std::shared_ptr<const ScoreSnapshot> BuildScoreSnapshot(
    const SoftwareRegistry& registry, const VoteStore& votes,
    const SnapshotBuildOptions& options, std::uint64_t epoch,
    util::TimePoint now, std::size_t width) {
  auto snapshot = std::make_shared<ScoreSnapshot>();
  snapshot->epoch = epoch;
  snapshot->published_at = now;
  // Generations are read before the tables: a mutation racing the build
  // could only make the snapshot look *staler* than it is (a harmless
  // extra miss), never fresher. In practice builds run on the single
  // writer thread anyway.
  snapshot->registry_generation = registry.content_generation();
  snapshot->votes_generation = votes.content_generation();

  const std::vector<core::SoftwareId> ids = registry.AllSoftware();
  std::vector<proto::SoftwareInfo> infos(ids.size());
  util::ParallelFor(width, ids.size(),
                    [&](std::size_t begin, std::size_t end) {
                      for (std::size_t i = begin; i < end; ++i) {
                        infos[i] =
                            MaterializeTitle(registry, votes, options, ids[i]);
                      }
                    });
  snapshot->by_software.reserve(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    PISREP_CHECK(infos[i].known) << "software listed but not readable";
    snapshot->by_software.emplace(ids[i], std::move(infos[i]));
  }

  // Run statistics attach to bare digests before any registration;
  // MaterializeTitle answers those with known=false plus the counter, so
  // the snapshot must too.
  for (const auto& [id, runs] : registry.AllRunCounts()) {
    if (snapshot->by_software.find(id) != snapshot->by_software.end()) {
      continue;
    }
    proto::SoftwareInfo info;
    info.meta.id = id;
    info.known = false;
    info.run_count = runs;
    snapshot->by_software.emplace(id, std::move(info));
  }

  snapshot->vendors = registry.AllVendorScores();
  std::sort(snapshot->vendors.begin(), snapshot->vendors.end(),
            [](const core::VendorScore& a, const core::VendorScore& b) {
              return a.vendor < b.vendor;
            });
  util::Sha1 hash;
  for (const core::VendorScore& vendor : snapshot->vendors) {
    hash.Update(xml::WriteXml(VendorIndexRow(vendor)));
  }
  const util::Sha1Digest digest = hash.Finish();
  for (std::size_t i = 0; i < sizeof(snapshot->vendor_version); ++i) {
    snapshot->vendor_version =
        (snapshot->vendor_version << 8) | digest.bytes[i];
  }
  return snapshot;
}

}  // namespace pisrep::server
