#ifndef PISREP_SERVER_SCORE_SNAPSHOT_H_
#define PISREP_SERVER_SCORE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "proto/wire.h"
#include "server/software_registry.h"
#include "server/vote_store.h"
#include "util/atomic_shared_ptr.h"
#include "util/clock.h"
#include "xml/xml_node.h"

namespace pisrep::server {

/// An immutable, epoch-numbered materialization of everything the read
/// path serves (DESIGN.md §14): every digest's full QuerySoftware answer
/// and every vendor's aggregate score, frozen at publication time.
///
/// RCU discipline: a ScoreSnapshot is built off to the side, published via
/// one atomic shared-pointer swap (SnapshotPublisher) and never modified
/// afterwards. Readers that grabbed the previous snapshot keep a reference
/// and finish against a consistent epoch; the last reference reclaims it.
/// Readers therefore never block the writer and the writer never blocks
/// readers — there is no lock to take on either side.
struct ScoreSnapshot {
  /// 1-based publication counter (monotonic per server).
  std::uint64_t epoch = 0;
  /// Sim time of publication (drives the snapshot-age gauge).
  util::TimePoint published_at = 0;
  /// Content generations of the two mutable stores at build time. The
  /// gated read path serves from the snapshot only while these still match
  /// the live stores, and reads run counts (which no generation covers)
  /// live, which keeps single-threaded callers bit-compatible with the
  /// historical always-fresh behaviour.
  std::uint64_t registry_generation = 0;
  std::uint64_t votes_generation = 0;

  /// Digest → fully materialized QuerySoftware answer. Digests known only
  /// through run statistics are present too (run_count set, known=false),
  /// exactly as MaterializeTitle renders unregistered software.
  std::unordered_map<core::SoftwareId, proto::SoftwareInfo,
                     core::SoftwareIdHash>
      by_software;
  /// Every vendor's aggregate score, sorted by name: the table
  /// QueryVendorIndex serves to the cluster router.
  std::vector<core::VendorScore> vendors;
  /// Content hash of `vendors` as QueryVendorIndex renders them. Unlike
  /// the epoch, which restarts at 1 in every new primary at an address,
  /// it survives a failover onto an identical table (DESIGN.md §11.2).
  std::uint64_t vendor_version = 0;
};

/// Attribute carrying vendor_version (decimal) on QueryVendorIndex answers
/// and on a cluster shard's QuerySoftware and QueryVendor answers; the
/// router strips it before replying to a client.
inline constexpr std::string_view kVendorVersionAttribute = "vendor_version";

/// One row of QueryVendorIndex's answer: <vendor name score count
/// computed_at/>, the score as %.17g so the router merges the exact
/// per-shard means (core::RatingAggregator::MergeVendor).
xml::XmlNode VendorIndexRow(const core::VendorScore& vendor);

/// The answer the snapshot gives for `id` — identical in shape to
/// MaterializeTitle's: a full entry when the digest is known, otherwise an
/// empty known=false record carrying the digest. Shared by the server read
/// path and the consistency property test so both agree on the semantics
/// by construction.
proto::SoftwareInfo LookupSnapshotInfo(const ScoreSnapshot& snapshot,
                                       const core::SoftwareId& id);

/// The rendering knobs copied from ReputationServer::Config (how many
/// comments an answer carries, when a behaviour is surfaced).
struct SnapshotBuildOptions {
  std::size_t max_comments_per_query = 10;
  int behavior_report_threshold = 2;
};

/// Renders everything the live stores know about `id` as a QuerySoftware
/// answer: the full entry when the digest is registered, otherwise
/// known=false with the digest and its run count. The one renderer of a
/// SoftwareInfo: BuildScoreSnapshot calls it for every registered title,
/// and QuerySoftware calls it when the snapshot gate misses.
proto::SoftwareInfo MaterializeTitle(const SoftwareRegistry& registry,
                                     const VoteStore& votes,
                                     const SnapshotBuildOptions& options,
                                     const core::SoftwareId& id);

/// Materializes a snapshot from the live stores through MaterializeTitle.
/// Runs on the writer thread, which fans the per-title renders out
/// `width` wide through util::ParallelFor (1 renders inline): chunks only
/// read the stores and fill disjoint slots, and the calling thread inserts
/// the entries, so the result is the same at every width. It is immutable.
std::shared_ptr<const ScoreSnapshot> BuildScoreSnapshot(
    const SoftwareRegistry& registry, const VoteStore& votes,
    const SnapshotBuildOptions& options, std::uint64_t epoch,
    util::TimePoint now, std::size_t width);

/// The single atomic publication point. Writers Publish a freshly built
/// snapshot (release); readers Current() it (acquire) and hold the
/// shared_ptr for the duration of their read. No mutex anywhere: the
/// atomic shared-pointer swap *is* the entire synchronization protocol,
/// which is why the read path carries no GUARDED_BY obligations for the
/// thread-safety analysis to flag. (util::AtomicSharedPtr rather than
/// std::atomic<std::shared_ptr> — see that header for the libstdc++
/// memory-order bug it works around.)
class SnapshotPublisher {
 public:
  /// The most recently published snapshot; null before the first Publish.
  std::shared_ptr<const ScoreSnapshot> Current() const {
    return snapshot_.Load();
  }

  void Publish(std::shared_ptr<const ScoreSnapshot> snapshot) {
    snapshot_.Store(std::move(snapshot));
  }

 private:
  util::AtomicSharedPtr<const ScoreSnapshot> snapshot_;
};

}  // namespace pisrep::server

#endif  // PISREP_SERVER_SCORE_SNAPSHOT_H_
