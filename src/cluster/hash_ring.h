#ifndef PISREP_CLUSTER_HASH_RING_H_
#define PISREP_CLUSTER_HASH_RING_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/sha1.h"

namespace pisrep::cluster {

/// Virtual points per shard on the cluster's ring. The router and the
/// shards' ownership guards each build a ring from it, so they agree on
/// which shard owns a title.
inline constexpr int kVnodesPerShard = 64;

/// Consistent-hash ring over the SHA-1 digest space.
///
/// The paper identifies every software by its SHA-1 digest (§3.3); the
/// cluster partitions reputation state by treating the first 8 digest
/// bytes as a position on a 64-bit ring. Each shard contributes
/// `vnodes_per_shard` virtual points (SHA-1 of "name#i"), which evens out
/// the per-shard key share, and a digest is owned by the shard whose
/// point is the first at or clockwise after the digest's position.
///
/// Determinism is the contract everything else leans on:
///  - ownership is a pure function of the member-name set — insertion
///    order never matters (the point map is rebuilt from the sorted
///    member set on every change, with lexicographic-min tie-breaking on
///    the astronomically unlikely point collision);
///  - adding a shard moves keys only *to* the new shard; removing one
///    moves only the removed shard's keys, redistributing them among the
///    survivors. Both properties are asserted over synthetic digest
///    populations in cluster_test.
class HashRing {
 public:
  explicit HashRing(int vnodes_per_shard = kVnodesPerShard);

  /// Adds a member; no-op when already present.
  void AddShard(const std::string& name);
  /// Removes a member; no-op when absent.
  void RemoveShard(const std::string& name);

  bool empty() const { return members_.empty(); }
  std::size_t size() const { return members_.size(); }
  bool Contains(const std::string& name) const {
    return members_.contains(name);
  }

  /// Owning shard of a digest. The ring must not be empty.
  const std::string& OwnerOf(const util::Sha1Digest& digest) const;

  /// The first `n` distinct shards at or clockwise after the digest's
  /// position — the replica preference list. Entry 0 is OwnerOf(digest);
  /// the list is shorter than `n` when the ring has fewer members. Like
  /// ownership, it is a pure function of the member set.
  std::vector<std::string> PreferenceListOf(const util::Sha1Digest& digest,
                                            std::size_t n) const;

  /// The first `n` distinct members clockwise after `name`'s first virtual
  /// point, excluding `name` itself — the deterministic successor order
  /// every member computes identically (gossip uses it to designate which
  /// survivor executes a dead shard's failover). Empty when `name` is not
  /// a member or is the only one.
  std::vector<std::string> SuccessorsOf(const std::string& name,
                                        std::size_t n) const;

  /// Members in sorted order (the canonical shard enumeration used for
  /// deterministic merges across shards).
  std::vector<std::string> Members() const;

  /// Ring position of a digest: its first 8 bytes, big-endian.
  static std::uint64_t PointOf(const util::Sha1Digest& digest);

 private:
  void Rebuild();

  int vnodes_;
  std::set<std::string> members_;
  std::map<std::uint64_t, std::string> ring_;
};

}  // namespace pisrep::cluster

#endif  // PISREP_CLUSTER_HASH_RING_H_
