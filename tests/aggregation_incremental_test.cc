#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/behavior.h"
#include "core/types.h"
#include "obs/metrics.h"
#include "proto/wire.h"
#include "server/account_manager.h"
#include "server/aggregation_job.h"
#include "server/score_snapshot.h"
#include "server/software_registry.h"
#include "server/vote_store.h"
#include "storage/database.h"
#include "util/logging.h"
#include "util/parallel_for.h"
#include "util/random.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "xml/xml_writer.h"

namespace pisrep::server {
namespace {

using core::SoftwareId;
using core::SoftwareMeta;
using core::UserId;

constexpr util::Duration kDay = util::kDay;
/// Fan-out width of the bit-equality checks: chunks on threads started per
/// call, as a server's tick runs them.
constexpr std::size_t kWidth = 4;

SoftwareMeta Meta(const std::string& tag, const std::string& company) {
  SoftwareMeta meta;
  meta.id = util::Sha1::Hash("agg-inc-" + tag);
  meta.file_name = tag + ".exe";
  meta.file_size = 1234;
  meta.company = company;
  meta.version = "1.0";
  return meta;
}

/// One self-contained server-side world: registry + votes + accounts + job
/// over an in-memory database, or over a tiered one whose stores keep four
/// rows resident per table (the rest are read back from the cold file).
struct World {
  explicit World(bool tiered = false) {
    storage::Database::OpenOptions options;
    if (tiered) {
      static int opened_worlds = 0;
      wal_path = util::StrFormat("%s/pisrep_agg_%d_%d.wal",
                                 testing::TempDir().c_str(),
                                 static_cast<int>(::getpid()),
                                 opened_worlds++);
      options.tier.path = wal_path + ".cold";
      std::remove(wal_path.c_str());
      std::remove(options.tier.path.c_str());
      for (const char* table : {"software", "software_scores",
                                "vendor_scores", "behavior_reports",
                                "run_stats", "ratings"}) {
        options.tier.tables[table].hot_capacity_rows = 4;
      }
    }
    auto opened = storage::Database::Open(wal_path, options);
    PISREP_CHECK(opened.ok()) << opened.status().ToString();
    db = std::move(*opened);
    registry = std::make_unique<SoftwareRegistry>(db.get());
    votes = std::make_unique<VoteStore>(db.get());
    AccountManager::Config config;
    config.require_activation = false;
    accounts = std::make_unique<AccountManager>(db.get(), config);
    job = std::make_unique<AggregationJob>(registry.get(), votes.get(),
                                           accounts.get());
  }

  UserId AddUser(const std::string& name) {
    auto token = accounts->Register(name, "password", name + "@x.com", 0);
    PISREP_CHECK(token.ok()) << token.status().ToString();
    return accounts->GetAccountByUsername(name)->id;
  }

  void Vote(UserId user, const SoftwareMeta& meta, int score,
            const std::string& comment = "", double trust_snapshot = 0.0) {
    PISREP_CHECK(registry->RegisterSoftware(meta).ok());
    core::RatingRecord record;
    record.user = user;
    record.software = meta.id;
    record.score = score;
    record.comment = comment;
    record.submitted_at = 0;
    PISREP_CHECK(
        votes->SubmitRating(record, /*approved=*/true, trust_snapshot).ok());
  }

  ~World() {
    job.reset();
    accounts.reset();
    votes.reset();
    registry.reset();
    db.reset();
    if (!wal_path.empty()) {
      std::remove(wal_path.c_str());
      std::remove((wal_path + ".cold").c_str());
    }
  }

  /// Demotes every unpinned row beyond each table's resident budget
  /// (no-op on an in-memory world).
  void Demote(util::TimePoint now) {
    PISREP_CHECK(db->TierTick(now).ok());
  }

  /// Renders the world's snapshot `width` wide (1: inline).
  std::shared_ptr<const ScoreSnapshot> Snapshot(util::TimePoint now,
                                                std::size_t width) {
    return BuildScoreSnapshot(*registry, *votes, SnapshotBuildOptions{},
                              /*epoch=*/1, now, width);
  }

  std::string wal_path;
  std::unique_ptr<storage::Database> db;
  std::unique_ptr<SoftwareRegistry> registry;
  std::unique_ptr<VoteStore> votes;
  std::unique_ptr<AccountManager> accounts;
  std::unique_ptr<AggregationJob> job;
};

/// A snapshot entry's wire bytes, plus its doubles exactly (the wire
/// rounds them to six decimals).
std::string Encoded(const proto::SoftwareInfo& info) {
  std::string out = xml::WriteXml(proto::SoftwareInfoToXml(info));
  if (info.score.has_value()) {
    out += util::StrFormat(" %a %a", info.score->score,
                           info.score->weight_sum);
  }
  if (info.vendor_score.has_value()) {
    out += util::StrFormat(" %a", info.vendor_score->score);
  }
  return out;
}

/// Asserts that two snapshots hold the same entries, compared entry by
/// entry through Encoded, and the same vendor table.
void ExpectSameSnapshot(const ScoreSnapshot& a, const ScoreSnapshot& b) {
  ASSERT_EQ(a.by_software.size(), b.by_software.size());
  for (const auto& [id, info] : a.by_software) {
    auto other = b.by_software.find(id);
    ASSERT_NE(other, b.by_software.end()) << id.ToHex();
    EXPECT_EQ(Encoded(info), Encoded(other->second)) << id.ToHex();
  }
  ASSERT_EQ(a.vendors.size(), b.vendors.size());
  for (std::size_t i = 0; i < a.vendors.size(); ++i) {
    EXPECT_EQ(xml::WriteXml(VendorIndexRow(a.vendors[i])),
              xml::WriteXml(VendorIndexRow(b.vendors[i])));
  }
  EXPECT_EQ(a.vendor_version, b.vendor_version);
}

/// Asserts that every software and vendor score in `a` and `b` agrees on
/// the value fields. `computed_at` is deliberately excluded: an
/// incremental run leaves clean entries untouched, so their timestamp is
/// legitimately older than a full sweep's.
void ExpectSameScores(World& a, World& b) {
  std::vector<SoftwareId> ids = a.registry->AllSoftware();
  ASSERT_EQ(ids.size(), b.registry->AllSoftware().size());
  for (const SoftwareId& id : ids) {
    auto sa = a.registry->GetScore(id);
    auto sb = b.registry->GetScore(id);
    ASSERT_EQ(sa.ok(), sb.ok()) << id.ToHex();
    if (!sa.ok()) continue;
    // Bit-exact, not NEAR: both modes must execute the identical
    // floating-point operations in the identical order.
    EXPECT_EQ(sa->score, sb->score) << id.ToHex();
    EXPECT_EQ(sa->vote_count, sb->vote_count) << id.ToHex();
    EXPECT_EQ(sa->weight_sum, sb->weight_sum) << id.ToHex();
  }
  std::vector<core::VendorScore> va = a.registry->AllVendorScores();
  std::vector<core::VendorScore> vb = b.registry->AllVendorScores();
  ASSERT_EQ(va.size(), vb.size());
  for (const core::VendorScore& vendor_a : va) {
    auto vendor_b = b.registry->GetVendorScore(vendor_a.vendor);
    ASSERT_TRUE(vendor_b.ok()) << vendor_a.vendor;
    EXPECT_EQ(vendor_a.score, vendor_b->score) << vendor_a.vendor;
    EXPECT_EQ(vendor_a.software_count, vendor_b->software_count)
        << vendor_a.vendor;
  }
}

// --- Incremental == full sweep, per dirt source --------------------------

class AggregationIncrementalTest : public ::testing::Test {
 protected:
  AggregationIncrementalTest() {
    // World `inc_` runs incrementally (periodic sweep guard off so the
    // test exercises pure dirty-set runs); world `full_` sweeps fully
    // every time.
    inc_.job->set_full_sweep_every(0);
  }

  /// Applies `op` to both worlds, then runs both jobs and checks equality.
  template <typename Op>
  void Mirror(Op op, util::TimePoint now) {
    op(inc_);
    op(full_);
    inc_.job->RunOnce(now);
    full_.job->RunOnce(now, /*full_sweep=*/true);
    ExpectSameScores(inc_, full_);
  }

  World inc_;
  World full_;
};

TEST_F(AggregationIncrementalTest, NewVoteMatchesFullSweep) {
  Mirror(
      [](World& w) {
        UserId u = w.AddUser("alice");
        w.Vote(u, Meta("a", "Acme"), 8);
        w.Vote(u, Meta("b", "Acme"), 3);
      },
      0);
  // Second round: one more vote on an existing title; the incremental run
  // must recompute exactly that title (plus its vendor).
  Mirror(
      [](World& w) {
        UserId u = w.AddUser("bob");
        w.Vote(u, Meta("a", "Acme"), 2);
      },
      kDay);
  const AggregationStats& stats = inc_.job->last_stats();
  EXPECT_FALSE(stats.full_sweep);
  EXPECT_EQ(stats.recomputed, 1u);
  EXPECT_EQ(stats.skipped, 1u);
  EXPECT_EQ(stats.candidates, 2u);
  EXPECT_EQ(stats.vendors_recomputed, 1u);
}

TEST_F(AggregationIncrementalTest, TrustChangeDirtiesVotersSoftware) {
  UserId inc_user = 0, full_user = 0;
  Mirror(
      [&](World& w) {
        UserId u = w.AddUser("carol");
        (&w == &inc_ ? inc_user : full_user) = u;
        w.Vote(u, Meta("c", "Vend"), 9);
        UserId other = w.AddUser("dave");
        w.Vote(other, Meta("d", "Vend"), 4);
      },
      0);
  // Only carol's trust moves; only her title must be recomputed.
  Mirror(
      [&](World& w) {
        UserId u = (&w == &inc_ ? inc_user : full_user);
        PISREP_CHECK(w.accounts->ApplyRemark(u, true, kDay).ok());
      },
      kDay);
  const AggregationStats& stats = inc_.job->last_stats();
  EXPECT_FALSE(stats.full_sweep);
  EXPECT_EQ(stats.dirty_trust, 1u);
  EXPECT_EQ(stats.recomputed, 1u);
  EXPECT_EQ(stats.skipped, 1u);
}

TEST_F(AggregationIncrementalTest, SnapshotVoteImmuneToTrustChange) {
  UserId inc_user = 0, full_user = 0;
  Mirror(
      [&](World& w) {
        UserId u = w.AddUser("eve");
        (&w == &inc_ ? inc_user : full_user) = u;
        // Pseudonymous-style vote: the weight was frozen at vote time.
        w.Vote(u, Meta("p", "Vend"), 7, "", /*trust_snapshot=*/2.0);
      },
      0);
  Mirror(
      [&](World& w) {
        UserId u = (&w == &inc_ ? inc_user : full_user);
        PISREP_CHECK(w.accounts->ApplyRemark(u, true, kDay).ok());
      },
      kDay);
  // A frozen-weight vote cannot change, so nothing was dirty.
  const AggregationStats& stats = inc_.job->last_stats();
  EXPECT_EQ(stats.dirty_trust, 0u);
  EXPECT_EQ(stats.recomputed, 0u);
}

TEST_F(AggregationIncrementalTest, BootstrapPriorChangeDirties) {
  Mirror(
      [](World& w) {
        UserId u = w.AddUser("fred");
        w.Vote(u, Meta("boot", "Acme"), 2);
        w.Vote(u, Meta("other", "Acme"), 5);
      },
      0);
  Mirror(
      [](World& w) {
        PISREP_CHECK(
            w.registry->PutBootstrapPrior(Meta("boot", "Acme").id, 9.0, 40.0)
                .ok());
      },
      kDay);
  const AggregationStats& stats = inc_.job->last_stats();
  EXPECT_EQ(stats.dirty_priors, 1u);
  EXPECT_EQ(stats.recomputed, 1u);
  // The blended score actually moved (sanity that the prior was applied).
  auto score = inc_.registry->GetScore(Meta("boot", "Acme").id);
  ASSERT_TRUE(score.ok());
  EXPECT_GT(score->score, 8.0);
}

TEST_F(AggregationIncrementalTest, ModerationFlipDirties) {
  UserId inc_user = 0, full_user = 0;
  Mirror(
      [&](World& w) {
        UserId u = w.AddUser("gina");
        (&w == &inc_ ? inc_user : full_user) = u;
        w.Vote(u, Meta("m", "Vend"), 6, "useful comment");
      },
      0);
  Mirror(
      [&](World& w) {
        UserId u = (&w == &inc_ ? inc_user : full_user);
        PISREP_CHECK(
            w.votes->SetApproved(u, Meta("m", "Vend").id, false).ok());
      },
      kDay);
  // Approval does not change score arithmetic, but the store dirties
  // conservatively and the recompute must still match the full sweep.
  const AggregationStats& stats = inc_.job->last_stats();
  EXPECT_EQ(stats.dirty_votes, 1u);
  EXPECT_EQ(stats.recomputed, 1u);
}

TEST_F(AggregationIncrementalTest, FirstRunIsAlwaysFullSweep) {
  UserId u = inc_.AddUser("henry");
  inc_.Vote(u, Meta("x", "V"), 5);
  // Drain the dirty set behind the job's back: even with nothing dirty,
  // run 1 must sweep (dirty state would not survive a process restart).
  (void)inc_.votes->TakeDirtySoftware();
  inc_.job->RunOnce(0);
  EXPECT_TRUE(inc_.job->last_stats().full_sweep);
  EXPECT_EQ(inc_.job->last_stats().recomputed, 1u);
}

TEST_F(AggregationIncrementalTest, PeriodicForcedFullSweep) {
  inc_.job->set_full_sweep_every(3);
  UserId u = inc_.AddUser("iris");
  inc_.Vote(u, Meta("y", "V"), 5);
  inc_.job->RunOnce(0);  // run 1: first run
  EXPECT_TRUE(inc_.job->last_stats().full_sweep);
  inc_.job->RunOnce(kDay);  // run 2: nothing dirty
  EXPECT_FALSE(inc_.job->last_stats().full_sweep);
  EXPECT_EQ(inc_.job->last_stats().recomputed, 0u);
  inc_.job->RunOnce(2 * kDay);  // run 3: forced sweep
  EXPECT_TRUE(inc_.job->last_stats().full_sweep);
  EXPECT_EQ(inc_.job->last_stats().recomputed, 1u);
}

TEST_F(AggregationIncrementalTest, EscapeHatchForcesFullSweep) {
  UserId u = inc_.AddUser("jack");
  inc_.Vote(u, Meta("z", "V"), 5);
  inc_.job->RunOnce(0);
  inc_.job->RunOnce(kDay, /*full_sweep=*/true);
  EXPECT_TRUE(inc_.job->last_stats().full_sweep);
  EXPECT_EQ(inc_.job->last_stats().recomputed, 1u);
}

TEST_F(AggregationIncrementalTest, SweepConsumesDirtySets) {
  UserId u = inc_.AddUser("kate");
  inc_.Vote(u, Meta("w", "V"), 5);
  inc_.job->RunOnce(0);  // full sweep consumes the dirty vote
  EXPECT_EQ(inc_.votes->DirtySoftwareCount(), 0u);
  inc_.job->RunOnce(kDay);
  // Nothing re-dirtied: the incremental run after a sweep starts clean.
  EXPECT_EQ(inc_.job->last_stats().recomputed, 0u);
}

// --- Metrics emission ------------------------------------------------------

TEST_F(AggregationIncrementalTest, MetricsAndLogLineDeriveFromSameStats) {
  obs::MetricsRegistry metrics;
  inc_.job->AttachObservability(&metrics, /*tracer=*/nullptr);

  UserId alice = inc_.AddUser("alice");
  UserId bob = inc_.AddUser("bob");
  SoftwareMeta a = Meta("obs-a", "VendorA");
  SoftwareMeta b = Meta("obs-b", "VendorB");

  // Accumulate what each run reported; the registry counters (which only
  // ever accumulate) must equal these sums exactly.
  std::uint64_t runs = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t recomputed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t dirty_votes = 0;
  std::uint64_t vendors = 0;
  auto absorb = [&] {
    const AggregationStats& s = inc_.job->last_stats();
    ++runs;
    if (s.full_sweep) ++sweeps;
    recomputed += s.recomputed;
    skipped += s.skipped;
    dirty_votes += s.dirty_votes;
    vendors += s.vendors_recomputed;
  };

  inc_.Vote(alice, a, 8);
  inc_.job->RunOnce(0);  // run 1: full sweep
  absorb();
  inc_.Vote(bob, b, 3);
  inc_.job->RunOnce(kDay);  // run 2: incremental, one dirty vote
  absorb();
  inc_.job->RunOnce(2 * kDay);  // run 3: clean, everything skipped
  absorb();

  EXPECT_EQ(
      metrics.GetCounter("pisrep_server_aggregation_runs_total")->Value(),
      runs);
  EXPECT_EQ(metrics.GetCounter("pisrep_server_aggregation_full_sweeps_total")
                ->Value(),
            sweeps);
  EXPECT_EQ(
      metrics.GetCounter("pisrep_server_aggregation_recomputed_total")
          ->Value(),
      recomputed);
  EXPECT_EQ(
      metrics.GetCounter("pisrep_server_aggregation_skipped_total")->Value(),
      skipped);
  EXPECT_EQ(metrics
                .GetCounter(obs::WithLabel(
                    "pisrep_server_aggregation_dirty_total", "kind", "votes"))
                ->Value(),
            dirty_votes);
  EXPECT_EQ(
      metrics
          .GetCounter("pisrep_server_aggregation_vendors_recomputed_total")
          ->Value(),
      vendors);
  // One run-duration observation per run (values are wall-clock and thus
  // not asserted; the count is deterministic), and one per phase.
  EXPECT_EQ(
      metrics.GetHistogram("pisrep_server_aggregation_run_micros", {})
          ->Count(),
      runs);
  for (const char* phase : {"select", "compute", "write", "vendor"}) {
    EXPECT_EQ(metrics
                  .GetHistogram(obs::WithLabel(kAggregationPhaseMicros,
                                               "phase", phase),
                                {})
                  ->Count(),
              runs)
        << phase;
  }
  // The phase histograms observe the stats fields: the last run's values
  // land in the sums.
  const AggregationStats& final_stats = inc_.job->last_stats();
  EXPECT_GE(metrics
                .GetHistogram(obs::WithLabel(kAggregationPhaseMicros,
                                             "phase", "compute"),
                              {})
                ->Sum(),
            static_cast<double>(final_stats.compute_micros));

  // The kInfo line is formatted by Summary() from the identical snapshot,
  // so its numbers must match the stats fields verbatim.
  const AggregationStats& last = inc_.job->last_stats();
  std::string line = last.Summary();
  EXPECT_NE(line.find("aggregation run " + std::to_string(last.run)),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("recomputed " + std::to_string(last.recomputed) + "/" +
                      std::to_string(last.candidates)),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("votes=" + std::to_string(last.dirty_votes)),
            std::string::npos)
      << line;
  EXPECT_NE(line.find(std::to_string(last.vendors_recomputed) + " vendors"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("select=" + std::to_string(last.select_micros) +
                      "us compute=" + std::to_string(last.compute_micros) +
                      "us write=" + std::to_string(last.write_micros) +
                      "us vendor=" + std::to_string(last.vendor_micros) +
                      "us"),
            std::string::npos)
      << line;
  EXPECT_EQ(last.select_micros + last.compute_micros + last.write_micros +
                last.vendor_micros,
            last.wall_micros);
}

// --- Parallel == serial ---------------------------------------------------

TEST(AggregationParallelTest, PoolMatchesSerialBitExactly) {
  auto populate = [&](World& w) {
    std::vector<UserId> users;
    for (int u = 0; u < 12; ++u) {
      users.push_back(w.AddUser("user" + std::to_string(u)));
    }
    // Deterministic vote pattern (same for both worlds).
    for (int u = 0; u < 12; ++u) {
      for (int s = 0; s < 8; ++s) {
        if ((u + s) % 3 == 0) continue;
        SoftwareMeta meta =
            Meta("sw" + std::to_string(s), "vendor" + std::to_string(s % 3));
        w.Vote(users[u], meta, 1 + (u * 7 + s * 5) % 10,
               (u + s) % 2 == 0 ? "comment " + std::to_string(u) : "");
      }
    }
    // Some trust churn so weights differ between users.
    for (int u = 0; u < 12; u += 2) {
      PISREP_CHECK(w.accounts->ApplyRemark(users[u], u % 4 == 0, 0).ok());
    }
    // What else a snapshot entry carries: reported behaviours, run counts,
    // a registered title without votes and a bootstrap prior.
    const auto ads = static_cast<core::BehaviorSet>(core::Behavior::kShowsAds);
    PISREP_CHECK(w.registry->ReportBehaviors(Meta("sw1", "vendor1").id, ads,
                                             3)
                     .ok());
    PISREP_CHECK(w.registry->AddRuns(Meta("sw2", "vendor2").id, 5).ok());
    PISREP_CHECK(w.registry->RegisterSoftware(Meta("idle", "vendor0")).ok());
    PISREP_CHECK(
        w.registry->PutBootstrapPrior(Meta("sw4", "vendor1").id, 7.5, 4.0)
            .ok());
  };

  // In memory, and on tiered stores where most reads are cold decodes
  // that queue faults: the fanned-out chunks read the same tables
  // concurrently (the ThreadSanitizer job runs this test).
  for (bool tiered : {false, true}) {
    SCOPED_TRACE(tiered ? "tiered" : "in memory");
    World serial(tiered);
    World parallel(tiered);
    parallel.job->set_fan_out_width(kWidth);
    populate(serial);
    populate(parallel);
    serial.Demote(0);
    parallel.Demote(0);

    serial.job->RunOnce(kDay, /*full_sweep=*/true);
    parallel.job->RunOnce(kDay, /*full_sweep=*/true);
    EXPECT_GT(parallel.job->last_stats().shards, 1u);
    ExpectSameScores(serial, parallel);

    // The render fans out the same way: the fanned-out snapshot equals
    // the serial one entry by entry.
    serial.Demote(kDay);
    parallel.Demote(kDay);
    auto serial_snapshot = serial.Snapshot(kDay, 1);
    auto fanned_snapshot = parallel.Snapshot(kDay, kWidth);
    EXPECT_EQ(serial_snapshot->by_software.size(), 9u);
    ExpectSameSnapshot(*serial_snapshot, *fanned_snapshot);
    if (tiered) {
      // The chunks really read cold rows: all but four votes were cold.
      storage::TieredTable* ratings = parallel.db->GetTiered("ratings").value();
      EXPECT_LE(ratings->HotRows(), 4u);
      EXPECT_GT(ratings->stats().faults, 0u);
    }
  }
}

TEST(AggregationParallelTest, TickWidthFollowsTheSplitRule) {
  World w;
  for (std::size_t i = 0; i + 1 < AggregationJob::kTickSplitTitles; ++i) {
    PISREP_CHECK(w.registry
                     ->RegisterSoftware(Meta("split" + std::to_string(i),
                                             "vendor" + std::to_string(i % 5)))
                     .ok());
  }
  // 511 titles: inline, unless overridden; 0 restores the rule.
  EXPECT_EQ(w.job->TickWidth(), 1u);
  w.job->set_fan_out_width(kWidth);
  EXPECT_EQ(w.job->TickWidth(), kWidth);
  w.job->set_fan_out_width(0);
  EXPECT_EQ(w.job->TickWidth(), 1u);
  // 512 titles: as wide as the host, unless overridden.
  PISREP_CHECK(w.registry->RegisterSoftware(Meta("split-last", "vendor0")).ok());
  EXPECT_GE(util::HardwareWidth(), 1u);
  EXPECT_EQ(w.job->TickWidth(), util::HardwareWidth());
  w.job->set_fan_out_width(1);
  EXPECT_EQ(w.job->TickWidth(), 1u);
}

// --- Property-style mirrored random op streams ----------------------------

/// One seed of the mirrored stream: random mutations land in both worlds,
/// `inc` aggregates incrementally kWidth wide and `full` sweeps serially,
/// and after every run the scores must agree bit for bit and `inc`'s
/// fanned-out snapshot must equal its serial one.
void RunMirroredOpStream(std::uint64_t seed) {
  World inc;
  World full;
  inc.job->set_full_sweep_every(0);
  inc.job->set_fan_out_width(kWidth);

  constexpr int kUsers = 10;
  constexpr int kSoftware = 15;
  std::vector<UserId> inc_users, full_users;
  for (int u = 0; u < kUsers; ++u) {
    inc_users.push_back(inc.AddUser("u" + std::to_string(u)));
    full_users.push_back(full.AddUser("u" + std::to_string(u)));
  }
  auto meta_for = [](int s) {
    return Meta("prop" + std::to_string(s), "pv" + std::to_string(s % 4));
  };
  auto check = [&](util::TimePoint now) {
    inc.job->RunOnce(now);
    full.job->RunOnce(now, /*full_sweep=*/true);
    ExpectSameScores(inc, full);
    ExpectSameSnapshot(*inc.Snapshot(now, 1), *inc.Snapshot(now, kWidth));
  };

  util::Rng rng(seed);
  util::TimePoint now = 0;
  for (int round = 0; round < 30; ++round) {
    // A burst of random mutations, mirrored into both worlds.
    int burst = 1 + static_cast<int>(rng.NextInt(0, 4));
    for (int i = 0; i < burst; ++i) {
      int u = static_cast<int>(rng.NextIndex(kUsers));
      int s = static_cast<int>(rng.NextIndex(kSoftware));
      switch (rng.NextIndex(4)) {
        case 0: {  // new vote (duplicate submissions simply fail)
          int score = 1 + static_cast<int>(rng.NextIndex(10));
          double snapshot = rng.NextIndex(5) == 0 ? 1.5 : 0.0;
          SoftwareMeta meta = meta_for(s);
          PISREP_CHECK(inc.registry->RegisterSoftware(meta).ok());
          PISREP_CHECK(full.registry->RegisterSoftware(meta).ok());
          core::RatingRecord record;
          record.user = inc_users[u];
          record.software = meta.id;
          record.score = score;
          // Odd scores carry a comment, so moderation flips change what
          // a snapshot entry shows.
          if (score % 2 == 1) record.comment = util::StrFormat("c%d", u);
          record.submitted_at = now;
          util::Status a = inc.votes->SubmitRating(record, true, snapshot);
          record.user = full_users[u];
          util::Status b = full.votes->SubmitRating(record, true, snapshot);
          PISREP_CHECK(a.ok() == b.ok());
          break;
        }
        case 1: {  // trust remark
          bool positive = rng.NextIndex(3) != 0;
          // Clamped remarks legitimately fail to move the factor; what
          // matters is that both worlds see the identical attempt.
          (void)inc.accounts->ApplyRemark(inc_users[u], positive, now);
          // Mirrored into the full-sweep world, same justification.
          (void)full.accounts->ApplyRemark(full_users[u], positive, now);
          break;
        }
        case 2: {  // bootstrap prior (re)write
          double score = 1.0 + static_cast<double>(rng.NextIndex(90)) / 10.0;
          double weight = 1.0 + static_cast<double>(rng.NextIndex(30));
          SoftwareMeta meta = meta_for(s);
          PISREP_CHECK(inc.registry->RegisterSoftware(meta).ok());
          PISREP_CHECK(full.registry->RegisterSoftware(meta).ok());
          PISREP_CHECK(
              inc.registry->PutBootstrapPrior(meta.id, score, weight).ok());
          PISREP_CHECK(
              full.registry->PutBootstrapPrior(meta.id, score, weight).ok());
          break;
        }
        case 3: {  // moderation flip
          bool approved = rng.NextIndex(2) == 0;
          // Flipping a comment that does not exist fails in both worlds
          // alike — the mirrored outcome is the property under test.
          (void)inc.votes->SetApproved(inc_users[u], meta_for(s).id,
                                       approved);
          // Mirrored into the full-sweep world, same justification.
          (void)full.votes->SetApproved(full_users[u], meta_for(s).id,
                                        approved);
          break;
        }
      }
    }
    // Sometimes skip the aggregation round entirely so dirt accumulates
    // across several bursts.
    if (rng.NextIndex(4) == 0) continue;
    now += kDay;
    check(now);
  }
  // Final convergence check after one last pair of runs.
  now += kDay;
  check(now);
}

TEST(AggregationPropertyTest, RandomOpStreamMatchesFullSweep) {
  // 200 seeds; a failure names its seed, which replays it alone.
  constexpr std::uint64_t kFirstSeed = 20260807;
  for (std::uint64_t seed = kFirstSeed; seed < kFirstSeed + 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunMirroredOpStream(seed);
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace pisrep::server
