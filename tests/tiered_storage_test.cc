// Tiered storage engine suite (DESIGN.md §15): cold block file framing and
// GC, the TieredTable facade's cross-tier semantics, recovery paths, the
// unified snapshot format, and the server's pisrep_storage_* metric export.
// Runs as its own binary under the `storage` ctest label.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/types.h"
#include "net/event_loop.h"
#include "obs/metrics.h"
#include "server/reputation_server.h"
#include "server/vote_store.h"
#include "storage/codec.h"
#include "storage/cold_store.h"
#include "storage/database.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"
#include "util/random.h"
#include "util/sha1.h"

namespace pisrep::storage {
namespace {

std::string TempPath(const std::string& tag, const std::string& ext) {
  std::string path = testing::TempDir() + "/pisrep_tier_" + tag + "_" +
                     std::to_string(::getpid()) + ext;
  std::remove(path.c_str());
  return path;
}

TableSchema VoteSchema() {
  return SchemaBuilder("votes")
      .Str("key")
      .Int("user")
      .Str("software")
      .Int("score")
      .Int("submitted_at")
      .PrimaryKey("key")
      .Index("user")
      .Index("software")
      .OrderedIndex("submitted_at")
      .Build();
}

Row VoteRow(std::int64_t user, const std::string& software, std::int64_t score,
            std::int64_t submitted_at) {
  return Row{Value::Str(std::to_string(user) + ":" + software),
             Value::Int(user), Value::Str(software), Value::Int(score),
             Value::Int(submitted_at)};
}

/// Opens a tiered database: every table named in `policies` is tiered.
struct TieredFixture {
  std::string wal_path;
  std::string cold_path;
  std::unique_ptr<Database> db;
};

TieredFixture OpenTiered(const std::string& tag,
                         const std::map<std::string, TierPolicy>& policies,
                         ColdStoreOptions cold_options = {},
                         bool fresh = true) {
  TieredFixture fx;
  fx.wal_path = testing::TempDir() + "/pisrep_tier_" + tag + "_" +
                std::to_string(::getpid()) + ".wal";
  fx.cold_path = testing::TempDir() + "/pisrep_tier_" + tag + "_" +
                 std::to_string(::getpid()) + ".cold";
  if (fresh) {
    std::remove(fx.wal_path.c_str());
    std::remove(fx.cold_path.c_str());
  }
  Database::OpenOptions options;
  options.tier.path = fx.cold_path;
  options.tier.cold = cold_options;
  options.tier.tables = policies;
  auto db = Database::Open(fx.wal_path, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  fx.db = std::move(db).value();
  return fx;
}

TierPolicy SmallCapacity(std::size_t capacity) {
  TierPolicy policy;
  policy.hot_capacity_rows = capacity;
  return policy;
}

std::string RenderRow(const Row& row) {
  std::string out;
  for (const Value& cell : row) {
    out += ColumnTypeName(cell.type());
    out += ':';
    out += cell.ToString();
    out += '\x1f';
  }
  return out;
}

/// Full deterministic content dump of a facade: every live row, rendered
/// and sorted — the equality oracle for twin comparisons.
std::vector<std::string> DumpSorted(TieredTable* table) {
  std::vector<std::string> rows;
  table->ForEach([&](const Row& row) { rows.push_back(RenderRow(row)); });
  std::sort(rows.begin(), rows.end());
  return rows;
}

// --- ColdStore ---------------------------------------------------------------

TEST(ColdStoreTest, PutGetEraseRoundTrip) {
  std::string path = TempPath("roundtrip", ".cold");
  auto store = ColdStore::Open(path, {});
  ASSERT_TRUE(store.ok());
  ColdStore* cold = store->get();

  ASSERT_TRUE(cold->Put("t", "alpha", "row-a").ok());
  ASSERT_TRUE(cold->Put("t", "beta", "row-b").ok());
  EXPECT_TRUE(cold->Contains("t", "alpha"));
  EXPECT_FALSE(cold->Contains("t", "gamma"));
  EXPECT_EQ(cold->LiveCount("t"), 2u);

  auto got = cold->Get("t", "alpha");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->row_bytes, "row-a");

  ASSERT_TRUE(cold->Erase("t", "alpha").ok());
  EXPECT_FALSE(cold->Contains("t", "alpha"));
  EXPECT_EQ(cold->LiveCount("t"), 1u);
  EXPECT_EQ(cold->Erase("t", "alpha").code(), util::StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(ColdStoreTest, OverwriteServesLatestAndStrandsDeadBytes) {
  std::string path = TempPath("overwrite", ".cold");
  auto store = ColdStore::Open(path, {});
  ASSERT_TRUE(store.ok());
  ColdStore* cold = store->get();

  ASSERT_TRUE(cold->Put("t", "k", "v1").ok());
  EXPECT_EQ(cold->stats().dead_bytes, 0u);
  ASSERT_TRUE(cold->Put("t", "k", "v2").ok());
  EXPECT_GT(cold->stats().dead_bytes, 0u);
  EXPECT_EQ(cold->LiveCount("t"), 1u);
  auto got = cold->Get("t", "k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->row_bytes, "v2");
  std::remove(path.c_str());
}

TEST(ColdStoreTest, TornTailIsTrimmedOnOpen) {
  std::string path = TempPath("torntail", ".cold");
  {
    auto store = ColdStore::Open(path, {});
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->get()->Put("t", "whole", "payload").ok());
    ASSERT_TRUE(store->get()->Put("t", "torn", "payload2").ok());
  }
  // Chop the last frame in half: a crash mid-append.
  std::uintmax_t size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  auto reopened = ColdStore::Open(path, {});
  ASSERT_TRUE(reopened.ok());
  ColdStore* cold = reopened->get();
  EXPECT_TRUE(cold->Contains("t", "whole"));
  EXPECT_FALSE(cold->Contains("t", "torn"));
  // The trim left a clean end: new appends and reads work.
  ASSERT_TRUE(cold->Put("t", "after", "payload3").ok());
  auto got = cold->Get("t", "after");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->row_bytes, "payload3");
  std::remove(path.c_str());
}

TEST(ColdStoreTest, MidFileCorruptionFailsOpenUnlessSalvaging) {
  std::string path = TempPath("corrupt", ".cold");
  std::uintmax_t first_frame_end = 0;
  {
    auto store = ColdStore::Open(path, {});
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(store->get()->Put("t", "a", "payload-a").ok());
    first_frame_end = store->get()->stats().file_bytes;
    ASSERT_TRUE(store->get()->Put("t", "b", "payload-b").ok());
    ASSERT_TRUE(store->get()->Put("t", "c", "payload-c").ok());
  }
  {
    // Flip a payload byte inside the second frame (not the tail).
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(first_frame_end) + 6, SEEK_SET),
              0);
    std::fputc('X', f);
    std::fclose(f);
  }
  EXPECT_FALSE(ColdStore::Open(path, {}).ok());

  ColdStoreOptions salvage;
  salvage.salvage_corruption = true;
  auto salvaged = ColdStore::Open(path, salvage);
  ASSERT_TRUE(salvaged.ok());
  EXPECT_TRUE(salvaged->get()->recovered_with_loss());
  EXPECT_TRUE(salvaged->get()->Contains("t", "a"));
  EXPECT_FALSE(salvaged->get()->Contains("t", "b"));
  std::remove(path.c_str());
}

TEST(ColdStoreTest, GcDropsDeadFramesAndKeepsLiveOrder) {
  std::string path = TempPath("gc", ".cold");
  ColdStoreOptions options;
  options.gc_min_file_bytes = 0;  // let tiny test files qualify
  auto store = ColdStore::Open(path, options);
  ASSERT_TRUE(store.ok());
  ColdStore* cold = store->get();

  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        cold->Put("t", "key" + std::to_string(i), "payload" + std::to_string(i))
            .ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cold->Erase("t", "key" + std::to_string(i)).ok());
  }
  EXPECT_TRUE(cold->ShouldGc());
  std::uint64_t before = cold->stats().file_bytes;
  auto ran = cold->MaybeGc();
  ASSERT_TRUE(ran.ok());
  EXPECT_TRUE(*ran);
  EXPECT_LT(cold->stats().file_bytes, before);
  EXPECT_EQ(cold->stats().dead_bytes, 0u);
  EXPECT_EQ(cold->stats().gc_runs, 1u);
  EXPECT_GT(cold->stats().gc_reclaimed_bytes, 0u);

  // Survivors still resolve, in their original append order.
  std::vector<std::string> keys;
  ASSERT_TRUE(cold->ForEachLive("t", [&](std::uint64_t, std::string_view key,
                                         std::string_view) {
                    keys.emplace_back(key);
                    return util::Status::Ok();
                  }).ok());
  std::vector<std::string> expected;
  for (int i = 10; i < 20; ++i) expected.push_back("key" + std::to_string(i));
  EXPECT_EQ(keys, expected);
  for (int i = 10; i < 20; ++i) {
    auto got = cold->Get("t", "key" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->row_bytes, "payload" + std::to_string(i));
  }
  std::remove(path.c_str());
}

// --- TieredTable facade ------------------------------------------------------

TEST(TieredTableTest, GetFaultsColdRowsWithIdenticalContents) {
  TieredFixture fx = OpenTiered("fault", {{"votes", SmallCapacity(4)}});
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* votes = fx.db->GetTiered("votes").value();

  std::vector<std::string> rendered;
  for (int i = 0; i < 10; ++i) {
    Row row = VoteRow(i, "app", i % 7, 100 + i);
    rendered.push_back(RenderRow(row));
    ASSERT_TRUE(votes->Insert(std::move(row)).ok());
  }
  votes->DemoteAll();
  EXPECT_EQ(votes->HotRows(), 0u);
  EXPECT_EQ(votes->size(), 10u);

  for (int i = 0; i < 10; ++i) {
    Value key = Value::Str(std::to_string(i) + ":app");
    EXPECT_FALSE(votes->IsHot(key));
    auto row = votes->Get(key);
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ(RenderRow(*row), rendered[static_cast<std::size_t>(i)]);
    EXPECT_TRUE(votes->Contains(key));
  }
  EXPECT_GE(votes->stats().faults, 10u);
}

TEST(TieredTableTest, DeferredAdmissionPromotesOnTick) {
  TieredFixture fx = OpenTiered("promote", {{"votes", SmallCapacity(8)}});
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* votes = fx.db->GetTiered("votes").value();
  ASSERT_TRUE(votes->Insert(VoteRow(1, "app", 5, 100)).ok());
  votes->DemoteAll();

  Value key = Value::Str("1:app");
  ASSERT_TRUE(votes->Get(key).ok());
  // A read never structurally mutates: the row stays cold until Tick.
  EXPECT_FALSE(votes->IsHot(key));
  votes->Tick(200);
  EXPECT_TRUE(votes->IsHot(key));
  EXPECT_GE(votes->stats().promotions, 1u);
}

TEST(TieredTableTest, TickEnforcesLruCapacity) {
  TieredFixture fx = OpenTiered("capacity", {{"votes", SmallCapacity(4)}});
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* votes = fx.db->GetTiered("votes").value();
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(votes->Insert(VoteRow(i, "app", 1, 100 + i)).ok());
  }
  EXPECT_GT(votes->HotRows(), 4u);  // admission is deferred to Tick
  votes->Tick(200);
  EXPECT_LE(votes->HotRows(), 4u);
  EXPECT_EQ(votes->size(), 12u);
  EXPECT_GE(votes->stats().demotions, 8u);
}

TEST(TieredTableTest, AgeColumnDrivesDemotion) {
  TierPolicy policy;
  policy.hot_capacity_rows = 0;  // no capacity bound: age only
  policy.age_column = "submitted_at";
  policy.demote_age = 100;
  TieredFixture fx = OpenTiered("age", {{"votes", policy}});
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* votes = fx.db->GetTiered("votes").value();
  ASSERT_TRUE(votes->Insert(VoteRow(1, "old", 1, 10)).ok());
  ASSERT_TRUE(votes->Insert(VoteRow(2, "new", 1, 500)).ok());

  votes->Tick(550);
  EXPECT_FALSE(votes->IsHot(Value::Str("1:old")));
  EXPECT_TRUE(votes->IsHot(Value::Str("2:new")));
}

TEST(TieredTableTest, PinnedRowsSurviveEviction) {
  TieredFixture fx = OpenTiered("pin", {{"votes", SmallCapacity(2)}});
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* votes = fx.db->GetTiered("votes").value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(votes->Insert(VoteRow(i, "app", 1, 100 + i)).ok());
  }
  votes->DemoteAll();

  Value pinned = Value::Str("3:app");
  ASSERT_TRUE(votes->Pin(pinned).ok());  // faults the row in
  EXPECT_TRUE(votes->IsHot(pinned));
  votes->Tick(200);
  votes->DemoteAll();
  EXPECT_TRUE(votes->IsHot(pinned));
  EXPECT_EQ(votes->stats().pinned_rows, 1u);

  ASSERT_TRUE(votes->Unpin(pinned).ok());
  votes->DemoteAll();
  EXPECT_FALSE(votes->IsHot(pinned));
  EXPECT_EQ(votes->Pin(Value::Str("99:app")).code(),
            util::StatusCode::kNotFound);
}

TEST(TieredTableTest, DuplicateInsertRejectedWhenOriginalIsCold) {
  TieredFixture fx = OpenTiered("dup", {{"votes", SmallCapacity(4)}});
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* votes = fx.db->GetTiered("votes").value();
  ASSERT_TRUE(votes->Insert(VoteRow(1, "app", 5, 100)).ok());
  votes->DemoteAll();
  EXPECT_EQ(votes->Insert(VoteRow(1, "app", 9, 200)).code(),
            util::StatusCode::kAlreadyExists);
  auto row = votes->Get(Value::Str("1:app"));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[3].AsInt(), 5);
}

TEST(TieredTableTest, DeleteAndUpsertReachColdRows) {
  TieredFixture fx = OpenTiered("coldmut", {{"votes", SmallCapacity(4)}});
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* votes = fx.db->GetTiered("votes").value();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(votes->Insert(VoteRow(i, "app", 1, 100 + i)).ok());
  }
  votes->DemoteAll();

  ASSERT_TRUE(votes->Upsert(VoteRow(2, "app", 9, 300)).ok());
  auto row = votes->Get(Value::Str("2:app"));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[3].AsInt(), 9);

  ASSERT_TRUE(votes->Delete(Value::Str("4:app")).ok());
  EXPECT_EQ(votes->size(), 5u);
  EXPECT_FALSE(votes->Contains(Value::Str("4:app")));
  EXPECT_EQ(votes->Get(Value::Str("4:app")).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(votes->Delete(Value::Str("4:app")).code(),
            util::StatusCode::kNotFound);
}

TEST(TieredTableTest, IndexQueriesSpanBothTiers) {
  TieredFixture fx = OpenTiered("index", {{"votes", SmallCapacity(3)}});
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* votes = fx.db->GetTiered("votes").value();
  // Users 0/1 alternate across two titles; rows end up split across tiers.
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(votes
                    ->Insert(VoteRow(i, (i % 2 == 0) ? "even" : "odd",
                                     i % 5, 100 + i))
                    .ok());
  }
  votes->Tick(200);  // capacity 3: most rows demoted
  ASSERT_GT(votes->size(), votes->HotRows());

  auto even = votes->FindByIndex("software", Value::Str("even"));
  ASSERT_TRUE(even.ok());
  EXPECT_EQ(even->size(), 6u);
  for (const Row& row : *even) EXPECT_EQ(row[2].AsStr(), "even");

  auto count = votes->CountByIndex("software", Value::Str("odd"));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 6u);

  std::size_t visited = 0;
  ASSERT_TRUE(votes
                  ->ForEachByIndex("software", Value::Str("odd"),
                                   [&](const Row&) { ++visited; })
                  .ok());
  EXPECT_EQ(visited, 6u);

  auto ranged = votes->ScanRange("submitted_at", Value::Int(103),
                                 Value::Int(106));
  ASSERT_TRUE(ranged.ok());
  EXPECT_EQ(ranged->size(), 4u);

  auto newest = votes->ScanOrdered("submitted_at", /*ascending=*/false, 3);
  ASSERT_TRUE(newest.ok());
  ASSERT_EQ(newest->size(), 3u);
  EXPECT_EQ((*newest)[0][4].AsInt(), 111);
  EXPECT_EQ((*newest)[2][4].AsInt(), 109);
}

// The twin oracle: a tiered table and a pass-through (untiered, in-memory)
// table fed the same deterministic random op stream must stay
// content-identical through demotion ticks and GC passes.
TEST(TieredTableTest, TwinOracleRandomOperationSweep) {
  TieredFixture fx = OpenTiered("oracle", {{"votes", SmallCapacity(8)}},
                                [] {
                                  ColdStoreOptions o;
                                  o.gc_min_file_bytes = 0;
                                  return o;
                                }());
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* tiered = fx.db->GetTiered("votes").value();

  auto plain_db = Database::Open("");
  ASSERT_TRUE(plain_db.ok());
  ASSERT_TRUE((*plain_db)->CreateTable(VoteSchema()).ok());
  TieredTable* plain = (*plain_db)->GetTiered("votes").value();

  util::Rng rng(20260809);
  for (int step = 0; step < 2000; ++step) {
    std::int64_t user = static_cast<std::int64_t>(rng.NextInt(0, 40));
    std::string software = "app" + std::to_string(rng.NextInt(0, 5));
    Value key = Value::Str(std::to_string(user) + ":" + software);
    switch (rng.NextInt(0, 5)) {
      case 0:
      case 1: {  // upsert
        Row row = VoteRow(user, software,
                          static_cast<std::int64_t>(rng.NextInt(1, 10)),
                          step);
        ASSERT_TRUE(tiered->Upsert(row).ok());
        ASSERT_TRUE(plain->Upsert(std::move(row)).ok());
        break;
      }
      case 2: {  // strict insert: both twins must agree on the verdict
        Row row = VoteRow(user, software, 1, step);
        util::Status a = tiered->Insert(row);
        util::Status b = plain->Insert(std::move(row));
        ASSERT_EQ(a.code(), b.code());
        break;
      }
      case 3: {  // delete
        util::Status a = tiered->Delete(key);
        util::Status b = plain->Delete(key);
        ASSERT_EQ(a.code(), b.code());
        break;
      }
      case 4: {  // point read
        auto a = tiered->Get(key);
        auto b = plain->Get(key);
        ASSERT_EQ(a.ok(), b.ok());
        if (a.ok()) {
          ASSERT_EQ(RenderRow(*a), RenderRow(*b));
        }
        break;
      }
      default:  // residency churn on the tiered twin only
        ASSERT_TRUE(fx.db->TierTick(step).ok());
        break;
    }
    if (step % 250 == 249) {
      ASSERT_EQ(DumpSorted(tiered), DumpSorted(plain)) << "step " << step;
      for (int u = 0; u < 41; ++u) {
        auto a = tiered->CountByIndex("user", Value::Int(u));
        auto b = plain->CountByIndex("user", Value::Int(u));
        ASSERT_TRUE(a.ok() && b.ok());
        ASSERT_EQ(*a, *b) << "user " << u << " step " << step;
      }
    }
  }
  EXPECT_EQ(tiered->size(), plain->size());
}

// --- Database-level tier behavior --------------------------------------------

TEST(TieredDatabaseTest, ReopenRecoversAllRowsCold) {
  std::map<std::string, TierPolicy> policies = {{"votes", SmallCapacity(4)}};
  std::vector<std::string> expected;
  TieredFixture fx = OpenTiered("reopen", policies);
  {
    ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
    TieredTable* votes = fx.db->GetTiered("votes").value();
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(votes->Insert(VoteRow(i, "app", i % 3, 100 + i)).ok());
    }
    ASSERT_TRUE(votes->Delete(Value::Str("7:app")).ok());
    ASSERT_TRUE(votes->Upsert(VoteRow(3, "app", 9, 400)).ok());
    expected = DumpSorted(votes);
    fx.db.reset();
  }

  TieredFixture reopened = OpenTiered("reopen", policies, {}, /*fresh=*/false);
  TieredTable* votes = reopened.db->GetTiered("votes").value();
  EXPECT_EQ(votes->HotRows(), 0u);  // recovery materializes nothing
  EXPECT_EQ(votes->size(), 24u);
  EXPECT_EQ(DumpSorted(votes), expected);
  std::remove(reopened.wal_path.c_str());
  std::remove(reopened.cold_path.c_str());
}

TEST(TieredDatabaseTest, WalCarriesOnlySchemasForTieredTables) {
  TieredFixture fx = OpenTiered("walsize", {{"votes", SmallCapacity(4)}});
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  std::size_t frames_after_schema = fx.db->FramesSinceCompaction();
  TieredTable* votes = fx.db->GetTiered("votes").value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(votes->Insert(VoteRow(i, "app", 1, 100 + i)).ok());
  }
  // Tiered rows journal to the cold store, not the WAL.
  EXPECT_EQ(fx.db->FramesSinceCompaction(), frames_after_schema);
  EXPECT_GT(fx.db->cold_store()->stats().appends, 0u);

  // An untiered table in the same database still journals per row.
  ASSERT_TRUE(fx.db
                  ->CreateTable(SchemaBuilder("plain")
                                    .Int("id")
                                    .Int("x")
                                    .PrimaryKey("id")
                                    .Build())
                  .ok());
  TieredTable* plain = fx.db->GetTiered("plain").value();
  EXPECT_FALSE(plain->tiered());
  ASSERT_TRUE(plain->Insert(Row{Value::Int(1), Value::Int(2)}).ok());
  EXPECT_GT(fx.db->FramesSinceCompaction(), frames_after_schema);

  ASSERT_TRUE(fx.db->Compact().ok());
  EXPECT_EQ(fx.db->FramesSinceCompaction(), 0u);
  EXPECT_EQ(fx.db->compactions(), 1u);
  EXPECT_EQ(fx.db->TotalRows(), 51u);
  std::remove(fx.wal_path.c_str());
  std::remove(fx.cold_path.c_str());
}

TEST(TieredDatabaseTest, PreTieringWalMigratesIntoColdStore) {
  std::string tag = "migrate";
  std::string wal_path = testing::TempDir() + "/pisrep_tier_" + tag + "_" +
                         std::to_string(::getpid()) + ".wal";
  std::remove(wal_path.c_str());
  std::vector<std::string> expected;
  {
    auto db = Database::Open(wal_path);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(VoteSchema()).ok());
    TieredTable* votes = (*db)->GetTiered("votes").value();
    EXPECT_FALSE(votes->tiered());
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(votes->Insert(VoteRow(i, "app", i % 4, 100 + i)).ok());
    }
    expected = DumpSorted(votes);
  }

  // Same WAL, now opened with tiering for "votes": replay migrates the
  // rows into the cold store and compacts the overlap away immediately.
  TieredFixture fx = OpenTiered(tag, {{"votes", SmallCapacity(4)}}, {},
                                /*fresh=*/false);
  TieredTable* votes = fx.db->GetTiered("votes").value();
  EXPECT_TRUE(votes->tiered());
  EXPECT_EQ(votes->size(), 30u);
  EXPECT_EQ(DumpSorted(votes), expected);
  EXPECT_EQ(fx.db->cold_store()->LiveCount("votes"), 30u);
  EXPECT_GE(fx.db->compactions(), 1u);  // the migration compacted at Open

  // A second reopen replays the *compacted* WAL over the populated cold
  // store — the relaxed-replay path — and must not duplicate or lose rows.
  fx.db.reset();
  TieredFixture again = OpenTiered(tag, {{"votes", SmallCapacity(4)}}, {},
                                   /*fresh=*/false);
  votes = again.db->GetTiered("votes").value();
  EXPECT_EQ(votes->size(), 30u);
  EXPECT_EQ(DumpSorted(votes), expected);
  std::remove(again.wal_path.c_str());
  std::remove(again.cold_path.c_str());
}

TEST(TieredDatabaseTest, TierTickRunsGcAndRebuildsOffsets) {
  ColdStoreOptions cold;
  cold.gc_min_file_bytes = 0;
  TieredFixture fx = OpenTiered("gctick", {{"votes", SmallCapacity(4)}}, cold);
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* votes = fx.db->GetTiered("votes").value();
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(votes->Insert(VoteRow(i, "app", 1, 100 + i)).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(votes->Delete(Value::Str(std::to_string(i) + ":app")).ok());
  }
  ASSERT_TRUE(fx.db->TierTick(500).ok());
  DatabaseTierStats stats = fx.db->TierStats();
  EXPECT_GE(stats.gc_runs, 1u);
  EXPECT_GT(stats.gc_reclaimed_bytes, 0u);

  // Every offset changed in the GC; queries must still resolve through the
  // rebuilt index maps — from both tiers.
  votes->DemoteAll();
  for (int i = 20; i < 40; ++i) {
    auto row = votes->Get(Value::Str(std::to_string(i) + ":app"));
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ((*row)[4].AsInt(), 100 + i);
  }
  auto count = votes->CountByIndex("software", Value::Str("app"));
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 20u);
  std::remove(fx.wal_path.c_str());
  std::remove(fx.cold_path.c_str());
}

TEST(TieredDatabaseTest, ResidentBytesStayFlatAsColdRowsGrow) {
  TieredFixture fx = OpenTiered("memmodel", {{"votes", SmallCapacity(16)}});
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* votes = fx.db->GetTiered("votes").value();

  auto plain_db = Database::Open("");
  ASSERT_TRUE(plain_db.ok());
  ASSERT_TRUE((*plain_db)->CreateTable(VoteSchema()).ok());
  TieredTable* plain = (*plain_db)->GetTiered("votes").value();

  auto grow = [&](int from, int to) {
    for (int i = from; i < to; ++i) {
      Row row = VoteRow(i, "app" + std::to_string(i % 20), 1, 100 + i);
      ASSERT_TRUE(votes->Insert(row).ok());
      ASSERT_TRUE(plain->Insert(std::move(row)).ok());
    }
    ASSERT_TRUE(fx.db->TierTick(5000).ok());
  };
  grow(0, 1000);
  std::uint64_t tiered_at_1k = votes->ApproxResidentBytes();
  std::uint64_t plain_at_1k = plain->ApproxResidentBytes();
  grow(1000, 2000);
  EXPECT_LE(votes->HotRows(), 16u);
  // Same deterministic ruler on both twins. Each additional cold row costs
  // only its index entries — a small fraction of a fully resident row —
  // and total residency stays well below the all-hot twin even with these
  // tiny comment-less rows (the f13 bench measures the realistic ratio).
  std::uint64_t tiered_growth = votes->ApproxResidentBytes() - tiered_at_1k;
  std::uint64_t plain_growth = plain->ApproxResidentBytes() - plain_at_1k;
  EXPECT_LT(tiered_growth, plain_growth / 2);
  EXPECT_LT(votes->ApproxResidentBytes(), plain->ApproxResidentBytes() / 2);
  EXPECT_EQ(fx.db->TierStats().resident_bytes, votes->ApproxResidentBytes());
  std::remove(fx.wal_path.c_str());
  std::remove(fx.cold_path.c_str());
}

// --- Unified snapshot format: export / resync --------------------------------

TEST(TieredDatabaseTest, SnapshotExportReproducesStateOnUntieredReplica) {
  TieredFixture fx = OpenTiered("export", {{"votes", SmallCapacity(4)}});
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* votes = fx.db->GetTiered("votes").value();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(votes->Insert(VoteRow(i, "app", i % 3, 100 + i)).ok());
  }
  ASSERT_TRUE(votes->Delete(Value::Str("5:app")).ok());
  votes->DemoteAll();  // export must stream cold blocks, not resident rows

  auto replica = Database::Open("");
  ASSERT_TRUE(replica.ok());
  ASSERT_TRUE(fx.db
                  ->ExportSnapshotFrames([&](const std::string& frame) {
                    return (*replica)->ApplyReplicatedFrame(frame);
                  })
                  .ok());
  TieredTable* replica_votes = (*replica)->GetTiered("votes").value();
  EXPECT_EQ(DumpSorted(replica_votes), DumpSorted(votes));
  std::remove(fx.wal_path.c_str());
  std::remove(fx.cold_path.c_str());
}

TEST(TieredDatabaseTest, TieredReplicaResyncsAtFlatMemory) {
  TieredFixture fx = OpenTiered("exportsrc", {{"votes", SmallCapacity(4)}});
  ASSERT_TRUE(fx.db->CreateTable(VoteSchema()).ok());
  TieredTable* votes = fx.db->GetTiered("votes").value();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(votes->Insert(VoteRow(i, "app", i % 3, 100 + i)).ok());
  }

  TieredFixture backup = OpenTiered("exportdst", {{"votes", SmallCapacity(4)}});
  ASSERT_TRUE(fx.db
                  ->ExportSnapshotFrames([&](const std::string& frame) {
                    return backup.db->ApplyReplicatedFrame(frame);
                  })
                  .ok());
  TieredTable* backup_votes = backup.db->GetTiered("votes").value();
  // The backup applied every row straight into its cold store: identical
  // contents, zero resident rows — the flat-memory resync claim.
  EXPECT_EQ(backup_votes->HotRows(), 0u);
  EXPECT_EQ(backup_votes->size(), 30u);
  EXPECT_EQ(DumpSorted(backup_votes), DumpSorted(votes));
  std::remove(fx.wal_path.c_str());
  std::remove(fx.cold_path.c_str());
  std::remove(backup.wal_path.c_str());
  std::remove(backup.cold_path.c_str());
}

TEST(TieredDatabaseTest, ReplicatedFramesApplyToTieredTablesCold) {
  TieredFixture primary = OpenTiered("repsrc", {{"votes", SmallCapacity(4)}});
  ASSERT_TRUE(primary.db->CreateTable(VoteSchema()).ok());
  TieredFixture backup = OpenTiered("repdst", {{"votes", SmallCapacity(4)}});

  std::vector<std::string> frames;
  primary.db->SetFrameListener(
      [&](const std::string& frame) { frames.push_back(frame); });
  // Schemas travel via snapshot; live mutations via the frame listener.
  ASSERT_TRUE(primary.db
                  ->ExportSnapshotFrames([&](const std::string& frame) {
                    return backup.db->ApplyReplicatedFrame(frame);
                  })
                  .ok());
  TieredTable* votes = primary.db->GetTiered("votes").value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(votes->Insert(VoteRow(i, "app", 1, 100 + i)).ok());
  }
  ASSERT_TRUE(votes->Upsert(VoteRow(3, "app", 8, 300)).ok());
  ASSERT_TRUE(votes->Delete(Value::Str("6:app")).ok());
  for (const std::string& frame : frames) {
    ASSERT_TRUE(backup.db->ApplyReplicatedFrame(frame).ok());
  }
  TieredTable* backup_votes = backup.db->GetTiered("votes").value();
  EXPECT_EQ(backup_votes->HotRows(), 0u);
  EXPECT_EQ(DumpSorted(backup_votes), DumpSorted(votes));
  std::remove(primary.wal_path.c_str());
  std::remove(primary.cold_path.c_str());
  std::remove(backup.wal_path.c_str());
  std::remove(backup.cold_path.c_str());
}

// --- VoteStore reads on both tiers -------------------------------------------

std::string RenderComment(const core::RatingRecord& record) {
  return std::to_string(record.user) + "|" + std::to_string(record.score) +
         "|" + record.comment + "|" + std::to_string(record.submitted_at) +
         "|" + record.software.ToHex();
}

/// Records sorted newest first, ties by user: the order-free form of a
/// VisibleComments answer.
std::vector<std::string> CanonicalComments(
    std::vector<core::RatingRecord> records) {
  std::sort(records.begin(), records.end(),
            [](const core::RatingRecord& a, const core::RatingRecord& b) {
              return a.submitted_at != b.submitted_at
                         ? a.submitted_at > b.submitted_at
                         : a.user < b.user;
            });
  std::vector<std::string> out;
  for (const core::RatingRecord& record : records) {
    out.push_back(RenderComment(record));
  }
  return out;
}

// The same seeded votes through a VoteStore on an in-memory database and
// one on a tiered database whose ratings are nearly all cold: every
// VisibleComments answer is the newest `limit` approved, non-empty
// comments, each equal to its user's stored vote, on both tiers.
TEST(TieredVoteStoreTest, VisibleCommentsAgreeAcrossTiers) {
  TieredFixture fx = OpenTiered("comments", {{"ratings", SmallCapacity(8)}});
  auto plain_db = Database::Open("");
  ASSERT_TRUE(plain_db.ok());
  server::VoteStore plain(plain_db->get());
  server::VoteStore tiered(fx.db.get());
  TieredTable* ratings = fx.db->GetTiered("ratings").value();
  ASSERT_TRUE(ratings->tiered());

  std::vector<core::SoftwareId> titles;
  for (int t = 0; t < 4; ++t) {
    titles.push_back(util::Sha1::Hash("comment-title-" + std::to_string(t)));
  }
  struct Vote {
    core::RatingRecord record;
    bool approved = true;
  };
  std::map<std::pair<core::UserId, std::string>, Vote> ledger;

  util::Rng rng(20261017);
  for (core::UserId user = 1; user <= 80; ++user) {
    for (const core::SoftwareId& title : titles) {
      if (rng.NextBelow(4) == 0) continue;
      core::RatingRecord record;
      record.user = user;
      record.software = title;
      record.score = static_cast<int>(rng.NextInt(1, 10));
      // Eight distinct timestamps per title: most votes share theirs.
      record.submitted_at = rng.NextInt(0, 7) * util::kHour;
      if (rng.NextBelow(5) != 0) record.comment = "c-" + rng.NextToken(6);
      bool approved = rng.NextBelow(6) != 0;
      ASSERT_TRUE(plain.SubmitRating(record, approved).ok());
      ASSERT_TRUE(tiered.SubmitRating(record, approved).ok());
      ledger[{user, title.ToHex()}] = Vote{record, approved};
    }
    if (user % 16 == 0) {
      ASSERT_TRUE(fx.db->TierTick(user).ok());
    }
  }
  // Moderation flips rewrite rows, which moves them in both indexes.
  for (auto& [key, vote] : ledger) {
    if (rng.NextBelow(8) != 0) continue;
    vote.approved = !vote.approved;
    const core::RatingRecord& record = vote.record;
    ASSERT_TRUE(
        plain.SetApproved(record.user, record.software, vote.approved).ok());
    ASSERT_TRUE(
        tiered.SetApproved(record.user, record.software, vote.approved).ok());
  }
  ratings->DemoteAll();
  ASSERT_LT(ratings->HotRows() * 10, ratings->size());

  for (const core::SoftwareId& title : titles) {
    std::vector<const Vote*> visible;
    for (const auto& [key, vote] : ledger) {
      if (key.second == title.ToHex() && vote.approved &&
          !vote.record.comment.empty()) {
        visible.push_back(&vote);
      }
    }
    ASSERT_GT(visible.size(), 11u);
    for (std::size_t limit : {std::size_t{1}, std::size_t{3}, std::size_t{10},
                              visible.size() + 1}) {
      SCOPED_TRACE("title " + title.ToHex() + " limit " +
                   std::to_string(limit));
      std::vector<core::RatingRecord> memory =
          plain.VisibleComments(title, limit);
      std::vector<core::RatingRecord> cold =
          tiered.VisibleComments(title, limit);
      const std::size_t expected_count = std::min(limit, visible.size());
      ASSERT_EQ(memory.size(), expected_count);
      ASSERT_EQ(cold.size(), expected_count);

      for (const auto* answer : {&memory, &cold}) {
        std::set<core::UserId> returned;
        for (std::size_t i = 0; i < answer->size(); ++i) {
          const core::RatingRecord& got = (*answer)[i];
          auto it = ledger.find({got.user, title.ToHex()});
          ASSERT_NE(it, ledger.end());
          EXPECT_TRUE(it->second.approved);
          EXPECT_EQ(RenderComment(got), RenderComment(it->second.record));
          if (i > 0) {
            EXPECT_LE(got.submitted_at, (*answer)[i - 1].submitted_at);
          }
          returned.insert(got.user);
        }
        const util::TimePoint last = answer->back().submitted_at;
        for (const Vote* vote : visible) {
          if (!returned.contains(vote->record.user)) {
            EXPECT_LE(vote->record.submitted_at, last)
                << "omitted a newer comment by user " << vote->record.user;
          }
        }
      }

      // The in-memory index visits newest-indexed first, the cold index in
      // append order, so comments sharing a submitted_at come back in
      // opposite orders, and a limit that cuts through such a run may keep
      // different members of it. Apart from that cut run, both tiers return
      // the same records.
      const util::TimePoint last = memory.back().submitted_at;
      auto at_last = [&](const core::RatingRecord& record) {
        return record.submitted_at == last;
      };
      const bool cut =
          std::count_if(memory.begin(), memory.end(), at_last) <
          std::count_if(visible.begin(), visible.end(), [&](const Vote* v) {
            return at_last(v->record);
          });
      auto outside_cut = [&](std::vector<core::RatingRecord> records) {
        if (cut) std::erase_if(records, at_last);
        return CanonicalComments(std::move(records));
      };
      EXPECT_EQ(outside_cut(memory), outside_cut(cold));
      EXPECT_EQ(cold.back().submitted_at, last);
    }
  }
  std::remove(fx.wal_path.c_str());
  std::remove(fx.cold_path.c_str());
}

// --- Server integration: metrics export and snapshot pinning -----------------

TEST(StorageMetricsTest, ServerExportsTierAndCompactionMetrics) {
  std::string wal_path = TempPath("metrics", ".wal");
  std::string cold_path = TempPath("metrics", ".cold");
  Database::OpenOptions options;
  options.tier.path = cold_path;
  options.tier.tables["ratings"] = SmallCapacity(64);
  options.tier.tables["software_scores"] = SmallCapacity(64);
  auto db = Database::Open(wal_path, options);
  ASSERT_TRUE(db.ok());

  net::EventLoop loop;
  obs::MetricsRegistry registry;
  server::ReputationServer::Config config;
  config.accounts.require_activation = false;
  config.metrics = &registry;
  server::ReputationServer server(db->get(), &loop, config);

  ASSERT_TRUE(
      server.accounts().Register("ada", "pw123456", "a@x.example", 0).ok());
  auto session = server.Login("ada", "pw123456", 0);
  ASSERT_TRUE(session.ok());
  core::SoftwareMeta meta;
  meta.id = util::Sha1::Hash("tiered-app");
  meta.file_name = "tiered.exe";
  meta.file_size = 1;
  meta.version = "1.0";
  ASSERT_TRUE(
      server.SubmitRating(*session, meta, 8, "solid", core::kNoBehaviors, 0)
          .ok());
  server.aggregation().RunOnce(util::kHour);

  // The aggregation pass pinned the recomputed score rows resident.
  EXPECT_GE(server.pinned_score_count(), 1u);

  server.UpdateStorageMetrics();
  EXPECT_GT(registry.GetGauge("pisrep_storage_cold_rows")->Value() +
                registry.GetGauge("pisrep_storage_hot_rows")->Value(),
            0);
  EXPECT_GE(registry.GetGauge("pisrep_storage_pinned_rows")->Value(), 1);
  EXPECT_GT(registry.GetGauge("pisrep_storage_resident_bytes")->Value(), 0);
  EXPECT_GT(registry.GetCounter("pisrep_storage_cold_appends_total")->Value(),
            0u);
  EXPECT_GE(
      registry.GetGauge("pisrep_storage_wal_frames_since_compaction")->Value(),
      0);

  // Counters export deltas against a baseline: a second pass with no new
  // activity must not double-count.
  std::uint64_t appends =
      registry.GetCounter("pisrep_storage_cold_appends_total")->Value();
  server.UpdateStorageMetrics();
  EXPECT_EQ(registry.GetCounter("pisrep_storage_cold_appends_total")->Value(),
            appends);

  server.TierTickNow();
  EXPECT_GE(registry.GetCounter("pisrep_storage_demotions_total")->Value(),
            0u);
  std::remove(wal_path.c_str());
  std::remove(cold_path.c_str());
}

}  // namespace
}  // namespace pisrep::storage
