#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <limits>
#include <string>

#include "storage/codec.h"
#include "storage/database.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "storage/value.h"
#include "storage/wal.h"
#include "util/random.h"
#include "util/string_util.h"

namespace pisrep::storage {
namespace {

TableSchema UserSchema() {
  return SchemaBuilder("users")
      .Int("id")
      .Str("name")
      .Real("score")
      .Boolean("active")
      .PrimaryKey("id")
      .Index("name")
      .Build();
}

Row UserRow(std::int64_t id, const std::string& name, double score,
            bool active) {
  return Row{Value::Int(id), Value::Str(name), Value::Real(score),
             Value::Boolean(active)};
}

std::string TempPath(const std::string& tag) {
  return testing::TempDir() + "/pisrep_" + tag + "_" +
         std::to_string(::getpid()) + ".wal";
}

// --- Value ------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Int(5).type(), ColumnType::kInt64);
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_EQ(Value::Real(2.5).AsReal(), 2.5);
  EXPECT_EQ(Value::Str("x").AsStr(), "x");
  EXPECT_TRUE(Value::Boolean(true).AsBool());
}

TEST(ValueTest, EqualityIsTypeAndValue) {
  EXPECT_EQ(Value::Int(1), Value::Int(1));
  EXPECT_FALSE(Value::Int(1) == Value::Int(2));
  EXPECT_FALSE(Value::Int(1) == Value::Real(1.0));
}

TEST(ValueTest, HashAgreesWithEquality) {
  ValueHash hash;
  EXPECT_EQ(hash(Value::Str("abc")), hash(Value::Str("abc")));
  EXPECT_EQ(hash(Value::Int(42)), hash(Value::Int(42)));
}

TEST(ValueDeathTest, WrongAccessorAborts) {
  EXPECT_DEATH({ (void)Value::Int(1).AsStr(); }, "CHECK failed");
}

// --- Schema -------------------------------------------------------------

TEST(SchemaTest, ColumnLookup) {
  TableSchema schema = UserSchema();
  EXPECT_EQ(*schema.ColumnIndex("id"), 0u);
  EXPECT_EQ(*schema.ColumnIndex("score"), 2u);
  EXPECT_FALSE(schema.ColumnIndex("missing").ok());
  EXPECT_EQ(schema.primary_key_index(), 0u);
  ASSERT_EQ(schema.secondary_indexes().size(), 1u);
  EXPECT_EQ(schema.secondary_indexes()[0], 1u);
}

TEST(SchemaTest, CheckRowValidatesArityAndTypes) {
  TableSchema schema = UserSchema();
  EXPECT_TRUE(schema.CheckRow(UserRow(1, "a", 0.5, true)).ok());
  EXPECT_FALSE(schema.CheckRow(Row{Value::Int(1)}).ok());
  Row bad = UserRow(1, "a", 0.5, true);
  bad[1] = Value::Int(9);  // name must be string
  EXPECT_FALSE(schema.CheckRow(bad).ok());
}

// --- Codec -------------------------------------------------------------

TEST(CodecTest, VarintRoundTrip) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 300ull, 1ull << 32,
                          ~0ull}) {
    std::string buf;
    PutVarint(v, &buf);
    Decoder dec(buf);
    EXPECT_EQ(*dec.GetVarint(), v);
    EXPECT_TRUE(dec.AtEnd());
  }
}

TEST(CodecTest, SignedVarintRoundTrip) {
  for (std::int64_t v :
       {std::int64_t{0}, std::int64_t{1}, std::int64_t{-1}, std::int64_t{63},
        std::int64_t{-64}, std::int64_t{1000000}, std::int64_t{-1000000},
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min()}) {
    std::string buf;
    PutSignedVarint(v, &buf);
    Decoder dec(buf);
    EXPECT_EQ(*dec.GetSignedVarint(), v);
  }
}

TEST(CodecTest, TruncatedDataReportsDataLoss) {
  std::string buf;
  PutVarint(1ull << 40, &buf);
  // Decoder views its input; the truncated copies must outlive it.
  std::string truncated = buf.substr(0, 2);
  Decoder dec(truncated);
  auto result = dec.GetVarint();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), util::StatusCode::kDataLoss);

  std::string buf2;
  PutLengthPrefixed("hello world", &buf2);
  std::string truncated2 = buf2.substr(0, 4);
  Decoder dec2(truncated2);
  EXPECT_EQ(dec2.GetLengthPrefixed().status().code(),
            util::StatusCode::kDataLoss);
}

class CodecRowTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecRowTest, RandomRowsRoundTrip) {
  util::Rng rng(GetParam());
  TableSchema schema = UserSchema();
  Row row = UserRow(rng.NextInt(-1000000, 1000000), rng.NextToken(12),
                    rng.NextGaussian(0, 100), rng.NextBool(0.5));
  std::string buf;
  EncodeRow(schema, row, &buf);
  Decoder dec(buf);
  auto decoded = DecodeRow(schema, dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, row);
  EXPECT_TRUE(dec.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecRowTest,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(CodecTest, SchemaRoundTrip) {
  TableSchema schema = UserSchema();
  std::string buf;
  EncodeSchema(schema, &buf);
  Decoder dec(buf);
  auto decoded = DecodeSchema(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, schema);
}

// --- Table ---------------------------------------------------------------

TEST(TableTest, InsertGetDelete) {
  Table table(UserSchema());
  ASSERT_TRUE(table.Insert(UserRow(1, "alice", 9.5, true)).ok());
  ASSERT_TRUE(table.Insert(UserRow(2, "bob", 4.0, false)).ok());
  EXPECT_EQ(table.size(), 2u);

  auto row = table.Get(Value::Int(1));
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[1].AsStr(), "alice");

  EXPECT_TRUE(table.Delete(Value::Int(1)).ok());
  EXPECT_FALSE(table.Get(Value::Int(1)).ok());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_FALSE(table.Delete(Value::Int(1)).ok());
}

TEST(TableTest, InsertRejectsDuplicateKey) {
  Table table(UserSchema());
  ASSERT_TRUE(table.Insert(UserRow(1, "a", 1, true)).ok());
  auto dup = table.Insert(UserRow(1, "b", 2, false));
  EXPECT_EQ(dup.code(), util::StatusCode::kAlreadyExists);
}

TEST(TableTest, InsertRejectsBadRow) {
  Table table(UserSchema());
  EXPECT_EQ(table.Insert(Row{Value::Int(1)}).code(),
            util::StatusCode::kInvalidArgument);
}

TEST(TableTest, UpsertInsertsOrReplaces) {
  Table table(UserSchema());
  ASSERT_TRUE(table.Upsert(UserRow(1, "a", 1, true)).ok());
  ASSERT_TRUE(table.Upsert(UserRow(1, "a2", 2, false)).ok());
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ((*table.Get(Value::Int(1)))[1].AsStr(), "a2");
}

TEST(TableTest, SecondaryIndexFindsAll) {
  Table table(UserSchema());
  ASSERT_TRUE(table.Insert(UserRow(1, "dup", 1, true)).ok());
  ASSERT_TRUE(table.Insert(UserRow(2, "dup", 2, true)).ok());
  ASSERT_TRUE(table.Insert(UserRow(3, "other", 3, true)).ok());

  auto rows = table.FindByIndex("name", Value::Str("dup"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);

  auto none = table.FindByIndex("name", Value::Str("ghost"));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  EXPECT_FALSE(table.FindByIndex("score", Value::Real(1)).ok());
}

TEST(TableTest, IndexTracksUpsertAndDelete) {
  Table table(UserSchema());
  ASSERT_TRUE(table.Insert(UserRow(1, "old", 1, true)).ok());
  ASSERT_TRUE(table.Upsert(UserRow(1, "new", 1, true)).ok());
  EXPECT_TRUE(table.FindByIndex("name", Value::Str("old"))->empty());
  EXPECT_EQ(table.FindByIndex("name", Value::Str("new"))->size(), 1u);

  ASSERT_TRUE(table.Delete(Value::Int(1)).ok());
  EXPECT_TRUE(table.FindByIndex("name", Value::Str("new"))->empty());
}

TEST(TableTest, SwapRemoveKeepsIndexesConsistent) {
  Table table(UserSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        table.Insert(UserRow(i, util::StrFormat("n%d", i), i, true)).ok());
  }
  // Delete from the middle repeatedly; every surviving row must stay
  // reachable via both indexes.
  ASSERT_TRUE(table.Delete(Value::Int(3)).ok());
  ASSERT_TRUE(table.Delete(Value::Int(0)).ok());
  ASSERT_TRUE(table.Delete(Value::Int(9)).ok());
  EXPECT_EQ(table.size(), 7u);
  for (int i : {1, 2, 4, 5, 6, 7, 8}) {
    ASSERT_TRUE(table.Get(Value::Int(i)).ok()) << i;
    auto rows =
        table.FindByIndex("name", Value::Str(util::StrFormat("n%d", i)));
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 1u) << i;
  }
}

TableSchema ScoredSchema() {
  return SchemaBuilder("scored")
      .Int("id")
      .Real("score")
      .PrimaryKey("id")
      .OrderedIndex("score")
      .Build();
}

TEST(OrderedIndexTest, ScanRangeIsInclusiveAndSorted) {
  Table table(ScoredSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table
                    .Insert(Row{Value::Int(i),
                                Value::Real(static_cast<double>(i))})
                    .ok());
  }
  auto rows = table.ScanRange("score", Value::Real(3.0), Value::Real(6.0));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 4u);
  for (std::size_t i = 0; i < rows->size(); ++i) {
    EXPECT_DOUBLE_EQ((*rows)[i][1].AsReal(), 3.0 + static_cast<double>(i));
  }
  // Empty range.
  EXPECT_TRUE(
      table.ScanRange("score", Value::Real(100), Value::Real(200))->empty());
  // No ordered index on id.
  EXPECT_FALSE(table.ScanRange("id", Value::Int(0), Value::Int(5)).ok());
}

TEST(OrderedIndexTest, ScanOrderedBothDirectionsWithLimit) {
  Table table(ScoredSchema());
  for (int i : {5, 1, 9, 3, 7}) {
    ASSERT_TRUE(table
                    .Insert(Row{Value::Int(i),
                                Value::Real(static_cast<double>(i))})
                    .ok());
  }
  auto asc = table.ScanOrdered("score", true, 3);
  ASSERT_TRUE(asc.ok());
  ASSERT_EQ(asc->size(), 3u);
  EXPECT_EQ((*asc)[0][0].AsInt(), 1);
  EXPECT_EQ((*asc)[1][0].AsInt(), 3);
  EXPECT_EQ((*asc)[2][0].AsInt(), 5);

  auto desc = table.ScanOrdered("score", false, 2);
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ((*desc)[0][0].AsInt(), 9);
  EXPECT_EQ((*desc)[1][0].AsInt(), 7);
}

TEST(OrderedIndexTest, TracksUpsertsAndDeletes) {
  Table table(ScoredSchema());
  ASSERT_TRUE(table.Insert(Row{Value::Int(1), Value::Real(5.0)}).ok());
  ASSERT_TRUE(table.Insert(Row{Value::Int(2), Value::Real(8.0)}).ok());
  // Move row 1 from 5.0 to 9.5 — the old index entry must vanish.
  ASSERT_TRUE(table.Upsert(Row{Value::Int(1), Value::Real(9.5)}).ok());
  auto top = table.ScanOrdered("score", false, 1);
  ASSERT_TRUE(top.ok());
  EXPECT_EQ((*top)[0][0].AsInt(), 1);
  EXPECT_TRUE(
      table.ScanRange("score", Value::Real(4.9), Value::Real(5.1))->empty());
  // Delete (swap-remove path) keeps the index consistent.
  ASSERT_TRUE(table.Delete(Value::Int(1)).ok());
  auto remaining = table.ScanOrdered("score", true, 10);
  ASSERT_EQ(remaining->size(), 1u);
  EXPECT_EQ((*remaining)[0][0].AsInt(), 2);
}

TEST(OrderedIndexTest, DuplicateScoresAllSurface) {
  Table table(ScoredSchema());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(table.Insert(Row{Value::Int(i), Value::Real(7.0)}).ok());
  }
  auto rows = table.ScanRange("score", Value::Real(7.0), Value::Real(7.0));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
}

TEST(OrderedIndexTest, SchemaWithOrderedIndexSurvivesWalRecovery) {
  std::string path = TempPath("ordered");
  std::remove(path.c_str());
  {
    auto db = Database::Open(path).value();
    ASSERT_TRUE(db->CreateTable(ScoredSchema()).ok());
    Table* table = db->GetTable("scored").value();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(table
                      ->Insert(Row{Value::Int(i),
                                   Value::Real(static_cast<double>(i % 7))})
                      .ok());
    }
  }
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Table* table = (*db)->GetTable("scored").value();
    EXPECT_EQ(table->schema().ordered_indexes().size(), 1u);
    auto top = table->ScanOrdered("score", false, 3);
    ASSERT_TRUE(top.ok());
    EXPECT_DOUBLE_EQ((*top)[0][1].AsReal(), 6.0);
  }
  std::remove(path.c_str());
}

TEST(ValueLessTest, OrdersWithinAndAcrossTypes) {
  ValueLess less;
  EXPECT_TRUE(less(Value::Int(1), Value::Int(2)));
  EXPECT_FALSE(less(Value::Int(2), Value::Int(1)));
  EXPECT_TRUE(less(Value::Real(1.5), Value::Real(2.5)));
  EXPECT_TRUE(less(Value::Str("a"), Value::Str("b")));
  EXPECT_TRUE(less(Value::Boolean(false), Value::Boolean(true)));
  // Cross-type: ordered by type tag, consistently.
  EXPECT_NE(less(Value::Int(1), Value::Str("a")),
            less(Value::Str("a"), Value::Int(1)));
}

TEST(TableTest, ScanFilters) {
  Table table(UserSchema());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.Insert(UserRow(i, "u", i, i % 2 == 0)).ok());
  }
  auto evens = table.Scan([](const Row& row) { return row[3].AsBool(); });
  EXPECT_EQ(evens.size(), 5u);
}

TEST(TableTest, MutationListenerSeesLoggedOpsOnly) {
  Table table(UserSchema());
  int calls = 0;
  table.SetMutationListener(
      [&](MutationOp, const Row&, const Value&) { ++calls; });
  ASSERT_TRUE(table.Insert(UserRow(1, "a", 1, true)).ok());
  ASSERT_TRUE(table.Upsert(UserRow(1, "b", 2, true)).ok());
  ASSERT_TRUE(table.Delete(Value::Int(1)).ok());
  EXPECT_EQ(calls, 3);
  ASSERT_TRUE(table.InsertUnlogged(UserRow(2, "c", 1, true)).ok());
  EXPECT_EQ(calls, 3);
}

// --- WAL -----------------------------------------------------------------

TEST(WalTest, WriteReadRoundTrip) {
  std::string path = TempPath("roundtrip");
  std::remove(path.c_str());
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append("one").ok());
    ASSERT_TRUE(writer.Append("two").ok());
    ASSERT_TRUE(writer.Append(std::string(100000, 'x')).ok());
  }
  WalReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(*reader.Next(), "one");
  EXPECT_EQ(*reader.Next(), "two");
  EXPECT_EQ(reader.Next()->size(), 100000u);
  EXPECT_EQ(reader.Next().status().code(), util::StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(WalTest, MissingFileIsEmptyLog) {
  WalReader reader;
  ASSERT_TRUE(reader.Open("/nonexistent/die.wal").ok());
  EXPECT_EQ(reader.Next().status().code(), util::StatusCode::kNotFound);
}

TEST(WalTest, TornTailIsIgnored) {
  std::string path = TempPath("torn");
  std::remove(path.c_str());
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append("complete").ok());
    ASSERT_TRUE(writer.Append("will-be-torn").ok());
  }
  // Chop bytes off the end, simulating a crash mid-write.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  ASSERT_EQ(::ftruncate(fileno(f), size - 5), 0);
  std::fclose(f);

  WalReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(*reader.Next(), "complete");
  EXPECT_EQ(reader.Next().status().code(), util::StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(WalTest, CorruptPayloadReportsDataLoss) {
  std::string path = TempPath("corrupt");
  std::remove(path.c_str());
  {
    WalWriter writer;
    ASSERT_TRUE(writer.Open(path).ok());
    ASSERT_TRUE(writer.Append("payload-one").ok());
    ASSERT_TRUE(writer.Append("payload-two").ok());
  }
  // Flip a byte inside the first frame's payload.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 3, SEEK_SET);
  std::fputc('X', f);
  std::fclose(f);

  WalReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  EXPECT_EQ(reader.Next().status().code(), util::StatusCode::kDataLoss);
  std::remove(path.c_str());
}

// --- Database -------------------------------------------------------------

TEST(DatabaseTest, InMemoryBasics) {
  auto db = Database::Open("");
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->CreateTable(UserSchema()).ok());
  EXPECT_TRUE((*db)->HasTable("users"));
  EXPECT_FALSE((*db)->HasTable("ghosts"));
  EXPECT_EQ((*db)->CreateTable(UserSchema()).code(),
            util::StatusCode::kAlreadyExists);

  auto table = (*db)->GetTable("users");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->Insert(UserRow(1, "a", 1, true)).ok());
  EXPECT_EQ((*db)->TotalRows(), 1u);
}

TEST(DatabaseTest, RecoversFromWal) {
  std::string path = TempPath("recovery");
  std::remove(path.c_str());
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(UserSchema()).ok());
    Table* table = (*db)->GetTable("users").value();
    ASSERT_TRUE(table->Insert(UserRow(1, "alice", 9.5, true)).ok());
    ASSERT_TRUE(table->Insert(UserRow(2, "bob", 4.0, false)).ok());
    ASSERT_TRUE(table->Upsert(UserRow(2, "bob2", 5.0, true)).ok());
    ASSERT_TRUE(table->Insert(UserRow(3, "carol", 7.0, true)).ok());
    ASSERT_TRUE(table->Delete(Value::Int(1)).ok());
  }
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Table* table = (*db)->GetTable("users").value();
    EXPECT_EQ(table->size(), 2u);
    EXPECT_FALSE(table->Get(Value::Int(1)).ok());
    EXPECT_EQ((*table->Get(Value::Int(2)))[1].AsStr(), "bob2");
    EXPECT_EQ((*table->Get(Value::Int(3)))[1].AsStr(), "carol");
    // Secondary index is rebuilt on replay.
    EXPECT_EQ(table->FindByIndex("name", Value::Str("carol"))->size(), 1u);
  }
  std::remove(path.c_str());
}

TEST(DatabaseTest, CompactionShrinksLogAndPreservesState) {
  std::string path = TempPath("compact");
  std::remove(path.c_str());
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(UserSchema()).ok());
    Table* table = (*db)->GetTable("users").value();
    // Churn: many upserts on the same keys bloat the log.
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(table->Upsert(UserRow(i, "user", round, true)).ok());
      }
    }
    FILE* f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    long before = std::ftell(f);
    std::fclose(f);

    ASSERT_TRUE((*db)->Compact().ok());

    f = std::fopen(path.c_str(), "rb");
    std::fseek(f, 0, SEEK_END);
    long after = std::ftell(f);
    std::fclose(f);
    EXPECT_LT(after, before / 10);
  }
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Table* table = (*db)->GetTable("users").value();
    EXPECT_EQ(table->size(), 10u);
    EXPECT_EQ((*table->Get(Value::Int(7)))[2].AsReal(), 49.0);
  }
  std::remove(path.c_str());
}

TEST(DatabaseTest, AutoCompactionBoundsLogGrowth) {
  std::string path = TempPath("autocompact");
  std::remove(path.c_str());
  {
    auto db = Database::Open(path).value();
    ASSERT_TRUE(db->CreateTable(UserSchema()).ok());
    // Compact whenever the log holds > 5x the live rows (min 20 frames).
    db->SetAutoCompact(5.0, 20);
    Table* table = db->GetTable("users").value();
    // Heavy churn on 4 keys: without compaction this appends 2000 frames.
    for (int round = 0; round < 500; ++round) {
      for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(table->Upsert(UserRow(i, "u", round, true)).ok());
      }
    }
    EXPECT_GT(db->compactions(), 0u);
    // The uncompacted tail stays bounded by factor * rows (plus the batch
    // written since the last trigger check).
    EXPECT_LT(db->FramesSinceCompaction(), 60u);

    FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    long size = std::ftell(f);
    std::fclose(f);
    EXPECT_LT(size, 5000);  // vs ~80 KB without compaction
  }
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Table* table = (*db)->GetTable("users").value();
    EXPECT_EQ(table->size(), 4u);
    EXPECT_EQ((*table->Get(Value::Int(2)))[2].AsReal(), 499.0);
  }
  std::remove(path.c_str());
}

TEST(DatabaseTest, WritesAfterCompactionSurviveRecovery) {
  std::string path = TempPath("compact2");
  std::remove(path.c_str());
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->CreateTable(UserSchema()).ok());
    Table* table = (*db)->GetTable("users").value();
    ASSERT_TRUE(table->Insert(UserRow(1, "pre", 1, true)).ok());
    ASSERT_TRUE((*db)->Compact().ok());
    ASSERT_TRUE(table->Insert(UserRow(2, "post", 2, true)).ok());
  }
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    Table* table = (*db)->GetTable("users").value();
    EXPECT_EQ(table->size(), 2u);
    EXPECT_TRUE(table->Get(Value::Int(1)).ok());
    EXPECT_TRUE(table->Get(Value::Int(2)).ok());
  }
  std::remove(path.c_str());
}

// --- Crash/corruption recovery ------------------------------------------

long FileSize(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  return size;
}

TEST(DatabaseRecoveryTest, TornTailIsExcisedSoLaterAppendsStayFramed) {
  std::string path = TempPath("torn_tail");
  std::remove(path.c_str());
  {
    auto db = Database::Open(path).value();
    ASSERT_TRUE(db->CreateTable(UserSchema()).ok());
    Table* table = db->GetTable("users").value();
    ASSERT_TRUE(table->Insert(UserRow(1, "a", 1, true)).ok());
    ASSERT_TRUE(table->Insert(UserRow(2, "b", 2, true)).ok());
  }
  // Crash mid-append: a frame header claiming 64 payload bytes, with only a
  // few actually written.
  FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputc(0x40, f);  // varint length 64
  std::fputs("short", f);
  std::fclose(f);
  long torn_size = FileSize(path);

  {
    // Replay ignores the torn tail AND truncates it away, so the append
    // below starts at a frame boundary instead of extending garbage.
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_FALSE((*db)->recovered_with_loss());  // a torn tail is not loss
    EXPECT_LT(FileSize(path), torn_size);
    Table* table = (*db)->GetTable("users").value();
    EXPECT_EQ(table->size(), 2u);
    ASSERT_TRUE(table->Insert(UserRow(3, "c", 3, true)).ok());
  }
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Table* table = (*db)->GetTable("users").value();
    EXPECT_EQ(table->size(), 3u);
    EXPECT_TRUE(table->Get(Value::Int(3)).ok());
  }
  std::remove(path.c_str());
}

TEST(DatabaseRecoveryTest, InteriorCorruptionFailsClosedByDefault) {
  std::string path = TempPath("interior_default");
  std::remove(path.c_str());
  long prefix_size = 0;
  {
    auto db = Database::Open(path).value();
    ASSERT_TRUE(db->CreateTable(UserSchema()).ok());
    Table* table = db->GetTable("users").value();
    ASSERT_TRUE(table->Insert(UserRow(1, "keep", 1, true)).ok());
    prefix_size = FileSize(path);
    for (int i = 2; i <= 5; ++i) {
      ASSERT_TRUE(table->Insert(UserRow(i, "lost", i, true)).ok());
    }
  }
  // Flip a byte inside the payload of row 2's frame (past its 1-byte
  // length varint), breaking that frame's checksum.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, prefix_size + 5, SEEK_SET);
  int original = std::fgetc(f);
  std::fseek(f, prefix_size + 5, SEEK_SET);
  std::fputc(original ^ 0x1, f);
  std::fclose(f);

  auto db = Database::Open(path);
  EXPECT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), util::StatusCode::kDataLoss);
  std::remove(path.c_str());
}

TEST(DatabaseRecoveryTest, SalvageKeepsIntactPrefixAndTruncatesTheRest) {
  std::string path = TempPath("interior_salvage");
  std::remove(path.c_str());
  long prefix_size = 0;
  {
    auto db = Database::Open(path).value();
    ASSERT_TRUE(db->CreateTable(UserSchema()).ok());
    Table* table = db->GetTable("users").value();
    ASSERT_TRUE(table->Insert(UserRow(1, "keep", 1, true)).ok());
    prefix_size = FileSize(path);
    for (int i = 2; i <= 5; ++i) {
      ASSERT_TRUE(table->Insert(UserRow(i, "lost", i, true)).ok());
    }
  }
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, prefix_size + 5, SEEK_SET);
  int original = std::fgetc(f);
  std::fseek(f, prefix_size + 5, SEEK_SET);
  std::fputc(original ^ 0x1, f);
  std::fclose(f);

  Database::OpenOptions salvage;
  salvage.salvage_corruption = true;
  {
    auto db = Database::Open(path, salvage);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_TRUE((*db)->recovered_with_loss());
    EXPECT_EQ(FileSize(path), prefix_size);  // amputated at the bad frame
    Table* table = (*db)->GetTable("users").value();
    EXPECT_EQ(table->size(), 1u);
    EXPECT_EQ((*table->Get(Value::Int(1)))[1].AsStr(), "keep");
    // The log accepts new writes after the amputation.
    ASSERT_TRUE(table->Insert(UserRow(6, "after", 6, true)).ok());
  }
  {
    // The salvaged log is clean again: default open succeeds.
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_FALSE((*db)->recovered_with_loss());
    Table* table = (*db)->GetTable("users").value();
    EXPECT_EQ(table->size(), 2u);
    EXPECT_TRUE(table->Get(Value::Int(6)).ok());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pisrep::storage
