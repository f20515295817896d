// Property-based and fault-injection tests: the storage engine against a
// reference model, WAL recovery under random truncation, and parser
// robustness against garbage input.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "storage/database.h"
#include "storage/table.h"
#include "util/random.h"
#include "xml/xml_parser.h"

namespace pisrep {
namespace {

using storage::Row;
using storage::SchemaBuilder;
using storage::Table;
using storage::TableSchema;
using storage::Value;

TableSchema ModelSchema() {
  return SchemaBuilder("model")
      .Int("key")
      .Str("data")
      .Int("group_id")
      .PrimaryKey("key")
      .Index("group_id")
      .Build();
}

/// Reference model: a plain std::map mirroring the table's contents, plus
/// the secondary index's visit order. `slots` mirrors the table's dense
/// row vector (swap-remove on delete); `groups` lists each group's keys
/// newest-indexed first, which is the order index visits must follow.
struct Model {
  std::map<std::int64_t, std::pair<std::string, std::int64_t>> rows;
  std::vector<std::int64_t> slots;
  std::map<std::int64_t, std::vector<std::int64_t>> groups;

  void Unindex(std::int64_t key) {
    std::vector<std::int64_t>& keys = groups[rows.at(key).second];
    keys.erase(std::find(keys.begin(), keys.end(), key));
  }
  void IndexNewest(std::int64_t key) {
    std::vector<std::int64_t>& keys = groups[rows.at(key).second];
    keys.insert(keys.begin(), key);
  }
  void Put(std::int64_t key, std::string data, std::int64_t group) {
    if (rows.contains(key)) {
      Unindex(key);
    } else {
      slots.push_back(key);
    }
    rows[key] = {std::move(data), group};
    IndexNewest(key);
  }
  void Erase(std::int64_t key) {
    Unindex(key);
    rows.erase(key);
    auto slot = std::find(slots.begin(), slots.end(), key);
    if (*slot != slots.back()) {
      // The table relocates its last row into the vacated slot and
      // re-indexes it as newest.
      *slot = slots.back();
      Unindex(*slot);
      IndexNewest(*slot);
    }
    slots.pop_back();
  }
};

/// Applies `ops` random operations to both the table and the model,
/// checking agreement after every step.
void RunModelCheck(std::uint64_t seed, int ops, Table& table, Model& model) {
  util::Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    std::int64_t key = rng.NextInt(0, 40);  // small keyspace → collisions
    int op = static_cast<int>(rng.NextBelow(4));
    std::string data = rng.NextToken(6);
    std::int64_t group = rng.NextInt(0, 5);
    switch (op) {
      case 0: {  // insert
        bool existed = model.rows.contains(key);
        auto status = table.Insert(
            Row{Value::Int(key), Value::Str(data), Value::Int(group)});
        EXPECT_EQ(status.ok(), !existed) << "insert key " << key;
        if (!existed) model.Put(key, data, group);
        break;
      }
      case 1: {  // upsert
        EXPECT_TRUE(table
                        .Upsert(Row{Value::Int(key), Value::Str(data),
                                    Value::Int(group)})
                        .ok());
        model.Put(key, data, group);
        break;
      }
      case 2: {  // delete
        bool existed = model.rows.contains(key);
        auto status = table.Delete(Value::Int(key));
        EXPECT_EQ(status.ok(), existed) << "delete key " << key;
        if (existed) model.Erase(key);
        break;
      }
      case 3: {  // point read
        auto row = table.Get(Value::Int(key));
        auto it = model.rows.find(key);
        ASSERT_EQ(row.ok(), it != model.rows.end());
        if (row.ok()) {
          EXPECT_EQ((*row)[1].AsStr(), it->second.first);
          EXPECT_EQ((*row)[2].AsInt(), it->second.second);
        }
        break;
      }
    }
  }

  // Full-state agreement at the end.
  ASSERT_EQ(table.size(), model.rows.size());
  for (const auto& [key, value] : model.rows) {
    auto row = table.Get(Value::Int(key));
    ASSERT_TRUE(row.ok()) << key;
    EXPECT_EQ((*row)[1].AsStr(), value.first);
  }
  // Secondary index agreement per group, in visit order: newest-indexed
  // first. That order is the aggregation's float summation order, so it
  // is part of the index's contract, not an accident of its layout.
  for (std::int64_t group = 0; group <= 5; ++group) {
    const std::vector<std::int64_t>& expected = model.groups[group];
    std::vector<std::int64_t> visited;
    ASSERT_TRUE(table
                    .ForEachByIndex("group_id", Value::Int(group),
                                    [&](const Row& row) {
                                      visited.push_back(row[0].AsInt());
                                    })
                    .ok());
    EXPECT_EQ(visited, expected) << "group " << group;
    auto rows = table.FindByIndex("group_id", Value::Int(group));
    ASSERT_TRUE(rows.ok());
    std::vector<std::int64_t> found;
    for (const Row& row : *rows) found.push_back(row[0].AsInt());
    EXPECT_EQ(found, expected) << "group " << group;
    auto count = table.CountByIndex("group_id", Value::Int(group));
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, expected.size()) << "group " << group;
  }
}

class StorageModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageModelTest, RandomOpsMatchReferenceModel) {
  Table table(ModelSchema());
  Model model;
  RunModelCheck(GetParam(), 600, table, model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StorageModelTest,
                         ::testing::Range<std::uint64_t>(0, 12));

class WalDurabilityTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WalDurabilityTest, RandomOpsSurviveRecovery) {
  std::string path = testing::TempDir() + "/pisrep_model_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(GetParam()) + ".wal";
  std::remove(path.c_str());
  Model model;
  {
    auto db = storage::Database::Open(path).value();
    ASSERT_TRUE(db->CreateTable(ModelSchema()).ok());
    Table* table = db->GetTable("model").value();
    RunModelCheck(GetParam() + 100, 400, *table, model);
  }
  {
    auto db = storage::Database::Open(path);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Table* table = (*db)->GetTable("model").value();
    ASSERT_EQ(table->size(), model.rows.size());
    for (const auto& [key, value] : model.rows) {
      auto row = table->Get(Value::Int(key));
      ASSERT_TRUE(row.ok());
      EXPECT_EQ((*row)[1].AsStr(), value.first);
      EXPECT_EQ((*row)[2].AsInt(), value.second);
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WalDurabilityTest,
                         ::testing::Range<std::uint64_t>(0, 8));

class WalTruncationTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WalTruncationTest, TruncatedLogsRecoverAPrefixWithoutCrashing) {
  std::string path = testing::TempDir() + "/pisrep_trunc_" +
                     std::to_string(::getpid()) + "_" +
                     std::to_string(GetParam()) + ".wal";
  std::remove(path.c_str());
  {
    auto db = storage::Database::Open(path).value();
    ASSERT_TRUE(db->CreateTable(ModelSchema()).ok());
    Table* table = db->GetTable("model").value();
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(table
                      ->Insert(Row{Value::Int(i), Value::Str("row"),
                                   Value::Int(i % 3)})
                      .ok());
    }
  }
  // Random truncation point somewhere in the file.
  FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  util::Rng rng(GetParam());
  long cut = static_cast<long>(rng.NextBelow(static_cast<std::uint64_t>(size)));
  ASSERT_EQ(::ftruncate(fileno(f), cut), 0);
  std::fclose(f);

  auto db = storage::Database::Open(path);
  if (db.ok()) {
    // Recovered some prefix of the history; if the create-table record
    // survived, the table must contain a dense prefix 0..n-1.
    if ((*db)->HasTable("model")) {
      Table* table = (*db)->GetTable("model").value();
      std::size_t n = table->size();
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(
            table->Get(Value::Int(static_cast<std::int64_t>(i))).ok())
            << "hole at " << i << " with size " << n;
      }
    }
  } else {
    // A mid-file cut can land inside a frame; that must surface as a
    // clean data-loss error, never memory corruption or a crash.
    EXPECT_EQ(db.status().code(), util::StatusCode::kDataLoss);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Cuts, WalTruncationTest,
                         ::testing::Range<std::uint64_t>(0, 16));

class XmlGarbageTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlGarbageTest, RandomBytesNeverCrashTheParser) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    std::size_t len = rng.NextBelow(120);
    std::string input;
    input.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      // Bias toward XML metacharacters to reach deep parser states.
      static constexpr char kChars[] = "<>&\"'=/ !?-[]abcxyz;#0123";
      input.push_back(kChars[rng.NextBelow(sizeof(kChars) - 1)]);
    }
    auto parsed = xml::ParseXml(input);  // must return, never crash
    (void)parsed;
  }
}

TEST_P(XmlGarbageTest, MutatedValidDocumentsNeverCrashTheParser) {
  util::Rng rng(GetParam() + 500);
  std::string valid =
      "<request id=\"7\" method=\"SubmitRating\"><session>abc</session>"
      "<software id=\"00ff\" file_name=\"a.exe\"/><score>8</score>"
      "<comment>good &amp; useful</comment></request>";
  for (int round = 0; round < 200; ++round) {
    std::string mutated = valid;
    int mutations = 1 + static_cast<int>(rng.NextBelow(4));
    for (int m = 0; m < mutations; ++m) {
      std::size_t pos = rng.NextBelow(mutated.size());
      switch (rng.NextBelow(3)) {
        case 0:
          mutated[pos] = static_cast<char>(rng.NextBelow(127) + 1);
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        case 2:
          mutated.insert(pos, 1, '<');
          break;
      }
      if (mutated.empty()) mutated.push_back('<');
    }
    auto parsed = xml::ParseXml(mutated);
    (void)parsed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlGarbageTest,
                         ::testing::Range<std::uint64_t>(0, 6));

}  // namespace
}  // namespace pisrep
