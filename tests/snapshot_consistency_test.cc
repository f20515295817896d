// Snapshot-consistency property test (ctest label: tsan-stress).
//
// The epoch-snapshot read path (DESIGN.md §14) promises RCU semantics:
// writers mutate stores and publish whole new ScoreSnapshots on one
// thread; readers on any thread pin whatever epoch is current and serve
// entirely from it. The property under test: every answer a concurrent
// reader produces matches *some* published epoch exactly — never a torn
// mix of two epochs, never a state that was never published.
//
// The writer thread drives rounds of (mutate votes -> aggregate ->
// publish) while reader threads continuously pin the current snapshot,
// read a probe's entry from it with LookupSnapshotInfo and check the
// answer against the per-epoch oracle the writer recorded at publish time. Under ThreadSanitizer this is the
// workload that makes a mis-fenced publish or a non-atomic swap trip
// deterministically; under the plain build the oracle check still bites.
//
// House rules: every atomic names its memory_order, waiting is join
// based — no sleeps.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/types.h"
#include "net/event_loop.h"
#include "server/reputation_server.h"
#include "server/score_snapshot.h"
#include "storage/database.h"
#include "util/clock.h"
#include "util/sha1.h"
#include "util/string_util.h"

namespace pisrep::server {
namespace {

using core::SoftwareMeta;

constexpr std::size_t kPrograms = 8;
constexpr std::size_t kReaders = 3;
constexpr std::size_t kRounds = 40;

SoftwareMeta ProbeMeta(std::size_t index) {
  SoftwareMeta meta;
  meta.id = util::Sha1::Hash(
      util::StrFormat("tsan-app-%zu", index));
  meta.file_name = util::StrFormat("t%zu.exe", index);
  meta.file_size = 64;
  meta.company = "tsan-vendor";
  meta.version = "1.0";
  return meta;
}

/// What one epoch promised for one probe id (the fields a reader can
/// compare without chasing optional sub-structs).
struct Expected {
  bool known = false;
  double score = 0.0;
  int vote_count = 0;
};

TEST(SnapshotConsistencyStress, EveryAnswerMatchesSomePublishedEpoch) {
  auto db = storage::Database::Open("");
  ASSERT_TRUE(db.ok());
  net::EventLoop loop;
  ReputationServer::Config config;
  config.accounts.require_activation = false;
  config.flood.max_votes_per_user_per_day = 0;
  ReputationServer server(db->get(), &loop, config);

  for (std::size_t p = 0; p < kPrograms; ++p) {
    ASSERT_TRUE(server.registry().RegisterSoftware(ProbeMeta(p)).ok());
  }

  // Oracle: expectations per published epoch, filled by the writer after
  // each publish. Preallocated and indexed by epoch so readers never race
  // a container mutation; the writer's release store of
  // max_published_epoch after filling entry E happens-before any reader
  // that acquire-loads a ceiling >= E, so entries at or below the ceiling
  // are immutable from the reader's point of view.
  std::vector<std::vector<Expected>> oracle(kRounds + 2);
  std::atomic<std::uint64_t> max_published_epoch{0};
  std::atomic<bool> done{false};

  auto record_epoch = [&] {
    auto snapshot = server.CurrentSnapshot();
    ASSERT_NE(snapshot, nullptr);
    std::vector<Expected> expected(kPrograms);
    for (std::size_t p = 0; p < kPrograms; ++p) {
      SoftwareInfo info = LookupSnapshotInfo(*snapshot, ProbeMeta(p).id);
      expected[p].known = info.known;
      if (info.score.has_value()) {
        expected[p].score = info.score->score;
        expected[p].vote_count = info.score->vote_count;
      }
    }
    ASSERT_LT(snapshot->epoch, oracle.size());
    oracle[snapshot->epoch] = std::move(expected);
    max_published_epoch.store(snapshot->epoch, std::memory_order_release);
  };
  record_epoch();

  std::atomic<std::uint64_t> answers_checked{0};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::size_t cursor = r;
      while (!done.load(std::memory_order_acquire)) {
        std::uint64_t ceiling =
            max_published_epoch.load(std::memory_order_acquire);
        auto snapshot = server.CurrentSnapshot();
        ASSERT_NE(snapshot, nullptr);
        // Only consult oracle entries the writer has already recorded:
        // the pinned epoch may be newer than the ceiling when a publish
        // raced ahead of record_epoch, in which case this iteration
        // simply retries.
        std::uint64_t epoch = snapshot->epoch;
        ASSERT_GE(epoch, 1u);
        if (epoch > ceiling) continue;
        const std::vector<Expected>& expected = oracle[epoch];
        std::size_t p = cursor++ % kPrograms;
        // The pinned snapshot keeps its epoch alive for the whole read,
        // however many publications the writer makes meanwhile.
        SoftwareInfo info = LookupSnapshotInfo(*snapshot, ProbeMeta(p).id);
        EXPECT_EQ(info.known, expected[p].known)
            << "epoch " << epoch << " program " << p;
        if (info.score.has_value()) {
          EXPECT_EQ(info.score->score, expected[p].score)
              << "epoch " << epoch << " program " << p;
          EXPECT_EQ(info.score->vote_count, expected[p].vote_count)
              << "epoch " << epoch << " program " << p;
        } else {
          EXPECT_EQ(expected[p].vote_count, 0)
              << "epoch " << epoch << " program " << p;
        }
        answers_checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: each round lands one fresh vote per program (new user, so
  // the one-vote-per-user rule never rejects), aggregates and publishes.
  for (std::size_t round = 1; round <= kRounds; ++round) {
    std::string name = util::StrFormat("w%zu", round);
    ASSERT_TRUE(server.accounts()
                    .Register(name, "password",
                              util::StrFormat("%s@t.example", name.c_str()), 0)
                    .ok());
    auto writer_session = server.Login(name, "password", 0);
    ASSERT_TRUE(writer_session.ok());
    for (std::size_t p = 0; p < kPrograms; ++p) {
      ASSERT_TRUE(server
                      .SubmitRating(*writer_session, ProbeMeta(p),
                                    1 + static_cast<int>((round + p) % 10),
                                    "", core::kNoBehaviors,
                                    static_cast<util::TimePoint>(round) *
                                        util::kDay)
                      .ok());
    }
    server.aggregation().RunOnce(static_cast<util::TimePoint>(round) *
                                 util::kDay);
    record_epoch();
  }
  // Keep the final epoch live until the readers have collectively
  // validated real answers: on a single-CPU host the writer can burn
  // through every round before a reader thread is ever scheduled.
  while (answers_checked.load(std::memory_order_relaxed) <
         static_cast<std::uint64_t>(kReaders)) {
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  // The harness itself must have exercised the property: every epoch
  // published, and readers validated real answers.
  EXPECT_EQ(max_published_epoch.load(std::memory_order_acquire),
            1u + kRounds);
  EXPECT_GT(answers_checked.load(std::memory_order_relaxed), 0u);
}

TEST(SnapshotConsistencyStress, ConcurrentReadersNeverBlockPublication) {
  // Readers hammering the published snapshot while the writer republishes
  // back-to-back: publication must always complete (RCU writers never
  // wait for readers) and old epochs must stay alive while pinned.
  auto db = storage::Database::Open("");
  ASSERT_TRUE(db.ok());
  net::EventLoop loop;
  ReputationServer::Config config;
  ReputationServer server(db->get(), &loop, config);
  ASSERT_TRUE(server.registry().RegisterSoftware(ProbeMeta(0)).ok());
  server.PublishSnapshot();

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        auto pinned = server.CurrentSnapshot();
        ASSERT_NE(pinned, nullptr);
        // The pinned epoch stays readable even if the writer has since
        // published many successors.
        ASSERT_TRUE(LookupSnapshotInfo(*pinned, ProbeMeta(0).id).known);
        ASSERT_TRUE(pinned->epoch >= 1);
      }
    });
  }
  for (int i = 0; i < 200; ++i) server.PublishSnapshot();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  auto final_snapshot = server.CurrentSnapshot();
  ASSERT_NE(final_snapshot, nullptr);
  EXPECT_GE(final_snapshot->epoch, 201u);
}

}  // namespace
}  // namespace pisrep::server
