// Ablation A4: cost of score aggregation — the paper's recompute-everything
// 24-hour job (§3.2) versus the incremental dirty-set recompute, and the
// inline versus fanned-out compute — plus the snapshot publish that follows
// a server's run, rendered inline and fanned out. The fan-out is the one a
// server's tick runs (util::ParallelFor: threads started per call),
// kWorkers wide.
//
// Emits BENCH_aggregation.json at the repo root (bench_util.h OutputPath). `--smoke` runs
// only the smallest size with correctness self-checks (used by the
// `bench-smoke` ctest label); every size checks that the fanned-out
// snapshot is byte-identical to the inline one, and the full run also
// self-checks that the incremental path delivers an order-of-magnitude win
// at scale.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_timer.h"
#include "bench_util.h"
#include "core/types.h"
#include "proto/wire.h"
#include "server/account_manager.h"
#include "server/aggregation_job.h"
#include "server/score_snapshot.h"
#include "server/software_registry.h"
#include "server/vote_store.h"
#include "storage/database.h"
#include "util/clock.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "xml/xml_writer.h"

namespace pisrep::bench {
namespace {

using core::SoftwareId;
using core::SoftwareMeta;
using server::AggregationStats;

constexpr std::size_t kWorkers = 4;

struct SizeResult {
  std::size_t votes = 0;
  std::size_t programs = 0;
  std::size_t users = 0;
  std::int64_t full_single_micros = 0;
  std::int64_t full_parallel_micros = 0;
  std::size_t parallel_shards = 0;
  std::int64_t incremental_micros = 0;
  std::size_t incremental_recomputed = 0;
  std::size_t incremental_candidates = 0;
  std::int64_t snapshot_single_micros = 0;
  std::int64_t snapshot_parallel_micros = 0;
};

SoftwareMeta ProgramMeta(std::size_t index, std::size_t vendors) {
  SoftwareMeta meta;
  meta.id = util::Sha1::Hash("a4-program-" + std::to_string(index));
  meta.file_name = util::StrFormat("p%zu.exe", index);
  meta.file_size = 4096;
  meta.company = "vendor-" + std::to_string(index % vendors);
  meta.version = "1.0";
  return meta;
}

/// Registry + votes + accounts + job over an in-memory database, loaded
/// with a deterministic community of `votes` ratings.
class Fixture {
 public:
  explicit Fixture(std::size_t votes) : total_votes_(votes) {
    programs_ = votes / 100;
    users_ = votes / 20;
    vendors_ = programs_ >= 20 ? programs_ / 20 : 1;
    auto opened = storage::Database::Open("");
    MustOk(opened, "open in-memory db");
    db_ = std::move(*opened);
    registry_ = std::make_unique<server::SoftwareRegistry>(db_.get());
    votes_ = std::make_unique<server::VoteStore>(db_.get());
    server::AccountManager::Config config;
    config.require_activation = false;
    accounts_ =
        std::make_unique<server::AccountManager>(db_.get(), config);
    job_ = std::make_unique<server::AggregationJob>(
        registry_.get(), votes_.get(), accounts_.get());
    Populate();
  }

  void Populate() {
    for (std::size_t p = 0; p < programs_; ++p) {
      MustOk(registry_->RegisterSoftware(ProgramMeta(p, vendors_)),
             "register software");
    }
    for (std::size_t u = 0; u < users_; ++u) {
      std::string name = util::StrFormat("u%zu", u);
      MustOk(accounts_->Register(name, "password", name + "@a4.example", 0),
             "register user");
    }
    // Diversify trust so weights are not all equal: every 7th user earns
    // remarks, dated late enough that the weekly growth cap is not binding.
    for (std::size_t u = 0; u < users_; u += 7) {
      for (int r = 0; r < static_cast<int>(u % 5) + 1; ++r) {
        MustOk(accounts_->ApplyRemark(static_cast<core::UserId>(u + 1), true,
                                      30 * util::kWeek),
               "apply remark");
      }
    }
    // Each user votes on votes/users distinct programs; stride 13 is kept
    // coprime to the program count so the per-user picks never collide.
    std::size_t per_user = total_votes_ / users_;
    std::size_t stride = 13;
    while (programs_ % stride == 0) ++stride;
    for (std::size_t u = 0; u < users_; ++u) {
      for (std::size_t k = 0; k < per_user; ++k) {
        std::size_t p = (u + k * stride) % programs_;
        core::RatingRecord record;
        record.user = static_cast<core::UserId>(u + 1);
        record.software = ProgramMeta(p, vendors_).id;
        record.score = 1 + static_cast<int>((u * 7 + k * 5) % 10);
        record.submitted_at = 0;
        // A slice of frozen-weight (pseudonymous-style) votes.
        double snapshot = (u + k) % 5 == 0 ? 1.5 : 0.0;
        MustOk(votes_->SubmitRating(record, true, snapshot), "submit vote");
      }
    }
  }

  /// Dirties ~1% of programs with one fresh vote each (a late joiner going
  /// through the catalogue), the workload an incremental run absorbs.
  void DirtyOnePercent() {
    std::size_t dirty = programs_ / 100 > 0 ? programs_ / 100 : 1;
    std::string name = "late-joiner";
    MustOk(accounts_->Register(name, "password", name + "@a4.example", 0),
           "register late joiner");
    core::UserId late = accounts_->GetAccountByUsername(name)->id;
    for (std::size_t i = 0; i < dirty; ++i) {
      core::RatingRecord record;
      record.user = late;
      record.software = ProgramMeta(i * 100 % programs_, vendors_).id;
      record.score = 1 + static_cast<int>(i % 10);
      record.submitted_at = util::kDay;
      MustOk(votes_->SubmitRating(record, true, 0.0), "submit dirty vote");
    }
  }

  std::vector<core::SoftwareScore> SnapshotScores() const {
    std::vector<core::SoftwareScore> out;
    out.reserve(programs_);
    for (std::size_t p = 0; p < programs_; ++p) {
      auto score = registry_->GetScore(ProgramMeta(p, vendors_).id);
      if (score.ok()) out.push_back(*score);
    }
    return out;
  }

  /// Bit-exact equality on the value fields (computed_at excluded: clean
  /// entries keep their older timestamp by design).
  static bool SameScores(const std::vector<core::SoftwareScore>& a,
                         const std::vector<core::SoftwareScore>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].score != b[i].score || a[i].vote_count != b[i].vote_count ||
          a[i].weight_sum != b[i].weight_sum) {
        return false;
      }
    }
    return true;
  }

  /// The snapshot a server would publish now, rendered `width` wide (1:
  /// inline).
  std::shared_ptr<const server::ScoreSnapshot> Snapshot(
      std::size_t width) const {
    return server::BuildScoreSnapshot(*registry_, *votes_,
                                      server::SnapshotBuildOptions{},
                                      /*epoch=*/1, 2 * util::kDay, width);
  }

  /// Every entry's wire bytes in registry order, then the vendor table.
  std::string SnapshotBytes(const server::ScoreSnapshot& snapshot) const {
    std::string out;
    for (const SoftwareId& id : registry_->AllSoftware()) {
      out += xml::WriteXml(proto::SoftwareInfoToXml(
          server::LookupSnapshotInfo(snapshot, id)));
    }
    for (const core::VendorScore& vendor : snapshot.vendors) {
      out += xml::WriteXml(server::VendorIndexRow(vendor));
    }
    return out;
  }

  server::AggregationJob& job() { return *job_; }
  std::size_t programs() const { return programs_; }
  std::size_t users() const { return users_; }

 private:
  std::size_t total_votes_;
  std::size_t programs_ = 0;
  std::size_t users_ = 0;
  std::size_t vendors_ = 0;
  std::unique_ptr<storage::Database> db_;
  std::unique_ptr<server::SoftwareRegistry> registry_;
  std::unique_ptr<server::VoteStore> votes_;
  std::unique_ptr<server::AccountManager> accounts_;
  std::unique_ptr<server::AggregationJob> job_;
};

SizeResult RunSize(std::size_t votes) {
  SizeResult result;
  result.votes = votes;

  std::printf("  building community: %zu votes...\n", votes);
  Fixture fx(votes);
  result.programs = fx.programs();
  result.users = fx.users();

  // Full sweep, single-threaded (the paper's §3.2 job). The serial columns
  // pin width 1: from AggregationJob::kTickSplitTitles titles the job
  // would otherwise fan out.
  fx.job().set_fan_out_width(1);
  WallTimer timer;
  fx.job().RunOnce(util::kDay, /*full_sweep=*/true);
  result.full_single_micros = timer.ElapsedMicros();
  std::vector<core::SoftwareScore> single = fx.SnapshotScores();

  // Full sweep again, fanned out kWorkers wide; must be bit-identical.
  fx.job().set_fan_out_width(kWorkers);
  timer.Reset();
  fx.job().RunOnce(util::kDay, /*full_sweep=*/true);
  result.full_parallel_micros = timer.ElapsedMicros();
  result.parallel_shards = fx.job().last_stats().shards;
  if (!Fixture::SameScores(single, fx.SnapshotScores())) {
    std::fprintf(stderr, "FAIL: parallel full sweep diverged from serial\n");
    std::exit(1);
  }

  // Incremental: 1% of programs dirtied, single-threaded recompute.
  fx.job().set_fan_out_width(1);
  fx.DirtyOnePercent();
  timer.Reset();
  fx.job().RunOnce(2 * util::kDay);
  result.incremental_micros = timer.ElapsedMicros();
  const AggregationStats& stats = fx.job().last_stats();
  result.incremental_recomputed = stats.recomputed;
  result.incremental_candidates = stats.candidates;
  if (stats.full_sweep) {
    std::fprintf(stderr, "FAIL: incremental run widened to a full sweep\n");
    std::exit(1);
  }

  // Self-check: a full sweep after the incremental run must not move any
  // score — the dirty-set recompute already converged them all.
  std::vector<core::SoftwareScore> after_inc = fx.SnapshotScores();
  fx.job().RunOnce(2 * util::kDay, /*full_sweep=*/true);
  if (!Fixture::SameScores(after_inc, fx.SnapshotScores())) {
    std::fprintf(stderr,
                 "FAIL: incremental run missed dirty state "
                 "(full sweep moved scores afterwards)\n");
    std::exit(1);
  }

  // The publish a server runs after every aggregation: the whole snapshot
  // rendered inline, then fanned out; both must be byte-identical.
  timer.Reset();
  auto inline_snapshot = fx.Snapshot(1);
  result.snapshot_single_micros = timer.ElapsedMicros();
  timer.Reset();
  auto fanned_snapshot = fx.Snapshot(kWorkers);
  result.snapshot_parallel_micros = timer.ElapsedMicros();
  if (fx.SnapshotBytes(*inline_snapshot) !=
      fx.SnapshotBytes(*fanned_snapshot)) {
    std::fprintf(stderr, "FAIL: fanned-out snapshot diverged from inline\n");
    std::exit(1);
  }

  std::printf(
      "  votes=%-8zu full=%8lldus  parallel=%8lldus (shards=%zu)  "
      "incremental=%8lldus (%zu/%zu recomputed)  "
      "snapshot=%8lldus  parallel=%8lldus\n",
      votes, static_cast<long long>(result.full_single_micros),
      static_cast<long long>(result.full_parallel_micros),
      result.parallel_shards,
      static_cast<long long>(result.incremental_micros),
      result.incremental_recomputed, result.incremental_candidates,
      static_cast<long long>(result.snapshot_single_micros),
      static_cast<long long>(result.snapshot_parallel_micros));
  return result;
}

void WriteJson(const std::vector<SizeResult>& results, bool smoke) {
  const std::string path = ResultPath("BENCH_aggregation.json", smoke);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"benchmark\": \"incremental_aggregation\",\n");
  // Honesty flag: with fewer host cpus than the fan-out is wide the
  // parallel_speedup column measures scheduling overhead, not speedup —
  // downstream tooling must not quote it as one.
  unsigned host_cpus = std::thread::hardware_concurrency();
  std::fprintf(out,
               "  \"workers\": %zu,\n  \"host_cpus\": %u,\n"
               "  \"speedup_valid\": %s,\n  \"sizes\": [\n",
               kWorkers, host_cpus,
               host_cpus >= kWorkers ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    double full = static_cast<double>(r.full_single_micros);
    double inc = static_cast<double>(r.incremental_micros);
    double par = static_cast<double>(r.full_parallel_micros);
    double snap = static_cast<double>(r.snapshot_single_micros);
    double snap_par = static_cast<double>(r.snapshot_parallel_micros);
    std::fprintf(
        out,
        "    {\"votes\": %zu, \"programs\": %zu, \"users\": %zu,\n"
        "     \"full_single_micros\": %lld, \"full_parallel_micros\": %lld,\n"
        "     \"parallel_shards\": %zu, \"incremental_micros\": %lld,\n"
        "     \"incremental_recomputed\": %zu, "
        "\"incremental_candidates\": %zu,\n"
        "     \"full_over_incremental\": %.2f, "
        "\"parallel_speedup\": %.2f,\n"
        "     \"snapshot_single_micros\": %lld, "
        "\"snapshot_parallel_micros\": %lld, "
        "\"snapshot_speedup\": %.2f}%s\n",
        r.votes, r.programs, r.users,
        static_cast<long long>(r.full_single_micros),
        static_cast<long long>(r.full_parallel_micros), r.parallel_shards,
        static_cast<long long>(r.incremental_micros),
        r.incremental_recomputed, r.incremental_candidates,
        inc > 0 ? full / inc : 0.0, par > 0 ? full / par : 0.0,
        static_cast<long long>(r.snapshot_single_micros),
        static_cast<long long>(r.snapshot_parallel_micros),
        snap_par > 0 ? snap / snap_par : 0.0,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

int Main(bool smoke) {
  Banner("A4: incremental + parallel aggregation vs full 24h recompute",
         "§3.2 (daily aggregation job) — scaling ablation");
  std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{10'000}
            : std::vector<std::size_t>{10'000, 100'000, 1'000'000};
  unsigned host_cpus = std::thread::hardware_concurrency();
  if (host_cpus < 2) {
    // The fan-out still runs (and its output is still checked
    // bit-identical), but its timing column can only measure scheduling
    // overhead here.
    std::printf(
        "  note: host reports %u cpu(s); the parallel column measures "
        "fan-out overhead, not speedup\n",
        host_cpus);
  }
  std::vector<SizeResult> results;
  for (std::size_t votes : sizes) results.push_back(RunSize(votes));
  WriteJson(results, smoke);
  Rule();
  std::printf("wrote %s (%zu sizes)\n",
              ResultPath("BENCH_aggregation.json", smoke).c_str(),
              results.size());

  if (!smoke) {
    // The reproduced shape: at 100k+ votes the dirty-set run must beat the
    // full sweep by a wide margin (it touches ~1% of the work).
    for (const SizeResult& r : results) {
      if (r.votes < 100'000) continue;
      if (r.incremental_micros * 5 >= r.full_single_micros) {
        std::fprintf(stderr,
                     "FAIL: incremental not >=5x faster at %zu votes "
                     "(full=%lldus incremental=%lldus)\n",
                     r.votes,
                     static_cast<long long>(r.full_single_micros),
                     static_cast<long long>(r.incremental_micros));
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace
}  // namespace pisrep::bench

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return pisrep::bench::Main(smoke);
}
