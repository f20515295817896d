// Feature F11: cluster scaling — a fixed routed workload (onboarding,
// digest-routed votes, vendor reads from the router's index, per-shard
// aggregation) replayed against 1 / 2 / 4 / 8 shards behind the Router.
//
// Emits BENCH_cluster.json at the repo root (bench_util.h OutputPath). Self-checking at
// every size: the N-shard scores must be bit-for-bit the 1-shard scores
// (the single-shard run is the oracle), every program must land where the
// ring says, and at N >= 2 the catalogue must actually spread over more
// than one shard. `--smoke` runs 1 and 2 shards only (the `bench-smoke`
// ctest label).
//
// Throughput here is wall-clock over the simulated network: it measures
// the processing cost of the cluster machinery (routing, replication
// shipping, per-shard stores), not real parallel hardware — the whole
// fleet shares one event loop. The interesting columns are the flat
// digest-plane cost (one hop regardless of N), the broadcast-plane cost
// growing with N (every account op fans to all shards), and the per-shard
// aggregation sweep shrinking as the catalogue spreads.

#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_timer.h"
#include "bench_util.h"
#include "cluster/cluster.h"
#include "cluster/router.h"
#include "core/types.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "net/rpc.h"
#include "proto/wire.h"
#include "util/sha1.h"
#include "util/string_util.h"

namespace pisrep::bench {
namespace {

using cluster::ClusterConfig;
using cluster::Router;
using cluster::RouterConfig;
using cluster::ShardCluster;
using util::Result;
using util::StrFormat;
using xml::XmlNode;

struct Workload {
  int users = 0;
  int programs = 0;
  int votes_per_user = 0;
};

struct ShardResult {
  int shards = 0;
  int votes = 0;
  std::int64_t onboard_micros = 0;
  std::int64_t vote_micros = 0;
  std::int64_t vendor_micros = 0;
  std::int64_t aggregate_micros = 0;
  double votes_per_sec = 0.0;
  std::uint64_t router_redirects = 0;
  std::size_t shards_with_programs = 0;
};

core::SoftwareMeta ProgramMeta(int index) {
  core::SoftwareMeta meta;
  meta.id = util::Sha1::Hash(StrFormat("f11-program-%d", index));
  meta.file_name = StrFormat("app_%03d.exe", index);
  meta.file_size = 4096 + index;
  meta.company = StrFormat("vendor-%d", index % 5);
  meta.version = "1.0";
  return meta;
}

/// A ShardCluster + Router driven over blocking RPC from one client — the
/// same front-door workload a ClientApp would produce.
class ClusterBench {
 public:
  explicit ClusterBench(int shards) : network_(&loop_, net::NetworkConfig{}) {
    ClusterConfig config;
    config.num_shards = shards;
    config.server.flood.registration_puzzle_bits = 0;
    config.server.flood.max_votes_per_user_per_day = 0;
    config.server.flood.max_registrations_per_source_per_day = 0;
    // No background agents: the loop can drain between blocking calls.
    config.gossip.enabled = false;
    config.anti_entropy.enabled = false;
    cluster_ = std::make_unique<ShardCluster>(&network_, &loop_,
                                              std::move(config));
    MustOk(cluster_->Start(), "start cluster");
    RouterConfig rc;
    rc.service_address = "server";
    router_ = std::make_unique<Router>(&network_, &loop_, rc,
                                       /*metrics=*/nullptr, /*tracer=*/nullptr);
    MustOk(router_->Start(), "start router");
    for (int i = 0; i < shards; ++i) router_->AddShard(cluster_->ShardName(i));
    client_ = std::make_unique<net::RpcClient>(&network_, &loop_, "bench",
                                               "server");
    MustOk(client_->Start(), "start client");
  }

  ~ClusterBench() { cluster_->StopAll(); }

  ShardCluster& cluster() { return *cluster_; }
  Router& router() { return *router_; }

  Result<XmlNode> Call(const std::string& method, XmlNode params) {
    std::optional<Result<XmlNode>> response;
    client_->Call(
        method, std::move(params),
        [&response](Result<XmlNode> r) { response = std::move(r); },
        5 * util::kSecond);
    for (int i = 0; i < 120 && !response.has_value(); ++i) {
      loop_.RunUntil(loop_.Now() + util::kSecond);
    }
    if (!response.has_value()) {
      return util::Status::Unavailable("call never completed: " + method);
    }
    return *std::move(response);
  }

  std::string Onboard(const std::string& user) {
    auto puzzle_resp = Call("RequestPuzzle", XmlNode("request"));
    MustOk(puzzle_resp, "RequestPuzzle");
    const XmlNode* puzzle_node = puzzle_resp->FindChild("puzzle");
    if (puzzle_node == nullptr) {
      std::fprintf(stderr, "FAIL: RequestPuzzle returned no puzzle\n");
      std::exit(1);
    }
    proto::Puzzle puzzle;
    puzzle.nonce = puzzle_node->AttributeOr("nonce", "");
    puzzle.difficulty_bits = 0;

    XmlNode reg("request");
    reg.AddTextChild("source", "src-" + user);
    reg.AddTextChild("username", user);
    reg.AddTextChild("password", "pw-" + user);
    reg.AddTextChild("email", user + "@f11.example");
    reg.AddTextChild("nonce", puzzle.nonce);
    reg.AddTextChild("solution", proto::SolvePuzzle(puzzle));
    MustOk(Call("Register", std::move(reg)), "Register");

    auto mail = cluster_->FetchMail(user + "@f11.example");
    MustOk(mail, "FetchMail");
    XmlNode act("request");
    act.AddTextChild("username", mail->username);
    act.AddTextChild("token", mail->token);
    MustOk(Call("Activate", std::move(act)), "Activate");

    XmlNode login("request");
    login.AddTextChild("username", user);
    login.AddTextChild("password", "pw-" + user);
    auto session = Call("Login", std::move(login));
    MustOk(session, "Login");
    return session->ChildText("session").value_or("");
  }

  void SubmitRating(const std::string& session, const core::SoftwareMeta& meta,
                    int score, const std::string& comment) {
    XmlNode request("request");
    request.AddTextChild("session", session);
    XmlNode& software = request.AddChild("software");
    software.SetAttribute("id", meta.id.ToHex());
    software.SetAttribute("file_name", meta.file_name);
    software.SetAttribute("file_size", std::to_string(meta.file_size));
    software.SetAttribute("company", meta.company);
    software.SetAttribute("version", meta.version);
    request.AddIntChild("score", score);
    request.AddTextChild("comment", comment);
    MustOk(Call("SubmitRating", std::move(request)), "SubmitRating");
  }

 private:
  net::EventLoop loop_;
  net::SimNetwork network_;
  std::unique_ptr<ShardCluster> cluster_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<net::RpcClient> client_;
};

using ScoreTable = std::map<int, core::SoftwareScore>;

ShardResult RunShardCount(int shards, const Workload& load,
                          ScoreTable* oracle) {
  std::printf("  shards=%d: onboarding %d users...\n", shards, load.users);
  ClusterBench bench(shards);
  ShardResult result;
  result.shards = shards;

  WallTimer timer;
  std::vector<std::string> sessions;
  sessions.reserve(static_cast<std::size_t>(load.users));
  for (int u = 0; u < load.users; ++u) {
    sessions.push_back(bench.Onboard(StrFormat("user%03d", u)));
  }
  result.onboard_micros = timer.ElapsedMicros();

  // Digest plane: every vote routes to the ring owner of its software.
  // Stride keeps per-user program picks distinct and spread over the ring.
  timer.Reset();
  for (int u = 0; u < load.users; ++u) {
    for (int k = 0; k < load.votes_per_user; ++k) {
      int p = (u + k * 7) % load.programs;
      int score = 1 + (u * 3 + k * 5) % 10;
      bench.SubmitRating(sessions[static_cast<std::size_t>(u)],
                         ProgramMeta(p), score, StrFormat("c-%d-%d", u, k));
      ++result.votes;
    }
  }
  result.vote_micros = timer.ElapsedMicros();
  result.votes_per_sec =
      result.vote_micros > 0
          ? static_cast<double>(result.votes) * 1e6 /
                static_cast<double>(result.vote_micros)
          : 0.0;
  result.router_redirects = bench.router().redirects_followed();

  // Per-shard aggregation: each shard sweeps only its own slice. Vendor
  // means are built here, so the vendor reads below need this first.
  timer.Reset();
  bench.cluster().RunAggregationAll(30 * util::kDay);
  result.aggregate_micros = timer.ElapsedMicros();

  // Vendor-index plane: each read is one hop to a shard that checks the
  // session, answered from the router's index; the first also waits for
  // the round that pulls every shard's freshly aggregated vendor table.
  timer.Reset();
  for (int v = 0; v < 5; ++v) {
    XmlNode request("request");
    request.AddTextChild("session", sessions[0]);
    request.AddTextChild("vendor", StrFormat("vendor-%d", v));
    MustOk(bench.Call("QueryVendor", std::move(request)), "QueryVendor");
  }
  result.vendor_micros = timer.ElapsedMicros();

  // --- Self-checks ------------------------------------------------------
  std::uint64_t expected =
      static_cast<std::uint64_t>(load.users) *
      static_cast<std::uint64_t>(load.votes_per_user);
  if (bench.cluster().TotalVotesAccepted() != expected) {
    std::fprintf(stderr, "FAIL: shards=%d accepted %llu of %llu votes\n",
                 shards,
                 static_cast<unsigned long long>(
                     bench.cluster().TotalVotesAccepted()),
                 static_cast<unsigned long long>(expected));
    std::exit(1);
  }
  std::map<std::string, int> placement;
  for (int p = 0; p < load.programs; ++p) {
    ++placement[bench.cluster().ring().OwnerOf(ProgramMeta(p).id)];
  }
  result.shards_with_programs = placement.size();
  if (shards >= 2 && placement.size() < 2) {
    std::fprintf(stderr, "FAIL: shards=%d but every program on one shard\n",
                 shards);
    std::exit(1);
  }
  for (int p = 0; p < load.programs; ++p) {
    auto score = bench.cluster().GetScore(ProgramMeta(p).id);
    MustOk(score, "GetScore");
    if (oracle->count(p) == 0) {
      (*oracle)[p] = *score;  // the 1-shard run seeds the oracle
      continue;
    }
    const core::SoftwareScore& want = (*oracle)[p];
    double drift = score->score - want.score;
    if (score->vote_count != want.vote_count || drift > 1e-9 ||
        drift < -1e-9) {
      std::fprintf(stderr,
                   "FAIL: shards=%d program %d diverged from the 1-shard "
                   "oracle (score %.12f vs %.12f, votes %d vs %d)\n",
                   shards, p, score->score, want.score, score->vote_count,
                   want.vote_count);
      std::exit(1);
    }
  }

  std::printf(
      "  shards=%d votes=%d onboard=%8lldus vote=%8lldus (%.0f votes/s) "
      "vendor=%6lldus aggregate=%6lldus spread=%zu\n",
      shards, result.votes, static_cast<long long>(result.onboard_micros),
      static_cast<long long>(result.vote_micros), result.votes_per_sec,
      static_cast<long long>(result.vendor_micros),
      static_cast<long long>(result.aggregate_micros),
      result.shards_with_programs);
  return result;
}

struct FailoverResult {
  std::int64_t sim_detect_ms = 0;  ///< kill -> promotion, simulated clock
  std::int64_t wall_micros = 0;    ///< host cost of driving the recovery
};

/// Gossip-driven failover recovery time: a two-shard cluster with one-second
/// gossip rounds loses shard 0's primary; the survivor must suspect, fence
/// and promote on its own. Reported in *simulated* milliseconds — the
/// detection latency an operator would see — plus the wall cost of driving
/// the event loop through it.
FailoverResult MeasureFailoverRecovery() {
  net::EventLoop loop;
  net::SimNetwork network(&loop, net::NetworkConfig{});
  ClusterConfig config;
  config.num_shards = 2;
  config.server.flood.registration_puzzle_bits = 0;
  config.server.flood.max_registrations_per_source_per_day = 0;
  config.gossip.enabled = true;
  config.gossip.period = util::kSecond;
  config.gossip.suspicion_timeout = 3 * util::kSecond;
  config.anti_entropy.enabled = false;
  ShardCluster cluster(&network, &loop, std::move(config));
  MustOk(cluster.Start(), "start failover cluster");
  // A few rounds establish every agent's membership view.
  loop.RunUntil(loop.Now() + 5 * util::kSecond);

  WallTimer timer;
  const util::TimePoint killed_at = loop.Now();
  cluster.KillPrimary(0);
  while (cluster.failovers() < 1 &&
         loop.Now() - killed_at < 60 * util::kSecond) {
    loop.RunUntil(loop.Now() + util::kSecond);
  }
  FailoverResult result;
  result.wall_micros = timer.ElapsedMicros();
  if (cluster.failovers() < 1) {
    std::fprintf(stderr, "FAIL: gossip failover never promoted\n");
    std::exit(1);
  }
  result.sim_detect_ms = (loop.Now() - killed_at) / util::kMillisecond;
  cluster.StopAll();
  std::printf(
      "  failover: survivor promoted the replica after %lld simulated ms "
      "(%lld us wall)\n",
      static_cast<long long>(result.sim_detect_ms),
      static_cast<long long>(result.wall_micros));
  return result;
}

void WriteJson(const Workload& load, const std::vector<ShardResult>& results,
               const FailoverResult& failover, bool smoke) {
  const std::string path = ResultPath("BENCH_cluster.json", smoke);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"benchmark\": \"cluster_scaling\",\n");
  std::fprintf(out,
               "  \"users\": %d,\n  \"programs\": %d,\n"
               "  \"votes_per_user\": %d,\n",
               load.users, load.programs, load.votes_per_user);
  std::fprintf(out,
               "  \"failover\": {\"sim_detect_ms\": %lld, "
               "\"wall_micros\": %lld},\n  \"shard_counts\": [\n",
               static_cast<long long>(failover.sim_detect_ms),
               static_cast<long long>(failover.wall_micros));
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ShardResult& r = results[i];
    std::fprintf(
        out,
        "    {\"shards\": %d, \"votes\": %d,\n"
        "     \"onboard_micros\": %lld, \"vote_micros\": %lld,\n"
        "     \"votes_per_sec\": %.1f, \"vendor_micros\": %lld,\n"
        "     \"aggregate_micros\": %lld, \"router_redirects\": %llu,\n"
        "     \"shards_with_programs\": %zu}%s\n",
        r.shards, r.votes, static_cast<long long>(r.onboard_micros),
        static_cast<long long>(r.vote_micros), r.votes_per_sec,
        static_cast<long long>(r.vendor_micros),
        static_cast<long long>(r.aggregate_micros),
        static_cast<unsigned long long>(r.router_redirects),
        r.shards_with_programs, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

int Main(bool smoke) {
  Banner("F11: cluster scaling — routed workload at 1/2/4/8 shards",
         "cluster extension of §3.1-§3.2 (server availability + "
         "aggregation) — scores must match the single-shard oracle");
  Workload load;
  load.users = smoke ? 4 : 10;
  load.programs = smoke ? 12 : 40;
  load.votes_per_user = smoke ? 6 : 20;
  std::vector<int> shard_counts =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};

  ScoreTable oracle;
  std::vector<ShardResult> results;
  for (int shards : shard_counts) {
    results.push_back(RunShardCount(shards, load, &oracle));
  }
  FailoverResult failover = MeasureFailoverRecovery();
  WriteJson(load, results, failover, smoke);
  Rule();
  std::printf("wrote BENCH_cluster.json (%zu shard counts, all matched "
              "the 1-shard oracle; failover recovery %lld sim ms)\n",
              results.size(),
              static_cast<long long>(failover.sim_detect_ms));
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
