// Cluster lab: stands up a 3-shard reputation cluster behind the router,
// drives it through the same front door a single server would present,
// then kills a primary mid-run and lets the gossip failure detector's
// designated survivor fence it and promote its replicated backup — showing
// that the community's scores survive the crash bit-for-bit and that
// clients only ever see one address.
//
// The walk-through covers all three routing planes (digest-routed votes,
// broadcast account operations, vendor scores from the router's merged
// vendor index), synchronous WAL shipping to the warm backups,
// decentralized failover with session re-login, and a web portal page
// merged across the shard fleet.
//
// Usage: ./build/examples/cluster_lab [num_users]

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "client/client_app.h"
#include "cluster/cluster.h"
#include "cluster/router.h"
#include "net/event_loop.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "server/reputation_server.h"
#include "util/sha1.h"
#include "util/string_util.h"
#include "web/portal.h"

using namespace pisrep;

namespace {

constexpr int kShards = 3;
constexpr int kPrograms = 12;

core::SoftwareMeta ProgramMeta(int index) {
  core::SoftwareMeta meta;
  meta.id = util::Sha1::Hash(util::StrFormat("lab-program-%d", index));
  meta.file_name = util::StrFormat("tool_%02d.exe", index);
  meta.file_size = 10'000 + index;
  meta.company = util::StrFormat("vendor-%d", index % 3);
  meta.version = "2.1";
  return meta;
}

/// Pumps the loop in one-second slices until `done` holds (or 120 s pass).
void Pump(net::EventLoop& loop, const std::function<bool()>& done) {
  for (int i = 0; i < 120; ++i) {
    if (done()) return;
    loop.RunUntil(loop.Now() + util::kSecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  int num_users =
      argc > 1 ? static_cast<int>(std::strtol(argv[1], nullptr, 10)) : 6;
  if (num_users < 1) num_users = 1;

  net::EventLoop loop;
  net::SimNetwork network(&loop, net::NetworkConfig{});
  obs::MetricsRegistry metrics;

  // --- The fleet: N shards, each a primary + warm backup pair. ----------
  cluster::ClusterConfig config;
  config.num_shards = kShards;
  config.server.flood.registration_puzzle_bits = 0;
  config.server.flood.max_registrations_per_source_per_day = 0;
  config.server.metrics = &metrics;
  config.gossip.enabled = true;
  config.gossip.period = util::kSecond;
  config.gossip.suspicion_timeout = 3 * util::kSecond;
  auto cluster =
      std::make_unique<cluster::ShardCluster>(&network, &loop, config);
  if (!cluster->Start().ok()) return 1;

  // --- The front door: one address, however many shards. ----------------
  cluster::RouterConfig rc;
  rc.service_address = "server";
  cluster::Router router(&network, &loop, rc, &metrics, nullptr);
  if (!router.Start().ok()) return 1;
  for (int i = 0; i < kShards; ++i) router.AddShard(cluster->ShardName(i));

  std::printf("cluster lab: %d shards behind \"%s\", %d users\n\n", kShards,
              rc.service_address.c_str(), num_users);

  // --- Clients: ordinary ClientApps that only know "server". ------------
  std::vector<std::unique_ptr<client::ClientApp>> apps;
  for (int u = 0; u < num_users; ++u) {
    client::ClientApp::Config cc;
    cc.address = util::StrFormat("box-%02d", u);
    cc.server_address = rc.service_address;
    cc.username = util::StrFormat("user%02d", u);
    cc.password = util::StrFormat("pw-%02d", u);
    cc.email = util::StrFormat("user%02d@lab.example", u);
    apps.push_back(
        std::make_unique<client::ClientApp>(&network, &loop, cc));
    if (!apps.back()->Start().ok()) return 1;
  }
  for (auto& app : apps) {
    std::optional<util::Status> done;
    app->Register([&done](util::Status s) { done = s; });
    Pump(loop, [&done] { return done.has_value(); });
    if (!done || !done->ok()) {
      std::printf("registration failed: %s\n",
                  done ? done->ToString().c_str() : "timed out");
      return 1;
    }
    auto mail = cluster->FetchMail(app->config().email);
    if (!mail.ok()) return 1;
    done.reset();
    app->Activate(mail->token, [&done](util::Status s) { done = s; });
    Pump(loop, [&done] { return done.has_value(); });
    done.reset();
    app->Login([&done](util::Status s) { done = s; });
    Pump(loop, [&done] { return done.has_value(); });
  }
  std::printf("onboarded %zu users (account ops broadcast to every shard "
              "through the router's ordered pipelines)\n\n",
              apps.size());

  // --- Digest plane: votes route to the ring owner of each program. -----
  int submitted = 0;
  for (int u = 0; u < num_users; ++u) {
    for (int p = 0; p < kPrograms; ++p) {
      client::RatingSubmission submission;
      submission.score = 1 + (u * 3 + p * 5) % 10;
      submission.comment = util::StrFormat("c-%d-%d", u, p);
      std::optional<util::Status> done;
      apps[static_cast<std::size_t>(u)]->SubmitRating(
          ProgramMeta(p), submission, [&done](util::Status s) { done = s; });
      Pump(loop, [&done] { return done.has_value(); });
      if (done && done->ok()) ++submitted;
    }
  }
  cluster->RunAggregationAll(30 * util::kDay);
  // Client-acked operations are synchronously replicated (the response gate
  // holds until the backup acks); the aggregation job's own writes are not,
  // so give the WAL shipper a moment to drain them before the crash below.
  loop.RunUntil(loop.Now() + 5 * util::kSecond);
  std::printf("submitted %d ratings; placement over the ring:\n", submitted);
  for (int i = 0; i < kShards; ++i) {
    int owned = 0;
    for (int p = 0; p < kPrograms; ++p) {
      if (cluster->ring().OwnerOf(ProgramMeta(p).id) == cluster->ShardName(i))
        ++owned;
    }
    std::printf("  %s: %2d programs, %llu votes accepted\n",
                cluster->ShardName(i).c_str(), owned,
                static_cast<unsigned long long>(
                    cluster->primary(i)->stats().votes_accepted));
  }

  std::vector<double> before;
  for (int p = 0; p < kPrograms; ++p) {
    auto score = cluster->GetScore(ProgramMeta(p).id);
    before.push_back(score.ok() ? score->score : -1.0);
  }

  // --- Chaos: crash shard 0's primary; the gossip survivors promote. ----
  std::printf("\ncrashing %s's primary...\n", cluster->ShardName(0).c_str());
  cluster->KillPrimary(0);
  Pump(loop, [&] { return cluster->failovers() >= 1; });
  std::printf("gossip suspicion fenced the dead primary and promoted its "
              "warm backup (failovers=%llu)\n",
              static_cast<unsigned long long>(cluster->failovers()));

  // Promotion is a restart from the client's point of view: sessions were
  // in-memory primary state, so clients re-login (deterministic tokens
  // re-mint the same session string).
  for (auto& app : apps) {
    std::optional<util::Status> done;
    app->Login([&done](util::Status s) { done = s; });
    Pump(loop, [&done] { return done.has_value(); });
  }

  int intact = 0;
  for (int p = 0; p < kPrograms; ++p) {
    auto score = cluster->GetScore(ProgramMeta(p).id);
    double now = score.ok() ? score->score : -1.0;
    double drift = now - before[static_cast<std::size_t>(p)];
    if (drift < 1e-12 && drift > -1e-12) ++intact;
  }
  std::printf("%d/%d program scores survived the failover bit-for-bit\n",
              intact, kPrograms);

  // --- Merged reads across the fleet: vendor score and portal. ---------
  auto vendor = cluster->MergedVendorScore("vendor-0");
  if (vendor.ok()) {
    std::printf("\nmerged vendor-0 score %.3f over %d rated programs\n",
                vendor->score, vendor->software_count);
  }
  cluster::ShardCluster* fleet = cluster.get();
  web::WebPortal portal([fleet] {
    std::vector<server::ReputationServer*> shards;
    for (int i = 0; i < fleet->num_shards(); ++i) {
      shards.push_back(fleet->primary(i));
    }
    return shards;
  });
  std::string home = portal.HomePage();
  std::printf("portal home page merged across %d shards (%zu bytes)\n",
              kShards, home.size());

  std::printf("\nreplication/routing counters:\n");
  for (const std::string& name :
       {std::string("pisrep_cluster_router_broadcast_ops_total"),
        std::string("pisrep_cluster_failovers_total")}) {
    obs::Counter* counter = metrics.GetCounter(name);
    if (counter != nullptr) {
      std::printf("  %-45s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(counter->Value()));
    }
  }

  cluster->StopAll();
  std::printf("\ndone.\n");
  return 0;
}
