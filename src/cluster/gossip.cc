#include "cluster/gossip.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/string_util.h"

namespace pisrep::cluster {

namespace {
using util::Result;
using util::Status;
using xml::XmlNode;

/// Timeout of one digest exchange with a peer.
constexpr util::Duration kRpcTimeout = 2 * util::kSecond;

std::uint64_t AttrU64(const XmlNode& node, std::string_view key) {
  auto parsed = util::ParseInt64(node.AttributeOr(key, "0"));
  if (!parsed.ok() || *parsed < 0) return 0;
  return static_cast<std::uint64_t>(*parsed);
}
}  // namespace

GossipAgent::GossipAgent(net::SimNetwork* network, net::EventLoop* loop,
                         std::string self, const HashRing* ring,
                         GossipConfig config, obs::MetricsRegistry* metrics,
                         DeadCallback on_dead)
    : network_(network),
      loop_(loop),
      self_(std::move(self)),
      ring_(ring),
      config_(config),
      on_dead_(std::move(on_dead)) {
  if (metrics != nullptr) {
    rounds_metric_ = metrics->GetCounter(obs::WithLabel(
        "pisrep_cluster_gossip_rounds_total", "shard", self_));
    suspicions_metric_ = metrics->GetCounter(obs::WithLabel(
        "pisrep_cluster_gossip_suspicions_total", "shard", self_));
  }
}

Status GossipAgent::Start() {
  // Seed with the sim clock: a restarted incarnation's heartbeat always
  // exceeds anything its predecessor gossiped.
  heartbeat_ = static_cast<std::uint64_t>(loop_->Now()) + 1;
  client_ = std::make_unique<net::RpcClient>(network_, loop_,
                                             self_ + "!gossip", self_);
  net::RpcClient::BreakerConfig breaker;
  breaker.enabled = false;
  client_->set_breaker(breaker);
  client_->set_max_retries(0);
  PISREP_RETURN_IF_ERROR(client_->Start());
  ScheduleRound();
  return Status::Ok();
}

void GossipAgent::AttachRpc(net::RpcServer* server) {
  server->RegisterMethod(
      std::string(kGossipMethod),
      [this](const XmlNode& request) -> Result<XmlNode> {
        MergeDigest(request);
        XmlNode result = BuildDigest();
        return result;
      });
}

XmlNode GossipAgent::BuildDigest() const {
  XmlNode digest("g");
  XmlNode& self = digest.AddChild("m");
  self.SetAttribute("n", self_);
  self.SetAttribute("h", std::to_string(heartbeat_));
  for (const auto& [name, state] : peers_) {
    XmlNode& member = digest.AddChild("m");
    member.SetAttribute("n", name);
    member.SetAttribute("h", std::to_string(state.heartbeat));
  }
  return digest;
}

void GossipAgent::MergeDigest(const XmlNode& digest) {
  util::TimePoint now = loop_->Now();
  for (const XmlNode* member : digest.FindChildren("m")) {
    std::string name = member->AttributeOr("n", "");
    if (name.empty() || name == self_) continue;
    std::uint64_t heartbeat = AttrU64(*member, "h");
    auto it = peers_.find(name);
    if (it == peers_.end()) {
      peers_.emplace(std::move(name), PeerState{heartbeat, now});
    } else if (heartbeat > it->second.heartbeat) {
      it->second.heartbeat = heartbeat;
      it->second.last_advance = now;
    }
  }
}

bool GossipAgent::Suspects(const std::string& peer) const {
  auto it = peers_.find(peer);
  if (it == peers_.end()) return false;
  return loop_->Now() - it->second.last_advance >= config_.suspicion_timeout;
}

void GossipAgent::ScheduleRound() {
  loop_->ScheduleAfter(config_.period,
                       [this, alive = std::weak_ptr<int>(alive_)] {
                         if (alive.expired()) return;
                         RunRound();
                       });
}

void GossipAgent::RunRound() {
  ++rounds_;
  ++heartbeat_;
  if (rounds_metric_) rounds_metric_->Increment();
  std::vector<std::string> members = ring_->Members();
  std::erase(members, self_);
  if (!members.empty()) {
    const std::string& peer = members[next_peer_ % members.size()];
    ++next_peer_;
    client_->CallTo(
        peer, kGossipMethod, BuildDigest(),
        [this, alive = std::weak_ptr<int>(alive_)](Result<XmlNode> result) {
          if (alive.expired()) return;
          if (result.ok()) MergeDigest(*result);
        },
        kRpcTimeout);
  }
  CheckSuspicions();
  ScheduleRound();
}

void GossipAgent::CheckSuspicions() {
  util::TimePoint now = loop_->Now();
  std::vector<std::string> members = ring_->Members();
  // Forget departed members so a removed shard is never "suspected".
  std::erase_if(peers_, [&](const auto& entry) {
    return std::find(members.begin(), members.end(), entry.first) ==
           members.end();
  });
  for (const std::string& member : members) {
    if (member == self_) continue;
    auto it = peers_.find(member);
    if (it == peers_.end()) {
      // First sight: grant a full timeout of grace before suspecting.
      peers_.emplace(member, PeerState{0, now});
      continue;
    }
    if (now - it->second.last_advance < config_.suspicion_timeout) continue;
    // Exactly one survivor acts: the first non-suspected successor of the
    // dead shard on the ring. Re-evaluated every round, so if the executor
    // itself dies the next successor picks the duty up once the first
    // becomes suspected too.
    std::string executor;
    for (const std::string& successor :
         ring_->SuccessorsOf(member, members.size())) {
      if (!Suspects(successor)) {
        executor = successor;
        break;
      }
    }
    if (executor != self_) continue;
    if (suspicions_metric_) suspicions_metric_->Increment();
    PISREP_LOG(kWarning) << self_ << " suspects " << member
                         << " dead (heartbeat silent for "
                         << (now - it->second.last_advance) << " ticks)";
    Status acted = on_dead_(member);
    if (!acted.ok()) {
      PISREP_LOG(kInfo) << "failover of " << member
                        << " refused: " << acted.ToString();
    }
    // Attempted (or refused): rearm, retry only after another full
    // timeout of continued silence.
    it->second.last_advance = now;
  }
}

}  // namespace pisrep::cluster
