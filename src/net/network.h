#ifndef PISREP_NET_NETWORK_H_
#define PISREP_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/event_loop.h"
#include "util/random.h"
#include "util/status.h"

namespace pisrep::net {

/// A datagram in flight between two named endpoints.
struct Message {
  std::string from;
  std::string to;
  std::string payload;
};

/// Latency / loss model for the simulated network.
struct NetworkConfig {
  /// Fixed one-way latency added to every delivery.
  util::Duration base_latency = 20 * util::kMillisecond;
  /// Additional uniform random latency in [0, jitter].
  util::Duration jitter = 10 * util::kMillisecond;
  /// Probability that a message is silently dropped.
  double loss_probability = 0.0;
  /// Seed for the network's private randomness stream.
  std::uint64_t seed = 0x5eed;
};

class FaultInjector;

/// An in-process message-passing network with configurable latency and loss.
///
/// Endpoints register a handler under a unique address; Send schedules an
/// asynchronous delivery on the event loop. This stands in for the paper's
/// TCP/HTTP transport while keeping simulations deterministic. NetworkConfig
/// models the healthy baseline; adversity (partitions, corruption,
/// duplication, reorder bursts) layers on via an attached FaultInjector.
class SimNetwork {
 public:
  using Handler = std::function<void(const Message&)>;

  SimNetwork(EventLoop* loop, NetworkConfig config);

  /// Attaches (or detaches, with nullptr) a fault plane consulted on every
  /// send. The injector must outlive the network or be detached first.
  void AttachFaultInjector(FaultInjector* injector) { injector_ = injector; }

  /// Registers `address`; fails if it is already bound.
  util::Status Bind(std::string_view address, Handler handler);

  /// Removes an endpoint. Messages already in flight to it are dropped on
  /// arrival.
  void Unbind(std::string_view address);

  bool IsBound(std::string_view address) const;

  /// Queues an asynchronous delivery. Unknown destinations and lossy drops
  /// are not errors at the sender (datagram semantics); they surface as
  /// request timeouts at the RPC layer.
  void Send(std::string_view from, std::string_view to,
            std::string payload);

  /// Counters for tests and reports.
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_delivered() const { return messages_delivered_; }
  std::uint64_t messages_dropped() const { return messages_dropped_; }
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  /// Schedules one delivery attempt of `message` (a possibly corrupted
  /// copy), after the modelled latency plus any reorder burst.
  void DeliverCopy(Message message);

  EventLoop* loop_;
  NetworkConfig config_;
  util::Rng rng_;
  FaultInjector* injector_ = nullptr;
  std::unordered_map<std::string, Handler> endpoints_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace pisrep::net

#endif  // PISREP_NET_NETWORK_H_
