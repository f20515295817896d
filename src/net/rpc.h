#ifndef PISREP_NET_RPC_H_
#define PISREP_NET_RPC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "proto/binary_codec.h"
#include "util/random.h"
#include "util/status.h"
#include "xml/xml_node.h"

namespace pisrep::net {

/// XML-encoded request/response RPC over the simulated network.
///
/// §3.2: "XML is used as the communication protocol between the client and
/// the server." Wire format:
///
///   <request id="7" method="SubmitRating"> ...params children... </request>
///   <response id="7" status="ok"> ...result children... </response>
///   <response id="7" status="error" code="not_found">message</response>
///
/// One request frame carries one call and one response frame answers it;
/// any other frame is malformed and goes unanswered. The same element tree
/// may travel as a compact binary frame instead (proto/binary_codec.h,
/// DESIGN.md §14.2): the server sniffs the codec from the frame's first
/// byte and answers in kind, so XML and binary clients coexist on one
/// server with no handshake.
class RpcServer {
 public:
  /// A method takes the request element and returns the result element (its
  /// name is arbitrary; it becomes the children of the response) or an error
  /// status, which is serialized onto the wire.
  using Method =
      std::function<util::Result<xml::XmlNode>(const xml::XmlNode& request)>;

  /// The network must outlive the server.
  RpcServer(SimNetwork* network, std::string address);
  /// Unbinds the address; in-flight deliveries are dropped harmlessly.
  ~RpcServer();

  RpcServer(const RpcServer&) = delete;
  RpcServer& operator=(const RpcServer&) = delete;

  /// Binds the server address on the network.
  util::Status Start();

  /// Registers a handler; overwrites any existing handler of that name.
  void RegisterMethod(std::string name, Method method);

  /// Returns a copy of the registered handler (empty function when absent).
  /// Lets an upper layer wrap an existing method — e.g. the cluster's
  /// ownership guard re-registers a routed method around the original.
  Method FindMethod(const std::string& name) const;

  /// When set, the gate is invoked after every handled request with a
  /// closure that transmits the already-built response; the gate decides
  /// *when* to run it (immediately, or after some condition such as
  /// replication reaching the request's mutations). An unset gate sends
  /// synchronously, as before. The gate must eventually run or drop every
  /// closure it receives; pending closures die harmlessly with the gate.
  using ResponseGate =
      std::function<void(const std::string& method, std::function<void()>)>;
  void SetResponseGate(ResponseGate gate);

  const std::string& address() const { return address_; }
  std::uint64_t requests_handled() const { return requests_handled_; }
  std::uint64_t requests_failed() const { return requests_failed_; }
  /// Requests that arrived in the binary codec.
  std::uint64_t binary_requests() const { return binary_requests_; }

  /// Wires per-method request counters, per-code error counters and a
  /// handler-duration histogram into `metrics`, and opens a server-side
  /// child span per request on `tracer` (continuing the trace/span ids
  /// the client codec put on the request). Either may be null. Both must
  /// outlive the server.
  void AttachObservability(obs::MetricsRegistry* metrics,
                           obs::Tracer* tracer);

 private:
  void HandleMessage(const Message& message);
  obs::Counter* MethodCounter(const std::string& method);
  obs::Counter* ErrorCounter(const std::string& code);

  SimNetwork* network_;
  std::string address_;
  ResponseGate response_gate_;
  std::unordered_map<std::string, Method> methods_;
  std::uint64_t requests_handled_ = 0;
  std::uint64_t requests_failed_ = 0;
  std::uint64_t binary_requests_ = 0;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  /// Handle caches so the steady-state path never takes the registry lock.
  std::unordered_map<std::string, obs::Counter*> method_counters_;
  std::unordered_map<std::string, obs::Counter*> error_counters_;
  obs::Histogram* handle_micros_ = nullptr;
  obs::Counter* binary_requests_metric_ = nullptr;
};

/// Asynchronous RPC client endpoint.
///
/// Failure handling (the client side of graceful degradation):
///  - Timed-out calls are retried with exponential backoff plus
///    deterministic jitter, so a thundering herd of recovering clients does
///    not re-synchronize on the server.
///  - A per-server circuit breaker trips open after a run of consecutive
///    call failures; while open, calls fail fast with kUnavailable instead
///    of burning a full timeout each. After a cooldown one half-open probe
///    is let through; its outcome closes or re-opens the breaker.
///  - Corrupted responses (malformed XML) surface as kDataLoss once retries
///    are exhausted — never a crash, never a silently hung pending call.
class RpcClient {
 public:
  using ResponseCallback = std::function<void(util::Result<xml::XmlNode>)>;

  /// Circuit-breaker tuning (§3.1 availability: the client must answer
  /// allow/deny even when the server cannot).
  struct BreakerConfig {
    bool enabled = true;
    /// Consecutive call failures (timeout-exhausted or data loss) that trip
    /// the breaker open.
    int failure_threshold = 5;
    /// How long the breaker stays open before admitting a half-open probe.
    util::Duration cooldown = 30 * util::kSecond;
  };

  enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

  /// The network and loop must outlive the client.
  RpcClient(SimNetwork* network, EventLoop* loop, std::string address,
            std::string server_address);
  /// Unbinds the address; pending callbacks are dropped (never invoked) and
  /// already-scheduled timeout events become no-ops.
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Binds the client address on the network.
  util::Status Start();

  /// How many times a timed-out call is re-sent before failing (timeout
  /// doubled per attempt, plus jitter). Retries give at-least-once
  /// semantics: a request whose *response* was lost may execute twice on
  /// the server, which the pisrep API tolerates (duplicate votes are
  /// rejected, queries are read-only, counters are best-effort).
  void set_max_retries(int retries) { max_retries_ = retries; }

  /// Wire codec for outgoing requests. The server detects the codec per
  /// frame and answers in kind, so this is the whole client-side
  /// negotiation. Default XML (the paper's protocol).
  void set_codec(proto::WireCodec codec) { codec_ = codec; }
  proto::WireCodec codec() const { return codec_; }

  void set_breaker(BreakerConfig config) { breaker_config_ = config; }
  /// Breaker state for the default server (constructor `server_address`).
  BreakerState breaker_state() const {
    return breaker_state_for(server_address_);
  }
  /// Breaker state for one server. Breaker and backoff bookkeeping is keyed
  /// by server address: a stub talking to several shards keeps independent
  /// failure state per shard, so one dead shard's open breaker never
  /// fast-fails calls to healthy ones.
  BreakerState breaker_state_for(std::string_view server) const;

  /// Issues a call to the default server; `callback` fires exactly once,
  /// with the response body or an error: kUnavailable after all retries
  /// time out (or immediately when the breaker is open), kDataLoss when
  /// every attempt's response arrived corrupted.
  void Call(std::string_view method, xml::XmlNode params,
            ResponseCallback callback,
            util::Duration timeout = 5 * util::kSecond);

  /// Same as Call, but addressed to an explicit server. When the request
  /// already carries `trace`/`span` attributes (a forwarded hop, e.g. the
  /// cluster router), the client span continues that trace as a child
  /// instead of opening a new root.
  void CallTo(std::string_view server, std::string_view method,
              xml::XmlNode params, ResponseCallback callback,
              util::Duration timeout = 5 * util::kSecond);

  /// Mirrors the client counters into the registry, records a sim-time
  /// round-trip latency histogram (Call→Complete, retries included) and
  /// opens one client span per logical call on `tracer`; the span's
  /// trace/span ids travel to the server as request attributes. Either
  /// may be null. Both must outlive the client.
  void AttachObservability(obs::MetricsRegistry* metrics,
                           obs::Tracer* tracer);

  const std::string& address() const { return address_; }
  std::uint64_t calls_sent() const { return calls_sent_; }
  std::uint64_t timeouts() const { return timeouts_; }
  std::uint64_t retries_sent() const { return retries_sent_; }
  /// Calls rejected synchronously because the breaker was open.
  std::uint64_t fast_failures() const { return fast_failures_; }
  /// Closed→open transitions (including a failed half-open probe).
  std::uint64_t breaker_opens() const { return breaker_opens_; }
  /// Responses that failed to parse as XML (corruption on the wire).
  std::uint64_t corrupt_responses() const { return corrupt_responses_; }

 private:
  struct PendingCall {
    ResponseCallback callback;
    std::string server;  ///< destination address (breaker key)
    std::string method;
    xml::XmlNode request;  ///< re-sent verbatim (with a fresh id) on retry
    int retries_left = 0;
    util::Duration timeout = 0;
    util::TimePoint started = 0;  ///< sim time of the original Call
    obs::Span span;  ///< client span; finishes when the call completes
  };

  /// Per-server circuit-breaker state (keyed by server address).
  struct ServerState {
    BreakerState state = BreakerState::kClosed;
    int consecutive_failures = 0;
    util::TimePoint open_until = 0;
    bool probe_in_flight = false;
  };

  ServerState& StateFor(const std::string& server);
  void Dispatch(PendingCall call);
  void HandleMessage(const Message& message);
  /// Retries `call` with backoff, or completes it with `error` when the
  /// retry budget is exhausted.
  void RetryOrFail(PendingCall call, util::Status error);
  /// Completes a call: runs the breaker bookkeeping, then the callback.
  void Complete(PendingCall call, util::Result<xml::XmlNode> result);
  void RecordOutcome(const std::string& server, bool success);

  SimNetwork* network_;
  EventLoop* loop_;
  std::string address_;
  std::string server_address_;
  /// Liveness token for event-loop callbacks: timeouts capture a weak_ptr
  /// and bail out when the client has been destroyed.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
  std::uint64_t next_id_ = 1;
  int max_retries_ = 0;
  proto::WireCodec codec_ = proto::WireCodec::kXml;
  /// Private jitter stream; seeded deterministically so simulations stay
  /// reproducible, decorrelated per client by the address.
  util::Rng rng_;
  std::unordered_map<std::uint64_t, PendingCall> pending_;

  BreakerConfig breaker_config_;
  std::unordered_map<std::string, ServerState> servers_;

  std::uint64_t calls_sent_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_sent_ = 0;
  std::uint64_t fast_failures_ = 0;
  std::uint64_t breaker_opens_ = 0;
  std::uint64_t corrupt_responses_ = 0;

  obs::Tracer* tracer_ = nullptr;
  obs::Counter* calls_metric_ = nullptr;
  obs::Counter* timeouts_metric_ = nullptr;
  obs::Counter* retries_metric_ = nullptr;
  obs::Counter* fast_failures_metric_ = nullptr;
  obs::Counter* breaker_opens_metric_ = nullptr;
  obs::Counter* corrupt_metric_ = nullptr;
  obs::Histogram* latency_ms_ = nullptr;
};

/// Maps a status-code name back to the enum (inverse of StatusCodeName);
/// unknown names map to kInternal.
util::StatusCode StatusCodeFromName(std::string_view name);

}  // namespace pisrep::net

#endif  // PISREP_NET_RPC_H_
