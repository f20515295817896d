#include "net/rpc.h"

#include <cstdlib>
#include <utility>

#include "proto/binary_codec.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace pisrep::net {

namespace {
using util::Result;
using util::Status;
using util::StatusCode;
using xml::XmlNode;
}  // namespace

util::StatusCode StatusCodeFromName(std::string_view name) {
  for (int i = 0; i <= static_cast<int>(StatusCode::kInternal); ++i) {
    StatusCode code = static_cast<StatusCode>(i);
    if (name == util::StatusCodeName(code)) return code;
  }
  return StatusCode::kInternal;
}

RpcServer::RpcServer(SimNetwork* network, std::string address)
    : network_(network), address_(std::move(address)) {}

RpcServer::~RpcServer() { network_->Unbind(address_); }

Status RpcServer::Start() {
  return network_->Bind(address_,
                        [this](const Message& m) { HandleMessage(m); });
}

void RpcServer::RegisterMethod(std::string name, Method method) {
  methods_[std::move(name)] = std::move(method);
}

RpcServer::Method RpcServer::FindMethod(const std::string& name) const {
  auto it = methods_.find(name);
  return it == methods_.end() ? Method() : it->second;
}

void RpcServer::SetResponseGate(ResponseGate gate) {
  response_gate_ = std::move(gate);
}

void RpcServer::AttachObservability(obs::MetricsRegistry* metrics,
                                    obs::Tracer* tracer) {
  metrics_ = metrics;
  tracer_ = tracer;
  method_counters_.clear();
  error_counters_.clear();
  handle_micros_ = nullptr;
  binary_requests_metric_ = nullptr;
  if (metrics_ != nullptr) {
    // Wall-clock-valued (instrumentation only, never steers sim logic):
    // handler durations are real compute time, not sim time — sim time
    // stands still inside an event. Bucket layout stays deterministic.
    handle_micros_ = metrics_->GetHistogram(
        "pisrep_net_rpc_handle_micros",
        {10.0, 100.0, 1000.0, 10000.0, 100000.0});
    binary_requests_metric_ =
        metrics_->GetCounter("pisrep_proto_binary_requests_total");
  }
}

obs::Counter* RpcServer::MethodCounter(const std::string& method) {
  auto it = method_counters_.find(method);
  if (it != method_counters_.end()) return it->second;
  obs::Counter* counter = metrics_->GetCounter(
      obs::WithLabel("pisrep_net_rpc_requests_total", "method", method));
  method_counters_.emplace(method, counter);
  return counter;
}

obs::Counter* RpcServer::ErrorCounter(const std::string& code) {
  auto it = error_counters_.find(code);
  if (it != error_counters_.end()) return it->second;
  obs::Counter* counter = metrics_->GetCounter(
      obs::WithLabel("pisrep_net_rpc_errors_total", "code", code));
  error_counters_.emplace(code, counter);
  return counter;
}

void RpcServer::HandleMessage(const Message& message) {
  auto decoded = proto::DecodeFrame(message.payload);
  if (!decoded.ok() || decoded->node.name() != "request") {
    // Malformed datagram (either codec), or a frame that is not one
    // <request>: nothing sensible to reply to.
    ++requests_failed_;
    if (metrics_) ErrorCounter("malformed")->Increment();
    return;
  }
  if (decoded->codec == proto::WireCodec::kBinary) {
    ++binary_requests_;
    if (binary_requests_metric_) binary_requests_metric_->Increment();
  }
  const XmlNode& request = decoded->node;
  std::string method_name = request.AttributeOr("method", "");

  // Continue the caller's trace when the request carries span ids (the
  // client codec adds them whenever its side has a tracer attached).
  obs::Span span;
  if (tracer_ != nullptr) {
    auto trace_id = util::ParseInt64(request.AttributeOr("trace", ""));
    auto span_id = util::ParseInt64(request.AttributeOr("span", ""));
    if (trace_id.ok() && span_id.ok()) {
      span = tracer_->StartChild("rpc.server." + method_name,
                                 static_cast<std::uint64_t>(*trace_id),
                                 static_cast<std::uint64_t>(*span_id));
    } else {
      span = tracer_->StartSpan("rpc.server." + method_name);
    }
  }
  if (metrics_) MethodCounter(method_name)->Increment();
  // Wall time, not sim time: sim time stands still inside an event, so the
  // handler's real compute cost is the only meaningful duration here.
  const std::int64_t handle_started =
      handle_micros_ ? util::MonotonicMicros() : 0;

  XmlNode response("response");
  response.SetAttribute("id", request.AttributeOr("id", ""));

  auto it = methods_.find(method_name);
  if (it == methods_.end()) {
    ++requests_failed_;
    if (metrics_) {
      ErrorCounter(util::StatusCodeName(StatusCode::kNotFound))
          ->Increment();
    }
    span.SetError("no such method");
    response.SetAttribute("status", "error");
    response.SetAttribute("code",
                          util::StatusCodeName(StatusCode::kNotFound));
    response.set_text("no such method: " + method_name);
  } else {
    Result<XmlNode> result = it->second(request);
    if (result.ok()) {
      ++requests_handled_;
      response.SetAttribute("status", "ok");
      // The result element's children, text, and attributes become the
      // response body. "id"/"status"/"code" are reserved for the envelope.
      for (const auto& [key, value] : result->attributes()) {
        if (key == "id" || key == "status" || key == "code") continue;
        response.SetAttribute(key, value);
      }
      response.children() = std::move(result->children());
      if (!result->text().empty()) response.set_text(result->text());
    } else {
      ++requests_failed_;
      if (metrics_) {
        ErrorCounter(util::StatusCodeName(result.status().code()))
            ->Increment();
      }
      span.SetError(result.status().message());
      response.SetAttribute("status", "error");
      response.SetAttribute(
          "code", util::StatusCodeName(result.status().code()));
      response.set_text(result.status().message());
    }
  }
  if (handle_micros_) {
    handle_micros_->Observe(
        static_cast<double>(util::MonotonicMicros() - handle_started));
  }
  span.Finish();

  auto send = [network = network_, from = address_, to = message.from,
               payload = proto::EncodeFrame(response, decoded->codec)] {
    network->Send(from, to, payload);
  };
  if (response_gate_) {
    // The gate owns the transmission now; it may run the closure
    // immediately (reads) or hold it until e.g. replication catches up
    // (writes). Handler work and metrics above already happened.
    response_gate_(method_name, std::move(send));
  } else {
    send();
  }
}

RpcClient::RpcClient(SimNetwork* network, EventLoop* loop,
                     std::string address, std::string server_address)
    : network_(network),
      loop_(loop),
      address_(std::move(address)),
      server_address_(std::move(server_address)),
      rng_(0xbac0ff ^ std::hash<std::string>{}(address_)) {}

RpcClient::~RpcClient() { network_->Unbind(address_); }

Status RpcClient::Start() {
  return network_->Bind(address_,
                        [this](const Message& m) { HandleMessage(m); });
}

void RpcClient::AttachObservability(obs::MetricsRegistry* metrics,
                                    obs::Tracer* tracer) {
  tracer_ = tracer;
  if (metrics == nullptr) {
    calls_metric_ = nullptr;
    timeouts_metric_ = nullptr;
    retries_metric_ = nullptr;
    fast_failures_metric_ = nullptr;
    breaker_opens_metric_ = nullptr;
    corrupt_metric_ = nullptr;
    latency_ms_ = nullptr;
    return;
  }
  calls_metric_ = metrics->GetCounter("pisrep_net_rpc_client_calls_total");
  timeouts_metric_ =
      metrics->GetCounter("pisrep_net_rpc_client_timeouts_total");
  retries_metric_ =
      metrics->GetCounter("pisrep_net_rpc_client_retries_total");
  fast_failures_metric_ =
      metrics->GetCounter("pisrep_net_rpc_client_fast_failures_total");
  breaker_opens_metric_ =
      metrics->GetCounter("pisrep_net_rpc_client_breaker_opens_total");
  corrupt_metric_ =
      metrics->GetCounter("pisrep_net_rpc_client_corrupt_responses_total");
  // Sim-time round trip of a logical call, retries included — these
  // values are deterministic, unlike the server's wall-micros histogram.
  latency_ms_ = metrics->GetHistogram(
      "pisrep_net_rpc_client_latency_ms",
      {10.0, 50.0, 100.0, 500.0, 1000.0, 5000.0, 30000.0});
}

RpcClient::ServerState& RpcClient::StateFor(const std::string& server) {
  return servers_[server];  // default-constructed closed breaker
}

RpcClient::BreakerState RpcClient::breaker_state_for(
    std::string_view server) const {
  auto it = servers_.find(std::string(server));
  return it == servers_.end() ? BreakerState::kClosed : it->second.state;
}

void RpcClient::Call(std::string_view method, XmlNode params,
                     ResponseCallback callback, util::Duration timeout) {
  CallTo(server_address_, method, std::move(params), std::move(callback),
         timeout);
}

void RpcClient::CallTo(std::string_view server, std::string_view method,
                       XmlNode params, ResponseCallback callback,
                       util::Duration timeout) {
  std::string server_address(server);
  ServerState& state = StateFor(server_address);
  if (breaker_config_.enabled && state.state == BreakerState::kOpen &&
      loop_->Now() >= state.open_until) {
    // Cooldown elapsed: this call becomes the half-open probe.
    state.state = BreakerState::kHalfOpen;
    state.probe_in_flight = false;
  }
  if (breaker_config_.enabled &&
      (state.state == BreakerState::kOpen ||
       (state.state == BreakerState::kHalfOpen && state.probe_in_flight))) {
    ++fast_failures_;
    if (fast_failures_metric_) fast_failures_metric_->Increment();
    callback(Status::Unavailable("circuit breaker open for " +
                                 server_address));
    return;
  }
  if (state.state == BreakerState::kHalfOpen) state.probe_in_flight = true;

  params.set_name("request");
  params.SetAttribute("method", std::string(method));

  PendingCall call;
  call.callback = std::move(callback);
  call.server = std::move(server_address);
  call.method = std::string(method);
  call.retries_left = max_retries_;
  call.timeout = timeout;
  call.started = loop_->Now();
  if (tracer_ != nullptr) {
    // The span's ids ride along as request attributes so the server side
    // can open a causally linked child span. They survive retries: the
    // stored request is re-sent verbatim (only "id" is refreshed). When
    // the request already carries trace ids (a forwarded router hop), the
    // new client span continues that trace instead of starting a root, so
    // one query is traceable client→router→shard.
    auto trace_id = util::ParseInt64(params.AttributeOr("trace", ""));
    auto span_id = util::ParseInt64(params.AttributeOr("span", ""));
    if (trace_id.ok() && span_id.ok()) {
      call.span = tracer_->StartChild(
          "rpc.client." + call.method,
          static_cast<std::uint64_t>(*trace_id),
          static_cast<std::uint64_t>(*span_id));
    } else {
      call.span = tracer_->StartSpan("rpc.client." + call.method);
    }
    params.SetAttribute("trace", std::to_string(call.span.trace_id()));
    params.SetAttribute("span", std::to_string(call.span.span_id()));
  }
  call.request = std::move(params);
  Dispatch(std::move(call));
}

void RpcClient::Dispatch(PendingCall call) {
  std::uint64_t id = next_id_++;
  XmlNode request = call.request;
  request.SetAttribute("id", std::to_string(id));
  util::Duration timeout = call.timeout;

  std::string destination = call.server;
  pending_.emplace(id, std::move(call));
  ++calls_sent_;
  if (calls_metric_) calls_metric_->Increment();
  network_->Send(address_, destination, proto::EncodeFrame(request, codec_));

  loop_->ScheduleAfter(timeout, [this, id,
                                 alive = std::weak_ptr<int>(alive_)] {
    if (alive.expired()) return;  // the client is gone; do not touch it
    auto it = pending_.find(id);
    if (it == pending_.end()) return;  // already answered
    PendingCall timed_out = std::move(it->second);
    pending_.erase(it);
    ++timeouts_;
    if (timeouts_metric_) timeouts_metric_->Increment();
    Status error =
        Status::Unavailable("rpc timeout calling " + timed_out.method);
    RetryOrFail(std::move(timed_out), std::move(error));
  });
}

void RpcClient::RetryOrFail(PendingCall call, Status error) {
  if (call.retries_left > 0) {
    --call.retries_left;
    // Exponential backoff with deterministic jitter: double the budget,
    // then stretch by up to +25% so recovering clients desynchronize.
    call.timeout *= 2;
    call.timeout += static_cast<util::Duration>(
        rng_.NextBelow(static_cast<std::uint64_t>(call.timeout) / 4 + 1));
    ++retries_sent_;
    if (retries_metric_) retries_metric_->Increment();
    Dispatch(std::move(call));
    return;
  }
  Complete(std::move(call), std::move(error));
}

void RpcClient::Complete(PendingCall call, Result<XmlNode> result) {
  // Only transport-level failures feed the breaker: an application error
  // (duplicate vote, bad session, ...) proves the server is reachable.
  bool reachable =
      result.ok() ||
      (result.status().code() != StatusCode::kUnavailable &&
       result.status().code() != StatusCode::kDataLoss);
  RecordOutcome(call.server, reachable);
  if (latency_ms_) {
    latency_ms_->Observe(
        static_cast<double>(loop_->Now() - call.started));
  }
  if (!result.ok()) call.span.SetError(result.status().message());
  call.span.Finish();
  call.callback(std::move(result));
}

void RpcClient::RecordOutcome(const std::string& server, bool success) {
  if (!breaker_config_.enabled) return;
  ServerState& state = StateFor(server);
  if (success) {
    state.consecutive_failures = 0;
    state.probe_in_flight = false;
    state.state = BreakerState::kClosed;
    return;
  }
  ++state.consecutive_failures;
  bool probe_failed =
      state.state == BreakerState::kHalfOpen && state.probe_in_flight;
  if (probe_failed ||
      (state.state == BreakerState::kClosed &&
       state.consecutive_failures >= breaker_config_.failure_threshold)) {
    state.state = BreakerState::kOpen;
    state.probe_in_flight = false;
    state.open_until = loop_->Now() + breaker_config_.cooldown;
    ++breaker_opens_;
    if (breaker_opens_metric_) breaker_opens_metric_->Increment();
  }
}

void RpcClient::HandleMessage(const Message& message) {
  auto decoded = proto::DecodeFrame(message.payload);
  if (!decoded.ok() || decoded->node.name() != "response") {
    // Corrupted on the wire. For XML frames the request id may still be
    // legible in the mangled payload; if so, fail that call over to the
    // retry path now instead of letting it burn the rest of its timeout.
    // If the id is gone too (always the case for a mangled binary frame),
    // the pending call is covered by its timeout — corruption can never
    // hang a call.
    ++corrupt_responses_;
    if (corrupt_metric_) corrupt_metric_->Increment();
    std::size_t at = message.payload.find("id=\"");
    if (at == std::string::npos) return;
    const char* p = message.payload.c_str() + at + 4;
    char* end = nullptr;
    std::uint64_t id = std::strtoull(p, &end, 10);
    if (end == p) return;
    auto it = pending_.find(id);
    if (it == pending_.end()) return;
    PendingCall call = std::move(it->second);
    pending_.erase(it);
    Status error =
        Status::DataLoss("corrupted rpc response for " + call.method);
    RetryOrFail(std::move(call), std::move(error));
    return;
  }
  XmlNode& response = decoded->node;
  auto id_result = util::ParseInt64(response.AttributeOr("id", ""));
  if (!id_result.ok()) return;
  auto it = pending_.find(static_cast<std::uint64_t>(*id_result));
  if (it == pending_.end()) return;  // late or duplicate response
  PendingCall call = std::move(it->second);
  pending_.erase(it);

  if (response.AttributeOr("status", "") == "ok") {
    Complete(std::move(call), Result<XmlNode>(std::move(response)));
  } else {
    StatusCode code = StatusCodeFromName(response.AttributeOr("code", ""));
    Complete(std::move(call), Status(code, response.text()));
  }
}

}  // namespace pisrep::net
