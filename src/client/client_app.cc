#include "client/client_app.h"

#include <utility>

#include "trust/policy_rules.h"
#include "util/hex.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "xml/xml_node.h"

namespace pisrep::client {

namespace {

using util::Result;
using util::Status;
using xml::XmlNode;

/// Expired-but-present cache entries up to this age still answer prompts
/// (marked offline) when the server is unreachable.
constexpr util::Duration kCacheStaleTtl = 24 * util::kHour;
/// LRU bound on the response cache.
constexpr std::size_t kCacheMaxEntries = 4096;

/// Parses the QuerySoftware response body into the client's PromptInfo.
PromptInfo InfoFromXml(const XmlNode& response, const core::SoftwareId& id) {
  PromptInfo info;
  info.meta.id = id;
  info.known = response.AttributeOr("known", "0") == "1";

  if (const XmlNode* software = response.FindChild("software")) {
    info.meta.file_name = software->AttributeOr("file_name", "");
    auto size = util::ParseInt64(software->AttributeOr("file_size", "0"));
    info.meta.file_size = size.ok() ? *size : 0;
    info.meta.company = software->AttributeOr("company", "");
    info.meta.version = software->AttributeOr("version", "");
  }
  if (const XmlNode* score = response.FindChild("score")) {
    core::SoftwareScore s;
    s.software = id;
    auto value = util::ParseDouble(score->AttributeOr("value", "0"));
    s.score = value.ok() ? *value : 0.0;
    auto votes = util::ParseInt64(score->AttributeOr("votes", "0"));
    s.vote_count = votes.ok() ? static_cast<int>(*votes) : 0;
    auto weight = util::ParseDouble(score->AttributeOr("weight", "0"));
    s.weight_sum = weight.ok() ? *weight : 0.0;
    info.score = s;
  }
  if (const XmlNode* vendor = response.FindChild("vendor")) {
    core::VendorScore v;
    v.vendor = vendor->AttributeOr("name", "");
    auto value = util::ParseDouble(vendor->AttributeOr("score", "0"));
    v.score = value.ok() ? *value : 0.0;
    auto count = util::ParseInt64(vendor->AttributeOr("count", "0"));
    v.software_count = count.ok() ? static_cast<int>(*count) : 0;
    info.vendor_score = v;
  }
  if (const XmlNode* behaviors = response.FindChild("behaviors")) {
    auto parsed = core::BehaviorSetFromString(behaviors->text());
    if (parsed.ok()) info.reported_behaviors = *parsed;
  }
  if (auto runs = response.ChildInt("runs"); runs.ok()) {
    info.run_count = *runs;
  }
  info.vendor_signed = response.AttributeOr("vendor_signed", "0") == "1";
  if (info.vendor_signed) {
    info.signed_vendor = response.AttributeOr("signed_vendor", "");
  }
  for (const XmlNode* comment : response.FindChildren("comment")) {
    core::RatingRecord record;
    auto author = util::ParseInt64(comment->AttributeOr("author", "0"));
    record.user = author.ok() ? *author : 0;
    record.software = id;
    auto score = util::ParseInt64(comment->AttributeOr("score", "1"));
    record.score = score.ok() ? static_cast<int>(*score) : core::kMinRating;
    auto at = util::ParseInt64(comment->AttributeOr("at", "0"));
    record.submitted_at = at.ok() ? *at : 0;
    record.comment = comment->text();
    info.comments.push_back(std::move(record));
  }
  return info;
}

/// Parses the client's policy text. Text that does not parse falls back to
/// the default, a policy with no rules that asks about everything
/// (`default ask`), so a broken rules file never decides anything itself.
core::Policy ParseClientPolicy(const std::string& rules) {
  auto parsed = trust::ParsePolicyRules(rules, "client-rules");
  if (parsed.ok()) return *std::move(parsed);
  PISREP_LOG(kWarning) << "policy rules rejected: " << parsed.status();
  return core::Policy("client-rules");
}

}  // namespace

ClientApp::ClientApp(net::SimNetwork* network, net::EventLoop* loop,
                     Config config)
    : loop_(loop),
      config_(std::move(config)),
      policy_(ParseClientPolicy(config_.policy_rules)),
      rpc_(network, loop, config_.address, config_.server_address),
      lists_(config_.local_db != nullptr ? SafetyLists(config_.local_db)
                                         : SafetyLists()),
      signature_checker_(&trust_store_),
      prompt_scheduler_(config_.prompts),
      cache_(config_.cache_ttl, kCacheStaleTtl, kCacheMaxEntries) {
  interceptor_.SetHandler(
      [this](const FileImage& image, DecisionCallback done) {
        HandleExecution(image, std::move(done));
      });
  if (config_.metrics != nullptr || config_.tracer != nullptr) {
    rpc_.AttachObservability(config_.metrics, config_.tracer);
    cache_.AttachMetrics(config_.metrics);
    offline_queue_.AttachMetrics(config_.metrics);
  }
}

Status ClientApp::Start() {
  rpc_.set_max_retries(config_.rpc_retries);
  rpc_.set_breaker(config_.breaker);
  return rpc_.Start();
}

void ClientApp::CallRouted(const std::string& method, XmlNode params,
                           net::RpcClient::ResponseCallback callback) {
  XmlNode retry_copy = params;
  rpc_.Call(
      method, std::move(params),
      [this, method, retry_copy = std::move(retry_copy),
       callback = std::move(callback)](Result<XmlNode> response) mutable {
        if (!response.ok() &&
            response.status().code() ==
                util::StatusCode::kFailedPrecondition &&
            proto::IsOwnershipMoved(response.status().message())) {
          std::string owner =
              proto::OwnershipMovedTarget(response.status().message());
          if (!owner.empty()) {
            ++stats_.redirects_followed;
            rpc_.CallTo(owner, method, std::move(retry_copy),
                        std::move(callback), config_.rpc_timeout);
            return;
          }
        }
        callback(std::move(response));
      },
      config_.rpc_timeout);
}

void ClientApp::SetPromptHandler(PromptHandler handler) {
  prompt_handler_ = std::move(handler);
}

void ClientApp::SetRatingHandler(RatingHandler handler) {
  rating_handler_ = std::move(handler);
}

void ClientApp::Register(StatusCallback done) {
  XmlNode params("request");
  rpc_.Call(
      "RequestPuzzle", std::move(params),
      [this, done = std::move(done)](Result<XmlNode> response) {
        if (!response.ok()) {
          done(response.status());
          return;
        }
        const XmlNode* puzzle_node = response->FindChild("puzzle");
        proto::Puzzle puzzle;
        if (puzzle_node != nullptr) {
          puzzle.nonce = puzzle_node->AttributeOr("nonce", "");
          auto bits = util::ParseInt64(puzzle_node->AttributeOr("bits", "0"));
          puzzle.difficulty_bits = bits.ok() ? static_cast<int>(*bits) : 0;
        }
        // The honest client burns CPU here; simulations use modest
        // difficulties so this stays cheap per registration.
        std::string solution = proto::SolvePuzzle(puzzle);

        XmlNode request("request");
        request.AddTextChild("source", config_.address);
        request.AddTextChild("username", config_.username);
        request.AddTextChild("password", config_.password);
        request.AddTextChild("email", config_.email);
        request.AddTextChild("nonce", puzzle.nonce);
        request.AddTextChild("solution", solution);
        rpc_.Call(
            "Register", std::move(request),
            [done](Result<XmlNode> reg_response) {
              done(reg_response.ok() ? Status::Ok() : reg_response.status());
            },
            config_.rpc_timeout);
      },
      config_.rpc_timeout);
}

void ClientApp::Activate(std::string_view token, StatusCallback done) {
  XmlNode request("request");
  request.AddTextChild("username", config_.username);
  request.AddTextChild("token", std::string(token));
  rpc_.Call(
      "Activate", std::move(request),
      [done = std::move(done)](Result<XmlNode> response) {
        done(response.ok() ? Status::Ok() : response.status());
      },
      config_.rpc_timeout);
}

void ClientApp::Login(StatusCallback done) {
  XmlNode request("request");
  request.AddTextChild("username", config_.username);
  request.AddTextChild("password", config_.password);
  rpc_.Call(
      "Login", std::move(request),
      [this, done = std::move(done)](Result<XmlNode> response) {
        if (!response.ok()) {
          done(response.status());
          return;
        }
        auto session = response->ChildText("session");
        if (!session.ok()) {
          done(Status::Internal("login response missing session"));
          return;
        }
        session_ = *session;
        done(Status::Ok());
      },
      config_.rpc_timeout);
}

void ClientApp::HandleExecution(const FileImage& image,
                                DecisionCallback done) {
  ++stats_.executions;
  const core::SoftwareId& id = image.Digest();

  // Stage 1 (§3.1): the lists decide without any interaction.
  if (lists_.IsBlacklisted(id)) {
    ++stats_.denied_blacklist;
    done(ExecDecision::kDeny);
    return;
  }

  PromptInfo partial;
  partial.meta = image.Meta();
  partial.signature = signature_checker_.Check(image);

  if (lists_.IsWhitelisted(id)) {
    ++stats_.allowed_whitelist;
    done(ExecDecision::kAllow);
    PostAllow(image, partial);
    return;
  }

  // Stage 2: fetch reputation data (cache → server → offline fallback),
  // then evaluate the policy.
  QueryServer(id,
              [this, image, done = std::move(done)](PromptInfo info) mutable {
                DecideWithInfo(image, std::move(info), std::move(done));
              },
              std::move(partial));
}

void ClientApp::QueryServer(const core::SoftwareId& id,
                            std::function<void(PromptInfo)> done,
                            PromptInfo partial) {
  if (auto cached = cache_.Get(id, loop_->Now())) {
    ++stats_.cache_hits;
    PromptInfo info = partial;
    info.known = cached->known;
    info.score = cached->score;
    info.vendor_score = cached->vendor_score;
    info.reported_behaviors = cached->reported_behaviors;
    info.comments = cached->comments;
    auto feed_it = feed_cache_.find(id);
    if (feed_it != feed_cache_.end()) info.feed_entry = feed_it->second;
    done(std::move(info));
    return;
  }
  if (session_.empty()) {
    if (TryServeStale(id, partial, done)) return;
    partial.offline = true;
    done(std::move(partial));
    return;
  }
  ++stats_.server_queries;
  XmlNode request("request");
  request.AddTextChild("session", session_);
  request.AddTextChild("id", id.ToHex());
  CallRouted(
      "QuerySoftware", std::move(request),
      [this, id, partial = std::move(partial),
       done = std::move(done)](Result<XmlNode> response) mutable {
        if (!response.ok()) {
          if (response.status().code() ==
              util::StatusCode::kUnauthenticated) {
            // The server restarted and forgot our session; recover it in
            // the background so the *next* query goes through live.
            session_.clear();
            MaybeRelogin();
          }
          // Server unreachable (or the response was corrupted beyond the
          // retry budget): degrade to whatever we still have cached, even
          // if expired, before falling back to a bare offline prompt.
          if (TryServeStale(id, partial, done)) return;
          partial.offline = true;
          done(std::move(partial));
          return;
        }
        PromptInfo info = InfoFromXml(*response, id);
        info.meta = partial.meta;  // local metadata is authoritative
        info.signature = partial.signature;

        if (config_.vendor_fallback && !info.known &&
            !info.meta.company.empty()) {
          // Unknown binary from a known company: judge the publisher
          // instead (§3.3's answer to per-install re-hashing).
          FetchVendorFallback(id, std::move(info), std::move(done));
          return;
        }
        FetchFeedEntry(id, std::move(info), std::move(done));
      });
}

bool ClientApp::TryServeStale(const core::SoftwareId& id,
                              const PromptInfo& partial,
                              const std::function<void(PromptInfo)>& done) {
  auto stale = cache_.GetStale(id, loop_->Now());
  if (!stale.has_value()) return false;
  ++stats_.stale_served;
  PromptInfo info = partial;
  info.offline = true;  // the data may be out of date; say so in the prompt
  info.known = stale->known;
  info.score = stale->score;
  info.vendor_score = stale->vendor_score;
  info.reported_behaviors = stale->reported_behaviors;
  info.comments = stale->comments;
  auto feed_it = feed_cache_.find(id);
  if (feed_it != feed_cache_.end()) info.feed_entry = feed_it->second;
  done(std::move(info));
  return true;
}

void ClientApp::FetchVendorFallback(const core::SoftwareId& id,
                                    PromptInfo info,
                                    std::function<void(PromptInfo)> done) {
  XmlNode request("request");
  request.AddTextChild("session", session_);
  request.AddTextChild("vendor", info.meta.company);
  rpc_.Call(
      "QueryVendor", std::move(request),
      [this, id, info = std::move(info),
       done = std::move(done)](Result<XmlNode> response) mutable {
        if (response.ok()) {
          if (const XmlNode* vendor = response->FindChild("vendor")) {
            core::VendorScore score;
            score.vendor = vendor->AttributeOr("name", "");
            auto value = util::ParseDouble(vendor->AttributeOr("score", "0"));
            score.score = value.ok() ? *value : 0.0;
            auto count = util::ParseInt64(vendor->AttributeOr("count", "0"));
            score.software_count =
                count.ok() ? static_cast<int>(*count) : 0;
            info.vendor_score = score;
          }
        }
        FetchFeedEntry(id, std::move(info), std::move(done));
      },
      config_.rpc_timeout);
}

void ClientApp::FetchFeedEntry(const core::SoftwareId& id, PromptInfo info,
                               std::function<void(PromptInfo)> done) {
  if (config_.subscribed_feed.empty() || session_.empty()) {
    FinishQuery(id, std::move(info), std::move(done));
    return;
  }
  XmlNode request("request");
  request.AddTextChild("session", session_);
  request.AddTextChild("feed", config_.subscribed_feed);
  request.AddTextChild("id", id.ToHex());
  CallRouted(
      "QueryFeed", std::move(request),
      [this, id, info = std::move(info),
       done = std::move(done)](Result<XmlNode> response) mutable {
        if (response.ok()) {
          if (const XmlNode* entry_node = response->FindChild("entry")) {
            auto entry = proto::FeedEntryFromXml(*entry_node);
            if (entry.ok()) {
              entry->software = id;
              info.feed_entry = *std::move(entry);
            }
          }
        }
        // Cache presence *and* absence, so repeats skip the round trip.
        feed_cache_[id] = info.feed_entry;
        FinishQuery(id, std::move(info), std::move(done));
      });
}

void ClientApp::FinishQuery(const core::SoftwareId& id, PromptInfo info,
                            std::function<void(PromptInfo)> done) {
  proto::SoftwareInfo cache_entry;
  cache_entry.meta = info.meta;
  cache_entry.known = info.known;
  cache_entry.score = info.score;
  cache_entry.vendor_score = info.vendor_score;
  cache_entry.reported_behaviors = info.reported_behaviors;
  cache_entry.comments = info.comments;
  cache_.Put(id, std::move(cache_entry), loop_->Now());
  done(std::move(info));
}

obs::Counter* ClientApp::RuleCounter(core::PolicyAction action,
                                     const std::string& rule) {
  auto it = rule_counters_.find(rule);
  if (it != rule_counters_.end()) return it->second;
  const char* family = action == core::PolicyAction::kAllow
                           ? "pisrep_trust_policy_allow_total"
                           : action == core::PolicyAction::kDeny
                                 ? "pisrep_trust_policy_deny_total"
                                 : "pisrep_trust_policy_ask_total";
  obs::Counter* counter =
      config_.metrics->GetCounter(obs::WithLabel(family, "rule", rule));
  rule_counters_.emplace(rule, counter);
  return counter;
}

void ClientApp::DecideWithInfo(const FileImage& image, PromptInfo info,
                               DecisionCallback done) {
  core::PolicyInput input;
  input.has_valid_signature = info.signature.valid;
  input.vendor_trusted = info.signature.vendor_trusted;
  input.vendor_blocked = info.signature.vendor_blocked;
  if (info.vendor_signed) {
    // The server verified a signed manifest against its pinned vendor keys
    // (PR 10); that counts as a valid signature even when the local checker
    // saw nothing, and the named vendor is judged against the local store.
    input.has_valid_signature = true;
    using VendorTrust = crypto::TrustStore::VendorTrust;
    VendorTrust trust = trust_store_.GetTrust(info.signed_vendor);
    if (trust == VendorTrust::kTrusted) input.vendor_trusted = true;
    if (trust == VendorTrust::kBlocked) input.vendor_blocked = true;
  }
  input.has_company_name = !image.company().empty();
  if (info.score.has_value() && info.score->vote_count > 0) {
    input.rating = info.score->score;
    input.vote_count = info.score->vote_count;
  }
  input.reported_behaviors = info.reported_behaviors;
  if (info.feed_entry.has_value()) {
    // §4.2: subscribed expert information is "used in parallel with the
    // other software feedback" — the feed's behaviours count as reported
    // and its score is available to feed-aware policy rules.
    input.feed_rating = info.feed_entry->score;
    input.reported_behaviors |= info.feed_entry->behaviors;
    input.expert_flagged = info.feed_entry->expert_flagged;
  }

  std::string fired_rule;
  core::PolicyAction action = policy_.Evaluate(input, &fired_rule);
  if (config_.metrics != nullptr) RuleCounter(action, fired_rule)->Increment();
  switch (action) {
    case core::PolicyAction::kAllow:
      ++stats_.policy_allowed;
      done(ExecDecision::kAllow);
      PostAllow(image, info);
      return;
    case core::PolicyAction::kDeny:
      ++stats_.policy_denied;
      done(ExecDecision::kDeny);
      return;
    case core::PolicyAction::kAsk:
      break;
  }

  if (!prompt_handler_) {
    ++stats_.offline_decisions;
    ExecDecision fallback = config_.fallback_decision;
    done(fallback);
    if (fallback == ExecDecision::kAllow) PostAllow(image, info);
    return;
  }

  ++stats_.prompts_shown;
  const core::SoftwareId id = image.Digest();
  prompt_handler_(
      info, [this, image, info, id,
             done = std::move(done)](UserDecision decision) mutable {
        if (decision.allow) {
          ++stats_.user_allowed;
          if (decision.remember) {
            util::Status s = lists_.AddToWhitelist(id);
            if (!s.ok()) {
              PISREP_LOG(kWarning) << "whitelist persist failed: " << s;
            }
          }
          done(ExecDecision::kAllow);
          PostAllow(image, info);
        } else {
          ++stats_.user_denied;
          if (decision.remember) {
            util::Status s = lists_.AddToBlacklist(id);
            if (!s.ok()) {
              PISREP_LOG(kWarning) << "blacklist persist failed: " << s;
            }
          }
          done(ExecDecision::kDeny);
        }
      });
}

void ClientApp::PostAllow(const FileImage& image, const PromptInfo& info) {
  AccumulateRunReport(image.Digest());
  if (prompt_scheduler_.RecordExecution(image.Digest(), loop_->Now())) {
    MaybePromptForRating(image, info);
  }
}

void ClientApp::AccumulateRunReport(const core::SoftwareId& id) {
  if (config_.run_report_batch <= 0 || session_.empty()) return;
  int& pending = pending_run_reports_[id];
  if (++pending < config_.run_report_batch) return;
  int count = pending;
  pending = 0;
  // Fire-and-forget: run statistics are best-effort telemetry (§3.1); a
  // lost batch costs nothing but a slightly stale counter.
  XmlNode request("request");
  request.AddTextChild("session", session_);
  request.AddTextChild("id", id.ToHex());
  request.AddIntChild("count", count);
  CallRouted("ReportExecutions", std::move(request), [](Result<XmlNode>) {});
}

void ClientApp::MaybePromptForRating(const FileImage& image,
                                     const PromptInfo& info) {
  if (!rating_handler_ || session_.empty()) return;
  ++stats_.rating_prompts;
  const core::SoftwareMeta meta = image.Meta();
  rating_handler_(
      info, [this, meta](std::optional<RatingSubmission> submission) {
        if (!submission.has_value()) return;
        SubmitRating(meta, *submission, [this, meta](Status status) {
          if (status.ok()) {
            prompt_scheduler_.MarkRated(meta.id);
            cache_.Invalidate(meta.id);
          }
        });
      });
}

void ClientApp::SendRating(const core::SoftwareMeta& meta, int score,
                           const std::string& comment,
                           core::BehaviorSet behaviors, StatusCallback done) {
  XmlNode request("request");
  request.AddTextChild("session", session_);
  XmlNode& software = request.AddChild("software");
  software.SetAttribute("id", meta.id.ToHex());
  software.SetAttribute("file_name", meta.file_name);
  software.SetAttribute("file_size", std::to_string(meta.file_size));
  software.SetAttribute("company", meta.company);
  software.SetAttribute("version", meta.version);
  request.AddIntChild("score", score);
  request.AddTextChild("comment", comment);
  request.AddTextChild("behaviors", core::BehaviorSetToString(behaviors));
  CallRouted("SubmitRating", std::move(request),
             [done = std::move(done)](Result<XmlNode> response) {
               done(response.ok() ? Status::Ok() : response.status());
             });
}

void ClientApp::SubmitRating(const core::SoftwareMeta& meta,
                             const RatingSubmission& submission,
                             StatusCallback done) {
  if (session_.empty()) {
    done(Status::Unauthenticated("not logged in"));
    return;
  }
  SendRating(
      meta, submission.score, submission.comment, submission.behaviors,
      [this, meta, submission,
       done = std::move(done)](Status status) mutable {
        if (status.ok()) {
          ++stats_.ratings_submitted;
          done(Status::Ok());
          return;
        }
        util::StatusCode code = status.code();
        if (code == util::StatusCode::kUnavailable ||
            code == util::StatusCode::kDataLoss ||
            code == util::StatusCode::kUnauthenticated) {
          // Server down, response mangled, or the server restarted and
          // forgot our session: park the rating in the outbox and replay
          // later (re-logging-in first if needed). Report success so the
          // prompt flow marks the software rated — the user said their
          // piece; delivery is now the client's job.
          if (code == util::StatusCode::kUnauthenticated) session_.clear();
          QueuedRating queued;
          queued.meta = meta;
          queued.score = submission.score;
          queued.comment = submission.comment;
          queued.behaviors = submission.behaviors;
          queued.queued_at = loop_->Now();
          offline_queue_.Push(std::move(queued));
          ++stats_.ratings_queued;
          ScheduleReplay(offline_queue_.NextBackoff());
          done(Status::Ok());
          return;
        }
        done(std::move(status));
      });
}

void ClientApp::MaybeRelogin() {
  if (relogin_pending_ || config_.username.empty()) return;
  relogin_pending_ = true;
  Login([this](Status status) {
    relogin_pending_ = false;
    if (status.ok()) ++stats_.relogins;
    // On failure, the next rejected call triggers another attempt.
  });
}

void ClientApp::ScheduleReplay(util::Duration delay) {
  if (replay_scheduled_ || offline_queue_.empty()) return;
  replay_scheduled_ = true;
  loop_->ScheduleAfter(delay, [this, alive = std::weak_ptr<int>(alive_)] {
    if (alive.expired()) return;  // the client is gone; do not touch it
    replay_scheduled_ = false;
    if (replay_active_) return;  // a chain is already running
    ReplayNext();
  });
}

void ClientApp::ReplayNext() {
  if (offline_queue_.empty()) {
    replay_active_ = false;
    return;
  }
  replay_active_ = true;
  if (session_.empty()) {
    // The server restarted and lost its in-memory sessions; log back in
    // with the configured credentials before replaying.
    Login([this](Status status) {
      if (status.ok()) {
        ++stats_.relogins;
        ReplayNext();
      } else {
        replay_active_ = false;
        ScheduleReplay(offline_queue_.NextBackoff());
      }
    });
    return;
  }
  const QueuedRating& head = offline_queue_.Front();
  SendRating(
      head.meta, head.score, head.comment, head.behaviors,
      [this](Status status) {
        util::StatusCode code = status.code();
        if (status.ok() || code == util::StatusCode::kAlreadyExists) {
          // kAlreadyExists means an earlier attempt landed even though we
          // never saw its response — the vote is on the server either way.
          if (status.ok()) {
            offline_queue_.RecordReplayed();
            ++stats_.ratings_replayed;
            ++stats_.ratings_submitted;
          } else {
            offline_queue_.RecordDuplicate();
          }
          offline_queue_.PopFront();
          offline_queue_.ResetBackoff();
          ReplayNext();
          return;
        }
        if (code == util::StatusCode::kUnauthenticated) session_.clear();
        if (code == util::StatusCode::kUnavailable ||
            code == util::StatusCode::kDataLoss ||
            code == util::StatusCode::kUnauthenticated) {
          replay_active_ = false;
          ScheduleReplay(offline_queue_.NextBackoff());
          return;
        }
        // Permanent rejection (bad argument, banned user, ...): retrying
        // can never succeed, so drop it rather than wedge the queue.
        PISREP_LOG(kWarning)
            << "dropping queued rating: " << status.ToString();
        offline_queue_.PopFront();
        ReplayNext();
      });
}

void ClientApp::SubmitRemark(core::UserId author,
                             const core::SoftwareId& software, bool positive,
                             StatusCallback done) {
  if (session_.empty()) {
    done(Status::Unauthenticated("not logged in"));
    return;
  }
  XmlNode request("request");
  request.AddTextChild("session", session_);
  request.AddIntChild("author", author);
  request.AddTextChild("id", software.ToHex());
  request.AddIntChild("positive", positive ? 1 : 0);
  CallRouted("SubmitRemark", std::move(request),
             [done = std::move(done)](Result<XmlNode> response) {
               done(response.ok() ? Status::Ok() : response.status());
             });
}

}  // namespace pisrep::client
