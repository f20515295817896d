#include "server/account_manager.h"

#include <algorithm>
#include <utility>

#include "util/hmac.h"
#include "util/logging.h"
#include "util/sha256.h"
#include "util/string_util.h"

namespace pisrep::server {

namespace {

using storage::Row;
using storage::SchemaBuilder;
using storage::Value;
using util::Result;
using util::Status;

std::string HashPassword(std::string_view salt, std::string_view password) {
  util::Sha256 hasher;
  hasher.Update(salt);
  hasher.Update(password);
  return hasher.Finish().ToHex();
}

}  // namespace

AccountManager::AccountManager(storage::Database* db, Config config)
    : db_(db), config_(std::move(config)), rng_(config_.seed) {
  if (!db_->HasTable("users")) {
    Status status = db_->CreateTable(SchemaBuilder("users")
                                         .Int("id")
                                         .Str("username")
                                         .Str("password_hash")
                                         .Str("password_salt")
                                         .Str("email_hash")
                                         .Int("joined_at")
                                         .Int("last_login")
                                         .Boolean("activated")
                                         .Real("trust_factor")
                                         .PrimaryKey("id")
                                         .Index("username")
                                         .Index("email_hash")
                                         .Build());
    PISREP_CHECK(status.ok()) << status.ToString();
  }
  if (!db_->HasTable("activations")) {
    Status status = db_->CreateTable(SchemaBuilder("activations")
                                         .Str("username")
                                         .Str("token")
                                         .PrimaryKey("username")
                                         .Build());
    PISREP_CHECK(status.ok()) << status.ToString();
  }
  users_ = db_->GetTable("users").value();
  activations_ = db_->GetTable("activations").value();
  // Resume the id sequence after recovery.
  users_->ForEach([this](const Row& row) {
    next_user_id_ = std::max(next_user_id_, row[0].AsInt() + 1);
  });
}

std::string AccountManager::HashEmail(std::string_view email) const {
  return util::HmacSha256Hex(config_.email_pepper,
                             util::ToLower(util::Trim(email)));
}

Result<std::string> AccountManager::Register(std::string_view username,
                                             std::string_view password,
                                             std::string_view email,
                                             util::TimePoint now) {
  std::string uname(util::Trim(username));
  if (uname.empty() || uname.size() > 64) {
    return Status::InvalidArgument("username must be 1..64 characters");
  }
  if (password.size() < 4) {
    return Status::InvalidArgument("password too short");
  }
  if (util::Trim(email).empty() ||
      email.find('@') == std::string_view::npos) {
    return Status::InvalidArgument("a valid e-mail address is required");
  }

  auto taken = users_->FindByIndex("username", Value::Str(uname));
  if (taken.ok() && !taken->empty()) {
    return Status::AlreadyExists("username taken: " + uname);
  }
  // §3.2: "it is possible to sign up only once per e-mail address."
  std::string email_hash = HashEmail(email);
  auto email_used = users_->FindByIndex("email_hash", Value::Str(email_hash));
  if (email_used.ok() && !email_used->empty()) {
    return Status::AlreadyExists("e-mail address already registered");
  }

  Account account;
  account.id = next_user_id_++;
  account.username = uname;
  account.password_salt = rng_.NextToken(16);
  account.password_hash = HashPassword(account.password_salt, password);
  account.email_hash = email_hash;
  account.joined_at = now;
  account.last_login = 0;
  account.activated = !config_.require_activation;
  account.trust_factor = core::kMinTrust;
  PISREP_RETURN_IF_ERROR(users_->Insert(RowFromAccount(account)));

  std::string token = MintToken("activation", uname, 24);
  if (config_.require_activation) {
    PISREP_RETURN_IF_ERROR(activations_->Upsert(
        Row{Value::Str(uname), Value::Str(token)}));
  }
  return token;
}

Status AccountManager::Activate(std::string_view username,
                                std::string_view token) {
  std::string uname(util::Trim(username));
  auto pending = activations_->Get(Value::Str(uname));
  if (!pending.ok()) {
    return Status::NotFound("no pending activation for " + uname);
  }
  if ((*pending)[1].AsStr() != token) {
    return Status::PermissionDenied("bad activation token");
  }
  PISREP_ASSIGN_OR_RETURN(Account account, GetAccountByUsername(uname));
  account.activated = true;
  PISREP_RETURN_IF_ERROR(users_->Upsert(RowFromAccount(account)));
  return activations_->Delete(Value::Str(uname));
}

Result<std::string> AccountManager::Login(std::string_view username,
                                          std::string_view password,
                                          util::TimePoint now) {
  auto account_result = GetAccountByUsername(username);
  if (!account_result.ok()) {
    // Uniform error to avoid a username oracle.
    return Status::Unauthenticated("bad credentials");
  }
  Account account = *std::move(account_result);
  if (HashPassword(account.password_salt, password) !=
      account.password_hash) {
    return Status::Unauthenticated("bad credentials");
  }
  if (!account.activated) {
    return Status::FailedPrecondition("account not activated");
  }
  account.last_login = now;
  PISREP_RETURN_IF_ERROR(users_->Upsert(RowFromAccount(account)));

  std::string session = MintToken("session", account.username, 32);
  sessions_[session] = account.id;
  return session;
}

std::string AccountManager::MintToken(std::string_view purpose,
                                      std::string_view username,
                                      std::size_t rng_bytes) {
  if (!config_.deterministic_tokens) return rng_.NextToken(rng_bytes);
  return util::HmacSha256Hex(config_.email_pepper + "|" +
                                 std::string(purpose),
                             std::string(username));
}

Result<core::UserId> AccountManager::Authenticate(
    std::string_view session) const {
  auto it = sessions_.find(std::string(session));
  if (it == sessions_.end()) {
    return Status::Unauthenticated("invalid session");
  }
  return it->second;
}

void AccountManager::Logout(std::string_view session) {
  sessions_.erase(std::string(session));
}

Result<Account> AccountManager::GetAccount(core::UserId id) const {
  PISREP_ASSIGN_OR_RETURN(Row row, users_->Get(Value::Int(id)));
  return AccountFromRow(row);
}

Result<Account> AccountManager::GetAccountByUsername(
    std::string_view username) const {
  auto rows = users_->FindByIndex(
      "username", Value::Str(std::string(util::Trim(username))));
  if (!rows.ok() || rows->empty()) {
    return Status::NotFound("no such user: " + std::string(username));
  }
  return AccountFromRow((*rows)[0]);
}

double AccountManager::TrustFactor(core::UserId id) const {
  auto account = GetAccount(id);
  return account.ok() ? account->trust_factor : core::kMinTrust;
}

Result<double> AccountManager::ApplyRemark(core::UserId id, bool positive,
                                           util::TimePoint now) {
  PISREP_ASSIGN_OR_RETURN(Account account, GetAccount(id));
  core::TrustState state{account.trust_factor, account.joined_at};
  double updated = positive
                       ? core::TrustEngine::ApplyPositiveRemark(state, now)
                       : core::TrustEngine::ApplyNegativeRemark(state, now);
  bool changed = updated != account.trust_factor;
  account.trust_factor = updated;
  PISREP_RETURN_IF_ERROR(users_->Upsert(RowFromAccount(account)));
  if (changed) {
    // Capped remarks (weekly growth limit, floor/ceiling) that leave the
    // factor untouched do not dirty the account.
    trust_changes_.emplace_back(++trust_generation_, id);
  }
  return updated;
}

std::vector<core::UserId> AccountManager::TrustChangedSince(
    std::uint64_t after) const {
  std::vector<core::UserId> out;
  std::unordered_map<core::UserId, bool> seen;
  for (const auto& [generation, user] : trust_changes_) {
    if (generation <= after) continue;
    if (!seen.emplace(user, true).second) continue;
    out.push_back(user);
  }
  return out;
}

void AccountManager::PruneTrustChangesBefore(std::uint64_t upto) {
  trust_changes_.erase(
      std::remove_if(trust_changes_.begin(), trust_changes_.end(),
                     [upto](const std::pair<std::uint64_t, core::UserId>& e) {
                       return e.first <= upto;
                     }),
      trust_changes_.end());
}

std::unordered_map<core::UserId, double> AccountManager::AllTrustFactors()
    const {
  std::unordered_map<core::UserId, double> factors;
  factors.reserve(users_->size());
  users_->ForEach([&](const Row& row) {
    factors.emplace(row[0].AsInt(), row[8].AsReal());
  });
  return factors;
}

std::size_t AccountManager::AccountCount() const { return users_->size(); }

std::vector<core::UserId> AccountManager::AllUserIds() const {
  std::vector<core::UserId> ids;
  ids.reserve(users_->size());
  users_->ForEach([&](const Row& row) { ids.push_back(row[0].AsInt()); });
  return ids;
}

Result<Account> AccountManager::AccountFromRow(const Row& row) const {
  Account account;
  account.id = row[0].AsInt();
  account.username = row[1].AsStr();
  account.password_hash = row[2].AsStr();
  account.password_salt = row[3].AsStr();
  account.email_hash = row[4].AsStr();
  account.joined_at = row[5].AsInt();
  account.last_login = row[6].AsInt();
  account.activated = row[7].AsBool();
  account.trust_factor = row[8].AsReal();
  return account;
}

storage::Row AccountManager::RowFromAccount(const Account& account) const {
  return Row{
      Value::Int(account.id),
      Value::Str(account.username),
      Value::Str(account.password_hash),
      Value::Str(account.password_salt),
      Value::Str(account.email_hash),
      Value::Int(account.joined_at),
      Value::Int(account.last_login),
      Value::Boolean(account.activated),
      Value::Real(account.trust_factor),
  };
}

}  // namespace pisrep::server
