#ifndef PISREP_SERVER_ACCOUNT_MANAGER_H_
#define PISREP_SERVER_ACCOUNT_MANAGER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/trust.h"
#include "core/types.h"
#include "storage/database.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/status.h"

namespace pisrep::server {

/// Everything the server knows about an account. Deliberately minimal
/// (§2.2/§3.2): "The only data stored in the database about the user is a
/// username, hashed password and a hashed e-mail address, as well as
/// timestamps" — no IP addresses, no plaintext e-mail.
struct Account {
  core::UserId id = 0;
  std::string username;
  std::string password_hash;  ///< hex SHA-256(salt || password)
  std::string password_salt;
  std::string email_hash;     ///< hex HMAC-SHA256(pepper, lowercased e-mail)
  util::TimePoint joined_at = 0;
  util::TimePoint last_login = 0;
  bool activated = false;
  double trust_factor = core::kMinTrust;
};

/// Registration / authentication / trust bookkeeping.
///
/// Key privacy mechanism (§2.2): the e-mail address is stored only as an
/// HMAC under a server-side secret ("concatenating the e-mail address with a
/// secret string before calculating the hash, rendering brute force attack
/// ... computationally impossible as long as the secret string is kept
/// secret"). Uniqueness of the hash enforces one account per address.
class AccountManager {
 public:
  struct Config {
    /// Server-side secret mixed into every e-mail hash.
    std::string email_pepper = "pisrep-pepper";
    /// When false, accounts are active immediately (used by simulations
    /// that do not model mailboxes).
    bool require_activation = true;
    /// Seed for token generation.
    std::uint64_t seed = 0xacc0;
    /// Cluster mode: derive activation and session tokens from the pepper
    /// and username (HMAC) instead of the RNG stream. Every shard given
    /// the same pepper then mints the *same* tokens for the same user, so
    /// a token issued by any shard is valid on all of them — a shared-
    /// secret stand-in for a distributed session store, robust to one
    /// shard failing over and losing its RNG position. Leave false for a
    /// standalone server: unpredictable tokens are strictly safer.
    bool deterministic_tokens = false;
  };

  AccountManager(storage::Database* db, Config config);

  /// Creates an inactive account and returns the activation token that the
  /// (simulated) e-mail would carry. Fails when the username or the e-mail
  /// address is already taken.
  util::Result<std::string> Register(std::string_view username,
                                     std::string_view password,
                                     std::string_view email,
                                     util::TimePoint now);

  /// Completes registration using the token from the activation e-mail.
  util::Status Activate(std::string_view username, std::string_view token);

  /// Verifies credentials and returns a session token. Inactive accounts
  /// cannot log in.
  util::Result<std::string> Login(std::string_view username,
                                  std::string_view password,
                                  util::TimePoint now);

  /// Resolves a session token to the logged-in account id.
  util::Result<core::UserId> Authenticate(std::string_view session) const;

  /// Invalidates a session token.
  void Logout(std::string_view session);

  /// Invalidates every session (what a process restart does to in-memory
  /// session state); accounts are untouched. Clients must log in again.
  void DropSessions() { sessions_.clear(); }

  util::Result<Account> GetAccount(core::UserId id) const;
  util::Result<Account> GetAccountByUsername(std::string_view username) const;

  /// Current trust factor (1 when the account is unknown, matching the
  /// weight a brand-new user would carry).
  double TrustFactor(core::UserId id) const;

  /// Every account's current trust factor in one table scan, without
  /// materializing Account rows. Bulk alternative to per-vote TrustFactor
  /// calls for the aggregation sweep: O(accounts) instead of O(votes) row
  /// copies, and the resulting map is safe to read from worker threads.
  std::unordered_map<core::UserId, double> AllTrustFactors() const;

  /// Applies a meta-moderation remark to the user's trust factor, honoring
  /// the §3.2 growth schedule. Returns the new factor.
  util::Result<double> ApplyRemark(core::UserId id, bool positive,
                                   util::TimePoint now);

  /// Monotonic counter bumped every time some account's trust factor
  /// actually changes. The aggregation job snapshots it to ask, next run,
  /// "whose weight moved since I last looked?".
  std::uint64_t trust_generation() const { return trust_generation_; }

  /// Accounts whose trust factor changed in generations (after, now],
  /// deduplicated, in change order. Pure query; see
  /// PruneTrustChangesBefore for reclaiming the log.
  std::vector<core::UserId> TrustChangedSince(std::uint64_t after) const;

  /// Drops change-log entries with generation <= upto (called by the
  /// consumer once a run has folded them in, bounding log growth).
  void PruneTrustChangesBefore(std::uint64_t upto);

  std::size_t AccountCount() const;
  std::vector<core::UserId> AllUserIds() const;

  /// The peppered e-mail hash, exposed for tests and audits.
  std::string HashEmail(std::string_view email) const;

 private:
  util::Result<Account> AccountFromRow(const storage::Row& row) const;
  storage::Row RowFromAccount(const Account& account) const;
  /// Token minting: RNG hex by default, HMAC-derived when
  /// `deterministic_tokens` is on (`purpose` domain-separates activation
  /// from session tokens).
  std::string MintToken(std::string_view purpose, std::string_view username,
                        std::size_t rng_bytes);

  storage::Database* db_;
  Config config_;
  util::Rng rng_;
  storage::Table* users_;
  storage::Table* activations_;
  std::unordered_map<std::string, core::UserId> sessions_;
  core::UserId next_user_id_ = 1;
  /// Trust-change log for incremental aggregation: (generation, account).
  /// In-memory only — like sessions, it does not survive a restart, which
  /// is safe because the aggregation job's first run after construction is
  /// always a full sweep.
  std::uint64_t trust_generation_ = 0;
  std::vector<std::pair<std::uint64_t, core::UserId>> trust_changes_;
};

}  // namespace pisrep::server

#endif  // PISREP_SERVER_ACCOUNT_MANAGER_H_
