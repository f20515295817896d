#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "checker.h"

namespace pisrep::lint {

namespace {

bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// True when the token at `pos` begins a statement: start of file, after
/// statement punctuation, after a block boundary, a label, or a
/// parenthesised condition (`if (...) Foo();`).
bool AtStatementStart(const std::vector<Token>& toks, std::size_t pos) {
  if (pos == 0) return true;
  const Token& prev = toks[pos - 1];
  if (prev.kind == TokenKind::kPunct) {
    return prev.text == ";" || prev.text == "{" || prev.text == "}" ||
           prev.text == ":" || prev.text == ")";
  }
  if (prev.kind == TokenKind::kIdentifier) {
    return prev.text == "else" || prev.text == "do";
  }
  return false;
}

/// Skips a balanced (...) group; `pos` is the index of the opening paren.
/// Returns the index one past the matching close, or toks.size().
std::size_t SkipParens(const std::vector<Token>& toks, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "(") depth += 1;
    if (toks[i].text == ")") {
      depth -= 1;
      if (depth == 0) return i + 1;
    }
  }
  return toks.size();
}

/// Parses a call chain `a::b.c->Callee(` starting at `pos`, allowing
/// intermediate call segments (`db->inner().Callee(`). On success returns
/// the index of the chain's FINAL opening paren and stores the final callee
/// name; returns npos when the tokens do not form a call chain.
constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
std::size_t ParseCallChain(const std::vector<Token>& toks, std::size_t pos,
                           std::string* callee) {
  std::size_t i = pos;
  if (i >= toks.size() || !IsIdent(toks[i])) return kNpos;
  std::string last = toks[i].text;
  ++i;
  while (i < toks.size()) {
    if (i + 1 < toks.size() &&
        (IsPunct(toks[i], "::") || IsPunct(toks[i], ".") ||
         IsPunct(toks[i], "->")) &&
        IsIdent(toks[i + 1])) {
      last = toks[i + 1].text;
      i += 2;
      continue;
    }
    if (IsPunct(toks[i], "(")) {
      std::size_t after = SkipParens(toks, i);
      if (after + 1 < toks.size() &&
          (IsPunct(toks[after], ".") || IsPunct(toks[after], "->")) &&
          IsIdent(toks[after + 1])) {
        // `inner().Next...`: an intermediate call, keep walking the chain.
        last = toks[after + 1].text;
        i = after + 2;
        continue;
      }
      *callee = last;
      return i;
    }
    return kNpos;
  }
  return kNpos;
}

/// True when a comment exists on `line` or the line directly above it.
bool HasCommentNear(const LexedFile& lexed, int line) {
  for (const Comment& c : lexed.comments) {
    if (c.line == line || c.line == line - 1) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// discarded-status
// ---------------------------------------------------------------------------

/// Flags statements that call a Status/Result-returning function and drop
/// the value on the floor, LevelDB's assert_status_checked in spirit. The
/// compiler enforces the same via [[nodiscard]]; the lint additionally
/// demands that deliberate `(void)` discards carry a justifying comment.
class DiscardedStatusChecker : public Checker {
 public:
  std::string_view rule() const override { return "discarded-status"; }
  std::string_view description() const override {
    return "a util::Status / util::Result return value is discarded at a "
           "call site (or (void)-discarded without a justifying comment)";
  }

  void Check(const FileContext& ctx,
             std::vector<Finding>* out) const override {
    const auto& toks = ctx.lexed->tokens;
    const auto& fallible = ctx.index->fallible_functions;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!AtStatementStart(toks, i)) continue;
      // `return (*db)->Fallible();` hands the value to the caller; the
      // chain parser would otherwise read `return` as the chain's head
      // identifier and flag a value that is not discarded at all.
      if (IsIdent(toks[i]) &&
          (toks[i].text == "return" || toks[i].text == "co_return")) {
        continue;
      }
      // A chain right after `(void)` is matched from the cast's own `(`,
      // not re-matched here.
      if (i >= 3 && IsPunct(toks[i - 1], ")") && IsIdent(toks[i - 2]) &&
          toks[i - 2].text == "void" && IsPunct(toks[i - 3], "(")) {
        continue;
      }

      bool void_cast = false;
      std::size_t chain_start = i;
      if (IsPunct(toks[i], "(") && i + 2 < toks.size() &&
          IsIdent(toks[i + 1]) && toks[i + 1].text == "void" &&
          IsPunct(toks[i + 2], ")")) {
        void_cast = true;
        chain_start = i + 3;
      }

      std::string callee;
      std::size_t open = ParseCallChain(toks, chain_start, &callee);
      if (open == kNpos) continue;
      if (fallible.find(callee) == fallible.end()) continue;

      std::size_t after = SkipParens(toks, open);
      if (after >= toks.size() || !IsPunct(toks[after], ";")) continue;

      int line = toks[chain_start].line;
      if (void_cast) {
        if (!HasCommentNear(*ctx.lexed, line)) {
          out->push_back(Finding{
              std::string(rule()), ctx.path, line,
              "call to '" + callee + "' is (void)-discarded without a "
              "justifying comment on the same or preceding line"});
        }
      } else {
        out->push_back(Finding{
            std::string(rule()), ctx.path, line,
            "call to '" + callee + "' discards its util::Status/Result; "
            "inspect it, or (void)-cast it with a justifying comment"});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

/// Deterministic replay (the chaos harness, seeded sims, property tests)
/// dies the moment anything reads the wall clock or raw entropy. Everything
/// outside src/util must go through util::SimClock and util::Rng.
class WallClockChecker : public Checker {
 public:
  std::string_view rule() const override { return "wall-clock"; }
  std::string_view description() const override {
    return "wall-clock or raw-entropy source used outside src/util "
           "(breaks deterministic simulation; use util::SimClock / "
           "util::Rng)";
  }

  void Check(const FileContext& ctx,
             std::vector<Finding>* out) const override {
    if (ctx.layer == "util") return;  // the one place allowed to wrap them
    // The benchmark timer helper measures real elapsed time by definition;
    // it is the single file outside src/util with a wall-clock allowance.
    // Benchmark *bodies* stay banned so timing logic cannot leak out of it.
    if (ctx.path == "bench/bench_timer.h") return;

    static const std::set<std::string> kBannedTypes = {
        "system_clock",   "steady_clock",        "high_resolution_clock",
        "random_device",  "mt19937",             "mt19937_64",
        "default_random_engine", "minstd_rand",  "knuth_b",
    };
    static const std::set<std::string> kBannedCalls = {
        "time",   "rand",         "srand",         "clock",
        "gettimeofday", "clock_gettime", "localtime", "gmtime",
    };

    const auto& toks = ctx.lexed->tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!IsIdent(toks[i])) continue;
      const std::string& name = toks[i].text;

      if (kBannedTypes.count(name) != 0 && !IsMember(toks, i)) {
        out->push_back(Finding{
            std::string(rule()), ctx.path, toks[i].line,
            "'" + name + "' is a nondeterministic time/entropy source; use "
            "util::SimClock / util::Rng instead"});
        continue;
      }

      if (kBannedCalls.count(name) != 0 && i + 1 < toks.size() &&
          IsPunct(toks[i + 1], "(") && !IsMember(toks, i) &&
          !IsNonStdQualified(toks, i) && !IsDeclaration(toks, i)) {
        out->push_back(Finding{
            std::string(rule()), ctx.path, toks[i].line,
            "call to '" + name + "(' reads the wall clock or raw entropy; "
            "use util::SimClock / util::Rng instead"});
      }
    }
  }

 private:
  /// True for `x.time(...)` / `x->clock(...)` — a member, not libc.
  static bool IsMember(const std::vector<Token>& toks, std::size_t i) {
    return i > 0 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"));
  }

  /// True for `somens::time(...)` where somens is neither std nor global
  /// scope — a project function that merely shares the name.
  static bool IsNonStdQualified(const std::vector<Token>& toks,
                                std::size_t i) {
    if (i == 0 || !IsPunct(toks[i - 1], "::")) return false;
    if (i < 2) return false;  // leading `::time` is the libc one
    return !(IsIdent(toks[i - 2]) &&
             (toks[i - 2].text == "std" || toks[i - 2].text == "chrono"));
  }

  /// True for `SimClock* clock()` / `TimePoint time() const` — a
  /// declaration of a member that shares a libc name, not a call. A call
  /// is preceded by punctuation or a statement keyword, never directly by
  /// another identifier or a declarator's * / &.
  static bool IsDeclaration(const std::vector<Token>& toks, std::size_t i) {
    if (i == 0) return false;
    const Token& prev = toks[i - 1];
    if (prev.kind == TokenKind::kPunct) {
      return prev.text == "*" || prev.text == "&" || prev.text == "&&" ||
             prev.text == ">" || prev.text == ">>";
    }
    return IsIdent(prev) && prev.text != "return";
  }
};

// ---------------------------------------------------------------------------
// banned-function
// ---------------------------------------------------------------------------

/// Unsafe / error-swallowing C library functions. strcpy and friends
/// overflow; atoi and friends return 0 on garbage, hiding parse failures
/// the Status doctrine says must surface.
class BannedFunctionChecker : public Checker {
 public:
  std::string_view rule() const override { return "banned-function"; }
  std::string_view description() const override {
    return "unsafe or error-swallowing C function (strcpy, sprintf, atoi, "
           "...); use std::string / util::ParseInt-style APIs";
  }

  void Check(const FileContext& ctx,
             std::vector<Finding>* out) const override {
    static const std::map<std::string, std::string> kBanned = {
        {"strcpy", "overflows; use std::string"},
        {"strcat", "overflows; use std::string"},
        {"sprintf", "overflows; use snprintf or std::string"},
        {"vsprintf", "overflows; use vsnprintf"},
        {"gets", "cannot be used safely at all"},
        {"strtok", "hidden global state; use string_util helpers"},
        {"atoi", "returns 0 on garbage, hiding the error; parse and check"},
        {"atol", "returns 0 on garbage, hiding the error; parse and check"},
        {"atoll", "returns 0 on garbage, hiding the error; parse and check"},
    };
    const auto& toks = ctx.lexed->tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (!IsIdent(toks[i]) || !IsPunct(toks[i + 1], "(")) continue;
      auto it = kBanned.find(toks[i].text);
      if (it == kBanned.end()) continue;
      if (i > 0 &&
          (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->"))) {
        continue;  // a member that shares the name
      }
      if (i >= 2 && IsPunct(toks[i - 1], "::") && IsIdent(toks[i - 2]) &&
          toks[i - 2].text != "std") {
        continue;  // somens::atoi — a project function sharing the name
      }
      out->push_back(Finding{std::string(rule()), ctx.path, toks[i].line,
                             "'" + toks[i].text + "' is banned: " +
                                 it->second});
    }
  }
};

// ---------------------------------------------------------------------------
// using-namespace-header
// ---------------------------------------------------------------------------

class UsingNamespaceHeaderChecker : public Checker {
 public:
  std::string_view rule() const override { return "using-namespace-header"; }
  std::string_view description() const override {
    return "`using namespace` in a header leaks into every includer";
  }

  void Check(const FileContext& ctx,
             std::vector<Finding>* out) const override {
    if (!ctx.is_header) return;
    const auto& toks = ctx.lexed->tokens;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (IsIdent(toks[i]) && toks[i].text == "using" &&
          IsIdent(toks[i + 1]) && toks[i + 1].text == "namespace") {
        out->push_back(Finding{
            std::string(rule()), ctx.path, toks[i].line,
            "`using namespace` in a header pollutes every translation unit "
            "that includes it"});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// include-guard
// ---------------------------------------------------------------------------

class IncludeGuardChecker : public Checker {
 public:
  std::string_view rule() const override { return "include-guard"; }
  std::string_view description() const override {
    return "header lacks a matching #ifndef/#define include guard "
           "(or #pragma once)";
  }

  void Check(const FileContext& ctx,
             std::vector<Finding>* out) const override {
    if (!ctx.is_header) return;
    const auto& pp = ctx.lexed->preproc;
    if (!pp.empty() && pp[0].text.rfind("pragma once", 0) == 0) return;
    if (pp.size() >= 2) {
      std::string_view first = pp[0].text;
      std::string_view second = pp[1].text;
      if (first.rfind("ifndef ", 0) == 0 && second.rfind("define ", 0) == 0) {
        std::string_view guard = first.substr(7);
        std::string_view defined = second.substr(7);
        while (!guard.empty() && guard.front() == ' ') guard.remove_prefix(1);
        while (!defined.empty() && defined.front() == ' ') {
          defined.remove_prefix(1);
        }
        // The #define body must be exactly the guard macro.
        if (guard == defined.substr(0, guard.size()) &&
            (defined.size() == guard.size() ||
             defined[guard.size()] == ' ')) {
          return;
        }
        out->push_back(Finding{
            std::string(rule()), ctx.path, pp[1].line,
            "include-guard #define does not match the #ifndef macro"});
        return;
      }
    }
    out->push_back(Finding{
        std::string(rule()), ctx.path, 1,
        "header must open with a matching #ifndef/#define include guard"});
  }
};

// ---------------------------------------------------------------------------
// layering
// ---------------------------------------------------------------------------

/// Enforces the CMake link graph at the include level, so a layer cannot
/// quietly grow an upward dependency the build happens to tolerate (static
/// libraries resolve lazily, which is how client -> server crept in before
/// this rule existed).
class LayeringChecker : public Checker {
 public:
  std::string_view rule() const override { return "layering"; }
  std::string_view description() const override {
    return "cross-layer include not permitted by the dependency graph "
           "(e.g. core/ -> server/)";
  }

  void Check(const FileContext& ctx,
             std::vector<Finding>* out) const override {
    static const std::map<std::string, std::set<std::string>> kAllowed = {
        {"util", {"util"}},
        // obs sits just above util so every other layer can report into it;
        // it must never look upward at the layers it instruments.
        {"obs", {"obs", "util"}},
        {"xml", {"xml", "util"}},
        {"crypto", {"crypto", "util"}},
        {"storage", {"storage", "util"}},
        // net speaks the shared wire codecs (proto/binary_codec.h) but
        // must never see server or client types.
        {"net", {"net", "obs", "util", "xml", "proto"}},
        {"core", {"core", "util"}},
        // proto owns the frame codecs, which serialize the shared XML
        // element tree — hence xml, but still nothing above it.
        {"proto", {"proto", "core", "util", "xml"}},
        // trust holds the signed-statement/policy/audit plane: above
        // crypto, storage and proto (it persists chains and serializes
        // statements) but below server/client, which consume it.
        {"trust",
         {"trust", "crypto", "storage", "proto", "core", "obs", "util",
          "xml"}},
        {"server",
         {"server", "trust", "core", "proto", "storage", "net", "crypto",
          "obs", "util", "xml"}},
        {"client",
         {"client", "trust", "core", "proto", "storage", "net", "crypto",
          "obs", "util", "xml"}},
        {"web",
         {"web", "server", "trust", "core", "proto", "storage", "net",
          "crypto", "obs", "util", "xml"}},
        // cluster sits above server: it shards whole ReputationServer
        // instances, so it may see the full server surface but nothing in
        // server/ or below may look back up at cluster/.
        {"cluster",
         {"cluster", "server", "trust", "core", "proto", "storage", "net",
          "crypto", "obs", "util", "xml"}},
        {"sim",
         {"sim", "cluster", "server", "client", "trust", "core", "proto",
          "storage", "net", "crypto", "obs", "util", "xml"}},
    };
    auto allowed = kAllowed.find(ctx.layer);
    if (allowed == kAllowed.end()) return;  // tests/bench/... may include all

    for (const PreprocLine& pp : ctx.lexed->preproc) {
      if (pp.text.rfind("include", 0) != 0) continue;
      std::size_t open = pp.text.find('"');
      if (open == std::string::npos) continue;  // <system> include
      std::size_t close = pp.text.find('"', open + 1);
      if (close == std::string::npos) continue;
      std::string target = pp.text.substr(open + 1, close - open - 1);
      std::size_t slash = target.find('/');
      if (slash == std::string::npos) continue;  // same-directory include
      std::string target_layer = target.substr(0, slash);
      if (kAllowed.find(target_layer) == kAllowed.end()) continue;
      if (allowed->second.count(target_layer) == 0) {
        out->push_back(Finding{
            std::string(rule()), ctx.path, pp.line,
            "layer '" + ctx.layer + "' must not include '" + target +
                "' (allowed: own layer and its declared dependencies)"});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// raw-new-delete
// ---------------------------------------------------------------------------

/// Ownership goes through std::unique_ptr / std::make_unique. The rare
/// legitimate raw `new` (leaky static singletons that dodge destruction
/// order, private-constructor factories) carries a suppression comment
/// explaining itself.
class RawNewDeleteChecker : public Checker {
 public:
  std::string_view rule() const override { return "raw-new-delete"; }
  std::string_view description() const override {
    return "raw new/delete outside allocator shims; use make_unique or a "
           "container, or suppress with justification";
  }

  void Check(const FileContext& ctx,
             std::vector<Finding>* out) const override {
    const auto& toks = ctx.lexed->tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!IsIdent(toks[i])) continue;
      const std::string& name = toks[i].text;
      if (name != "new" && name != "delete") continue;
      if (i > 0 && IsIdent(toks[i - 1]) && toks[i - 1].text == "operator") {
        continue;  // operator new/delete definitions are the shim itself
      }
      if (name == "delete" && i > 0 && IsPunct(toks[i - 1], "=")) {
        continue;  // deleted special member
      }
      out->push_back(Finding{
          std::string(rule()), ctx.path, toks[i].line,
          "raw '" + name + "' — use std::make_unique / RAII containers"});
    }
  }
};

// ---------------------------------------------------------------------------
// unannotated-guarded-field
// ---------------------------------------------------------------------------

/// Enforces the GUARDED_BY discipline (DESIGN.md §13) on every compiler,
/// not just clang: in a class that owns a mutex, every data member declared
/// *after* the mutex must say which lock guards it. The house layout makes
/// this checkable at token level — config fields written before threads
/// exist go above the mutex, the mutex comes next, and everything below it
/// is lock-protected shared state:
///
///   std::vector<std::thread> threads_;            // pre-thread config
///   Mutex mu_;
///   std::deque<Task> queue_ GUARDED_BY(mu_);      // shared state
///
/// Atomics, condition variables, and further locks are their own
/// synchronization and are exempt, as are static/constexpr members.
/// Restricted to src/: tests and benches may improvise.
class UnannotatedGuardedFieldChecker : public Checker {
 public:
  std::string_view rule() const override {
    return "unannotated-guarded-field";
  }
  std::string_view description() const override {
    return "field declared after a mutex member lacks GUARDED_BY(...); "
           "annotate it, or move unguarded config fields above the mutex";
  }

  void Check(const FileContext& ctx,
             std::vector<Finding>* out) const override {
    if (ctx.layer.empty()) return;  // src/ only
    const auto& toks = ctx.lexed->tokens;

    struct Frame {
      bool is_class = false;
      bool mutex_seen = false;
      std::string mutex_name;
      std::vector<Token> stmt;  ///< pending member-declaration tokens
    };
    std::vector<Frame> frames;
    bool pending_class = false;

    auto in_class = [&] {
      return !frames.empty() && frames.back().is_class;
    };
    // Inline-skips a balanced {...} group; `i` indexes the opening brace.
    // Returns the index of the matching close (or the last token).
    auto skip_braces = [&](std::size_t i) {
      int depth = 0;
      for (; i < toks.size(); ++i) {
        if (toks[i].kind != TokenKind::kPunct) continue;
        if (toks[i].text == "{") ++depth;
        if (toks[i].text == "}" && --depth == 0) return i;
      }
      return toks.size() - 1;
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
      const Token& t = toks[i];
      if (IsIdent(t)) {
        if ((t.text == "class" || t.text == "struct" ||
             t.text == "union") &&
            (i == 0 ||
             !(IsIdent(toks[i - 1]) && toks[i - 1].text == "enum"))) {
          pending_class = true;
        }
        if (in_class()) frames.back().stmt.push_back(t);
        continue;
      }
      if (t.kind != TokenKind::kPunct) {
        if (in_class()) frames.back().stmt.push_back(t);
        continue;
      }
      if (t.text == "{") {
        if (pending_class) {
          pending_class = false;
          frames.push_back(Frame{true, false, {}, {}});
        } else if (in_class() && !frames.back().stmt.empty() &&
                   IsMemberName(frames.back().stmt.back())) {
          // Default member initializer `field_{...}`: consume the braces,
          // the declaration continues up to its ';'.
          i = skip_braces(i);
        } else {
          // Function body or other non-class block: its tokens are not
          // member declarations, and any heading tokens collected so far
          // (`void Foo() ...`) were a method, not a field.
          if (in_class()) frames.back().stmt.clear();
          frames.push_back(Frame{});
        }
        continue;
      }
      if (t.text == "}") {
        if (!frames.empty()) frames.pop_back();
        continue;
      }
      if (t.text == ";") {
        pending_class = false;  // `class X;` forward declaration
        if (in_class()) {
          ProcessMember(ctx, &frames.back(), out);
          frames.back().stmt.clear();
        }
        continue;
      }
      if (t.text == ":" && in_class() && frames.back().stmt.size() == 1 &&
          IsAccessSpecifier(frames.back().stmt[0])) {
        frames.back().stmt.clear();
        continue;
      }
      if (in_class()) frames.back().stmt.push_back(t);
    }
  }

 private:
  static bool IsAccessSpecifier(const Token& t) {
    return IsIdent(t) && (t.text == "public" || t.text == "private" ||
                          t.text == "protected");
  }

  /// House style: data members end in '_'. Method and parameter names
  /// never do, which is what makes field declarations recognisable
  /// without a real parser.
  static bool IsMemberName(const Token& t) {
    return IsIdent(t) && t.text.size() > 1 && t.text.back() == '_';
  }

  static bool IsMutexTypeName(const std::string& name) {
    static const std::set<std::string> kMutexTypes = {
        "Mutex",          "mutex",
        "shared_mutex",   "recursive_mutex",
        "timed_mutex",    "recursive_timed_mutex",
        "shared_timed_mutex",
    };
    return kMutexTypes.count(name) != 0;
  }

  template <typename FrameT>
  static void ProcessMember(const FileContext& ctx, FrameT* frame,
                            std::vector<Finding>* out) {
    const std::vector<Token>& stmt = frame->stmt;
    if (stmt.empty()) return;
    // The declarator is the first top-level identifier ending in '_'
    // (type tokens precede it; annotation arguments and parameter lists
    // sit inside (...) or <...> and are never top-level).
    int depth = 0;
    std::size_t decl = stmt.size();
    for (std::size_t i = 0; i < stmt.size(); ++i) {
      const Token& t = stmt[i];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "<") ++depth;
        if (t.text == ")" || t.text == "]" || t.text == ">") --depth;
        if (t.text == ">>") depth -= 2;
        continue;
      }
      if (depth <= 0 && IsMemberName(t)) {
        decl = i;
        break;
      }
    }
    if (decl == stmt.size()) return;  // no field declarator: method, enum...

    // Mutex members flip the frame into guarded mode; they need no
    // annotation themselves.
    int type_depth = 0;
    for (std::size_t i = 0; i < decl; ++i) {
      const Token& t = stmt[i];
      if (t.kind == TokenKind::kPunct) {
        if (t.text == "(" || t.text == "[" || t.text == "<") ++type_depth;
        if (t.text == ")" || t.text == "]" || t.text == ">") --type_depth;
        if (t.text == ">>") type_depth -= 2;
        continue;
      }
      if (type_depth <= 0 && IsIdent(t) && IsMutexTypeName(t.text)) {
        frame->mutex_seen = true;
        frame->mutex_name = stmt[decl].text;
        return;
      }
    }
    if (!frame->mutex_seen) return;

    // Exemptions: annotated fields, other synchronization primitives, and
    // compile-time members.
    for (std::size_t i = 0; i < stmt.size(); ++i) {
      if (!IsIdent(stmt[i])) continue;
      const std::string& name = stmt[i].text;
      if (name == "GUARDED_BY" || name == "PT_GUARDED_BY") return;
      if (name == "static" || name == "constexpr") return;
      if (i < decl &&
          (name == "atomic" || name == "condition_variable" ||
           name == "condition_variable_any")) {
        return;
      }
    }
    out->push_back(Finding{
        std::string("unannotated-guarded-field"), ctx.path, stmt[decl].line,
        "field '" + stmt[decl].text + "' is declared after mutex '" +
            frame->mutex_name +
            "' but carries no GUARDED_BY(...) annotation; annotate it, "
            "move it above the mutex if unguarded, or suppress with a "
            "justification"});
  }
};

// ---------------------------------------------------------------------------
// raw-lock-unlock
// ---------------------------------------------------------------------------

/// Manual lock()/unlock() pairs leak on early returns and exceptions, and
/// clang's hold-tracking cannot follow them across branches. All locking
/// goes through RAII holders (util::MutexLock); the annotated wrapper's
/// own implementation is the single suppressed exception. The check only
/// fires on *statement-level* calls — `weak.lock()` on a weak_ptr returns
/// a value that any real use consumes, so it never matches.
class RawLockUnlockChecker : public Checker {
 public:
  std::string_view rule() const override { return "raw-lock-unlock"; }
  std::string_view description() const override {
    return "manual lock()/unlock() call; use a RAII holder "
           "(util::MutexLock) so early returns and exceptions release";
  }

  void Check(const FileContext& ctx,
             std::vector<Finding>* out) const override {
    static const std::set<std::string> kBanned = {
        "lock",        "unlock",        "try_lock", "lock_shared",
        "unlock_shared", "Lock",        "Unlock",   "TryLock",
    };
    const auto& toks = ctx.lexed->tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (!AtStatementStart(toks, i)) continue;
      std::string callee;
      std::size_t open = ParseCallChain(toks, i, &callee);
      if (open == kNpos) continue;
      if (kBanned.count(callee) == 0) continue;
      std::size_t after = SkipParens(toks, open);
      if (after >= toks.size() || !IsPunct(toks[after], ";")) continue;
      out->push_back(Finding{
          std::string(rule()), ctx.path, toks[i].line,
          "manual '" + callee + "()' call; hold the lock through a RAII "
          "holder (util::MutexLock) instead"});
    }
  }
};

// ---------------------------------------------------------------------------
// atomic-memory-order
// ---------------------------------------------------------------------------

/// Defaulted atomic operations are seq_cst, which both hides the author's
/// intent and quietly costs a full fence on weakly-ordered targets. Every
/// named atomic operation outside obs/ (whose relaxed cells are audited as
/// a layer property, DESIGN.md §10/§13) must spell its ordering; audited
/// deviations carry a `pisrep-lint: allow(atomic-memory-order)` comment.
class AtomicMemoryOrderChecker : public Checker {
 public:
  std::string_view rule() const override { return "atomic-memory-order"; }
  std::string_view description() const override {
    return "std::atomic load/store/RMW without an explicit "
           "std::memory_order argument (outside obs/)";
  }

  void Check(const FileContext& ctx,
             std::vector<Finding>* out) const override {
    if (ctx.layer == "obs") return;  // audited relaxed cells live there
    static const std::set<std::string> kAtomicOps = {
        "load",      "store",     "exchange",
        "fetch_add", "fetch_sub", "fetch_and",
        "fetch_or",  "fetch_xor", "compare_exchange_weak",
        "compare_exchange_strong",
    };
    const auto& toks = ctx.lexed->tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (!(IsPunct(toks[i], ".") || IsPunct(toks[i], "->"))) continue;
      if (!IsIdent(toks[i + 1]) ||
          kAtomicOps.count(toks[i + 1].text) == 0) {
        continue;
      }
      if (!IsPunct(toks[i + 2], "(")) continue;
      std::size_t after = SkipParens(toks, i + 2);
      bool has_order = false;
      for (std::size_t j = i + 3; j + 1 < after; ++j) {
        if (IsIdent(toks[j]) &&
            toks[j].text.rfind("memory_order", 0) == 0) {
          has_order = true;
          break;
        }
      }
      if (has_order) continue;
      out->push_back(Finding{
          std::string(rule()), ctx.path, toks[i + 1].line,
          "atomic '" + toks[i + 1].text + "' without an explicit "
          "std::memory_order argument; name the ordering (seq_cst if "
          "that is what you mean)"});
    }
  }
};

// ---------------------------------------------------------------------------
// uncalled-api
// ---------------------------------------------------------------------------

/// An API that nothing calls gets a caller or goes (ROADMAP north star).
/// Reports a function declared in a src/ header whose name no file in the
/// tree uses as an identifier (ProjectIndex::used_names). The match is by
/// name only, so any mention elsewhere — a call, `&Class::Name`, a call of
/// an overload — keeps it clean, and a function with a real caller is
/// never flagged. The rule needs every caller in view, so it runs only on
/// whole-tree runs.
class UncalledApiChecker : public Checker {
 public:
  std::string_view rule() const override { return "uncalled-api"; }
  std::string_view description() const override {
    return "function declared in a src/ header that nothing in src/, "
           "tests/, bench/, examples/, perfbench/ or tools/ uses "
           "(whole-tree runs only)";
  }

  void Check(const FileContext& ctx,
             std::vector<Finding>* out) const override {
    if (!ctx.index->whole_tree || !ctx.is_header ||
        ctx.path.rfind("src/", 0) != 0) {
      return;
    }
    const auto& used = ctx.index->used_names;
    for (const auto& decl : ScanFunctionNames(*ctx.lexed).declared) {
      if (used.count(decl.name) != 0) continue;
      out->push_back(Finding{
          std::string(rule()), ctx.path, decl.line,
          "'" + decl.name + "' is declared but nothing in the tree uses "
          "it; give it a caller or delete it"});
    }
  }
};

}  // namespace

const std::vector<std::unique_ptr<Checker>>& AllCheckers() {
  // Leaky singleton: the registry must outlive any static destructor that
  // might still run a checker. pisrep-lint: allow(raw-new-delete)
  static const auto* checkers = [] {
    auto* v = new std::vector<std::unique_ptr<Checker>>();
    v->push_back(std::make_unique<DiscardedStatusChecker>());
    v->push_back(std::make_unique<WallClockChecker>());
    v->push_back(std::make_unique<BannedFunctionChecker>());
    v->push_back(std::make_unique<UsingNamespaceHeaderChecker>());
    v->push_back(std::make_unique<IncludeGuardChecker>());
    v->push_back(std::make_unique<LayeringChecker>());
    v->push_back(std::make_unique<RawNewDeleteChecker>());
    v->push_back(std::make_unique<UnannotatedGuardedFieldChecker>());
    v->push_back(std::make_unique<RawLockUnlockChecker>());
    v->push_back(std::make_unique<AtomicMemoryOrderChecker>());
    v->push_back(std::make_unique<UncalledApiChecker>());
    return v;
  }();
  return *checkers;
}

const Checker* FindChecker(std::string_view rule) {
  for (const auto& checker : AllCheckers()) {
    if (checker->rule() == rule) return checker.get();
  }
  return nullptr;
}

}  // namespace pisrep::lint
