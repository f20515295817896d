#ifndef PISREP_TOOLS_LINT_CHECKER_H_
#define PISREP_TOOLS_LINT_CHECKER_H_

#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lexer.h"

namespace pisrep::lint {

/// One rule violation at a specific source location.
struct Finding {
  std::string rule;     ///< stable rule id, e.g. "discarded-status"
  std::string file;     ///< repo-relative, '/'-separated
  int line = 0;         ///< 1-based
  std::string message;  ///< human explanation, one sentence

  bool operator==(const Finding& other) const {
    return rule == other.rule && file == other.file && line == other.line;
  }
};

/// Project-wide facts gathered in a first pass over every file, available
/// to checkers during the per-file pass.
struct ProjectIndex {
  /// Names of functions/methods declared to return util::Status or
  /// util::Result<T> anywhere in the project. Used by the discarded-status
  /// checker to recognise fallible calls without a real type system.
  std::set<std::string> fallible_functions;
  /// True when the file set is the whole tree, so every caller is in view:
  /// only then may uncalled-api say that a name has none.
  bool whole_tree = false;
  /// Whole-tree runs only: every name some file uses as an identifier
  /// (FunctionNames::used of every file).
  std::set<std::string> used_names;
};

/// What one file says about function names, for uncalled-api. Comments
/// and string literals are not tokens, so they count as neither.
struct FunctionNames {
  struct Declaration {
    std::string name;
    int line = 0;
  };
  /// Unqualified function declarations and definitions at namespace or
  /// class scope. Constructors, destructors and operators are left out.
  std::vector<Declaration> declared;
  /// Every other identifier, preprocessor lines included. A declaration
  /// and an out-of-line `Scope::Name(` definition are not uses.
  std::set<std::string> used;
};

FunctionNames ScanFunctionNames(const LexedFile& lexed);

/// Everything a checker may look at for one file.
struct FileContext {
  std::string path;   ///< repo-relative, '/'-separated ("src/core/trust.cc")
  std::string_view content;
  const LexedFile* lexed = nullptr;
  const ProjectIndex* index = nullptr;
  bool is_header = false;
  /// For files under src/: the top-level layer directory ("core", "net",
  /// ...). Empty for tests/, bench/, examples/, tools/.
  std::string layer;
};

/// A single lint rule. Checkers are stateless: Check() may be called for
/// any number of files in any order. Suppression comments and the baseline
/// are applied by the driver, not by individual checkers.
class Checker {
 public:
  virtual ~Checker() = default;

  /// Stable rule id used in output, suppression comments, and the baseline.
  virtual std::string_view rule() const = 0;

  /// One-line description shown by --list-rules and in DESIGN.md.
  virtual std::string_view description() const = 0;

  virtual void Check(const FileContext& ctx,
                     std::vector<Finding>* out) const = 0;
};

/// The checker registry. Adding a rule means writing a Checker subclass in
/// checkers.cc and appending it here; the driver, CLI, and tests pick it up
/// automatically.
const std::vector<std::unique_ptr<Checker>>& AllCheckers();

/// The checker with the given rule id, or nullptr.
const Checker* FindChecker(std::string_view rule);

}  // namespace pisrep::lint

#endif  // PISREP_TOOLS_LINT_CHECKER_H_
