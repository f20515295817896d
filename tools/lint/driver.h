#ifndef PISREP_TOOLS_LINT_DRIVER_H_
#define PISREP_TOOLS_LINT_DRIVER_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "checker.h"

namespace pisrep::lint {

/// (repo-relative path, file content) pairs — the unit the driver works on,
/// so that tests can feed in-memory fixtures without touching the disk.
using SourceFile = std::pair<std::string, std::string>;

/// A directory a whole-tree run (pisrep-lint without path arguments)
/// reads, relative to the repo root. Files under a directory that is not
/// `linted` are read for uses of src/ names and nothing else.
struct TreeDir {
  std::string_view path;
  bool linted;
};
inline constexpr TreeDir kWholeTree[] = {
    {"src", true},      {"tests", true},      {"bench", true},
    {"examples", true}, {"perfbench", false}, {"tools", false},
};

/// First pass: collect project-wide facts from every file: fallible
/// function names and, when `whole_tree`, the names the tree uses.
ProjectIndex BuildIndex(const std::vector<SourceFile>& files,
                        bool whole_tree);

/// Suppressions present in a file: line -> rule ids allowed on that line
/// and the one below it. The special rule id "all" allows everything.
/// Syntax, anywhere in a comment:   pisrep-lint: allow(rule-a, rule-b)
std::map<int, std::set<std::string>> CollectSuppressions(
    const LexedFile& lexed);

/// Second pass over one file: runs every registered checker and drops
/// findings covered by suppression comments.
std::vector<Finding> AnalyzeFile(const std::string& path,
                                 std::string_view content,
                                 const ProjectIndex& index);

/// Runs both passes over a file set and returns all findings, sorted by
/// path, line, rule. `whole_tree` says the set is the kWholeTree
/// directories: files under the ones not linted then feed the first pass
/// only, and uncalled-api runs.
std::vector<Finding> AnalyzeProject(const std::vector<SourceFile>& files,
                                    bool whole_tree = false);

/// Baseline file format: one `rule path:line` entry per line; blank lines
/// and lines starting with '#' are ignored.
std::set<std::string> ParseBaseline(std::string_view content);
std::string BaselineKey(const Finding& finding);

/// Removes findings whose BaselineKey appears in `baseline` (grandfathered
/// findings from before a rule was introduced).
std::vector<Finding> FilterBaseline(std::vector<Finding> findings,
                                    const std::set<std::string>& baseline);

/// Renders `findings` as a baseline file: a fixed comment header followed
/// by one sorted, deduplicated BaselineKey entry per line. Byte-stable for
/// a given finding set, so `--update-baseline` twice in a row is a no-op
/// (asserted by the driver tests).
std::string FormatBaseline(const std::vector<Finding>& findings);

/// "path:line: [rule] message" per finding plus a summary line.
std::string FormatHuman(const std::vector<Finding>& findings);

/// {"findings":[{"rule":...,"file":...,"line":...,"message":...}],"count":N}
std::string FormatJson(const std::vector<Finding>& findings);

}  // namespace pisrep::lint

#endif  // PISREP_TOOLS_LINT_DRIVER_H_
