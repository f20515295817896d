// pisrep-lint: repo-invariant static analysis for pisrep.
//
// Walks src/, tests/, bench/, and examples/ and reports violations of the
// repo's machine-checked invariants (see DESIGN.md §8): discarded Status
// values, wall-clock / raw-entropy use outside src/util, banned unsafe C
// functions, include hygiene and layering, raw new/delete, and src/
// functions nothing calls. Without explicit paths it also reads
// perfbench/ and tools/ for calls, without linting them; only such a
// whole-tree run reports uncalled functions.
//
// Usage:
//   pisrep-lint [--root <repo-root>] [--json] [--baseline <file>]
//               [--no-baseline] [--update-baseline] [--list-rules]
//               [paths...]
//
// --update-baseline rewrites the baseline file from the current findings
// (sorted, deduplicated, byte-stable) instead of reporting them; running
// it twice in a row is a no-op.
//
// Exit code 0 when no (unsuppressed, unbaselined) findings, 1 otherwise,
// 2 on usage or I/O error.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "driver.h"

namespace fs = std::filesystem;
using pisrep::lint::Finding;
using pisrep::lint::SourceFile;

namespace {

bool HasSourceExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

/// Repo-relative, '/'-separated form of `p` under `root`.
std::string RelPath(const fs::path& p, const fs::path& root) {
  std::string rel = fs::relative(p, root).generic_string();
  return rel;
}

bool ReadFile(const fs::path& p, std::string* out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int CollectFiles(const fs::path& root, const std::vector<fs::path>& targets,
                 std::vector<SourceFile>* files) {
  for (const fs::path& target : targets) {
    std::error_code ec;
    if (fs::is_regular_file(target, ec)) {
      std::string content;
      if (!ReadFile(target, &content)) {
        std::cerr << "pisrep-lint: cannot read " << target << "\n";
        return 2;
      }
      files->emplace_back(RelPath(target, root), std::move(content));
      continue;
    }
    if (!fs::is_directory(target, ec)) continue;  // absent tree: skip
    for (auto it = fs::recursive_directory_iterator(target, ec);
         it != fs::recursive_directory_iterator(); ++it) {
      if (!it->is_regular_file()) continue;
      if (!HasSourceExtension(it->path())) continue;
      std::string content;
      if (!ReadFile(it->path(), &content)) {
        std::cerr << "pisrep-lint: cannot read " << it->path() << "\n";
        return 2;
      }
      files->emplace_back(RelPath(it->path(), root), std::move(content));
    }
  }
  std::sort(files->begin(), files->end());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = fs::current_path();
  bool json = false;
  bool use_baseline = true;
  bool update_baseline = false;
  std::string baseline_path;
  std::vector<std::string> explicit_paths;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--no-baseline") {
      use_baseline = false;
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--list-rules") {
      for (const auto& checker : pisrep::lint::AllCheckers()) {
        std::printf("%-24s %s\n", std::string(checker->rule()).c_str(),
                    std::string(checker->description()).c_str());
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: pisrep-lint [--root <repo-root>] [--json]\n"
          "                   [--baseline <file>] [--no-baseline]\n"
          "                   [--update-baseline] [--list-rules]\n"
          "                   [paths...]\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "pisrep-lint: unknown flag " << arg << "\n";
      return 2;
    } else {
      explicit_paths.push_back(arg);
    }
  }

  std::error_code ec;
  root = fs::canonical(root, ec);
  if (ec) {
    std::cerr << "pisrep-lint: bad --root\n";
    return 2;
  }

  std::vector<fs::path> targets;
  bool whole_tree = explicit_paths.empty();
  if (whole_tree) {
    for (const pisrep::lint::TreeDir& dir : pisrep::lint::kWholeTree) {
      targets.push_back(root / dir.path);
    }
  } else {
    for (const std::string& p : explicit_paths) {
      fs::path path(p);
      targets.push_back(path.is_absolute() ? path : root / path);
    }
  }

  std::vector<SourceFile> files;
  int rc = CollectFiles(root, targets, &files);
  if (rc != 0) return rc;

  std::vector<Finding> findings =
      pisrep::lint::AnalyzeProject(files, whole_tree);

  fs::path bp = baseline_path.empty()
                    ? root / "tools" / "lint" / "baseline.txt"
                    : fs::path(baseline_path);

  if (update_baseline) {
    // Regenerate from the *unfiltered* findings: the baseline is exactly
    // what the tree currently violates, nothing more.
    std::ofstream out(bp, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "pisrep-lint: cannot write baseline " << bp << "\n";
      return 2;
    }
    out << pisrep::lint::FormatBaseline(findings);
    std::cout << "pisrep-lint: wrote " << findings.size() << " entr"
              << (findings.size() == 1 ? "y" : "ies") << " to "
              << bp.generic_string() << "\n";
    return 0;
  }

  if (use_baseline) {
    std::string content;
    if (ReadFile(bp, &content)) {
      findings = pisrep::lint::FilterBaseline(
          std::move(findings), pisrep::lint::ParseBaseline(content));
    } else if (!baseline_path.empty()) {
      std::cerr << "pisrep-lint: cannot read baseline " << bp << "\n";
      return 2;
    }
  }

  std::cout << (json ? pisrep::lint::FormatJson(findings)
                     : pisrep::lint::FormatHuman(findings));
  return findings.empty() ? 0 : 1;
}
