#include "driver.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace pisrep::lint {

namespace {

bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

bool IsPunct(const Token& t, std::string_view text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Skips a balanced <...> template argument list; `pos` indexes the `<`.
/// Returns one past the closing `>`, treating `>>` as two closers.
std::size_t SkipAngles(const std::vector<Token>& toks, std::size_t pos) {
  int depth = 0;
  for (std::size_t i = pos; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "<") depth += 1;
    if (toks[i].text == ">") depth -= 1;
    if (toks[i].text == ">>") depth -= 2;
    if (depth <= 0 && (toks[i].text == ">" || toks[i].text == ">>")) {
      return i + 1;
    }
    // Give up on clearly-not-template content (statement punctuation).
    if (toks[i].text == ";" || toks[i].text == "{") return toks.size();
  }
  return toks.size();
}

/// Keywords: right before `Name(` they make it an expression rather than
/// a declaration (`return Name(x)`, `new Name(x)`, `not Name(x)`), and they
/// never name a function themselves (`sizeof(x)`, `if (x)`). Builtin type
/// names are not in the list: `bool Name(` is a declaration.
bool IsKeyword(std::string_view text) {
  static const std::set<std::string_view> kKeywords = {
      "alignas",   "alignof",   "and",       "case",          "catch",
      "class",     "co_await",  "co_return", "co_yield",      "decltype",
      "delete",    "do",        "else",      "enum",          "explicit",
      "for",       "goto",      "if",        "namespace",     "new",
      "noexcept",  "not",       "operator",  "or",            "requires",
      "return",    "sizeof",    "static_assert", "struct",    "switch",
      "template",  "throw",     "typeid",    "typename",      "union",
      "using",     "while",
  };
  return kKeywords.count(text) != 0;
}

void IndexFile(const LexedFile& lexed, ProjectIndex* index,
               std::set<std::string>* non_fallible) {
  const auto& toks = lexed.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i])) continue;

    // `Status Name(`  (optionally qualified: util::Status, ::pisrep::...).
    if (toks[i].text == "Status" && i + 2 < toks.size() &&
        IsIdent(toks[i + 1]) && IsPunct(toks[i + 2], "(")) {
      if (toks[i + 1].text != "operator") {
        index->fallible_functions.insert(toks[i + 1].text);
      }
      continue;
    }

    // `Result<T...> Name(`.
    if (toks[i].text == "Result" && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "<")) {
      std::size_t after = SkipAngles(toks, i + 1);
      if (after + 1 < toks.size() && IsIdent(toks[after]) &&
          IsPunct(toks[after + 1], "(") &&
          toks[after].text != "operator") {
        index->fallible_functions.insert(toks[after].text);
      }
      continue;
    }

    // Any other declaration-shaped `Type [&|*] Name(` marks Name as having
    // a non-Status overload somewhere (`void Login(cb)`, `HtmlWriter&
    // Open(tag)`). Names declared both ways are ambiguous at token level,
    // so BuildIndex drops them: [[nodiscard]] + -Werror still catches real
    // discards of the fallible overload exactly.
    if (IsKeyword(toks[i].text)) continue;
    std::size_t name_at = i + 1;
    if (name_at < toks.size() && toks[name_at].kind == TokenKind::kPunct &&
        (toks[name_at].text == "&" || toks[name_at].text == "*" ||
         toks[name_at].text == "&&")) {
      ++name_at;
    }
    if (name_at + 1 < toks.size() && IsIdent(toks[name_at]) &&
        IsPunct(toks[name_at + 1], "(") &&
        toks[name_at].text != "operator" &&
        !IsKeyword(toks[name_at].text)) {
      non_fallible->insert(toks[name_at].text);
    }
  }
}

/// True when `t` can end the type in front of a declared name: `Status
/// Name(`, `bool Name(`, `Foo* Name(`, `std::vector<int> Name(`.
bool EndsType(const Token& t) {
  if (IsIdent(t)) return !IsKeyword(t.text);
  return IsPunct(t, "*") || IsPunct(t, "&") || IsPunct(t, "&&") ||
         IsPunct(t, ">") || IsPunct(t, ">>");
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string LayerOf(std::string_view path) {
  if (path.rfind("src/", 0) != 0) return std::string();
  std::string_view rest = path.substr(4);
  std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return std::string();
  return std::string(rest.substr(0, slash));
}

bool IsHeaderPath(std::string_view path) {
  auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.substr(path.size() - suffix.size()) == suffix;
  };
  return ends_with(".h") || ends_with(".hpp");
}

/// On whole-tree runs, files under a kWholeTree directory that is not
/// linted are read for uses of src/ names only.
bool IsReadOnly(std::string_view path) {
  for (const TreeDir& dir : kWholeTree) {
    if (!dir.linted && path.size() > dir.path.size() &&
        path.compare(0, dir.path.size(), dir.path) == 0 &&
        path[dir.path.size()] == '/') {
      return true;
    }
  }
  return false;
}

}  // namespace

FunctionNames ScanFunctionNames(const LexedFile& lexed) {
  FunctionNames out;
  const auto& toks = lexed.tokens;
  auto use = [&](const Token& t) {
    if (IsIdent(t)) out.used.insert(t.text);
  };

  // A namespace or class body holds declarations. Any other brace (a
  // function body, an initializer, a lambda, an enum) holds code, where
  // every name is a use. Each scope keeps the state of the declaration
  // statement it is in the middle of.
  struct Scope {
    bool declarations = false;
    std::string class_name;  ///< tells a constructor from a method
    int parens = 0;          ///< ( depth within the current statement
    bool initializer = false;  ///< past a top-level `=`: an expression
  };
  std::vector<Scope> scopes(1);
  scopes[0].declarations = true;
  enum class Opens { kCode, kNamespace, kClass };
  Opens opens = Opens::kCode;  // what the next `{` opens
  bool class_head_done = false;  // past the base-clause `:`
  std::string class_name;

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (IsPunct(t, "{")) {
      Scope inner;
      inner.declarations =
          scopes.back().declarations && opens != Opens::kCode;
      if (opens == Opens::kClass) inner.class_name = class_name;
      scopes.push_back(inner);
      opens = Opens::kCode;
      continue;
    }
    if (IsPunct(t, "}")) {
      if (scopes.size() > 1) scopes.pop_back();
      opens = Opens::kCode;
      continue;
    }
    Scope& scope = scopes.back();
    if (!scope.declarations) {
      use(t);
      continue;
    }
    if (t.kind == TokenKind::kPunct) {
      if (t.text == ";") {
        opens = Opens::kCode;
        scope.parens = 0;
        scope.initializer = false;
      } else if (t.text == "(") {
        ++scope.parens;
      } else if (t.text == ")") {
        --scope.parens;
      } else if (t.text == "=" && scope.parens == 0 &&
                 !(i > 0 && IsIdent(toks[i - 1]) &&
                   toks[i - 1].text == "operator")) {
        scope.initializer = true;
      } else if (t.text == ":" && opens == Opens::kClass) {
        class_head_done = true;
      }
      continue;
    }
    if (!IsIdent(t)) continue;
    bool before_paren = i + 1 < toks.size() && IsPunct(toks[i + 1], "(");

    // `template <...>`: parameter defaults are uses, and a `class T` in
    // there opens nothing.
    if (t.text == "template" && i + 1 < toks.size() &&
        IsPunct(toks[i + 1], "<")) {
      std::size_t end = SkipAngles(toks, i + 1);
      if (end < toks.size()) {
        for (std::size_t j = i + 1; j < end; ++j) use(toks[j]);
        i = end - 1;
      }
      continue;
    }
    if (scope.parens == 0 && !scope.initializer) {
      if (t.text == "namespace") {
        opens = Opens::kNamespace;
        continue;
      }
      // `enum class` opens code: enumerators are not functions.
      if ((t.text == "class" || t.text == "struct" || t.text == "union") &&
          !(i > 0 && IsIdent(toks[i - 1]) && toks[i - 1].text == "enum")) {
        opens = Opens::kClass;
        class_name.clear();
        class_head_done = false;
        continue;
      }
      if (opens == Opens::kClass && !class_head_done && !before_paren &&
          t.text != "final") {
        class_name = t.text;  // the last name before `:` or `{`
      }
    }

    if (!before_paren || scope.parens != 0 || scope.initializer ||
        opens != Opens::kCode || IsKeyword(t.text)) {
      use(t);
      continue;
    }
    // Walk back over a qualifier: `Scope::Name(`, `ns::Tmpl<T>::Name(`.
    std::size_t head = i;
    while (head >= 2 && IsPunct(toks[head - 1], "::")) {
      std::size_t q = head - 2;
      if (IsPunct(toks[q], ">")) {
        int depth = 0;
        for (; q > 0; --q) {
          if (IsPunct(toks[q], ">")) ++depth;
          if (IsPunct(toks[q], "<") && --depth == 0) break;
        }
        if (q == 0) break;
        --q;
      }
      if (!IsIdent(toks[q])) break;
      head = q;
    }
    if (head >= 1 && IsPunct(toks[head - 1], "::")) --head;  // `::Name(`
    if (head == 0 || !EndsType(toks[head - 1])) {
      use(t);  // a call, or a macro at statement start
      continue;
    }
    if (head == i && t.text != scope.class_name) {
      out.declared.push_back({t.text, t.line});
    }
  }
  for (const PreprocLine& pp : lexed.preproc) {
    for (const Token& t : Lex(pp.text).tokens) use(t);
  }
  return out;
}

ProjectIndex BuildIndex(const std::vector<SourceFile>& files,
                        bool whole_tree) {
  ProjectIndex index;
  index.whole_tree = whole_tree;
  std::set<std::string> non_fallible;
  for (const auto& [path, content] : files) {
    LexedFile lexed = Lex(content);
    if (whole_tree) {
      index.used_names.merge(ScanFunctionNames(lexed).used);
      if (IsReadOnly(path)) continue;
    }
    IndexFile(lexed, &index, &non_fallible);
  }
  for (const std::string& name : non_fallible) {
    index.fallible_functions.erase(name);
  }
  return index;
}

std::map<int, std::set<std::string>> CollectSuppressions(
    const LexedFile& lexed) {
  std::map<int, std::set<std::string>> out;
  constexpr std::string_view kMarker = "pisrep-lint:";
  for (const Comment& comment : lexed.comments) {
    std::size_t at = comment.text.find(kMarker);
    if (at == std::string::npos) continue;
    std::string_view rest =
        std::string_view(comment.text).substr(at + kMarker.size());
    std::size_t open = rest.find("allow(");
    if (open == std::string_view::npos) continue;
    std::size_t close = rest.find(')', open);
    if (close == std::string_view::npos) continue;
    std::string_view list = rest.substr(open + 6, close - open - 6);
    std::set<std::string>& rules = out[comment.line];
    std::string current;
    for (char c : list) {
      if (c == ',' || c == ' ') {
        if (!current.empty()) rules.insert(current);
        current.clear();
      } else {
        current.push_back(c);
      }
    }
    if (!current.empty()) rules.insert(current);
  }
  return out;
}

std::vector<Finding> AnalyzeFile(const std::string& path,
                                 std::string_view content,
                                 const ProjectIndex& index) {
  LexedFile lexed = Lex(content);
  FileContext ctx;
  ctx.path = path;
  ctx.content = content;
  ctx.lexed = &lexed;
  ctx.index = &index;
  ctx.is_header = IsHeaderPath(path);
  ctx.layer = LayerOf(path);

  std::vector<Finding> findings;
  for (const auto& checker : AllCheckers()) {
    checker->Check(ctx, &findings);
  }

  // A suppression comment covers its own line and the line below it, so it
  // can sit at the end of the offending line or on the line above.
  auto suppressions = CollectSuppressions(lexed);
  auto allowed = [&](const Finding& f) {
    for (int line : {f.line, f.line - 1}) {
      auto it = suppressions.find(line);
      if (it == suppressions.end()) continue;
      if (it->second.count("all") != 0 ||
          it->second.count(f.rule) != 0) {
        return true;
      }
    }
    return false;
  };
  findings.erase(
      std::remove_if(findings.begin(), findings.end(), allowed),
      findings.end());
  return findings;
}

std::vector<Finding> AnalyzeProject(const std::vector<SourceFile>& files,
                                    bool whole_tree) {
  ProjectIndex index = BuildIndex(files, whole_tree);
  std::vector<Finding> findings;
  for (const auto& [path, content] : files) {
    if (whole_tree && IsReadOnly(path)) continue;
    std::vector<Finding> file_findings = AnalyzeFile(path, content, index);
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::set<std::string> ParseBaseline(std::string_view content) {
  std::set<std::string> out;
  std::size_t start = 0;
  while (start <= content.size()) {
    std::size_t end = content.find('\n', start);
    if (end == std::string_view::npos) end = content.size();
    std::string_view line = content.substr(start, end - start);
    start = end + 1;
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.remove_suffix(1);
    }
    while (!line.empty() && line.front() == ' ') line.remove_prefix(1);
    if (line.empty() || line.front() == '#') continue;
    out.insert(std::string(line));
  }
  return out;
}

std::string BaselineKey(const Finding& finding) {
  return finding.rule + " " + finding.file + ":" +
         std::to_string(finding.line);
}

std::vector<Finding> FilterBaseline(std::vector<Finding> findings,
                                    const std::set<std::string>& baseline) {
  findings.erase(std::remove_if(findings.begin(), findings.end(),
                                [&](const Finding& f) {
                                  return baseline.count(BaselineKey(f)) != 0;
                                }),
                 findings.end());
  return findings;
}

std::string FormatBaseline(const std::vector<Finding>& findings) {
  std::set<std::string> keys;  // sorted + deduplicated => byte-stable
  for (const Finding& f : findings) keys.insert(BaselineKey(f));
  std::ostringstream os;
  os << "# pisrep-lint baseline: grandfathered findings, one `rule "
        "path:line` per line.\n"
        "# New code must not add entries; shrinking this file is always "
        "welcome.\n"
        "# Regenerate deterministically with:  pisrep-lint --root . "
        "--update-baseline\n";
  for (const std::string& key : keys) os << key << "\n";
  return os.str();
}

std::string FormatHuman(const std::vector<Finding>& findings) {
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
       << "\n";
  }
  if (findings.empty()) {
    os << "pisrep-lint: no findings\n";
  } else {
    os << "pisrep-lint: " << findings.size() << " finding"
       << (findings.size() == 1 ? "" : "s") << "\n";
  }
  return os.str();
}

std::string FormatJson(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "{\"findings\":[";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i != 0) os << ",";
    os << "{\"rule\":\"" << JsonEscape(f.rule) << "\",\"file\":\""
       << JsonEscape(f.file) << "\",\"line\":" << f.line
       << ",\"message\":\"" << JsonEscape(f.message) << "\"}";
  }
  os << "],\"count\":" << findings.size() << "}\n";
  return os.str();
}

}  // namespace pisrep::lint
