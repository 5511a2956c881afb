#include "decay_lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

namespace decaylint {

namespace {

// --- lexical preprocessing --------------------------------------------------

// One source line, split into the text the rules match against (`code`) and
// the text the suppression directives live in (`comment`).  Stripped regions
// are replaced by single spaces so tokens never merge across them.
struct LineView {
  std::string code;
  std::string comment;
};

// Strips //, /* */ comments and string/char literals (including basic raw
// strings) while tracking line structure.  The linter is lexical by design:
// everything it enforces is visible at token level, and this keeps it free
// of any compiler dependency.
std::vector<LineView> Preprocess(const std::string& content) {
  std::vector<LineView> lines(1);
  enum class State { kCode, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  const std::size_t n = content.size();
  for (std::size_t i = 0; i < n; ++i) {
    const char c = content[i];
    if (c == '\n') {
      lines.emplace_back();
      continue;
    }
    LineView& line = lines.back();
    switch (state) {
      case State::kCode: {
        if (c == '/' && i + 1 < n && content[i + 1] == '/') {
          // Line comment: the rest of the physical line is comment text.
          std::size_t j = i + 2;
          while (j < n && content[j] != '\n') {
            line.comment.push_back(content[j]);
            ++j;
          }
          i = j - 1;
        } else if (c == '/' && i + 1 < n && content[i + 1] == '*') {
          state = State::kBlockComment;
          line.code.push_back(' ');
          ++i;
        } else if (c == '"') {
          // Raw string?  Look back over the prefix for R (u8R, LR, ...).
          std::size_t back = i;
          bool raw = false;
          if (back > 0 && content[back - 1] == 'R') {
            const char before = back >= 2 ? content[back - 2] : ' ';
            if (!(std::isalnum(static_cast<unsigned char>(before)) ||
                  before == '_') ||
                before == '8' || before == 'u' || before == 'U' ||
                before == 'L') {
              raw = true;
            }
          }
          line.code.push_back(' ');
          if (raw) {
            raw_delim.clear();
            std::size_t j = i + 1;
            while (j < n && content[j] != '(') raw_delim.push_back(content[j++]);
            i = j;  // at '(' (or end)
            state = State::kRawString;
          } else {
            state = State::kString;
          }
        } else if (c == '\'') {
          line.code.push_back(' ');
          state = State::kChar;
        } else {
          line.code.push_back(c);
        }
        break;
      }
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && content[i + 1] == '/') {
          state = State::kCode;
          ++i;
        } else {
          line.comment.push_back(c);
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;
        } else if (c == '"') {
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
        }
        break;
      case State::kRawString: {
        const std::string close = ")" + raw_delim + "\"";
        if (content.compare(i, close.size(), close) == 0) {
          i += close.size() - 1;
          state = State::kCode;
        }
        break;
      }
    }
  }
  return lines;
}

// --- rule table -------------------------------------------------------------

struct RuleDef {
  const char* id;
  const char* summary;
  // The rule never fires for labels starting with one of these...
  std::vector<std::string> allowed_prefixes;
  // ...or ending with one of these (designated homes for the construct).
  std::vector<std::string> allowed_suffixes;
};

const std::vector<RuleDef>& RuleTable() {
  static const std::vector<RuleDef> kRules = {
      {"exactness-pow",
       "std::pow/std::hypot belong to the physical-model layer "
       "(geom/sinr/spaces/env); algorithm and engine code must consume decay "
       "through DecaySpace/KernelCache so exact paths stay bit-identical",
       {"src/geom/", "src/sinr/", "src/spaces/", "src/env/", "src/core/",
        "src/measurement/"},
       {}},
      {"status-io",
       "no printf/cout/abort/exit in library code: recoverable errors travel "
       "as core::Status, programmer errors through DL_CHECK (core/check.h), "
       "human output through the designated report writers",
       {"src/core/check.h"},
       {"/report.cc", "_report.cc"}},
      {"unordered-iteration",
       "iterating an unordered container has implementation-defined order "
       "that leaks into signatures and reports; use an ordered container or "
       "sort before iterating",
       {},
       {}},
      {"naked-thread",
       "std::thread construction outside core/workers (RunWorkers, the "
       "library's one fork-join site) bypasses the place where spawning "
       "and joining are kept scheduling-independent",
       {"src/core/workers"},
       {}},
      {"clock-read",
       "clock reads outside src/obs/ make checkpoint/resume and replay "
       "non-deterministic; timing surfaces elsewhere need an explicit "
       "decay-lint allow annotation",
       {"src/obs/"},
       {}},
      {"oracle-in-src",
       "naive reference oracles (identifiers ending in Naive or Rescan) "
       "live with the tests in tests/oracles/, not in the library under "
       "src/",
       {},
       {}},
  };
  return kRules;
}

bool RuleAppliesTo(const RuleDef& rule, const std::string& label) {
  for (const std::string& p : rule.allowed_prefixes) {
    if (label.rfind(p, 0) == 0) return false;
  }
  for (const std::string& s : rule.allowed_suffixes) {
    if (label.size() >= s.size() &&
        label.compare(label.size() - s.size(), s.size(), s) == 0) {
      return false;
    }
  }
  return true;
}

// --- matchers ---------------------------------------------------------------

const std::regex& PowRe() {
  static const std::regex re(
      R"((?:\bstd\s*::\s*)?\b(?:pow[fl]?|hypot[fl]?)\s*\()");
  return re;
}

const std::regex& StatusIoRe() {
  static const std::regex re(
      R"(\bstd\s*::\s*(?:printf|fprintf|puts|fputs|abort|exit|quick_exit|_Exit|cout|cerr)\b)"
      R"(|\b(?:printf|fprintf|vprintf|vfprintf|puts|perror|abort|exit|quick_exit)\s*\()");
  return re;
}

const std::regex& ThreadRe() {
  static const std::regex re(R"(\bstd\s*::\s*j?thread\b(?!\s*::))");
  return re;
}

const std::regex& ClockRe() {
  static const std::regex re(
      R"(\b(?:steady_clock|system_clock|high_resolution_clock)\b)"
      R"(|\b(?:clock_gettime|gettimeofday|localtime|gmtime|mktime)\b)"
      R"(|\bstd\s*::\s*time\b|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\))"
      R"(|\bclock\s*\(\s*\))");
  return re;
}

const std::regex& OracleRe() {
  static const std::regex re(R"(\b[A-Za-z_]\w*(?:Naive|Rescan)\b)");
  return re;
}

const std::regex& UnorderedDeclRe() {
  static const std::regex re(R"(\bunordered_(?:map|set|multimap|multiset)\s*<)");
  return re;
}

// After an unordered_* declaration's template argument list closes, the next
// identifier (past &, *, whitespace) is the declared name.  Returns "" when
// the line is not a declaration (e.g. a using-directive or parameter pack we
// cannot see the end of).
std::string DeclaredName(const std::string& code, std::size_t angle_start) {
  std::size_t i = code.find('<', angle_start);
  if (i == std::string::npos) return "";
  int depth = 0;
  for (; i < code.size(); ++i) {
    if (code[i] == '<') ++depth;
    if (code[i] == '>' && --depth == 0) break;
  }
  if (depth != 0) return "";
  ++i;
  while (i < code.size() &&
         (std::isspace(static_cast<unsigned char>(code[i])) || code[i] == '&' ||
          code[i] == '*')) {
    ++i;
  }
  std::string name;
  while (i < code.size() && (std::isalnum(static_cast<unsigned char>(code[i])) ||
                             code[i] == '_')) {
    name.push_back(code[i++]);
  }
  return name;
}

bool CommentAllows(const std::string& comment, const std::string& rule) {
  return comment.find("decay-lint: allow(" + rule + ")") != std::string::npos;
}

bool CommentAllowsFile(const std::string& comment, const std::string& rule) {
  return comment.find("decay-lint: allowlist-file(" + rule + ")") !=
         std::string::npos;
}

}  // namespace

std::vector<RuleInfo> Rules() {
  std::vector<RuleInfo> out;
  for (const RuleDef& r : RuleTable()) out.push_back({r.id, r.summary});
  return out;
}

std::vector<Finding> LintContent(const std::string& label,
                                 const std::string& content) {
  std::vector<LineView> lines = Preprocess(content);

  // A fixture (or an out-of-tree file) may pin the label the path-scoped
  // allowlists see.
  std::string effective = label;
  for (std::size_t i = 0; i < lines.size() && i < 10; ++i) {
    const std::string& c = lines[i].comment;
    const std::size_t pos = c.find("decay-lint-path:");
    if (pos != std::string::npos) {
      std::istringstream in(c.substr(pos + sizeof("decay-lint-path:") - 1));
      in >> effective;
      break;
    }
  }
  std::replace(effective.begin(), effective.end(), '\\', '/');

  // File-wide suppressions can sit on any comment line.
  std::set<std::string> file_allowed;
  for (const LineView& line : lines) {
    for (const RuleDef& rule : RuleTable()) {
      if (CommentAllowsFile(line.comment, rule.id)) file_allowed.insert(rule.id);
    }
  }

  std::vector<Finding> findings;
  auto suppressed = [&](std::size_t idx, const std::string& rule) {
    if (file_allowed.count(rule) != 0) return true;
    if (CommentAllows(lines[idx].comment, rule)) return true;
    return idx > 0 && CommentAllows(lines[idx - 1].comment, rule);
  };
  auto active = [&](const std::string& rule_id) {
    for (const RuleDef& rule : RuleTable()) {
      if (rule_id == rule.id) return RuleAppliesTo(rule, effective);
    }
    return false;
  };
  auto report = [&](std::size_t idx, const std::string& rule,
                    const std::string& message) {
    if (!active(rule) || suppressed(idx, rule)) return;
    findings.push_back(
        {effective, static_cast<int>(idx) + 1, rule, message});
  };

  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;
    if (code.empty()) continue;

    if (std::regex_search(code, PowRe())) {
      report(i, "exactness-pow",
             "std::pow/std::hypot outside the physical-model layer; use "
             "DecaySpace/KernelCache accessors (or geom helpers) instead");
    }
    if (std::regex_search(code, StatusIoRe())) {
      report(i, "status-io",
             "direct I/O or process exit in library code; return "
             "core::Status (runtime errors) or use DL_CHECK (programmer "
             "errors)");
    }
    if (std::regex_search(code, ThreadRe())) {
      report(i, "naked-thread",
             "std::thread outside core/workers; run forked work through "
             "core::RunWorkers so there is one spawn-and-join site");
    }
    if (std::regex_search(code, ClockRe())) {
      report(i, "clock-read",
             "clock read outside src/obs/; wall time in algorithm code "
             "breaks checkpoint/resume replay determinism");
    }
    if (effective.rfind("src/", 0) == 0 &&
        std::regex_search(code, OracleRe())) {
      report(i, "oracle-in-src",
             "naive reference oracle in src/; move it to tests/oracles/ "
             "(shared drivers go in the module header's detail section)");
    }

    // unordered-iteration: remember declared names, then flag any loop or
    // begin()/end() walk over them (or over an inline unordered expression).
    std::smatch m;
    if (std::regex_search(code, m, UnorderedDeclRe())) {
      const std::string name =
          DeclaredName(code, static_cast<std::size_t>(m.position(0)));
      if (!name.empty()) unordered_names.insert(name);
    }
    static const std::regex kForRe(R"(\bfor\s*\()");
    const bool is_range_for =
        std::regex_search(code, kForRe) && code.find(':') != std::string::npos;
    if (is_range_for && code.find("unordered_") != std::string::npos &&
        !std::regex_search(code, m, UnorderedDeclRe())) {
      report(i, "unordered-iteration",
             "range-for over an unordered container; iteration order is "
             "implementation-defined and poisons signatures/reports");
    }
    for (const std::string& name : unordered_names) {
      const bool walks =
          code.find(name + ".begin()") != std::string::npos ||
          code.find(name + ".end()") != std::string::npos ||
          code.find(name + ".cbegin()") != std::string::npos;
      const bool ranged =
          is_range_for &&
          std::regex_search(code, std::regex(":\\s*" + name + "\\s*\\)"));
      if (walks || ranged) {
        report(i, "unordered-iteration",
               "iteration over unordered container '" + name +
                   "'; order is implementation-defined and poisons "
                   "signatures/reports");
        break;
      }
    }
  }

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  return findings;
}

bool LintFile(const std::string& path, const std::string& label,
              std::vector<Finding>* findings, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::vector<Finding> f = LintContent(label, buffer.str());
  findings->insert(findings->end(), f.begin(), f.end());
  return true;
}

bool LintTree(const std::string& root, std::vector<Finding>* findings,
              std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path root_path(root);
  if (!fs::is_directory(root_path, ec)) {
    if (error != nullptr) *error = root + " is not a directory";
    return false;
  }
  const std::string base = root_path.filename().string();
  std::vector<std::pair<std::string, std::string>> files;  // path, label
  for (fs::recursive_directory_iterator it(root_path, ec), end;
       it != end && !ec; it.increment(ec)) {
    if (!it->is_regular_file()) continue;
    const std::string ext = it->path().extension().string();
    if (ext != ".h" && ext != ".cc" && ext != ".cpp" && ext != ".hpp") continue;
    const std::string rel =
        fs::relative(it->path(), root_path).generic_string();
    files.emplace_back(it->path().string(), base + "/" + rel);
  }
  if (ec) {
    if (error != nullptr) *error = "walking " + root + ": " + ec.message();
    return false;
  }
  std::sort(files.begin(), files.end());
  for (const auto& [path, label] : files) {
    if (!LintFile(path, label, findings, error)) return false;
  }
  return true;
}

std::string FormatFinding(const Finding& f) {
  std::ostringstream out;
  out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message;
  return out.str();
}

}  // namespace decaylint
