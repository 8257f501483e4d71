// The documents a reader follows cite only what exists. Every inline code
// span of DESIGN.md, EXPERIMENTS.md and the verify skill that reads as a
// repo path names a file or directory of the tree, and every one that
// reads as a gtest name (`Suite.Test`, `Suite.Prefix*`, `Suite.*`, or a
// `.Test` continuing the last suite cited) names a TEST/TEST_F/TEST_P
// under tests/ or tools/. Fenced code blocks are not scanned.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace costsense {
namespace {

namespace fs = std::filesystem;

const fs::path kRoot = COSTSENSE_SOURCE_DIR;

const char* const kDocs[] = {"DESIGN.md", "EXPERIMENTS.md",
                             ".claude/skills/verify/SKILL.md"};

/// One inline code span and where it starts ("DESIGN.md:374").
struct Citation {
  std::string where;
  std::string text;
};

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The inline code spans of `doc`, skipping fenced blocks. A span may
/// cross a line break.
std::vector<Citation> CodeSpans(const std::string& doc) {
  std::istringstream in(ReadFile(kRoot / doc));
  std::vector<Citation> spans;
  bool fenced = false;
  bool open = false;
  std::string line;
  for (size_t n = 1; std::getline(in, line); ++n) {
    if (line.find_first_not_of(' ') != std::string::npos &&
        line.compare(line.find_first_not_of(' '), 3, "```") == 0) {
      fenced = !fenced;
      continue;
    }
    if (fenced) continue;
    if (open) spans.back().text += ' ';
    for (const char ch : line) {
      if (ch == '`') {
        open = !open;
        if (open) spans.push_back({doc + ":" + std::to_string(n), ""});
      } else if (open) {
        spans.back().text += ch;
      }
    }
  }
  return spans;
}

bool IsWordChar(char ch) {
  return std::isalnum(static_cast<unsigned char>(ch)) != 0 || ch == '_';
}

bool IsWord(std::string_view text) {
  return !text.empty() && std::all_of(text.begin(), text.end(), IsWordChar);
}

/// A word that starts with a capital letter, as gtest suite and test
/// names here do.
bool IsCapitalizedWord(std::string_view text) {
  return IsWord(text) && std::isupper(static_cast<unsigned char>(text[0])) != 0;
}

bool IsDirectory(const fs::path& path) {
  std::error_code ec;
  return fs::is_directory(path, ec);
}

/// Whether `text` reads as a repo path: path characters only, a slash,
/// and a first component that is a source directory at the root or under
/// src/. Build trees are outputs, and a glob is a pattern (a lint rule's
/// scope), not a citation, so neither is checked.
bool IsRepoPath(const std::string& text) {
  const size_t slash = text.find('/');
  const bool path_chars =
      std::all_of(text.begin(), text.end(), [](char ch) {
        return IsWordChar(ch) ||
               std::string_view(".-/{},").find(ch) != std::string_view::npos;
      });
  if (slash == std::string::npos || slash == 0 || !path_chars) return false;
  const std::string first = text.substr(0, slash);
  if (first.starts_with("build")) return false;
  return IsDirectory(kRoot / first) || IsDirectory(kRoot / "src" / first);
}

/// `a/b.{h,cc}` as a/b.h and a/b.cc; any other text as itself.
std::vector<std::string> ExpandBraces(const std::string& text) {
  const size_t open = text.find('{');
  const size_t close = text.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return {text};
  std::vector<std::string> out;
  std::istringstream options(text.substr(open + 1, close - open - 1));
  for (std::string option; std::getline(options, option, ',');) {
    out.push_back(text.substr(0, open) + option + text.substr(close + 1));
  }
  return out;
}

/// A path resolves at the root or under src/; without an extension it may
/// name a source file's stem (a bench target, a module).
bool ExistsInTree(const std::string& path) {
  for (const fs::path& base : {kRoot, kRoot / "src"}) {
    for (const char* suffix : {"", ".cc", ".h"}) {
      std::error_code ec;
      if (fs::exists(base / (path + suffix), ec)) return true;
    }
  }
  return false;
}

/// `text` without surrounding whitespace.
std::string_view Trimmed(std::string_view text) {
  const size_t first = text.find_first_not_of(" \t\n");
  if (first == std::string_view::npos) return {};
  return text.substr(first, text.find_last_not_of(" \t\n") - first + 1);
}

/// Test names by suite, from every `TEST(Suite, Name)`,
/// `TEST_F(Suite, Name)` and `TEST_P(Suite, Name)` under tests/ and
/// tools/.
std::map<std::string, std::set<std::string>> DefinedTests() {
  std::map<std::string, std::set<std::string>> tests;
  for (const char* dir : {"tests", "tools"}) {
    for (const auto& entry : fs::recursive_directory_iterator(kRoot / dir)) {
      if (entry.path().extension() != ".cc") continue;
      const std::string text = ReadFile(entry.path());
      for (size_t at = text.find("TEST"); at != std::string::npos;
           at = text.find("TEST", at + 1)) {
        const size_t open = text.find('(', at);
        const size_t comma = text.find(',', open);
        const size_t close = text.find(')', comma);
        if (close == std::string::npos ||
            (at > 0 && IsWordChar(text[at - 1]))) {
          continue;
        }
        const std::string_view macro(text.data() + at, open - at);
        if (macro != "TEST" && macro != "TEST_F" && macro != "TEST_P") continue;
        const std::string_view args(text.data() + open + 1, close - open - 1);
        const std::string_view suite =
            Trimmed(args.substr(0, comma - open - 1));
        const std::string_view name = Trimmed(args.substr(comma - open));
        if (IsWord(suite) && IsWord(name)) {
          tests[std::string(suite)].insert(std::string(name));
        }
      }
    }
  }
  return tests;
}

/// `Suite.Test`, `Suite.Prefix*` or `Suite.*` as {suite, name}, and a
/// continuing `.Test` with an empty suite; nothing for any other text.
std::optional<std::pair<std::string, std::string>> AsTestName(
    const std::string& text) {
  const size_t dot = text.find('.');
  if (dot == std::string::npos) return std::nullopt;
  const std::string suite = text.substr(0, dot);
  const std::string name = text.substr(dot + 1);
  if (!suite.empty() && !(suite.size() > 4 && suite.ends_with("Test") &&
                          IsCapitalizedWord(suite))) {
    return std::nullopt;
  }
  std::string_view stem = name;
  if (stem.ends_with('*')) stem.remove_suffix(1);
  if (name != "*" && !IsCapitalizedWord(stem)) return std::nullopt;
  return std::make_pair(suite, name);
}

/// Whether suite `suite` has a test matching `name` (`*` for any, or a
/// trailing `*` for a prefix).
bool HasTest(const std::map<std::string, std::set<std::string>>& tests,
             const std::string& suite, const std::string& name) {
  const auto it = tests.find(suite);
  if (it == tests.end()) return false;
  if (!name.ends_with('*')) return it->second.contains(name);
  const std::string prefix = name.substr(0, name.size() - 1);
  for (const std::string& test : it->second) {
    if (test.starts_with(prefix)) return true;
  }
  return false;
}

TEST(DocReferencesTest, EveryCitedPathExists) {
  size_t checked = 0;
  for (const char* doc : kDocs) {
    for (const Citation& c : CodeSpans(doc)) {
      if (!IsRepoPath(c.text)) continue;
      for (const std::string& path : ExpandBraces(c.text)) {
        ++checked;
        EXPECT_TRUE(ExistsInTree(path))
            << c.where << ": `" << path << "` names no file or directory";
      }
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST(DocReferencesTest, EveryCitedTestExists) {
  const std::map<std::string, std::set<std::string>> tests = DefinedTests();
  ASSERT_FALSE(tests.empty());
  size_t checked = 0;
  for (const char* doc : kDocs) {
    std::string suite;
    for (const Citation& c : CodeSpans(doc)) {
      const auto cited = AsTestName(c.text);
      if (!cited.has_value()) continue;
      if (!cited->first.empty()) suite = cited->first;
      if (suite.empty()) continue;
      ++checked;
      EXPECT_TRUE(HasTest(tests, suite, cited->second))
          << c.where << ": `" << c.text << "` names no test of " << suite;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace costsense
