#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "internal.h"
#include "lint.h"

namespace costsense::lint {

// ---------------------------------------------------------------------------
// Shared plumbing (internal.h): path classification & suppressions
// ---------------------------------------------------------------------------

namespace internal {

std::vector<std::string> SplitPath(std::string_view path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/' || c == '\\') {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

PathClass ClassifyPath(const std::string& path) {
  const std::vector<std::string> parts = SplitPath(path);
  PathClass out;
  size_t root_index = parts.size();
  for (size_t i = 0; i < parts.size(); ++i) {
    if (parts[i] == "src") {
      out.root = PathClass::kSrc;
      root_index = i;
    } else if (parts[i] == "bench") {
      out.root = PathClass::kBench;
      root_index = i;
    } else if (parts[i] == "tests") {
      out.root = PathClass::kTests;
      root_index = i;
    }
  }
  if (root_index == parts.size()) return out;
  for (size_t i = root_index + 1; i < parts.size(); ++i) {
    if (!out.rel.empty()) out.rel.push_back('/');
    out.rel += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

namespace {
constexpr std::string_view kDirective = "costsense-lint:";
}  // namespace

Suppressions CollectSuppressions(const std::string& file,
                                 const std::vector<Comment>& comments) {
  Suppressions out;
  for (const Comment& comment : comments) {
    const size_t at = comment.text.find(kDirective);
    if (at == std::string::npos) continue;
    std::string_view rest =
        Trim(std::string_view(comment.text).substr(at + kDirective.size()));

    auto bad = [&](const std::string& why) {
      out.bad.push_back(
          {file, comment.line, comment.col, Rule::kBadSuppression, why, ""});
    };

    if (!StartsWith(rest, "allow")) {
      bad("unknown costsense-lint directive; expected "
          "allow(<rule>, <justification>)");
      continue;
    }
    rest = Trim(rest.substr(5));
    if (rest.empty() || rest.front() != '(' || rest.back() != ')') {
      bad("malformed allow(); expected allow(<rule>, <justification>)");
      continue;
    }
    rest = rest.substr(1, rest.size() - 2);

    const size_t comma = rest.find(',');
    if (comma == std::string_view::npos) {
      bad("suppression requires a justification: allow(<rule>, <why>); "
          "a bare allow(<rule>) is not accepted");
      continue;
    }
    Rule rule;
    if (!ParseRuleName(Trim(rest.substr(0, comma)), &rule)) {
      bad("unknown rule '" + std::string(Trim(rest.substr(0, comma))) +
          "' in allow(); use R1..R8 or nondeterminism/unordered/raw-output/"
          "nodiscard/getenv/intrinsics/layering/locks");
      continue;
    }
    std::string_view justification = Trim(rest.substr(comma + 1));
    // Strip optional surrounding quotes, then demand real content.
    if (justification.size() >= 2 && justification.front() == '"' &&
        justification.back() == '"') {
      justification = Trim(justification.substr(1, justification.size() - 2));
    }
    if (justification.empty()) {
      bad("suppression justification is empty; explain why the rule does "
          "not apply here");
      continue;
    }
    out.by_line[comment.line].insert(rule);
    if (!comment.trailing) out.by_line[comment.line + 1].insert(rule);
  }
  return out;
}

bool IsSuppressed(const Suppressions& sup, Rule rule, int line) {
  auto it = sup.by_line.find(line);
  return it != sup.by_line.end() && it->second.count(rule) > 0;
}

}  // namespace internal

namespace {

using internal::IsSuppressed;
using internal::PathClass;
using internal::StartsWith;
using internal::Suppressions;

bool IsHeaderPath(std::string_view path) {
  return internal::EndsWith(path, ".h") || internal::EndsWith(path, ".hpp");
}

// ---------------------------------------------------------------------------
// Token-set rules (R1, R2, R3)
// ---------------------------------------------------------------------------

const std::set<std::string>& RandomTokens() {
  static const std::set<std::string> kSet = {
      "rand",          "srand",         "rand_r",
      "random_device", "mt19937",       "mt19937_64",
      "minstd_rand",   "minstd_rand0",  "default_random_engine",
      "ranlux24",      "ranlux48",      "knuth_b",
  };
  return kSet;
}

const std::set<std::string>& TimeTokens() {
  static const std::set<std::string> kSet = {
      "time",          "system_clock", "steady_clock",
      "high_resolution_clock",         "gettimeofday",
      "clock_gettime", "timespec_get", "localtime",
      "gmtime",        "mktime",
  };
  return kSet;
}

const std::set<std::string>& UnorderedTokens() {
  static const std::set<std::string> kSet = {
      "unordered_map",
      "unordered_set",
      "unordered_multimap",
      "unordered_multiset",
  };
  return kSet;
}

const std::set<std::string>& RawOutputTokens() {
  static const std::set<std::string> kSet = {
      "cout", "printf", "puts", "putchar", "vprintf",
  };
  return kSet;
}

// `setenv` is deliberately absent: tests install environments for child
// configs, and writing the environment does not bypass the typed config.
const std::set<std::string>& GetenvTokens() {
  static const std::set<std::string> kSet = {
      "getenv",
      "secure_getenv",
  };
  return kSet;
}

/// R6: raw SIMD surface. Prefix matching catches the whole intrinsic
/// families (`_mm_*`, `_mm256_*`, `_mm512_*`, the `__m128/__m256/__m512`
/// vector types) plus the per-ISA intrinsic headers; `#include
/// <immintrin.h>` lexes its header name as an identifier token, so the
/// include line is flagged too.
bool IsIntrinsicToken(const std::string& text) {
  if (StartsWith(text, "_mm")) return true;
  if (StartsWith(text, "__m128") || StartsWith(text, "__m256") ||
      StartsWith(text, "__m512")) {
    return true;
  }
  static const std::set<std::string> kHeaders = {
      "immintrin", "emmintrin", "xmmintrin", "pmmintrin", "smmintrin",
      "tmmintrin", "nmmintrin", "wmmintrin", "avxintrin",  "avx2intrin",
      "x86intrin", "arm_neon",
  };
  return kHeaders.count(text) > 0;
}

// ---------------------------------------------------------------------------
// R4: [[nodiscard]] on Status / Result<T> declarations
// ---------------------------------------------------------------------------

const std::set<std::string>& DeclSpecifiers() {
  static const std::set<std::string> kSet = {
      "static",   "virtual", "inline", "constexpr",
      "explicit", "extern",  "friend", "typename",
  };
  return kSet;
}

/// Scans backwards from `pos` (the index of the return-type token) to
/// decide whether this is a declaration context, and whether a
/// `[[nodiscard]]` attribute already covers it. Declaration context means
/// the return type is preceded only by decl-specifiers / attributes /
/// namespace qualification until a `;`, brace, label colon, template-header
/// `>`, or file start.
struct DeclContext {
  bool is_declaration = false;
  bool has_nodiscard = false;
};

DeclContext ScanDeclContext(const std::vector<Token>& toks, size_t pos) {
  DeclContext out;
  size_t k = pos;
  while (true) {
    if (k == 0) {
      out.is_declaration = true;
      return out;
    }
    const Token& t = toks[k - 1];
    if (t.kind == Token::Kind::kIdentifier && DeclSpecifiers().count(t.text)) {
      --k;
      continue;
    }
    // `costsense::Status` — hop over the qualifying identifier.
    if (t.text == "::" && k >= 2 &&
        toks[k - 2].kind == Token::Kind::kIdentifier) {
      k -= 2;
      continue;
    }
    // Attribute block `[[ ... ]]` ends right before the type.
    if (t.text == "]" && k >= 2 && toks[k - 2].text == "]") {
      size_t open = k - 2;
      while (open >= 2 &&
             !(toks[open - 1].text == "[" && toks[open - 2].text == "[")) {
        if (toks[open - 1].text == "nodiscard") out.has_nodiscard = true;
        --open;
      }
      if (open < 2) return out;  // unbalanced; play it safe
      k = open - 2;
      continue;
    }
    if (t.text == ";" || t.text == "{" || t.text == "}" || t.text == ":" ||
        t.text == ">") {
      out.is_declaration = true;
      return out;
    }
    return out;  // `return`, `<`, `,`, `(`, `=`, identifier, ... — a use
  }
}

void CheckNodiscard(const std::string& file, const std::vector<Token>& toks,
                    const Suppressions& sup, std::vector<Finding>* findings) {
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Token::Kind::kIdentifier) continue;
    const bool is_status = t.text == "Status";
    const bool is_result = t.text == "Result";
    if (!is_status && !is_result) continue;

    // Find the declared name: for Result, first skip the balanced <...>
    // template argument list (`>>` lexes as two tokens, so depth counting
    // handles nested Result<std::vector<T>> correctly).
    size_t j = i + 1;
    if (is_result) {
      if (j >= toks.size() || toks[j].text != "<") continue;
      int depth = 1;
      ++j;
      while (j < toks.size() && depth > 0) {
        if (toks[j].text == "<") ++depth;
        if (toks[j].text == ">") --depth;
        ++j;
      }
      if (depth != 0) continue;
    }
    // Return-by-value only: `Status&`/`Status*` returns are not the
    // droppable-result hazard this rule is about.
    if (j >= toks.size() || toks[j].kind != Token::Kind::kIdentifier) continue;
    if (j + 1 >= toks.size() || toks[j + 1].text != "(") continue;

    const DeclContext ctx = ScanDeclContext(toks, i);
    if (!ctx.is_declaration || ctx.has_nodiscard) continue;
    if (IsSuppressed(sup, Rule::kNodiscard, t.line)) continue;
    findings->push_back(
        {file, t.line, t.col, Rule::kNodiscard,
         "declaration of '" + toks[j].text + "' returns " +
             (is_status ? "Status" : "Result<T>") +
             " but is not marked [[nodiscard]] (R4); a silently dropped "
             "status hides failures",
         ""});
  }
}

// ---------------------------------------------------------------------------
// Fingerprints & rendering helpers
// ---------------------------------------------------------------------------

uint64_t Fnv1a(std::string_view data, uint64_t h) {
  for (char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::string HexDigest(uint64_t h) {
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[h & 0xF];
    h >>= 4;
  }
  return out;
}

void SortFindings(std::vector<Finding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.col != b.col) return a.col < b.col;
              if (a.rule != b.rule) {
                return static_cast<int>(a.rule) < static_cast<int>(b.rule);
              }
              return a.message < b.message;
            });
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace

const char* RuleId(Rule rule) {
  switch (rule) {
    case Rule::kNondeterminism:
      return "R1";
    case Rule::kUnorderedContainer:
      return "R2";
    case Rule::kRawOutput:
      return "R3";
    case Rule::kNodiscard:
      return "R4";
    case Rule::kGetenv:
      return "R5";
    case Rule::kRawIntrinsics:
      return "R6";
    case Rule::kLayering:
      return "R7";
    case Rule::kLockDiscipline:
      return "R8";
    case Rule::kBadSuppression:
      return "SUP";
  }
  return "??";
}

bool ParseRuleName(std::string_view name, Rule* out) {
  if (name == "R1" || name == "r1" || name == "nondeterminism") {
    *out = Rule::kNondeterminism;
  } else if (name == "R2" || name == "r2" || name == "unordered") {
    *out = Rule::kUnorderedContainer;
  } else if (name == "R3" || name == "r3" || name == "raw-output") {
    *out = Rule::kRawOutput;
  } else if (name == "R4" || name == "r4" || name == "nodiscard") {
    *out = Rule::kNodiscard;
  } else if (name == "R5" || name == "r5" || name == "getenv") {
    *out = Rule::kGetenv;
  } else if (name == "R6" || name == "r6" || name == "intrinsics") {
    *out = Rule::kRawIntrinsics;
  } else if (name == "R7" || name == "r7" || name == "layering" ||
             name == "include-graph") {
    *out = Rule::kLayering;
  } else if (name == "R8" || name == "r8" || name == "locks" ||
             name == "lock-discipline") {
    *out = Rule::kLockDiscipline;
  } else {
    return false;
  }
  return true;
}

std::vector<Finding> AnalyzeSource(const std::string& virtual_path,
                                   std::string_view content) {
  const PathClass pc = internal::ClassifyPath(virtual_path);
  const LexedFile lexed = Lex(content);
  Suppressions sup =
      internal::CollectSuppressions(virtual_path, lexed.comments);

  std::vector<Finding> findings = std::move(sup.bad);

  const bool rng_sanctioned =
      pc.root == PathClass::kSrc && StartsWith(pc.rel, "common/rng.");
  const bool clock_sanctioned =
      pc.root == PathClass::kSrc &&
      StartsWith(pc.rel, "runtime/resilience/clock.");
  const bool unordered_strict =
      pc.root == PathClass::kSrc &&
      (StartsWith(pc.rel, "core/") || StartsWith(pc.rel, "exp/"));
  const bool raw_output_banned =
      pc.root == PathClass::kSrc && !StartsWith(pc.rel, "exp/");
  // The server tree is long-lived multi-tenant code whose only sanctioned
  // byte streams are the wire protocol and the artifact sinks; a stray
  // stdout write there is invisible to every remote client and breaks the
  // response-bytes-are-the-interface contract, so R3 is absolute.
  const bool raw_output_strict =
      pc.root == PathClass::kSrc && StartsWith(pc.rel, "serve/");
  const bool getenv_sanctioned =
      pc.root == PathClass::kSrc && StartsWith(pc.rel, "engine/config.");
  // Per-ISA code is quarantined: only src/linalg/simd* may spell raw
  // intrinsics, so any vector kernel lives behind one linalg API.
  const bool intrinsics_sanctioned =
      pc.root == PathClass::kSrc && StartsWith(pc.rel, "linalg/simd");

  for (const Token& t : lexed.tokens) {
    if (t.kind != Token::Kind::kIdentifier) continue;

    if (!rng_sanctioned && RandomTokens().count(t.text)) {
      if (!IsSuppressed(sup, Rule::kNondeterminism, t.line)) {
        findings.push_back(
            {virtual_path, t.line, t.col, Rule::kNondeterminism,
             "'" + t.text +
                 "' is a banned randomness source outside src/common/rng.* "
                 "(R1); route randomness through costsense::Rng so runs are "
                 "replayable",
             ""});
      }
    }
    if (!clock_sanctioned && TimeTokens().count(t.text)) {
      if (!IsSuppressed(sup, Rule::kNondeterminism, t.line)) {
        findings.push_back(
            {virtual_path, t.line, t.col, Rule::kNondeterminism,
             "'" + t.text +
                 "' is a banned wall-clock read outside "
                 "src/runtime/resilience/clock.* (R1); route time through "
                 "resilience::Clock so deadlines are injectable",
             ""});
      }
    }
    if (UnorderedTokens().count(t.text)) {
      if (unordered_strict) {
        // Determinism-critical trees: the rule is absolute, a suppression
        // comment does not silence it.
        findings.push_back(
            {virtual_path, t.line, t.col, Rule::kUnorderedContainer,
             "'" + t.text +
                 "' is forbidden in src/core and src/exp (R2): these trees "
                 "feed figure/table output, where unspecified iteration "
                 "order breaks byte-identical stdout; suppressions are not "
                 "honored here — use an ordered container",
             ""});
      } else if (!IsSuppressed(sup, Rule::kUnorderedContainer, t.line)) {
        findings.push_back(
            {virtual_path, t.line, t.col, Rule::kUnorderedContainer,
             "'" + t.text +
                 "' has unspecified iteration order (R2); use an ordered "
                 "container, or suppress with a justification proving the "
                 "order never reaches logs, stats or output",
             ""});
      }
    }
    if (raw_output_banned && RawOutputTokens().count(t.text)) {
      if (raw_output_strict) {
        findings.push_back(
            {virtual_path, t.line, t.col, Rule::kRawOutput,
             "'" + t.text +
                 "' is forbidden in src/serve (R3): server code speaks only "
                 "through the wire protocol and artifact sinks, and a stray "
                 "stdout write is invisible to remote clients; suppressions "
                 "are not honored here",
             ""});
      } else if (!IsSuppressed(sup, Rule::kRawOutput, t.line)) {
        findings.push_back(
            {virtual_path, t.line, t.col, Rule::kRawOutput,
             "'" + t.text +
                 "' is raw output in library code (R3); rendering belongs "
                 "to src/exp, bench/ and the CHECK macros (fprintf(stderr) "
                 "diagnostics are fine)",
             ""});
      }
    }
    if (!intrinsics_sanctioned && IsIntrinsicToken(t.text)) {
      if (!IsSuppressed(sup, Rule::kRawIntrinsics, t.line)) {
        findings.push_back(
            {virtual_path, t.line, t.col, Rule::kRawIntrinsics,
             "'" + t.text +
                 "' is a raw SIMD intrinsic outside src/linalg/simd* (R6); "
                 "put per-ISA code behind a linalg kernel under "
                 "src/linalg/simd* so portability and the "
                 "bit-compatibility contracts stay centralized",
             ""});
      }
    }
    if (!getenv_sanctioned && GetenvTokens().count(t.text)) {
      if (!IsSuppressed(sup, Rule::kGetenv, t.line)) {
        findings.push_back(
            {virtual_path, t.line, t.col, Rule::kGetenv,
             "'" + t.text +
                 "' reads the environment outside src/engine/config.* (R5); "
                 "every COSTSENSE_* knob flows through "
                 "engine::EngineConfig::FromEnv so a run is reproducible "
                 "from one typed config",
             ""});
      }
    }
  }

  if (IsHeaderPath(virtual_path)) {
    CheckNodiscard(virtual_path, lexed.tokens, sup, &findings);
  }
  return findings;
}

std::vector<Finding> AnalyzeRepo(const std::vector<SourceFile>& files,
                                 const LayerManifest* manifest) {
  std::vector<Finding> findings;
  for (const SourceFile& file : files) {
    std::vector<Finding> per_file = AnalyzeSource(file.path, file.content);
    findings.insert(findings.end(), per_file.begin(), per_file.end());
  }
  if (manifest != nullptr) {
    std::vector<Finding> layering = CheckIncludeGraph(files, *manifest);
    findings.insert(findings.end(), layering.begin(), layering.end());
  }
  std::vector<Finding> locks = CheckLockDiscipline(files);
  findings.insert(findings.end(), locks.begin(), locks.end());
  return findings;
}

void AssignFingerprints(std::vector<Finding>* findings) {
  SortFindings(findings);
  // Ordinal per (file, rule, message) key: line/col stay out of the hash so
  // the identity survives unrelated edits, while N identical findings in
  // one file keep N distinct stable fingerprints.
  std::map<std::string, int> ordinals;
  for (Finding& f : *findings) {
    std::string key = f.file;
    key.push_back('\0');
    key += RuleId(f.rule);
    key.push_back('\0');
    key += f.message;
    const int ordinal = ordinals[key]++;
    uint64_t h = Fnv1a(key, 1469598103934665603ULL);
    h = Fnv1a(std::to_string(ordinal), h);
    f.fingerprint = HexDigest(h);
  }
}

std::string FormatFindings(std::vector<Finding> findings) {
  SortFindings(&findings);
  std::ostringstream os;
  for (const Finding& f : findings) {
    os << f.file << ":" << f.line << ":" << f.col << ": [" << RuleId(f.rule)
       << "] " << f.message << "\n";
  }
  return os.str();
}

std::string FormatFindingsJson(std::vector<Finding> findings) {
  AssignFingerprints(&findings);
  std::ostringstream os;
  os << "{\"version\": 1, \"count\": " << findings.size()
     << ", \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "  {\"file\": \"" << JsonEscape(f.file) << "\", \"line\": " << f.line
       << ", \"col\": " << f.col << ", \"rule\": \"" << RuleId(f.rule)
       << "\", \"fingerprint\": \"" << f.fingerprint << "\", \"message\": \""
       << JsonEscape(f.message) << "\"}";
  }
  os << (findings.empty() ? "]}\n" : "\n]}\n");
  return os.str();
}

}  // namespace costsense::lint
