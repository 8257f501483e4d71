#ifndef COSTSENSE_TOOLS_LINT_LINT_H_
#define COSTSENSE_TOOLS_LINT_LINT_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

/// costsense-lint — an in-repo determinism & status-discipline analyzer.
///
/// The byte-identical-stdout invariants proven by the runtime, kernel and
/// resilience suites only hold if library code follows a handful of coding
/// rules (no ambient randomness or wall-clock reads, no unordered-container
/// iteration feeding output, no silently dropped Status). This tool turns
/// those rules from reviewer folklore into a machine-checked property:
///
///   R1  nondeterminism sources (`rand`, `std::random_device`, `mt19937`,
///       `system_clock`, `steady_clock`, `time`, ...) are banned outside
///       `src/common/rng.*` (randomness) and
///       `src/runtime/resilience/clock.*` (clock reads).
///   R2  `std::unordered_map`/`unordered_set` are forbidden in `src/core`
///       and `src/exp` (suppressions are NOT honored there) and flagged
///       everywhere else unless suppressed with a justification.
///   R3  `std::cout`/`printf`-family raw output is banned in library code
///       (`src/**` except `src/exp`); render paths live in `src/exp`,
///       `bench/`, tests and the CHECK macros (which use fprintf(stderr)).
///       In `src/serve` the ban is absolute (suppressions are NOT
///       honored): server code speaks only through the wire protocol and
///       the artifact sinks.
///   R4  every `Status`/`Result<T>`-returning declaration in a header must
///       carry `[[nodiscard]]`.
///   R5  `getenv`/`secure_getenv` are banned outside `src/engine/config.*`:
///       `engine::EngineConfig::FromEnv` is the single place the process
///       environment is read, so every knob is typed, validated and visible
///       in one config struct.
///   R6  raw SIMD intrinsics (`_mm*`, `__m128/__m256/__m512`, the
///       `*intrin.h` headers) are banned outside `src/linalg/simd*`, the
///       one place per-ISA code may live, so every other file stays
///       portable and any vector kernel's bit-compatibility contract is
///       auditable in one place.
///   R7  the `#include` graph over `src/` must respect the layer manifest
///       (`tools/lint/layers.toml`): a module may only include modules its
///       manifest entry names, undeclared modules and includes of
///       bench/tests/tools from library code are findings, and file-level
///       include cycles are always findings (no suppression, no manifest
///       exception — a cycle is a defect, not a policy choice).
///   R8  lock discipline, computed on a whole-program model: per-function
///       mutex acquisition sequences (std::mutex / std::shared_mutex
///       members; lock_guard / unique_lock / shared_lock / scoped_lock
///       sites) feed a global lock-order graph. Inconsistent acquisition
///       orders (cycles — potential deadlocks) and locks held across
///       oracle calls (Optimize/TryOptimize/Recall) or transport calls
///       (SendBurst/SendFrame/RecvFrame/Close) are findings.
///
/// Per-line suppressions:
///
///   code();  // costsense-lint: allow(R2, "point lookups only, never iterated")
///
/// A trailing suppression covers its own line; a comment alone on a line
/// covers itself and the next line. The justification string is mandatory:
/// a bare `allow(R2)` is itself a finding (SUP).
namespace costsense::lint {

// ---------------------------------------------------------------------------
// Lexer (comment/string-aware; shared by the rule engine and its tests)
// ---------------------------------------------------------------------------

struct Token {
  enum class Kind { kIdentifier, kNumber, kPunct };
  Kind kind;
  std::string text;
  int line;  // 1-based
  int col;   // 1-based column of the token's first character
};

struct Comment {
  int line;       // 1-based line the comment starts on
  int col;        // 1-based column of the leading `//` or `/*`
  bool trailing;  // true when code precedes the comment on its line
  std::string text;
};

/// One `#include` directive, captured verbatim for the include-graph pass.
/// Quoted includes carry `angled == false`; system headers `angled == true`.
struct IncludeDirective {
  std::string path;  // the text between the quotes / angle brackets
  int line;          // 1-based
  int col;           // 1-based column of the `#`
  bool angled;
};

struct LexedFile {
  std::vector<Token> tokens;      // comments/strings/chars stripped
  std::vector<Comment> comments;  // kept separately for suppression parsing
  std::vector<IncludeDirective> includes;
};

/// Tokenizes C++ source. String literals (including raw strings), character
/// literals and comments never produce tokens, so a banned name inside a
/// string or comment is not a finding. Include directives are captured on
/// the side (their quoted paths would otherwise vanish with the strings).
LexedFile Lex(std::string_view source);

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

enum class Rule {
  kNondeterminism,      // R1
  kUnorderedContainer,  // R2
  kRawOutput,           // R3
  kNodiscard,           // R4
  kGetenv,              // R5
  kRawIntrinsics,       // R6
  kLayering,            // R7: include-graph vs. layers.toml
  kLockDiscipline,      // R8: lock-order graph & locks held across calls
  kBadSuppression,      // SUP: malformed / justification-free allow()
};

/// "R1".."R8" or "SUP".
const char* RuleId(Rule rule);

/// Parses "R1".."R8" or the semantic names ("nondeterminism", "unordered",
/// "raw-output", "nodiscard", "getenv", "intrinsics", "layering", "locks");
/// returns false for anything else.
bool ParseRuleName(std::string_view name, Rule* out);

struct Finding {
  std::string file;
  int line;
  int col;  // 1-based; 1 when the finding anchors to a whole line
  Rule rule;
  std::string message;
  /// Stable identity for CI baselining: FNV-1a over (file, rule, message,
  /// per-file ordinal) — deliberately excludes line/col so findings survive
  /// unrelated edits. Empty until AssignFingerprints() runs.
  std::string fingerprint;

  bool operator==(const Finding& other) const = default;
};

/// Analyzes one file with the per-file rules (R1–R6, SUP). `virtual_path`
/// decides rule scoping (the path component layout `src/...`, `bench/...`,
/// `tests/...` is what matters, so tests can hand in synthetic paths for
/// fixture content).
std::vector<Finding> AnalyzeSource(const std::string& virtual_path,
                                   std::string_view content);

// ---------------------------------------------------------------------------
// Whole-program passes (R7, R8)
// ---------------------------------------------------------------------------

/// One file of the repository model handed to the whole-program passes.
struct SourceFile {
  std::string path;  // virtual path; same scoping semantics as AnalyzeSource
  std::string content;
};

/// A manifest-sanctioned back-edge: `from` (module, or module-relative file
/// like "runtime/oracle_cache.h") may include `to` (module or file) despite
/// the layer order. `why` is mandatory — an exception is a documented,
/// load-bearing inversion, not an escape hatch.
struct LayerException {
  std::string from;
  std::string to;
  std::string why;
};

/// Parsed layers.toml: modules in bottom→top declaration order, the
/// allowed-include set per module, and the documented exceptions.
struct LayerManifest {
  std::vector<std::string> order;
  std::map<std::string, std::set<std::string>> allowed;
  std::vector<LayerException> exceptions;
};

/// Parses the layers.toml subset (a `[layers]` table of `module = [list]`
/// entries plus `[[exception]]` tables with from/to/why string keys) and
/// validates it: every referenced module must be declared, the allowed
/// graph must itself be acyclic, and exceptions must be complete. Returns
/// false with a diagnostic in `*error` on any violation.
bool ParseLayerManifest(std::string_view text, LayerManifest* out,
                        std::string* error);

/// R7: checks every `#include` in `src/`-classified files against the
/// manifest, and rejects file-level include cycles.
std::vector<Finding> CheckIncludeGraph(const std::vector<SourceFile>& files,
                                       const LayerManifest& manifest);

/// R8: builds the whole-program lock model over `src/`-classified files and
/// flags lock-order cycles and locks held across oracle/transport calls.
std::vector<Finding> CheckLockDiscipline(const std::vector<SourceFile>& files);

/// Runs the per-file rules over every file, then the whole-program passes
/// (R7 only when a manifest is supplied). This is what the CLI executes.
std::vector<Finding> AnalyzeRepo(const std::vector<SourceFile>& files,
                                 const LayerManifest* manifest);

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Sorts findings by (file, line, col, rule, message) and fills in each
/// finding's stable fingerprint (see Finding::fingerprint).
void AssignFingerprints(std::vector<Finding>* findings);

/// Stable text rendering: one `path:line:col: [Rx] message` line per
/// finding, sorted by (path, line, col, rule, message).
std::string FormatFindings(std::vector<Finding> findings);

/// Machine-readable rendering (schema documented in DESIGN.md §5d):
///   {"version": 1, "count": N, "findings": [
///     {"file": ..., "line": N, "col": N, "rule": "Rx",
///      "fingerprint": "...", "message": ...}, ...]}
/// Findings are sorted as in FormatFindings; fingerprints are assigned.
std::string FormatFindingsJson(std::vector<Finding> findings);

}  // namespace costsense::lint

#endif  // COSTSENSE_TOOLS_LINT_LINT_H_
