#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "internal.h"
#include "lint.h"

/// R8: lock discipline over a whole-program model.
///
/// Extraction (per src file, token-level — no AST): classes with their
/// mutex members (any member whose declared type mentions `mutex` /
/// `shared_mutex`), member/local/param types, base classes, and method
/// return types; functions with their ordered event streams — guard
/// acquisitions (lock_guard / unique_lock / shared_lock / scoped_lock,
/// scope-tracked so a guard releases when its block closes or `.unlock()`
/// runs; a multi-argument scoped_lock is one atomic acquisition and
/// produces no intra-group edges) and call sites with the receiver chain
/// and the set of locks held at that point.
///
/// Analysis (global): receiver chains resolve through the type model
/// (locals, params, members, method return types, make_unique/make_shared
/// template arguments, virtual dispatch through base/derived unions); a
/// fixpoint closes each function's acquired-lock set and its
/// reaches-oracle/transport bit over the call graph. Lock identities
/// normalize to `Class::member` when the expression types out (so
/// `other.mu_` in a move constructor and a bare `mu_` unify), falling back
/// to an enclosing-class-scoped expression id that can split nodes but
/// never wrongly merges them.
///
/// Findings: (a) lock-order cycles — reported once per strongly connected
/// component of the global acquired-before graph, suppressed only when an
/// allow(R8, ...) sits on one of the cycle's acquisition/call sites; (b) a
/// lock held across a call that is or reaches an oracle call
/// (Optimize/TryOptimize) or a transport call (SendBurst/SendFrame/
/// RecvFrame, or Close on a FrameTransport-derived receiver); (c) re-acquiring an
/// expression already held (guaranteed self-deadlock on std::mutex).
/// Unresolvable chains contribute nothing — the pass is deliberately
/// under-approximate rather than noisy.
namespace costsense::lint {
namespace {

using internal::ClassifyPath;
using internal::IsSuppressed;
using internal::PathClass;
using internal::Suppressions;

constexpr size_t kNpos = static_cast<size_t>(-1);

bool IsIdent(const Token& t) { return t.kind == Token::Kind::kIdentifier; }

const std::set<std::string>& GuardTypes() {
  static const std::set<std::string> kSet = {
      "lock_guard",
      "unique_lock",
      "shared_lock",
      "scoped_lock",
  };
  return kSet;
}

const std::set<std::string>& LockTagArgs() {
  static const std::set<std::string> kSet = {
      "defer_lock",
      "try_to_lock",
      "adopt_lock",
  };
  return kSet;
}

/// Identifiers that can precede `(` without being a call worth recording.
const std::set<std::string>& NonCalleeKeywords() {
  static const std::set<std::string> kSet = {
      "if",     "for",    "while",   "switch",  "return", "sizeof",
      "catch",  "assert", "alignas", "alignof", "decltype",
  };
  return kSet;
}

/// Statement-leading keywords that can never start a local declaration.
const std::set<std::string>& StmtAbortKeywords() {
  static const std::set<std::string> kSet = {
      "return", "if",   "for",  "while", "switch", "do",    "else",
      "case",   "goto", "new",  "delete", "throw",  "break", "continue",
  };
  return kSet;
}

const std::set<std::string>& TypeSpecifierNoise() {
  static const std::set<std::string> kSet = {
      "const",  "static", "constexpr", "mutable",
      "volatile", "typename", "struct", "inline",
  };
  return kSet;
}

struct RawEvent {
  bool is_acquire = false;
  int line = 0;
  int col = 0;
  // Acquire: normalized lock expressions ("mu_", "other.mu_", "s.mu").
  std::vector<std::string> lock_exprs;
  bool atomic_group = false;
  // Call: callee name ("#ctor:T" marks make_unique/make_shared<T>),
  // receiver chain elements ("x" field, "x()" method), optional static
  // qualifier class (`Cls::f(...)`).
  std::string callee;
  std::string static_cls;
  std::vector<std::string> chain;
  bool chain_ok = true;
  std::string display;
  // Both kinds: lock expressions held just before the event.
  std::vector<std::string> held_exprs;
};

struct RawFunction {
  std::string file;
  std::string cls;  // simple enclosing class name; "" for free functions
  std::string name;
  std::map<std::string, std::vector<std::string>> locals;  // var -> type ids
  std::map<std::string, std::string> range_locals;  // auto var -> range expr
  std::vector<RawEvent> events;
};

struct RawClass {
  std::string name;
  std::vector<std::string> bases;
  std::map<std::string, std::vector<std::string>> member_types;
  std::map<std::string, std::vector<std::string>> method_returns;
  std::set<std::string> mutex_members;
};

// ---------------------------------------------------------------------------
// Per-file extraction
// ---------------------------------------------------------------------------

class FileExtractor {
 public:
  FileExtractor(std::string file, const LexedFile& lexed,
                std::map<std::string, RawClass>* classes,
                std::vector<RawFunction>* functions)
      : file_(std::move(file)),
        toks_(lexed.tokens),
        classes_(classes),
        functions_(functions) {}

  void Run() { ParseNamespaceBody(0, toks_.size()); }

 private:
  /// toks_[i] is `open`; returns the index just past the matching `close`.
  size_t SkipBalanced(size_t i, const char* open, const char* close) const {
    int depth = 0;
    const size_t n = toks_.size();
    for (size_t j = i; j < n; ++j) {
      if (toks_[j].text == open) ++depth;
      if (toks_[j].text == close) {
        --depth;
        if (depth == 0) return j + 1;
      }
    }
    return n;
  }

  /// toks_[i] == "<". Returns the index past the matching ">", or kNpos if
  /// this is a comparison rather than a template argument list.
  size_t SkipTemplateArgs(size_t i) const {
    int depth = 0;
    const size_t n = toks_.size();
    for (size_t j = i; j < n; ++j) {
      const std::string& t = toks_[j].text;
      if (t == "<") ++depth;
      if (t == ">") {
        --depth;
        if (depth == 0) return j + 1;
      }
      if (t == ";" || t == "{" || t == "}") return kNpos;
    }
    return kNpos;
  }

  size_t SkipEnum(size_t i, size_t e) const {
    size_t j = i + 1;
    while (j < e && toks_[j].text != "{" && toks_[j].text != ";") ++j;
    if (j < e && toks_[j].text == "{") j = SkipBalanced(j, "{", "}");
    while (j < e && toks_[j].text != ";") ++j;
    return j < e ? j + 1 : e;
  }

  void ParseNamespaceBody(size_t b, size_t e) {
    size_t i = b;
    while (i < e) {
      const std::string& s = toks_[i].text;
      if (s == "#") {
        // Preprocessor directive: consume the rest of its line so
        // `#include <x>` / `#define ...` never read as declarations.
        const int ln = toks_[i].line;
        ++i;
        while (i < e && toks_[i].line == ln) ++i;
        continue;
      }
      if (s == "namespace") {
        size_t j = i + 1;
        while (j < e && toks_[j].text != "{" && toks_[j].text != ";") ++j;
        if (j < e && toks_[j].text == "{") {
          const size_t after = SkipBalanced(j, "{", "}");
          ParseNamespaceBody(j + 1, after > 0 ? after - 1 : e);
          i = after;
        } else {
          i = j + 1;
        }
        continue;
      }
      if (s == "enum") {
        i = SkipEnum(i, e);
        continue;
      }
      if (s == "class" || s == "struct") {
        i = ParseClassOrSkip(i, e);
        continue;
      }
      if (s == "template") {
        const size_t j = (i + 1 < e && toks_[i + 1].text == "<")
                             ? SkipTemplateArgs(i + 1)
                             : i + 1;
        i = (j == kNpos) ? i + 1 : j;
        continue;
      }
      if (s == "using" || s == "typedef" || s == "static_assert") {
        while (i < e && toks_[i].text != ";") ++i;
        ++i;
        continue;
      }
      if (IsIdent(toks_[i])) {
        size_t next_i = kNpos;
        if (TryParseFunctionFrom(i, e, "", &next_i)) {
          i = next_i;
          continue;
        }
        // Not a function: skip this declaration to keep the scan moving,
        // but never swallow a following type/namespace definition or a
        // preprocessor directive.
        while (i < e && toks_[i].text != ";" && toks_[i].text != "{" &&
               toks_[i].text != "#" && toks_[i].text != "class" &&
               toks_[i].text != "struct" && toks_[i].text != "namespace" &&
               toks_[i].text != "enum") {
          ++i;
        }
        if (i >= e) continue;
        if (toks_[i].text == "{") {
          i = SkipBalanced(i, "{", "}");
        } else if (toks_[i].text == ";") {
          ++i;
        }
        continue;
      }
      ++i;
    }
  }

  size_t ParseClassOrSkip(size_t i, size_t e) {
    size_t j = i + 1;
    std::string name;
    while (j < e) {
      const std::string& t = toks_[j].text;
      if (t == "{" || t == ";" || t == ":") break;
      if (t == "alignas" && j + 1 < e && toks_[j + 1].text == "(") {
        j = SkipBalanced(j + 1, "(", ")");
        continue;
      }
      if (t == "<") {
        const size_t k = SkipTemplateArgs(j);
        j = (k == kNpos) ? j + 1 : k;
        continue;
      }
      if (IsIdent(toks_[j])) name = toks_[j].text;
      ++j;
    }
    if (j >= e) return e;
    if (toks_[j].text == ";") return j + 1;  // forward declaration
    RawClass* cls = nullptr;
    if (!name.empty()) {
      cls = &(*classes_)[name];
      cls->name = name;
    }
    if (toks_[j].text == ":") {
      ++j;
      while (j < e && toks_[j].text != "{" && toks_[j].text != ";") {
        if (IsIdent(toks_[j]) && toks_[j].text != "public" &&
            toks_[j].text != "private" && toks_[j].text != "protected" &&
            toks_[j].text != "virtual") {
          std::string base = toks_[j].text;
          while (j + 2 < e && toks_[j + 1].text == "::" &&
                 IsIdent(toks_[j + 2])) {
            j += 2;
            base = toks_[j].text;
          }
          if (j + 1 < e && toks_[j + 1].text == "<") {
            const size_t k = SkipTemplateArgs(j + 1);
            if (k != kNpos) j = k - 1;
          }
          if (cls != nullptr) cls->bases.push_back(base);
        }
        ++j;
      }
      if (j >= e || toks_[j].text == ";") return j + 1;
    }
    const size_t after = SkipBalanced(j, "{", "}");
    if (!name.empty()) ParseClassBody(name, j + 1, after > 0 ? after - 1 : e);
    size_t k = after;
    while (k < e && toks_[k].text != ";") ++k;
    return k < e ? k + 1 : e;
  }

  void ParseClassBody(const std::string& cls_name, size_t b, size_t e) {
    RawClass& cls = (*classes_)[cls_name];
    cls.name = cls_name;
    size_t i = b;
    while (i < e) {
      const std::string& s = toks_[i].text;
      if (s == "#") {
        const int ln = toks_[i].line;
        ++i;
        while (i < e && toks_[i].line == ln) ++i;
        continue;
      }
      if ((s == "public" || s == "private" || s == "protected") && i + 1 < e &&
          toks_[i + 1].text == ":") {
        i += 2;
        continue;
      }
      if (s == "using" || s == "typedef" || s == "friend" ||
          s == "static_assert") {
        while (i < e && toks_[i].text != ";") ++i;
        ++i;
        continue;
      }
      if (s == "enum") {
        i = SkipEnum(i, e);
        continue;
      }
      if (s == "class" || s == "struct") {
        size_t j = i + 1;
        while (j < e && toks_[j].text != "{" && toks_[j].text != ";" &&
               toks_[j].text != "(") {
          ++j;
        }
        if (j < e && toks_[j].text == "{") {
          i = ParseClassOrSkip(i, e);  // nested type definition
        } else {
          ++i;  // elaborated type in a member decl; rescan without keyword
        }
        continue;
      }
      if (s == "template") {
        const size_t j = (i + 1 < e && toks_[i + 1].text == "<")
                             ? SkipTemplateArgs(i + 1)
                             : i + 1;
        i = (j == kNpos) ? i + 1 : j;
        continue;
      }
      if (s == ";") {
        ++i;
        continue;
      }

      // Scan the member segment for its shape: method (name followed by
      // `(`) or data member (terminated by `;` / `=` / brace-init `{`).
      size_t j = i;
      size_t paren = kNpos;
      while (j < e) {
        const std::string& t = toks_[j].text;
        if (t == "<") {
          const size_t k = SkipTemplateArgs(j);
          if (k == kNpos) {
            ++j;
          } else {
            j = k;
          }
          continue;
        }
        if (t == "(") {
          if (j > i && IsIdent(toks_[j - 1])) paren = j;
          break;
        }
        if (t == ";" || t == "{" || t == "=") break;
        ++j;
      }
      if (j >= e) break;
      if (paren != kNpos) {
        size_t next_i = kNpos;
        if (TryParseFunctionAt(i, paren, e, cls_name, &next_i)) {
          i = next_i;
          continue;
        }
        i = SkipMemberTail(paren, e);
        continue;
      }
      if (toks_[j].text == "(") {
        // `(` without a preceding identifier: operator overload etc.
        i = SkipMemberTail(j, e);
        continue;
      }
      RecordDataMember(cls, i, j);
      if (toks_[j].text == "{") j = SkipBalanced(j, "{", "}");
      while (j < e && toks_[j].text != ";") ++j;
      i = j < e ? j + 1 : e;
    }
  }

  /// Skips from a member's `(` past its parameter list, trailer and inline
  /// body (if any); returns the index of the next member.
  size_t SkipMemberTail(size_t paren, size_t e) {
    size_t j = SkipBalanced(paren, "(", ")");
    while (j < e) {
      const std::string& t = toks_[j].text;
      if (t == "{") return SkipBalanced(j, "{", "}");
      if (t == ";") return j + 1;
      if (t == "(") {
        j = SkipBalanced(j, "(", ")");
        continue;
      }
      ++j;
    }
    return e;
  }

  void RecordDataMember(RawClass& cls, size_t b, size_t term) {
    // Declarator name: the last identifier before the terminator.
    size_t name_pos = kNpos;
    for (size_t k = b; k < term; ++k) {
      if (IsIdent(toks_[k])) name_pos = k;
    }
    if (name_pos == kNpos) return;
    const std::string& name = toks_[name_pos].text;
    std::vector<std::string> type_ids;
    bool is_mutex = false;
    for (size_t k = b; k < name_pos; ++k) {
      if (!IsIdent(toks_[k])) continue;
      type_ids.push_back(toks_[k].text);
      if (toks_[k].text == "mutex" || toks_[k].text == "shared_mutex") {
        is_mutex = true;
      }
    }
    if (type_ids.empty()) return;
    cls.member_types[name] = std::move(type_ids);
    if (is_mutex) cls.mutex_members.insert(name);
  }

  /// Namespace-scope path: finds the first `ident (` before any statement
  /// terminator and hands off to TryParseFunctionAt.
  bool TryParseFunctionFrom(size_t i, size_t e, const std::string& default_cls,
                            size_t* out_next) {
    size_t j = i;
    while (j < e) {
      const std::string& t = toks_[j].text;
      if (t == "<") {
        const size_t k = SkipTemplateArgs(j);
        if (k == kNpos) return false;
        j = k;
        continue;
      }
      if (t == "(") {
        if (j > i && IsIdent(toks_[j - 1])) {
          return TryParseFunctionAt(i, j, e, default_cls, out_next);
        }
        return false;
      }
      if (t == ";" || t == "{" || t == "}" || t == "=") return false;
      ++j;
    }
    return false;
  }

  bool TryParseFunctionAt(size_t decl_start, size_t paren, size_t e,
                          const std::string& default_cls, size_t* out_next) {
    if (!IsIdent(toks_[paren - 1])) return false;
    const std::string name = toks_[paren - 1].text;
    std::string cls = default_cls;
    size_t qual_end = paren - 1;  // exclusive end of the return type
    if (paren >= 3 && toks_[paren - 2].text == "::" &&
        IsIdent(toks_[paren - 3])) {
      cls = toks_[paren - 3].text;
      qual_end = paren - 3;
      // Hop over any further namespace qualification (a::b::Cls::f).
      while (qual_end >= 2 && toks_[qual_end - 1].text == "::" &&
             IsIdent(toks_[qual_end - 2])) {
        qual_end -= 2;
      }
    }
    const size_t after_params = SkipBalanced(paren, "(", ")");

    std::vector<std::string> ret_ids;
    for (size_t k = decl_start; k < qual_end; ++k) {
      if (IsIdent(toks_[k]) && !TypeSpecifierNoise().count(toks_[k].text) &&
          !DeclOnlySpecifier(toks_[k].text)) {
        ret_ids.push_back(toks_[k].text);
      }
    }

    size_t j = after_params;
    while (j < e) {
      const std::string& t = toks_[j].text;
      if (t == "const" || t == "noexcept" || t == "override" ||
          t == "final" || t == "mutable" || t == "&" || t == "&&") {
        ++j;
        if (j < e && toks_[j].text == "(") j = SkipBalanced(j, "(", ")");
        continue;
      }
      if (t == "->") {
        ++j;
        while (j < e && toks_[j].text != "{" && toks_[j].text != ";" &&
               toks_[j].text != "=") {
          if (toks_[j].text == "<") {
            const size_t k = SkipTemplateArgs(j);
            j = (k == kNpos) ? j + 1 : k;
          } else {
            ++j;
          }
        }
        continue;
      }
      break;
    }
    if (j >= e) return false;

    auto record_decl = [&]() {
      if (!cls.empty() && !ret_ids.empty()) {
        RawClass& rc = (*classes_)[cls];
        rc.name = cls;
        rc.method_returns[name] = ret_ids;
      }
    };

    if (toks_[j].text == ";") {
      record_decl();
      *out_next = j + 1;
      return true;
    }
    if (toks_[j].text == "=") {  // = default / = delete / = 0
      while (j < e && toks_[j].text != ";") ++j;
      record_decl();
      *out_next = j < e ? j + 1 : e;
      return true;
    }
    if (toks_[j].text == "{") {
      const size_t body_end = SkipBalanced(j, "{", "}");
      record_decl();
      ExtractFunction(cls, name, paren, after_params, j + 1,
                      body_end > 0 ? body_end - 1 : e);
      *out_next = body_end;
      return true;
    }
    if (toks_[j].text == ":") {
      // Ctor init list: events in the initializers count (they call member
      // ctors and builders), so scan from the colon through the body.
      size_t k = j + 1;
      int pd = 0;
      size_t body = kNpos;
      while (k < e) {
        const std::string& t = toks_[k].text;
        if (t == "(") ++pd;
        if (t == ")") --pd;
        if (t == "{" && pd == 0) {
          if (IsIdent(toks_[k - 1])) {
            k = SkipBalanced(k, "{", "}");  // brace-init member
            continue;
          }
          body = k;
          break;
        }
        ++k;
      }
      if (body == kNpos) return false;
      const size_t body_end = SkipBalanced(body, "{", "}");
      record_decl();
      ExtractFunction(cls, name, paren, after_params, j + 1,
                      body_end > 0 ? body_end - 1 : e);
      *out_next = body_end;
      return true;
    }
    return false;
  }

  static bool DeclOnlySpecifier(const std::string& t) {
    return t == "virtual" || t == "explicit" || t == "friend" ||
           t == "extern" || t == "operator";
  }

  void ExtractFunction(const std::string& cls, const std::string& name,
                       size_t paren, size_t after_params, size_t ev_b,
                       size_t ev_e) {
    RawFunction fn;
    fn.file = file_;
    fn.cls = cls;
    fn.name = name;
    ParseParams(paren + 1, after_params > 0 ? after_params - 1 : paren + 1,
                &fn);
    ScanEvents(ev_b, ev_e, &fn);
    functions_->push_back(std::move(fn));
  }

  void ParseParams(size_t b, size_t e, RawFunction* fn) {
    size_t start = b;
    int depth = 0;
    for (size_t k = b; k <= e; ++k) {
      const bool at_end = (k == e);
      const std::string& t = at_end ? std::string(",") : toks_[k].text;
      if (!at_end) {
        if (t == "(" || t == "[" || t == "{" || t == "<") ++depth;
        if (t == ")" || t == "]" || t == "}" || t == ">") --depth;
      }
      if ((at_end || (t == "," && depth == 0)) && k > start) {
        // One parameter: last ident (before any default `=`) is the name.
        size_t stop = k;
        for (size_t p = start; p < k; ++p) {
          if (toks_[p].text == "=") {
            stop = p;
            break;
          }
        }
        size_t name_pos = kNpos;
        for (size_t p = start; p < stop; ++p) {
          if (IsIdent(toks_[p])) name_pos = p;
        }
        if (name_pos != kNpos && name_pos > start) {
          std::vector<std::string> type_ids;
          for (size_t p = start; p < name_pos; ++p) {
            if (IsIdent(toks_[p]) &&
                !TypeSpecifierNoise().count(toks_[p].text)) {
              type_ids.push_back(toks_[p].text);
            }
          }
          if (!type_ids.empty()) {
            fn->locals[toks_[name_pos].text] = std::move(type_ids);
          }
        }
        start = k + 1;
      }
    }
  }

  /// Normalizes a lock-expression token range into "a.b.c" form: `->` and
  /// `::` collapse to '.', `this.` strips, non-identifier noise drops.
  std::string NormalizeExpr(size_t b, size_t e) const {
    std::string out;
    for (size_t k = b; k < e; ++k) {
      if (!IsIdent(toks_[k])) continue;
      if (!out.empty()) out.push_back('.');
      out += toks_[k].text;
    }
    if (out.rfind("this.", 0) == 0) out = out.substr(5);
    return out;
  }

  void ScanEvents(size_t b, size_t e, RawFunction* fn);

  struct ActiveGuard {
    std::vector<std::string> exprs;
    std::string var;
    int depth;
    bool released;
  };

  std::vector<std::string> HeldExprs(
      const std::vector<ActiveGuard>& guards) const {
    std::vector<std::string> out;
    for (const ActiveGuard& g : guards) {
      if (g.released) continue;
      for (const std::string& x : g.exprs) {
        if (std::find(out.begin(), out.end(), x) == out.end()) {
          out.push_back(x);
        }
      }
    }
    return out;
  }

  bool TryParseGuard(size_t i, size_t e, int depth,
                     std::vector<ActiveGuard>* guards, RawFunction* fn,
                     size_t* out_next);
  void TryParseLocalDecl(size_t i, size_t e, RawFunction* fn);
  void HandleCall(size_t i, size_t e, std::vector<ActiveGuard>* guards,
                  RawFunction* fn);

  /// toks_[close] == ")"; returns the index of the matching "(" or kNpos.
  size_t MatchBack(size_t close) const {
    int depth = 0;
    for (size_t j = close + 1; j-- > 0;) {
      if (toks_[j].text == ")") ++depth;
      if (toks_[j].text == "(") {
        --depth;
        if (depth == 0) return j;
      }
    }
    return kNpos;
  }

  const std::string file_;
  const std::vector<Token>& toks_;
  std::map<std::string, RawClass>* classes_;
  std::vector<RawFunction>* functions_;
};

void FileExtractor::ScanEvents(size_t b, size_t e, RawFunction* fn) {
  std::vector<ActiveGuard> guards;
  int depth = 0;
  bool stmt_start = true;
  size_t i = b;
  while (i < e) {
    const std::string& t = toks_[i].text;
    if (t == "{") {
      ++depth;
      stmt_start = true;
      ++i;
      continue;
    }
    if (t == "}") {
      // The scope closing here kills every guard declared at this depth.
      guards.erase(std::remove_if(guards.begin(), guards.end(),
                                  [&](const ActiveGuard& g) {
                                    return g.depth >= depth;
                                  }),
                   guards.end());
      --depth;
      stmt_start = true;
      ++i;
      continue;
    }
    if (t == ";") {
      stmt_start = true;
      ++i;
      continue;
    }
    if (t == "(") {
      // A control-statement condition opens a declaration context
      // (`for (auto& shard : shards_)` declares a range local).
      if (i > b && (toks_[i - 1].text == "for" || toks_[i - 1].text == "if" ||
                    toks_[i - 1].text == "while" ||
                    toks_[i - 1].text == "switch")) {
        stmt_start = true;
      }
      ++i;
      continue;
    }
    if (!IsIdent(toks_[i])) {
      ++i;
      continue;
    }

    if (GuardTypes().count(t)) {
      size_t next_i = kNpos;
      if (TryParseGuard(i, e, depth, &guards, fn, &next_i)) {
        stmt_start = false;
        i = next_i;
        continue;
      }
    }
    if (stmt_start) {
      TryParseLocalDecl(i, e, fn);
      stmt_start = false;
    }
    if ((t == "make_unique" || t == "make_shared") && i + 1 < e &&
        toks_[i + 1].text == "<") {
      const size_t k = SkipTemplateArgs(i + 1);
      if (k != kNpos && k < e && toks_[k].text == "(") {
        std::string type_name;
        for (size_t q = i + 2; q + 1 < k; ++q) {
          if (IsIdent(toks_[q])) type_name = toks_[q].text;
        }
        RawEvent ev;
        ev.line = toks_[i].line;
        ev.col = toks_[i].col;
        ev.callee = "#ctor:" + type_name;
        ev.display = t + "<" + type_name + ">(...)";
        ev.held_exprs = HeldExprs(guards);
        fn->events.push_back(std::move(ev));
        i = k + 1;
        continue;
      }
    }
    if (i + 1 < e && toks_[i + 1].text == "(" &&
        !NonCalleeKeywords().count(t) && !GuardTypes().count(t)) {
      HandleCall(i, e, &guards, fn);
    }
    ++i;
  }
}

bool FileExtractor::TryParseGuard(size_t i, size_t e, int depth,
                                  std::vector<ActiveGuard>* guards,
                                  RawFunction* fn, size_t* out_next) {
  size_t j = i + 1;
  if (j < e && toks_[j].text == "<") {
    j = SkipTemplateArgs(j);
    if (j == kNpos || j >= e) return false;
  }
  if (j >= e || !IsIdent(toks_[j])) return false;
  const std::string var = toks_[j].text;
  const size_t paren = j + 1;
  if (paren >= e ||
      (toks_[paren].text != "(" && toks_[paren].text != "{")) {
    return false;
  }
  const char* open = toks_[paren].text == "(" ? "(" : "{";
  const char* close = toks_[paren].text == "(" ? ")" : "}";
  const size_t after = SkipBalanced(paren, open, close);

  // Split the argument list at top-level commas and normalize each lock
  // expression; std::defer_lock means no acquisition happens here.
  std::vector<std::string> exprs;
  bool deferred = false;
  size_t start = paren + 1;
  int d = 0;
  for (size_t k = paren + 1; k < after; ++k) {
    const std::string& at = toks_[k].text;
    const bool last = (k + 1 == after);
    if (!last) {
      if (at == "(" || at == "[" || at == "{" || at == "<") ++d;
      if (at == ")" || at == "]" || at == "}" || at == ">") --d;
    }
    if ((last || (at == "," && d == 0)) && k > start) {
      const size_t end = last ? k : k;
      bool is_tag = false;
      for (size_t q = start; q < end; ++q) {
        if (IsIdent(toks_[q]) && LockTagArgs().count(toks_[q].text)) {
          is_tag = true;
          if (toks_[q].text == "defer_lock") deferred = true;
        }
      }
      if (!is_tag) {
        std::string expr = NormalizeExpr(start, end);
        if (!expr.empty()) exprs.push_back(std::move(expr));
      }
      start = k + 1;
    }
  }
  *out_next = after;
  if (deferred || exprs.empty()) return true;  // consumed; nothing acquired

  RawEvent ev;
  ev.is_acquire = true;
  ev.line = toks_[i].line;
  ev.col = toks_[i].col;
  ev.lock_exprs = exprs;
  ev.atomic_group = (toks_[i].text == "scoped_lock" && exprs.size() > 1);
  ev.held_exprs = HeldExprs(*guards);
  fn->events.push_back(std::move(ev));
  guards->push_back({std::move(exprs), var, depth, false});
  return true;
}

void FileExtractor::TryParseLocalDecl(size_t i, size_t e, RawFunction* fn) {
  if (StmtAbortKeywords().count(toks_[i].text)) return;
  std::string name;
  std::vector<std::string> type_ids;
  bool saw_auto = false;
  size_t j = i;
  std::string term;
  while (j < e) {
    const std::string& t = toks_[j].text;
    if (IsIdent(toks_[j])) {
      if (StmtAbortKeywords().count(t)) return;
      if (t == "auto") {
        saw_auto = true;
      } else if (!TypeSpecifierNoise().count(t)) {
        if (!name.empty()) type_ids.push_back(name);
        name = t;
      }
      ++j;
      continue;
    }
    if (t == "<") {
      const size_t k = SkipTemplateArgs(j);
      if (k == kNpos) return;
      if (!name.empty()) {
        type_ids.push_back(name);
        name.clear();
      }
      for (size_t q = j + 1; q + 1 < k; ++q) {
        if (IsIdent(toks_[q]) && !TypeSpecifierNoise().count(toks_[q].text)) {
          type_ids.push_back(toks_[q].text);
        }
      }
      j = k;
      continue;
    }
    if (t == "::" || t == "*" || t == "&" || t == "&&") {
      ++j;
      continue;
    }
    if (t == "=" || t == ";" || t == "(" || t == "{" || t == ":" ||
        t == ",") {
      term = t;
      break;
    }
    return;  // any other token: this is an expression, not a declaration
  }
  if (name.empty()) return;
  if (term == ":" && saw_auto) {
    // Range-for with deduced element type: remember the range expression so
    // the analyzer can resolve the element class from the container's type.
    for (size_t q = j + 1; q < e; ++q) {
      if (IsIdent(toks_[q])) {
        fn->range_locals[name] = toks_[q].text;
        return;
      }
      if (toks_[q].text == ")" || toks_[q].text == ";") return;
    }
    return;
  }
  if (type_ids.empty()) return;
  fn->locals[name] = std::move(type_ids);
}

void FileExtractor::HandleCall(size_t i, size_t e,
                               std::vector<ActiveGuard>* guards,
                               RawFunction* fn) {
  const std::string& callee = toks_[i].text;
  std::string static_cls;
  std::vector<std::string> chain;
  bool chain_ok = true;
  if (i >= 2 && toks_[i - 1].text == "::" && IsIdent(toks_[i - 2])) {
    static_cls = toks_[i - 2].text;
  } else {
    size_t p = i;
    while (p >= 2 &&
           (toks_[p - 1].text == "." || toks_[p - 1].text == "->")) {
      const size_t before = p - 2;
      if (toks_[before].text == ")") {
        const size_t open = MatchBack(before);
        if (open == kNpos || open == 0 || !IsIdent(toks_[open - 1])) {
          chain_ok = false;
          break;
        }
        chain.push_back(toks_[open - 1].text + "()");
        p = open - 1;
      } else if (IsIdent(toks_[before])) {
        chain.push_back(toks_[before].text);
        p = before;
      } else {
        chain_ok = false;
        break;
      }
    }
    std::reverse(chain.begin(), chain.end());
    if (!chain.empty() && chain.front() == "this") chain.erase(chain.begin());
  }

  // `guard.unlock()` releases early, inside the enclosing scope.
  if (callee == "unlock" && chain.size() == 1) {
    for (ActiveGuard& g : *guards) {
      if (g.var == chain[0]) {
        g.released = true;
        return;
      }
    }
  }

  RawEvent ev;
  ev.line = toks_[i].line;
  ev.col = toks_[i].col;
  ev.callee = callee;
  ev.static_cls = static_cls;
  ev.chain = chain;
  ev.chain_ok = chain_ok;
  if (!static_cls.empty()) {
    ev.display = static_cls + "::" + callee + "(...)";
  } else {
    for (const std::string& el : chain) ev.display += el + ".";
    ev.display += callee + "(...)";
  }
  ev.held_exprs = HeldExprs(*guards);
  fn->events.push_back(std::move(ev));
}

// ---------------------------------------------------------------------------
// Global analysis
// ---------------------------------------------------------------------------

const std::set<std::string>& OracleCallees() {
  static const std::set<std::string> kSet = {"Optimize", "TryOptimize"};
  return kSet;
}

const std::set<std::string>& TransportCallees() {
  static const std::set<std::string> kSet = {"SendBurst", "SendFrame",
                                             "RecvFrame"};
  return kSet;
}

/// `Close` only counts as a transport call when the receiver types out to
/// the FrameTransport family — plenty of things close that aren't sockets.
constexpr const char* kTransportBase = "FrameTransport";

struct CallTargets {
  std::vector<int> targets;
  bool oracle = false;
  bool transport = false;
};

struct LockEdge {
  std::string file;
  int line = 0;
  int col = 0;
  bool suppressed = false;
};

class Analyzer {
 public:
  Analyzer(std::map<std::string, RawClass> classes,
           std::vector<RawFunction> functions,
           std::map<std::string, Suppressions> sup)
      : classes_(std::move(classes)),
        functions_(std::move(functions)),
        sup_(std::move(sup)) {
    for (size_t fi = 0; fi < functions_.size(); ++fi) {
      const RawFunction& fn = functions_[fi];
      by_method_[{fn.cls, fn.name}].push_back(static_cast<int>(fi));
    }
    for (const auto& [name, cls] : classes_) {
      for (const std::string& base : cls.bases) {
        children_[base].insert(name);
      }
    }
  }

  std::vector<Finding> Run();

 private:
  const std::set<std::string>& Family(const std::string& cls) {
    auto it = family_.find(cls);
    if (it != family_.end()) return it->second;
    std::set<std::string>& fam = family_[cls];
    fam.insert(cls);
    // Ancestors.
    std::vector<std::string> work = {cls};
    while (!work.empty()) {
      const std::string cur = work.back();
      work.pop_back();
      const auto cit = classes_.find(cur);
      if (cit == classes_.end()) continue;
      for (const std::string& base : cit->second.bases) {
        if (fam.insert(base).second) work.push_back(base);
      }
    }
    // Descendants.
    work = {cls};
    while (!work.empty()) {
      const std::string cur = work.back();
      work.pop_back();
      const auto kit = children_.find(cur);
      if (kit == children_.end()) continue;
      for (const std::string& derived : kit->second) {
        if (fam.insert(derived).second) work.push_back(derived);
      }
    }
    return fam;
  }

  std::vector<int> MethodGroup(const std::string& recv_cls,
                               const std::string& name) {
    std::vector<int> out;
    for (const std::string& cls : Family(recv_cls)) {
      const auto it = by_method_.find({cls, name});
      if (it == by_method_.end()) continue;
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
    return out;
  }

  /// The class a type-token list denotes: the LAST identifier naming a
  /// class the model knows (so `std::vector<Shard>` resolves to Shard and
  /// wrapper noise like unique_ptr drops out).
  std::string ResolveTypeToks(const std::vector<std::string>& ids) const {
    std::string out;
    for (const std::string& id : ids) {
      if (classes_.count(id)) out = id;
    }
    return out;
  }

  /// The declared type tokens of `member` on `cls` or any ancestor.
  const std::vector<std::string>* MemberToks(const std::string& cls,
                                             const std::string& member) {
    for (const std::string& c : Family(cls)) {
      const auto cit = classes_.find(c);
      if (cit == classes_.end()) continue;
      const auto mit = cit->second.member_types.find(member);
      if (mit != cit->second.member_types.end()) return &mit->second;
    }
    return nullptr;
  }

  std::string MemberClass(const std::string& cls, const std::string& member) {
    const std::vector<std::string>* toks = MemberToks(cls, member);
    return toks == nullptr ? std::string() : ResolveTypeToks(*toks);
  }

  std::string MethodReturnClass(const std::string& cls,
                                const std::string& method) {
    for (const std::string& c : Family(cls)) {
      const auto cit = classes_.find(c);
      if (cit == classes_.end()) continue;
      const auto mit = cit->second.method_returns.find(method);
      if (mit != cit->second.method_returns.end()) {
        return ResolveTypeToks(mit->second);
      }
    }
    return "";
  }

  /// The class of a local/param/range variable, or "".
  std::string LocalClass(const RawFunction& fn, const std::string& var) {
    const auto lit = fn.locals.find(var);
    if (lit != fn.locals.end()) return ResolveTypeToks(lit->second);
    const auto rit = fn.range_locals.find(var);
    if (rit != fn.range_locals.end()) {
      // Element type of the ranged container: its declared type tokens
      // already contain the element class (e.g. std::vector<Shard>).
      const auto bit = fn.locals.find(rit->second);
      if (bit != fn.locals.end()) return ResolveTypeToks(bit->second);
      if (!fn.cls.empty()) return MemberClass(fn.cls, rit->second);
    }
    return "";
  }

  /// Canonical identity of a lock expression. `Class::member` whenever the
  /// expression types out (unifying `mu_`, `other.mu_` and `shard.mu`
  /// across functions); otherwise a class- or file-scoped fallback that can
  /// split one lock into two nodes but can never merge two locks into one.
  std::string LockIdOf(const RawFunction& fn, const std::string& expr) {
    const std::string scope = fn.cls.empty() ? fn.file : fn.cls;
    std::vector<std::string> parts;
    size_t start = 0;
    while (start <= expr.size()) {
      const size_t dot = expr.find('.', start);
      parts.push_back(expr.substr(
          start, dot == std::string::npos ? expr.size() - start : dot - start));
      if (dot == std::string::npos) break;
      start = dot + 1;
    }
    if (parts.size() == 1) return scope + "::" + expr;
    std::string cur = LocalClass(fn, parts[0]);
    if (cur.empty() && !fn.cls.empty()) {
      if (MemberToks(fn.cls, parts[0]) != nullptr) {
        cur = MemberClass(fn.cls, parts[0]);
      }
    }
    if (cur.empty() && classes_.count(parts[0])) cur = parts[0];
    for (size_t k = 1; !cur.empty() && k + 1 < parts.size(); ++k) {
      cur = MemberClass(cur, parts[k]);
    }
    if (cur.empty()) return scope + "::" + expr;
    return cur + "::" + parts.back();
  }

  /// Receiver class of a chained call, or "" when any link fails to type.
  std::string ChainClass(const RawFunction& fn, const RawEvent& ev) {
    if (!ev.chain_ok || ev.chain.empty()) return "";
    std::string cur;
    for (size_t k = 0; k < ev.chain.size(); ++k) {
      const std::string& el = ev.chain[k];
      const bool method = el.size() > 2 && el.substr(el.size() - 2) == "()";
      const std::string base = method ? el.substr(0, el.size() - 2) : el;
      if (k == 0) {
        if (method) {
          cur = fn.cls.empty() ? "" : MethodReturnClass(fn.cls, base);
        } else {
          cur = LocalClass(fn, base);
          if (cur.empty() && !fn.cls.empty() &&
              MemberToks(fn.cls, base) != nullptr) {
            cur = MemberClass(fn.cls, base);
          }
          if (cur.empty() && classes_.count(base)) cur = base;
        }
      } else {
        cur = method ? MethodReturnClass(cur, base) : MemberClass(cur, base);
      }
      if (cur.empty()) return "";
    }
    return cur;
  }

  CallTargets Resolve(const RawFunction& fn, const RawEvent& ev) {
    CallTargets out;
    if (internal::StartsWith(ev.callee, "#ctor:")) {
      const std::string type_name = ev.callee.substr(6);
      if (classes_.count(type_name)) {
        out.targets = MethodGroup(type_name, type_name);
      }
      return out;
    }
    out.oracle = OracleCallees().count(ev.callee) > 0;
    out.transport = TransportCallees().count(ev.callee) > 0;
    if (!ev.static_cls.empty()) {
      if (classes_.count(ev.static_cls)) {
        out.targets = MethodGroup(ev.static_cls, ev.callee);
      }
      return out;
    }
    if (ev.chain.empty()) {
      const auto lit = fn.locals.find(ev.callee);
      if (lit != fn.locals.end()) {
        // `Type var(args);` parses as a call of `var`: the event is the
        // constructor of the declared type.
        const std::string type_name = ResolveTypeToks(lit->second);
        if (!type_name.empty()) {
          out.targets = MethodGroup(type_name, type_name);
        }
        return out;
      }
      if (!fn.cls.empty()) {
        out.targets = MethodGroup(fn.cls, ev.callee);
        if (!out.targets.empty()) return out;
      }
      // Free function in the same file.
      for (size_t fi = 0; fi < functions_.size(); ++fi) {
        const RawFunction& cand = functions_[fi];
        if (cand.cls.empty() && cand.name == ev.callee &&
            cand.file == fn.file) {
          out.targets.push_back(static_cast<int>(fi));
        }
      }
      return out;
    }
    const std::string recv = ChainClass(fn, ev);
    if (recv.empty()) return out;
    if (ev.callee == "Close" && Family(recv).count(kTransportBase)) {
      out.transport = true;
    }
    out.targets = MethodGroup(recv, ev.callee);
    return out;
  }

  bool Suppressed(const RawFunction& fn, int line) const {
    const auto it = sup_.find(fn.file);
    if (it == sup_.end()) return false;
    return IsSuppressed(it->second, Rule::kLockDiscipline, line);
  }

  std::map<std::string, RawClass> classes_;
  std::vector<RawFunction> functions_;
  std::map<std::string, Suppressions> sup_;
  std::map<std::pair<std::string, std::string>, std::vector<int>> by_method_;
  std::map<std::string, std::set<std::string>> children_;
  std::map<std::string, std::set<std::string>> family_;
};

std::vector<Finding> Analyzer::Run() {
  std::vector<Finding> findings;
  const size_t n = functions_.size();

  // Resolve every call event once.
  std::vector<std::vector<CallTargets>> resolved(n);
  for (size_t fi = 0; fi < n; ++fi) {
    const RawFunction& fn = functions_[fi];
    resolved[fi].resize(fn.events.size());
    for (size_t ei = 0; ei < fn.events.size(); ++ei) {
      if (!fn.events[ei].is_acquire) {
        resolved[fi][ei] = Resolve(fn, fn.events[ei]);
      }
    }
  }

  // Fixpoint: every lock a function may acquire (directly or transitively)
  // and whether it reaches an oracle / transport boundary.
  std::vector<std::set<std::string>> locks_all(n);
  std::vector<char> reach_oracle(n, 0);
  std::vector<char> reach_transport(n, 0);
  for (size_t fi = 0; fi < n; ++fi) {
    const RawFunction& fn = functions_[fi];
    for (size_t ei = 0; ei < fn.events.size(); ++ei) {
      const RawEvent& ev = fn.events[ei];
      if (ev.is_acquire) {
        for (const std::string& expr : ev.lock_exprs) {
          locks_all[fi].insert(LockIdOf(fn, expr));
        }
      } else {
        if (resolved[fi][ei].oracle) reach_oracle[fi] = 1;
        if (resolved[fi][ei].transport) reach_transport[fi] = 1;
      }
    }
  }
  bool changed = true;
  for (int iter = 0; changed && iter < 100; ++iter) {
    changed = false;
    for (size_t fi = 0; fi < n; ++fi) {
      for (size_t ei = 0; ei < functions_[fi].events.size(); ++ei) {
        if (functions_[fi].events[ei].is_acquire) continue;
        for (int t : resolved[fi][ei].targets) {
          const size_t ti = static_cast<size_t>(t);
          for (const std::string& lock : locks_all[ti]) {
            if (locks_all[fi].insert(lock).second) changed = true;
          }
          if (reach_oracle[ti] && !reach_oracle[fi]) {
            reach_oracle[fi] = 1;
            changed = true;
          }
          if (reach_transport[ti] && !reach_transport[fi]) {
            reach_transport[fi] = 1;
            changed = true;
          }
        }
      }
    }
  }

  // Acquired-before edges, plus the direct findings.
  std::map<std::pair<std::string, std::string>, LockEdge> edges;
  auto add_edge = [&](const std::string& from, const std::string& to,
                      const RawFunction& fn, const RawEvent& ev) {
    if (from == to) return;  // instance aliasing (move ctors, swaps)
    const bool sup_here = Suppressed(fn, ev.line);
    auto [it, inserted] = edges.try_emplace(
        {from, to}, LockEdge{fn.file, ev.line, ev.col, sup_here});
    if (!inserted) {
      it->second.suppressed = it->second.suppressed || sup_here;
      // Keep the earliest site as the anchor.
      if (std::tie(fn.file, ev.line, ev.col) <
          std::tie(it->second.file, it->second.line, it->second.col)) {
        it->second.file = fn.file;
        it->second.line = ev.line;
        it->second.col = ev.col;
      }
    }
  };

  for (size_t fi = 0; fi < n; ++fi) {
    const RawFunction& fn = functions_[fi];
    for (size_t ei = 0; ei < fn.events.size(); ++ei) {
      const RawEvent& ev = fn.events[ei];
      std::vector<std::string> held_ids;
      for (const std::string& h : ev.held_exprs) {
        held_ids.push_back(LockIdOf(fn, h));
      }
      if (ev.is_acquire) {
        for (const std::string& expr : ev.lock_exprs) {
          const std::string lock = LockIdOf(fn, expr);
          for (const std::string& h : held_ids) add_edge(h, lock, fn, ev);
          const bool re_acquired =
              std::find(ev.held_exprs.begin(), ev.held_exprs.end(), expr) !=
              ev.held_exprs.end();
          if (re_acquired && !Suppressed(fn, ev.line)) {
            findings.push_back(
                {fn.file, ev.line, ev.col, Rule::kLockDiscipline,
                 "lock '" + expr +
                     "' is acquired while already held (R8): re-locking a "
                     "std::mutex is a guaranteed self-deadlock",
                 ""});
          }
        }
        continue;
      }
      const CallTargets& ct = resolved[fi][ei];
      bool callee_oracle = ct.oracle;
      bool callee_transport = ct.transport;
      for (int t : ct.targets) {
        const size_t ti = static_cast<size_t>(t);
        callee_oracle = callee_oracle || reach_oracle[ti];
        callee_transport = callee_transport || reach_transport[ti];
        if (!held_ids.empty()) {
          for (const std::string& lock : locks_all[ti]) {
            for (const std::string& h : held_ids) add_edge(h, lock, fn, ev);
          }
        }
      }
      if (!held_ids.empty() && (callee_oracle || callee_transport) &&
          !Suppressed(fn, ev.line)) {
        std::string held_list;
        for (const std::string& h : ev.held_exprs) {
          if (!held_list.empty()) held_list += "', '";
          held_list += h;
        }
        std::string boundary;
        if (callee_oracle && callee_transport) {
          boundary = "the oracle (Optimize/TryOptimize) and "
                     "transport (SendBurst/SendFrame/RecvFrame/Close) "
                     "boundaries";
        } else if (callee_oracle) {
          boundary = "the oracle boundary (Optimize/TryOptimize); "
                     "blocking the optimizer under a lock serializes every "
                     "concurrent caller";
        } else {
          boundary = "the transport boundary "
                     "(SendBurst/SendFrame/RecvFrame/Close); "
                     "a slow or stalled peer then holds the lock hostage";
        }
        findings.push_back(
            {fn.file, ev.line, ev.col, Rule::kLockDiscipline,
             "'" + ev.display + "' is called while holding '" + held_list +
                 "' (R8): the call reaches " + boundary +
                 " — release the lock first or move the call out of the "
                 "critical section",
             ""});
      }
    }
  }

  // Lock-order cycles over the acquired-before graph.
  std::vector<std::string> lock_names;
  std::map<std::string, int> lock_index;
  auto node_of = [&](const std::string& name) {
    const auto it = lock_index.find(name);
    if (it != lock_index.end()) return it->second;
    const int idx = static_cast<int>(lock_names.size());
    lock_index[name] = idx;
    lock_names.push_back(name);
    return idx;
  };
  for (const auto& [key, edge] : edges) {
    node_of(key.first);
    node_of(key.second);
  }
  std::vector<std::vector<int>> adj(lock_names.size());
  for (const auto& [key, edge] : edges) {
    adj[static_cast<size_t>(node_of(key.first))].push_back(
        node_of(key.second));
  }
  int component_count = 0;
  const std::vector<int> comp =
      internal::StronglyConnectedComponents(adj, &component_count);
  std::vector<std::vector<int>> members(static_cast<size_t>(component_count));
  for (size_t u = 0; u < lock_names.size(); ++u) {
    members[static_cast<size_t>(comp[u])].push_back(static_cast<int>(u));
  }
  for (const std::vector<int>& scc : members) {
    if (scc.size() < 2) continue;  // self-edges were filtered at add_edge
    // Collect the component's internal edges in a deterministic order.
    std::vector<std::pair<std::pair<std::string, std::string>,
                          const LockEdge*>> cyc;
    bool vouched = false;
    for (const auto& [key, edge] : edges) {
      const int a = lock_index[key.first];
      const int b = lock_index[key.second];
      if (comp[static_cast<size_t>(a)] != comp[static_cast<size_t>(b)]) {
        continue;
      }
      if (comp[static_cast<size_t>(a)] !=
          comp[static_cast<size_t>(scc[0])]) {
        continue;
      }
      cyc.push_back({key, &edge});
      vouched = vouched || edge.suppressed;
    }
    if (cyc.empty() || vouched) continue;
    // Anchor at the earliest participating site.
    const LockEdge* anchor = cyc[0].second;
    for (const auto& [key, edge] : cyc) {
      if (std::tie(edge->file, edge->line, edge->col) <
          std::tie(anchor->file, anchor->line, anchor->col)) {
        anchor = edge;
      }
    }
    std::string rendered;
    size_t listed = 0;
    for (const auto& [key, edge] : cyc) {
      if (listed == 3) {
        rendered += "; ...";
        break;
      }
      if (!rendered.empty()) rendered += "; ";
      rendered += key.first + " -> " + key.second + " (" + edge->file + ":" +
                  std::to_string(edge->line) + ")";
      ++listed;
    }
    findings.push_back(
        {anchor->file, anchor->line, anchor->col, Rule::kLockDiscipline,
         "inconsistent lock acquisition order (R8): " + rendered +
             "; concurrent threads taking these paths can deadlock — pick "
             "one global acquisition order",
         ""});
  }

  return findings;
}

}  // namespace

std::vector<Finding> CheckLockDiscipline(const std::vector<SourceFile>& files) {
  std::map<std::string, RawClass> classes;
  std::vector<RawFunction> functions;
  std::map<std::string, Suppressions> sup;
  for (const SourceFile& file : files) {
    if (ClassifyPath(file.path).root != PathClass::kSrc) continue;
    const LexedFile lexed = Lex(file.content);
    sup[file.path] = internal::CollectSuppressions(file.path, lexed.comments);
    FileExtractor(file.path, lexed, &classes, &functions).Run();
  }
  Analyzer analyzer(std::move(classes), std::move(functions), std::move(sup));
  return analyzer.Run();
}

}  // namespace costsense::lint
