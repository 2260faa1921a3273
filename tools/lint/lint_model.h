// Shared lexer / symbol model for warplint's rule passes.
//
// warplint is deliberately libclang-free: every pass works on a scrubbed
// token/line view of the sources (comments and literal bodies blanked,
// columns preserved). This header is the one place that view is defined:
//
//   SourceFile      a file plus its scrubbed twin and NOLINT map
//   BodyRange       a function/method body located by brace matching
//   ClassDef        a struct/class with its ordered field declarations and
//                   any WARP_* concurrency-contract annotations
//
// The per-rule-family passes (rules_core.cc, rules_contracts.cc,
// rules_schema.cc, rules_crosstu.cc) consume this model; the driver
// (warplint.cc) owns gathering, suppression, and reporting.

#ifndef WARPLINT_LINT_MODEL_H_
#define WARPLINT_LINT_MODEL_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace warplint {

// ----------------------------------------------------------------- model ---

struct Finding {
  std::string file;  // path relative to --root
  size_t line = 0;   // 1-based
  std::string rule;  // short id, e.g. "determinism"
  std::string message;
  bool suppressed = false;
};

struct Suppression {
  std::set<std::string> rules;  // short ids named in NOLINT(...)
  bool justified = false;
};

struct SourceFile {
  std::string rel;                // e.g. "src/core/warp_lda.cc"
  std::vector<std::string> raw;   // original lines
  std::vector<std::string> code;  // comments + string/char literals blanked
  std::map<size_t, Suppression> nolint;  // line (1-based) -> suppression
  // Flattened views built once by Flatten(): lines joined with '\n', plus a
  // char-index -> 0-based-line map. flat_raw and flat_code have identical
  // lengths and column positions, so a string literal can be recovered from
  // flat_raw at any offset found in flat_code.
  std::string flat_raw;
  std::string flat_code;
  std::vector<size_t> line_of;
};

extern const char* const kRuleIds[];
extern const size_t kNumRuleIds;
bool IsKnownRule(const std::string& id);

// ------------------------------------------------------------- scrubbing ---

// Blanks comments and string/char literal bodies with spaces, preserving
// line structure and column positions so findings point at real code.
std::vector<std::string> Scrub(const std::vector<std::string>& raw);

// Parses `NOLINT(warplint-a,warplint-b)` (optionally followed by
// `: justification`) out of the raw line's comment tail.
void ParseNolint(SourceFile* f);

// Builds flat_raw / flat_code / line_of.
void Flatten(SourceFile* f);

// --------------------------------------------------------- small helpers ---

bool IsIdent(char c);
bool HasWord(const std::string& text, const std::string& word,
             size_t* at = nullptr);
std::string Trim(std::string s);
bool StartsWith(const std::string& s, const std::string& p);
// The layer is the first path component under src/ ("src/core/x.h" ->
// "core"); empty for files outside src/.
std::string LayerOf(const std::string& rel);
std::string JsonEscape(const std::string& s);

// ---------------------------------------------------------- body mapping ---

// Function-body map: for each line, which function body encloses it.
struct BodyRange {
  std::string cls;    // qualifier before :: for methods; empty for free fns
  std::string name;
  size_t head_line;   // 1-based line of the function name token
  size_t begin_line;  // 1-based, inclusive (line of the opening brace)
  size_t end_line;
};

// Handles `Name::Method(args) [const] [noexcept] [: init-list] {`.
std::vector<BodyRange> ExtractMethodBodies(const SourceFile& f);

// Free-function map for TUs whose hot code is namespace-scope functions
// rather than class methods (core/simd_kernels.cc). Matches
// `Name(args) [attrs] {` at whatever scope it appears, skipping control
// keywords; recorded bodies are jumped over whole, so `if (...) {` inside
// a function never masquerades as a definition.
std::vector<BodyRange> ExtractFreeFunctionBodies(const SourceFile& f);

// Broad hot-path predicate used by warplint-hotpath-sync (anything that can
// run inside a sweep's token loops, and the *Range barrier tasks the workers
// run between stages).
bool IsHotFunction(const std::string& name);

// Tight concurrent-grid-body predicate used by the contract and rng-stream
// passes: only bodies that run on worker threads *between* stage barriers,
// where writes to shared state are races by construction. Deliberately
// excludes Iterate (it drives a whole sweep from one thread) and
// barrier-side helpers like ApplyStagedMoves / ApplyBlockDelta, and is
// substring-safe (PartitionStatic is not "hot").
bool IsContractHotBody(const std::string& name);

// ------------------------------------------------------------ class model ---

enum class Contract { kNone, kWorkerLocal, kBarrierOnly, kImmutableAfter };

struct FieldDecl {
  std::string type;  // declaration text before the name, spaces collapsed
  std::string name;
  size_t line = 0;   // 1-based declaration line
  Contract contract = Contract::kNone;
  std::vector<std::string> writers;  // WARP_IMMUTABLE_AFTER(...) method list
};

struct ClassDef {
  std::string name;       // e.g. "GridState"
  std::string qualified;  // e.g. "WarpLdaSampler::GridState"
  std::string file;
  size_t line = 0;        // 1-based line of the class-head name
  Contract contract = Contract::kNone;  // class-level annotation
  std::vector<std::string> writers;
  std::vector<FieldDecl> fields;  // direct data members, declaration order
};

// Collects every struct/class definition in the file with its direct field
// declarations (methods, statics, usings and nested definitions skipped)
// and any WARP_WORKER_LOCAL / WARP_BARRIER_ONLY / WARP_IMMUTABLE_AFTER(...)
// annotations on the class head or on individual members.
std::vector<ClassDef> CollectClasses(const SourceFile& f);

// True if the access that starts where the member token ends mutates the
// member: assignment (including op=), ++/-- (either side), a mutating
// member-function call (push_back/assign/resize/...), or an assignment
// reached through a dotted field chain (`cfg_.alpha = x` mutates cfg_).
// `begin`/`end` delimit the member token inside `line` (scrubbed).
bool IsWriteAccess(const std::string& line, size_t begin, size_t end);

}  // namespace warplint

#endif  // WARPLINT_LINT_MODEL_H_
