// Rule family 3: cross-TU hygiene.
//
//   warplint-obs-orphan   metrics fetched from / registered with the obs
//                         registry but never Inc'd / Observed anywhere in
//                         the tree (dead dashboards), and metric-handle
//                         fields mutated without ever being bound to the
//                         registry (null-deref / invisible metric).
//   warplint-rng-stream   seeded Rng construction inside a concurrent grid
//                         body that does not flow from the per-token stream
//                         derivation (StreamRng) — such an
//                         Rng repeats the same sequence for every block and
//                         silently correlates proposals across workers.
//   warplint-stale-nolint suppressions whose target line no longer
//                         triggers the named rule. Runs after every other
//                         pass so it can consult the finding list.

#include <algorithm>

#include "lint_rules.h"

namespace warplint {

namespace {

// ----------------------------------------------------------- obs-orphan ---

struct MetricSite {
  std::string file;
  size_t line = 0;
  std::string metric;  // registry name string, e.g. "dist_frames_sent_total"
  std::string handle;  // variable / member the handle is stored in
};

const char* const kObsCalls[] = {"GetCounter",      "GetGauge",
                                 "GetHistogram",    "RegisterCounter",
                                 "RegisterGauge",   "RegisterHistogram"};

bool IsMutatorName(const std::string& m) {
  return m == "Inc" || m == "Add" || m == "Set" || m == "Observe";
}

// True when `handle` is followed somewhere by `.Mut(` / `->Mut(`.
bool HandleMutated(const std::vector<SourceFile>& files,
                   const std::string& handle) {
  if (handle.empty()) return false;
  for (const SourceFile& f : files) {
    size_t pos = 0, at = 0;
    const std::string& text = f.flat_code;
    while (pos < text.size()) {
      std::string tail = text.substr(pos);
      if (!HasWord(tail, handle, &at)) break;
      size_t j = pos + at + handle.size();
      while (j < text.size() && (text[j] == ' ' || text[j] == '\n')) ++j;
      if (j < text.size() && text[j] == '.') {
        ++j;
      } else if (j + 1 < text.size() && text[j] == '-' && text[j + 1] == '>') {
        j += 2;
      } else {
        pos = pos + at + handle.size();
        continue;
      }
      size_t wb = j;
      while (j < text.size() && IsIdent(text[j])) ++j;
      if (IsMutatorName(text.substr(wb, j - wb)) && j < text.size() &&
          text[j] == '(') {
        return true;
      }
      pos = pos + at + handle.size();
    }
  }
  return false;
}

size_t MatchingClose(const std::string& text, size_t open) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '(') ++depth;
    if (text[i] == ')' && --depth == 0) return i;
  }
  return std::string::npos;
}

std::string LastIdent(const std::string& s) {
  size_t end = s.size();
  while (end > 0 && !IsIdent(s[end - 1])) --end;
  size_t begin = end;
  while (begin > 0 && IsIdent(s[begin - 1])) --begin;
  return s.substr(begin, end - begin);
}

// Collects every registry call site in `f` with its metric name (from the
// raw text — the string literal is blanked in flat_code) and the handle it
// binds. A chained immediate use (`...GetHistogram(...)->Observe(...)`) is
// recorded with an empty handle and counts as used.
void CollectMetricSites(const SourceFile& f, std::vector<MetricSite>* sites,
                        std::set<std::string>* bound,
                        std::set<std::string>* chained_used) {
  const std::string& text = f.flat_code;
  for (const char* call : kObsCalls) {
    const std::string name(call);
    const bool is_register = name.compare(0, 8, "Register") == 0;
    size_t pos = 0, at = 0;
    while (pos < text.size()) {
      std::string tail = text.substr(pos);
      if (!HasWord(tail, name, &at)) break;
      size_t start = pos + at;
      pos = start + name.size();
      // Only object-call sites: `reg.GetCounter(`, `Global().GetHistogram(`.
      // Skips declarations (` GetCounter(`) and definitions (`::GetCounter(`).
      if (start == 0 || (text[start - 1] != '.' && text[start - 1] != '>')) {
        continue;
      }
      size_t open = text.find('(', start + name.size());
      if (open == std::string::npos) continue;
      size_t close = MatchingClose(text, open);
      if (close == std::string::npos) continue;
      // Metric name: first string literal inside the call, from raw text
      // (flat_raw and flat_code share columns).
      size_t quote = f.flat_raw.find('"', open);
      if (quote == std::string::npos || quote > close) continue;
      size_t quote_end = f.flat_raw.find('"', quote + 1);
      if (quote_end == std::string::npos) continue;
      MetricSite site;
      site.file = f.rel;
      site.line = f.line_of[start] + 1;
      site.metric = f.flat_raw.substr(quote + 1, quote_end - quote - 1);
      if (is_register) {
        // Handle = last argument, stripped of '&'.
        std::string args = text.substr(open + 1, close - open - 1);
        size_t cut = std::string::npos;
        int depth = 0;
        for (size_t i = 0; i < args.size(); ++i) {
          if (args[i] == '(' || args[i] == '[' || args[i] == '{') ++depth;
          if (args[i] == ')' || args[i] == ']' || args[i] == '}') --depth;
          if (args[i] == ',' && depth == 0) cut = i;
        }
        if (cut != std::string::npos) {
          site.handle = LastIdent(args.substr(cut + 1));
        }
        if (!site.handle.empty()) bound->insert(site.handle);
      } else {
        // Handle = last identifier of the LHS when this call initialises
        // one. Walk back to the nearest statement boundary; accept only a
        // plain `=` (not ==, <=, !=, ...).
        size_t b = start;
        size_t eq = std::string::npos;
        while (b > 0) {
          char c = text[b - 1];
          // '?' is not a boundary: `h = durable ? reg.Get...` still binds h.
          if (c == ';' || c == '{' || c == '}') break;
          if (c == '=') {
            if (b >= 2 && (text[b - 2] == '=' || text[b - 2] == '!' ||
                           text[b - 2] == '<' || text[b - 2] == '>')) {
              break;
            }
            eq = b - 1;
            break;
          }
          --b;
        }
        if (eq != std::string::npos) {
          size_t lhs_begin = eq;
          while (lhs_begin > 0) {
            char c = text[lhs_begin - 1];
            if (c == ';' || c == '{' || c == '}') break;
            --lhs_begin;
          }
          site.handle = LastIdent(text.substr(lhs_begin, eq - lhs_begin));
          if (!site.handle.empty()) bound->insert(site.handle);
        } else {
          // No assignment: chained immediate use is fine, a bare discarded
          // call is an orphan with no handle to search for.
          size_t j = close + 1;
          while (j < text.size() && (text[j] == ' ' || text[j] == '\n')) ++j;
          if (j + 1 < text.size() && text[j] == '-' && text[j + 1] == '>') {
            chained_used->insert(site.metric);
          }
        }
      }
      sites->push_back(site);
    }
  }
}

// ----------------------------------------------------------- rng-stream ---

bool RngArgsStreamDerived(const std::string& args) {
  return args.find("stream") != std::string::npos ||
         args.find("Stream") != std::string::npos ||
         args.find("state") != std::string::npos ||
         args.find("State") != std::string::npos ||
         args.find("Derive") != std::string::npos;
}

}  // namespace

void CheckObsOrphans(const std::vector<SourceFile>& files,
                     std::vector<Finding>* out) {
  std::vector<MetricSite> sites;
  std::set<std::string> bound;
  std::set<std::string> chained_used;
  for (const SourceFile& f : files) {
    if (StartsWith(f.rel, "src/obs/") || StartsWith(f.rel, "obs/")) continue;
    // Tests and benches fetch metrics to *read* them; only production code
    // is expected to drive every handle it registers.
    if (StartsWith(f.rel, "tests/") || StartsWith(f.rel, "bench/")) continue;
    CollectMetricSites(f, &sites, &bound, &chained_used);
  }
  std::set<std::string> reported;
  for (const MetricSite& s : sites) {
    if (reported.count(s.metric)) continue;
    bool used = s.handle.empty() ? chained_used.count(s.metric) > 0
                                 : HandleMutated(files, s.handle);
    if (used) continue;
    reported.insert(s.metric);
    out->push_back(
        {s.file, s.line, "obs-orphan",
         "metric '" + s.metric + "' is registered here" +
             (s.handle.empty() ? "" : " (handle '" + s.handle + "')") +
             " but never Inc/Add/Set/Observe'd anywhere — either wire up "
             "the instrumentation or drop the registration",
         false});
  }
  // Reverse direction: obs handle fields mutated but never bound.
  for (const SourceFile& f : files) {
    if (StartsWith(f.rel, "src/obs/") || StartsWith(f.rel, "obs/")) continue;
    for (const ClassDef& c : CollectClasses(f)) {
      for (const FieldDecl& fd : c.fields) {
        if (!HasWord(fd.type, "Counter") && !HasWord(fd.type, "Gauge") &&
            !HasWord(fd.type, "Histogram")) {
          continue;
        }
        if (fd.type.find("obs") == std::string::npos) continue;
        if (bound.count(fd.name)) continue;
        if (!HandleMutated(files, fd.name)) continue;
        out->push_back(
            {f.rel, fd.line, "obs-orphan",
             "metric handle '" + fd.name + "' of '" + c.name +
                 "' is mutated but never bound to the registry via "
                 "Get*/Register* — the updates are invisible (or a null "
                 "deref if the handle is a pointer)",
             false});
      }
    }
  }
}

void CheckRngStream(const SourceFile& f, std::vector<Finding>* out) {
  std::vector<BodyRange> bodies = ExtractMethodBodies(f);
  std::vector<BodyRange> frees = ExtractFreeFunctionBodies(f);
  bodies.insert(bodies.end(), frees.begin(), frees.end());
  for (const BodyRange& b : bodies) {
    if (!IsContractHotBody(b.name)) continue;
    for (size_t ln = b.begin_line; ln <= b.end_line && ln <= f.code.size();
         ++ln) {
      const std::string& s = f.code[ln - 1];
      if (s.find(".Seed(") != std::string::npos ||
          s.find("->Seed(") != std::string::npos) {
        out->push_back(
            {f.rel, ln, "rng-stream",
             "re-seeding an Rng inside concurrent body '" + b.name +
                 "' — derive it from the per-token stream "
                 "(WarpLdaSampler::StreamRng) so "
                 "draws stay block-order independent",
             false});
        continue;
      }
      size_t pos = 0, at = 0;
      while (pos < s.size()) {
        std::string tail = s.substr(pos);
        if (!HasWord(tail, "Rng", &at)) break;
        size_t j = pos + at + 3;
        pos = pos + at + 3;
        while (j < s.size() && s[j] == ' ') ++j;
        if (j >= s.size() || s[j] == '&' || s[j] == '*' || s[j] == '>' ||
            s[j] == ')' || s[j] == ',') {
          continue;  // parameter / template / cast position
        }
        std::string check;  // argument text to test for stream derivation
        if (s[j] == '(') {
          size_t close = MatchingClose(s, j);
          check = (close == std::string::npos) ? s.substr(j)
                                               : s.substr(j, close - j);
        } else if (IsIdent(s[j])) {
          size_t name_end = j;
          while (name_end < s.size() && IsIdent(s[name_end])) ++name_end;
          size_t k = name_end;
          while (k < s.size() && s[k] == ' ') ++k;
          if (k < s.size() && s[k] == ';') continue;  // lazy default-construct
          if (k < s.size() && s[k] == '(') {
            size_t close = MatchingClose(s, k);
            check = (close == std::string::npos) ? s.substr(k)
                                                 : s.substr(k, close - k);
          } else if (k < s.size() && s[k] == '=') {
            // `Rng rng = <expr>;` — test the initialiser (joined with the
            // next lines in case it wraps).
            check = s.substr(k + 1);
            for (size_t extra = ln; extra < ln + 2 && extra < f.code.size();
                 ++extra) {
              check += f.code[extra];
            }
          } else {
            continue;
          }
        } else {
          continue;
        }
        if (!RngArgsStreamDerived(check)) {
          out->push_back(
              {f.rel, ln, "rng-stream",
               "seeded Rng constructed inside concurrent body '" + b.name +
                   "' without a per-token stream derivation — use "
                   "WarpLdaSampler::StreamRng(stream_base, tag, token) so "
                   "every token draws from its own "
                   "stream regardless of block schedule",
               false});
        }
      }
    }
  }
}

void CheckStaleNolint(const std::vector<SourceFile>& files,
                      std::vector<Finding>* findings) {
  std::vector<Finding> stale;
  for (const SourceFile& f : files) {
    for (const auto& it : f.nolint) {
      for (const std::string& rule : it.second.rules) {
        if (rule == "nolint" || rule == "stale-nolint" || !IsKnownRule(rule)) {
          continue;  // unknown ids are warplint-nolint's business
        }
        bool fires = false;
        for (const Finding& fd : *findings) {
          if (fd.rule == rule && fd.line == it.first && fd.file == f.rel) {
            fires = true;
            break;
          }
        }
        if (!fires) {
          stale.push_back(
              {f.rel, it.first, "stale-nolint",
               "NOLINT(warplint-" + rule +
                   ") suppresses nothing — the line no longer triggers "
                   "warplint-" + rule + "; remove the stale suppression",
               false});
        }
      }
    }
  }
  findings->insert(findings->end(), stale.begin(), stale.end());
}

}  // namespace warplint
