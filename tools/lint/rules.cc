// The rule set: every rule walks the shared token stream / project model
// (no substring scanning — see lexer.h / model.h).
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "lint.h"

namespace picloud::lint {

namespace {

// --- shared helpers ----------------------------------------------------------

struct FileView {
  const SourceFile& f;
  const std::vector<Token>& T;
  const std::vector<int>& C;
  const int n;

  explicit FileView(const SourceFile& file)
      : f(file),
        T(file.tokens),
        C(file.code),
        n(static_cast<int>(file.code.size())) {}

  const Token& tok(int ci) const { return T[C[ci]]; }
  bool has(int ci) const { return ci >= 0 && ci < n; }
  bool punct(int ci, const char* p) const {
    return has(ci) && tok(ci).is_punct(p);
  }
  bool ident(int ci, const char* t) const {
    return has(ci) && tok(ci).is_ident(t);
  }
  bool is_ident(int ci) const {
    return has(ci) && tok(ci).kind == TokenKind::kIdentifier;
  }
  // Index just past the matching ')' for the '(' at ci, or n.
  int skip_parens(int ci) const {
    int depth = 0;
    for (int j = ci; j < n; ++j) {
      if (punct(j, "(")) ++depth;
      if (punct(j, ")") && --depth == 0) return j + 1;
    }
    return n;
  }
};

struct Reporter {
  const ProjectModel& model;
  std::vector<Diagnostic>& diags;

  void operator()(int file, int line, const std::string& rule,
                  std::string message) const {
    if (model.suppressed(file, line, rule)) return;
    diags.push_back(
        Diagnostic{model.files()[file].path, line, rule, std::move(message)});
  }
};

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool contains(const std::string& haystack, const char* needle) {
  return haystack.find(needle) != std::string::npos;
}

// --- nondeterminism ----------------------------------------------------------

struct BannedApi {
  const char* token;
  bool requires_call;  // must be followed by '(' (filters members like .time)
  const char* hint;
};

constexpr BannedApi kBannedApis[] = {
    {"rand", true, "use util::Rng"},
    {"srand", false, "seed util::Rng from the experiment config"},
    {"random_device", false, "use util::Rng"},
    {"time", true, "use sim::Simulation::now()"},
    {"gettimeofday", false, "use sim::Simulation::now()"},
    {"clock_gettime", false, "use sim::Simulation::now()"},
    {"system_clock", false, "use sim::Simulation::now()"},
    {"steady_clock", false, "use sim::Simulation::now()"},
    {"high_resolution_clock", false, "use sim::Simulation::now()"},
    {"this_thread", false, "the simulator is single-threaded by design"},
};

// Raw console output bypasses PICLOUD_LOG (and so the log sink / clock
// prefixing). snprintf/vsnprintf stay legal: they are distinct identifiers.
constexpr BannedApi kConsoleApis[] = {
    {"printf", true, "use PICLOUD_LOG (util/logging.h)"},
    {"fprintf", true, "use PICLOUD_LOG (util/logging.h)"},
    {"cerr", false, "use PICLOUD_LOG (util/logging.h)"},
    {"cout", false, "use PICLOUD_LOG (util/logging.h)"},
};

constexpr const char* kUnorderedContainers[] = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};

// --- per-file rules ----------------------------------------------------------

void per_file_rules(const ProjectModel& model, int fi, const Reporter& report) {
  const SourceFile& f = model.files()[fi];
  const FileView v(f);
  const bool in_src = !f.module.empty() ||
                      f.path.find("src/") == 0 ||
                      f.path.find("/src/") != std::string::npos;

  // pragma-once: headers must carry the guard.
  if (f.is_header) {
    bool has_guard = false;
    for (int ci = 0; ci + 1 < v.n; ++ci) {
      if (v.tok(ci).is(TokenKind::kPpDirective, "#pragma") &&
          v.ident(ci + 1, "once")) {
        has_guard = true;
        break;
      }
    }
    if (!has_guard) {
      report(fi, 1, "pragma-once", "header is missing '#pragma once'");
    }
  }

  // metrics-registry precondition: does this file talk to the spine?
  bool metrics_aware = false;
  for (const IncludeDirective& inc : f.includes) {
    if (inc.spelled == "util/metrics.h") metrics_aware = true;
  }
  for (int ci = 0; ci < v.n && !metrics_aware; ++ci) {
    if (v.ident(ci, "MetricsRegistry")) metrics_aware = true;
    if ((v.ident(ci, "Counter") || v.ident(ci, "Gauge") ||
         v.ident(ci, "LogHistogram")) &&
        v.punct(ci - 1, "::") && v.ident(ci - 2, "util")) {
      metrics_aware = true;
    }
  }

  // full-solve exemptions: the solver's own implementation and the test
  // tree (differential harness, property tests) use the oracle by design.
  const bool fabric_impl =
      f.path.find("src/net/fabric.") == 0 ||
      f.path.find("/src/net/fabric.") != std::string::npos;
  const bool in_tests =
      f.path.find("tests/") == 0 || f.path.find("/tests/") != std::string::npos;

  for (int ci = 0; ci < v.n; ++ci) {
    const Token& t = v.tok(ci);
    if (t.kind != TokenKind::kIdentifier) continue;
    const bool called = v.punct(ci + 1, "(");

    // full-solve: the whole-fabric progressive-filling oracle exists for
    // differential testing (DESIGN.md §14); production code must go through
    // the incremental dirty-set path or every flow event re-pays
    // O(flows x links).
    if ((t.text == "reallocate_full" || t.text == "kFullOracle") &&
        !fabric_impl && !in_tests) {
      report(fi, t.line, "full-solve",
             "'" + t.text +
                 "' invokes the whole-fabric oracle solver outside "
                 "src/net/fabric.* and tests/; use the incremental solver, "
                 "or justify with allow(full-solve)");
    }

    // nondeterminism: banned wall-clock / libc-RNG / threading APIs.
    for (const BannedApi& api : kBannedApis) {
      if (t.text == api.token && (!api.requires_call || called)) {
        report(fi, t.line, "nondeterminism",
               std::string("'") + api.token +
                   "' breaks bit-reproducible runs; " + api.hint);
      }
    }

    if (!in_src) continue;

    // raw-assert: src/ must use the CHECK framework.
    if (t.text == "assert" && called) {
      report(fi, t.line, "raw-assert",
             "'assert(' vanishes under NDEBUG; use PICLOUD_CHECK / "
             "PICLOUD_DCHECK from util/check.h");
    }

    // unordered-container: iteration order is hash/pointer-dependent and
    // feeds event ordering and digests; the ordered-container convention
    // (std::map / std::set) is load-bearing for bit-reproducibility.
    for (const char* banned : kUnorderedContainers) {
      if (t.text == banned) {
        report(fi, t.line, "unordered-container",
               std::string("'std::") + banned +
                   "' iteration order is not deterministic across "
                   "implementations; use std::map/std::set (or a vector) so "
                   "event ordering and digests stay bit-reproducible");
      }
    }

    // metrics-registry: console output goes via PICLOUD_LOG.
    for (const BannedApi& api : kConsoleApis) {
      if (t.text == api.token && (!api.requires_call || called)) {
        report(fi, t.line, "metrics-registry",
               std::string("'") + api.token +
                   "' bypasses the structured log spine; " + api.hint);
      }
    }

    // metrics-registry: an ad-hoc Stats struct outside util/ in a file that
    // never touches the registry is a parallel counter store.
    if (f.module != "util" && !metrics_aware && t.text == "struct" &&
        v.is_ident(ci + 1)) {
      const std::string& name = v.tok(ci + 1).text;
      if (name.size() >= 5 &&
          name.compare(name.size() - 5, 5, "Stats") == 0) {
        report(fi, t.line, "metrics-registry",
               "'struct " + name +
                   "' is a parallel counter store; register the series with "
                   "the MetricsRegistry (util/metrics.h) and have callers "
                   "read the registry");
      }
    }
  }
}

// --- event-capture -----------------------------------------------------------
//
// A `[&]` (or `[&, ...]`) lambda handed to the event queue outlives its
// enclosing frame: Simulation::after/at/schedule and PeriodicTask run it at
// fire time, when everything the default capture referenced may be gone.
// Explicit captures ([this], [this, id], by value) state the lifetime
// contract; `[&]` hides it. src/ only — tests pump the queue inside the
// capturing scope.

void event_capture_rule(const ProjectModel& model, int fi,
                        const Reporter& report) {
  const SourceFile& f = model.files()[fi];
  if (f.module.empty()) return;
  const FileView v(f);
  for (int ci = 0; ci < v.n; ++ci) {
    if (!v.is_ident(ci) || !v.punct(ci + 1, "(")) continue;
    const std::string& name = v.tok(ci).text;
    bool scheduler_method =
        (name == "after" || name == "at" || name == "schedule") &&
        (v.punct(ci - 1, ".") || v.punct(ci - 1, "->"));
    bool periodic_ctor = name == "PeriodicTask";
    if (!scheduler_method && !periodic_ctor) continue;
    int close = v.skip_parens(ci + 1);
    for (int j = ci + 2; j < close - 1; ++j) {
      if (!v.punct(j, "[") || !v.punct(j + 1, "&")) continue;
      if (!v.punct(j + 2, "]") && !v.punct(j + 2, ",")) continue;
      // Lambda-introducer, not a subscript: `x[&y]` has an identifier,
      // ')' or ']' before the bracket.
      if (v.is_ident(j - 1) || v.punct(j - 1, ")") || v.punct(j - 1, "]")) {
        continue;
      }
      report(fi, v.tok(j).line, "event-capture",
             "'[&]' default-reference capture in a lambda scheduled via '" +
                 name +
                 "' dangles by fire time; capture explicitly ([this], "
                 "[this, id], or by value)");
    }
  }
}

// --- schedule-point ----------------------------------------------------------
//
// Model-checker seam enforcement (DESIGN.md §13.1): the network's delivery
// dispatches are where the control plane commits to a message order, and
// every one must consult the SchedulePoint hub so an installed exploration
// strategy can intercept it — a delivery path that bypasses the hub
// silently escapes the model checker's state space. Heuristic: a
// deliver()/deliver_to_node() call in a src/net source file needs a
// `schedule_points` token within the preceding window (the active()
// fast-path test or the intercept() offer both carry one); the qualified
// member definitions themselves are exempt.

void schedule_point_rule(const ProjectModel& model, int fi,
                         const Reporter& report) {
  const SourceFile& f = model.files()[fi];
  if (f.module != "net" || f.is_header) return;
  const FileView v(f);
  constexpr int kWindow = 60;
  for (int ci = 0; ci < v.n; ++ci) {
    if (!v.is_ident(ci) || !v.punct(ci + 1, "(")) continue;
    const std::string& name = v.tok(ci).text;
    if (name != "deliver" && name != "deliver_to_node") continue;
    if (v.punct(ci - 1, "::")) continue;  // definition/qualified, not a call
    bool consulted = false;
    for (int j = ci - 1; j >= 0 && j >= ci - kWindow; --j) {
      if (v.ident(j, "schedule_points")) {
        consulted = true;
        break;
      }
    }
    if (consulted) continue;
    report(fi, v.tok(ci).line, "schedule-point",
           "'" + name +
               "' dispatches a delivery without consulting the SchedulePoint "
               "hub; gate it on schedule_points().active() and offer the "
               "parked action via intercept() (DESIGN.md §13.1)");
  }
}

// --- rest-retry --------------------------------------------------------------

void rest_retry_rule(const ProjectModel& model, int fi,
                     const Reporter& report) {
  const SourceFile& f = model.files()[fi];
  if (f.module != "cloud" || f.is_header) return;
  const FileView v(f);
  for (int ci = 0; ci < v.n; ++ci) {
    if (!v.is_ident(ci) || !v.punct(ci + 1, "(")) continue;
    const std::string& name = v.tok(ci).text;
    if (name != "call" && name != "get" && name != "post") continue;
    if (!v.punct(ci - 1, ".") && !v.punct(ci - 1, "->")) continue;
    if (!v.is_ident(ci - 2)) continue;
    if (!contains(lower(v.tok(ci - 2).text), "client")) continue;
    int close = v.skip_parens(ci + 1);
    if (close - (ci + 1) <= 2) continue;  // zero-arg: unique_ptr::get() etc.
    bool explicit_reliability = false;
    for (int j = ci + 2; j < close - 1; ++j) {
      if (!v.is_ident(j)) continue;
      const std::string& arg = v.tok(j).text;
      if (contains(arg, "policy") || contains(arg, "Policy") ||
          contains(arg, "timeout") || contains(arg, "Timeout") ||
          contains(arg, "Duration")) {
        explicit_reliability = true;
        break;
      }
    }
    if (!explicit_reliability) {
      report(fi, v.tok(ci).line, "rest-retry",
             "RestClient call without an explicit RetryPolicy or timeout; "
             "state the call's reliability (see proto/rest.h)");
    }
  }
}

// --- wire-parse --------------------------------------------------------------
//
// Messages cross net::Network as util::Json values (DESIGN.md §15): JSON
// text exists only at the model's edges, so a Json::parse /
// HttpRequest::parse / HttpResponse::parse reference anywhere else in src/
// is the in-process dump->parse round trip creeping back onto the message
// path. The edges: the parser itself, the HTTP envelope's text form, and
// the model checker's counterexample files. Scenario JSON is parsed by its
// callers outside src/ (tests, tools).

constexpr const char* kWireParseEdges[] = {
    "src/util/json.cc", "src/proto/http.cc", "src/mc/schedule.cc"};

bool path_is(const std::string& path, const std::string& repo_path) {
  return path == repo_path ||
         (path.size() > repo_path.size() &&
          path.compare(path.size() - repo_path.size() - 1, std::string::npos,
                       "/" + repo_path) == 0);
}

void wire_parse_rule(const ProjectModel& model, int fi,
                     const Reporter& report) {
  const SourceFile& f = model.files()[fi];
  if (f.module.empty()) return;  // src/ only
  for (const char* edge : kWireParseEdges) {
    if (path_is(f.path, edge)) return;
  }
  const FileView v(f);
  for (int ci = 2; ci < v.n; ++ci) {
    if (!v.ident(ci, "parse") || !v.punct(ci - 1, "::")) continue;
    if (!v.ident(ci - 2, "Json") && !v.ident(ci - 2, "HttpRequest") &&
        !v.ident(ci - 2, "HttpResponse")) {
      continue;
    }
    report(fi, v.tok(ci).line, "wire-parse",
           "'" + v.tok(ci - 2).text +
               "::parse' outside the JSON edges; messages carry util::Json "
               "values, so read msg.body (or from_json()) instead of "
               "parsing text (DESIGN.md §15)");
  }
}

// --- invariant-catalogue -----------------------------------------------------

void invariant_catalogue_rule(const ProjectModel& model, int fi,
                              const Reporter& report) {
  const SourceFile& f = model.files()[fi];
  if (f.module != "testing") return;
  const FileView v(f);
  std::set<std::string> registered;
  for (int ci = 0; ci < v.n; ++ci) {
    if (!v.ident(ci, "register_probe") || !v.punct(ci + 1, "(")) continue;
    int close = v.skip_parens(ci + 1);
    for (int j = ci + 2; j < close - 1; ++j) {
      if (v.is_ident(j) && v.tok(j).text.rfind("probe_", 0) == 0) {
        registered.insert(v.tok(j).text);
      }
    }
  }
  for (int ci = 0; ci < v.n; ++ci) {
    if (!v.is_ident(ci) || !v.punct(ci + 1, "(")) continue;
    const std::string& name = v.tok(ci).text;
    if (name.rfind("probe_", 0) != 0) continue;
    // A factory definition: the preceding token is its return type, ending
    // in "Probe" (e.g. InvariantChecker::Probe).
    if (!v.is_ident(ci - 1)) continue;
    const std::string& ret = v.tok(ci - 1).text;
    if (ret.size() < 5 || ret.compare(ret.size() - 5, 5, "Probe") != 0) {
      continue;
    }
    if (registered.count(name) == 0) {
      report(fi, v.tok(ci).line, "invariant-catalogue",
             "'" + name +
                 "' is defined but never passed to register_probe; an "
                 "unregistered probe silently checks nothing");
    }
  }
}

// --- include-hygiene / include-cycle (project model) -------------------------

void include_rules(const ProjectModel& model, const Reporter& report) {
  // Module layering, computed from the whole-tree include graph.
  for (const ModuleEdge& edge : model.layering_violations()) {
    for (const auto& [file, line] : edge.sites) {
      report(file, line, "include-hygiene",
             "src/" + edge.from + " must not include into src/" + edge.to +
                 ": this edge creates a module cycle (" + edge.cycle +
                 "); the layering is computed from the whole-tree include "
                 "graph and this is its minority direction");
    }
  }
  // File-level include cycles.
  for (const std::vector<int>& scc : model.include_cycles()) {
    std::string members;
    for (std::size_t i = 0; i < scc.size(); ++i) {
      if (i > 0) members += " <-> ";
      members += model.files()[scc[i]].path;
    }
    // Anchor the diagnostic at the first member's include of another member.
    int anchor_file = scc.front();
    int anchor_line = 1;
    for (const IncludeDirective& inc : model.files()[anchor_file].includes) {
      if (std::find(scc.begin(), scc.end(), inc.resolved) != scc.end()) {
        anchor_line = inc.line;
        break;
      }
    }
    report(anchor_file, anchor_line, "include-cycle",
           "#include cycle: " + members +
               "; break it with a forward declaration or by splitting the "
               "header");
  }
}

// --- unused-include ----------------------------------------------------------

void unused_include_rule(const ProjectModel& model, int fi,
                         const Reporter& report) {
  const SourceFile& f = model.files()[fi];
  if (f.module.empty()) return;  // reported under src/ only
  const FileView v(f);
  // The including file's referenced identifier set.
  std::set<std::string> used;
  for (int ci = 0; ci < v.n; ++ci) {
    if (v.is_ident(ci)) used.insert(v.tok(ci).text);
  }
  std::string stem = std::filesystem::path(f.path).stem().string();
  for (const IncludeDirective& inc : f.includes) {
    if (inc.resolved < 0 || inc.resolved == fi) continue;
    const SourceFile& target = model.files()[inc.resolved];
    // A .cc always keeps its own header (that include *is* the interface).
    if (std::filesystem::path(target.path).stem().string() == stem &&
        target.module == f.module) {
      continue;
    }
    const std::set<std::string>& exported =
        model.declared_names(inc.resolved);
    if (exported.empty()) continue;  // nothing indexable to check against
    bool any_used = false;
    for (const std::string& name : exported) {
      if (used.count(name) > 0) {
        any_used = true;
        break;
      }
    }
    if (!any_used) {
      report(fi, inc.line, "unused-include",
             "'" + inc.spelled + "' is included but none of the symbols it "
             "declares are referenced here; drop the include (or include "
             "what you use)");
    }
  }
}

// --- bounded-queue -----------------------------------------------------------
//
// Overload resilience starts at admission (DESIGN.md §11): a pending-work
// queue in the serving tier that nothing bounds turns a flash crowd into
// memory exhaustion and unbounded latency instead of load shedding. Any
// std::deque / std::vector declaration in src/apps/ or src/cloud/ whose
// name says it holds pending work (*queue*, *pending*, *backlog*) must come
// with a capacity comparison against its .size() — in the declaring file or
// its same-stem sibling (.h <-> .cc) — or carry an explicit
// allow(bounded-queue). Whole-program only: the declaration usually lives
// in the header and the admission check in the .cc.

bool compares_queue_size(const SourceFile& f, const std::string& name) {
  const FileView v(f);
  static const char* kRelOps[] = {"<", ">", "<=", ">=", "=="};
  for (int ci = 0; ci + 4 < v.n; ++ci) {
    if (!v.is_ident(ci) || v.tok(ci).text != name) continue;
    if (!v.punct(ci + 1, ".") || !v.ident(ci + 2, "size") ||
        !v.punct(ci + 3, "(") || !v.punct(ci + 4, ")")) {
      continue;
    }
    // A relational operator within a few tokens on either side covers
    // `q_.size() >= cap`, `cap > q_.size()` and the
    // `static_cast<int>(q_.size()) >= cap` spelling.
    for (int j = std::max(0, ci - 8); j < std::min(v.n, ci + 12); ++j) {
      if (j >= ci && j <= ci + 4) continue;
      for (const char* op : kRelOps) {
        if (v.punct(j, op)) return true;
      }
    }
  }
  return false;
}

void bounded_queue_rule(const ProjectModel& model, int fi,
                        const Reporter& report) {
  const SourceFile& f = model.files()[fi];
  if (f.module != "apps" && f.module != "cloud") return;
  const FileView v(f);
  const std::string stem = std::filesystem::path(f.path).stem().string();
  for (int ci = 2; ci < v.n; ++ci) {
    if (!(v.ident(ci, "deque") || v.ident(ci, "vector")) ||
        !v.punct(ci - 1, "::") || !v.ident(ci - 2, "std") ||
        !v.punct(ci + 1, "<")) {
      continue;
    }
    // Skip the template argument list; the lexer emits '>>' as one token,
    // which closes two levels.
    int depth = 0;
    int j = ci + 1;
    for (; j < v.n; ++j) {
      if (v.punct(j, "<")) {
        ++depth;
      } else if (v.punct(j, ">")) {
        if (--depth == 0) {
          ++j;
          break;
        }
      } else if (v.punct(j, ">>")) {
        depth -= 2;
        if (depth <= 0) {
          ++j;
          break;
        }
      }
    }
    if (!v.has(j) || !v.is_ident(j)) continue;  // not a declaration
    const std::string& name = v.tok(j).text;
    const std::string l = lower(name);
    if (!contains(l, "queue") && !contains(l, "pending") &&
        !contains(l, "backlog")) {
      continue;
    }
    // Declarator end or initializer start — filters expressions and
    // function parameters mid-list.
    if (!v.punct(j + 1, ";") && !v.punct(j + 1, "{") &&
        !v.punct(j + 1, "=")) {
      continue;
    }
    bool bounded = compares_queue_size(f, name);
    for (int oi = 0; oi < static_cast<int>(model.files().size()) && !bounded;
         ++oi) {
      if (oi == fi) continue;
      const SourceFile& other = model.files()[oi];
      if (other.module != f.module) continue;
      if (std::filesystem::path(other.path).stem().string() != stem) continue;
      bounded = compares_queue_size(other, name);
    }
    if (!bounded) {
      report(fi, v.tok(j).line, "bounded-queue",
             "'" + name +
                 "' is a pending-work queue with no capacity check; an "
                 "unbounded queue turns overload into memory exhaustion "
                 "instead of load shedding — compare " + name +
                 ".size() against a capacity before enqueueing (or "
                 "suppress with allow(bounded-queue))");
    }
  }
}

// --- hot-path-alloc ----------------------------------------------------------
//
// The event hot loop's budget is tens of nanoseconds per event (DESIGN.md
// §12); one stray allocation or full-string compare in it costs more than
// the rest of the loop combined. Everything under src/sim/ is hot by
// definition. Elsewhere, a `// picloud-hot` comment marks a hot region: the
// comment's line through the close of the next braced block (annotate a
// function or a loop). Inside hot regions the rule flags:
//   * std::function in code — a type-erased callable copies and may
//     allocate per call; take a template parameter or use a pooled slot;
//   * std::map / std::unordered_map keyed by std::string — every lookup
//     hashes/compares full strings; intern to util::Symbol (util/intern.h);
//   * non-placement `new`, make_unique, make_shared — per-call heap
//     allocation; preallocate or pool.
// Genuinely cold code inside a hot file (error paths, one-time growth)
// carries allow(hot-path-alloc) with its justification.

struct HotRegion {
  int begin_line;
  int end_line;
};

std::vector<HotRegion> hot_regions(const SourceFile& f, const FileView& v) {
  std::vector<HotRegion> regions;
  if (f.module == "sim") {
    regions.push_back(HotRegion{1, 1 << 30});
    return regions;
  }
  for (const Token& t : f.tokens) {
    if (t.kind != TokenKind::kComment) continue;
    if (t.text.find("picloud-hot") == std::string::npos) continue;
    // The region closes with the first braced block opened at or after the
    // marker (tokens earlier on the marker's own line count, so a trailing
    // `{  // picloud-hot` annotates that block).
    int end_line = 1 << 30;
    int ci = 0;
    while (ci < v.n && v.tok(ci).line < t.line) ++ci;
    if (ci > 0 && v.tok(ci - 1).line == t.line) --ci;
    while (ci < v.n && !v.punct(ci, "{")) ++ci;
    int depth = 0;
    for (; ci < v.n; ++ci) {
      if (v.punct(ci, "{")) ++depth;
      if (v.punct(ci, "}") && --depth == 0) {
        end_line = v.tok(ci).line;
        break;
      }
    }
    regions.push_back(HotRegion{t.line, end_line});
  }
  return regions;
}

void hot_path_alloc_rule(const ProjectModel& model, int fi,
                         const Reporter& report) {
  const SourceFile& f = model.files()[fi];
  const bool in_src = !f.module.empty() || f.path.find("src/") == 0 ||
                      f.path.find("/src/") != std::string::npos;
  if (!in_src) return;
  const FileView v(f);
  const std::vector<HotRegion> regions = hot_regions(f, v);
  if (regions.empty()) return;
  auto hot = [&regions](int line) {
    for (const HotRegion& r : regions) {
      if (line >= r.begin_line && line <= r.end_line) return true;
    }
    return false;
  };
  for (int ci = 0; ci < v.n; ++ci) {
    const int line = v.tok(ci).line;
    if (!hot(line)) continue;
    // std::function in code (comments and strings are separate tokens).
    if (v.ident(ci, "function") && v.punct(ci - 1, "::") &&
        v.ident(ci - 2, "std")) {
      report(fi, line, "hot-path-alloc",
             "std::function in a hot region copies (and may heap-allocate) "
             "its callable per call; take a template parameter or use a "
             "pooled closure slot (sim/event_queue.h)");
      continue;
    }
    // std::map<std::string, ...> / std::unordered_map<std::string, ...>.
    if ((v.ident(ci, "map") || v.ident(ci, "unordered_map")) &&
        v.punct(ci + 1, "<") && v.ident(ci + 2, "std") &&
        v.punct(ci + 3, "::") && v.ident(ci + 4, "string")) {
      report(fi, line, "hot-path-alloc",
             "'" + v.tok(ci).text +
                 "' keyed by std::string hashes/compares full strings on "
                 "every hot-path lookup; intern the keys to util::Symbol "
                 "handles (util/intern.h)");
      continue;
    }
    // Non-placement new: `new (addr) T` and `::operator new` are the pool's
    // own machinery, not per-call churn.
    if (v.ident(ci, "new") && !v.punct(ci + 1, "(") &&
        !(ci > 0 && v.ident(ci - 1, "operator"))) {
      report(fi, line, "hot-path-alloc",
             "'new' in a hot region heap-allocates per call; preallocate, "
             "pool, or move this off the hot path");
      continue;
    }
    if ((v.ident(ci, "make_unique") || v.ident(ci, "make_shared")) &&
        (v.punct(ci + 1, "<") || v.punct(ci + 1, "("))) {
      report(fi, line, "hot-path-alloc",
             "'" + v.tok(ci).text +
                 "' in a hot region heap-allocates per call; preallocate, "
                 "pool, or move this off the hot path");
      continue;
    }
  }
}

// --- dead-symbol -------------------------------------------------------------

bool dead_symbol_exempt(const std::string& name) {
  if (name == "main") return true;
  if (!name.empty() && name[0] == '_') return true;
  if (name.rfind("operator", 0) == 0) return true;
  return false;
}

void dead_symbol_rule(const ProjectModel& model, const Reporter& report) {
  for (const auto& [name, info] : model.symbols()) {
    if (info.refs > 0 || dead_symbol_exempt(name)) continue;
    // Only functions and types *defined under src/* carry the obligation;
    // macros/enumerators/aliases produce too much completeness noise.
    const SymbolDef* site = nullptr;
    for (const SymbolDef& def : info.defs) {
      if (def.kind != SymbolKind::kFunction && def.kind != SymbolKind::kType) {
        continue;
      }
      if (model.files()[def.file].module.empty()) continue;
      if (site == nullptr) site = &def;
    }
    if (site == nullptr) continue;
    report(site->file, site->line, "dead-symbol",
           "'" + name +
               "' is defined but referenced nowhere in src/, tests/, bench/ "
               "or examples/; dead checking code enforces nothing — delete "
               "it or wire it in");
  }
}

}  // namespace

// --- rule catalogue ----------------------------------------------------------

const std::vector<RuleInfo>& rule_catalogue() {
  static const std::vector<RuleInfo> kRules = {
      {"nondeterminism",
       "banned wall-clock / libc-RNG / threading APIs break bit-reproducible "
       "runs"},
      {"raw-assert", "assert() vanishes under NDEBUG; use PICLOUD_CHECK"},
      {"pragma-once", "headers must contain #pragma once"},
      {"include-hygiene",
       "module include edge against the layering computed from the include "
       "graph"},
      {"include-cycle", "file-level #include cycle"},
      {"unused-include", "included project header with no referenced symbol"},
      {"unordered-container",
       "std::unordered_* iteration order leaks into event ordering and "
       "digests"},
      {"event-capture",
       "[&] default-reference capture in a scheduled lambda dangles by fire "
       "time"},
      {"schedule-point",
       "delivery dispatch in src/net must consult the SchedulePoint hub "
       "(model-checker seam, DESIGN.md §13.1)"},
      {"dead-symbol", "function/type defined in src/ but referenced nowhere"},
      {"bounded-queue",
       "pending-work std::deque/std::vector in src/apps or src/cloud with no "
       "capacity check"},
      {"rest-retry",
       "RestClient call must state a RetryPolicy or timeout"},
      {"metrics-registry",
       "telemetry must flow through the MetricsRegistry / PICLOUD_LOG spine"},
      {"wire-parse",
       "Json/HttpRequest/HttpResponse::parse in src/ outside the JSON edges "
       "(util/json.cc, proto/http.cc, mc/schedule.cc)"},
      {"invariant-catalogue",
       "probe_* factories in src/testing must be register_probe()d"},
      {"hot-path-alloc",
       "allocation / string-keyed lookup / std::function in src/sim or a "
       "`// picloud-hot` region"},
      {"full-solve",
       "whole-fabric oracle solver (reallocate_full / kFullOracle) invoked "
       "outside src/net/fabric.* and tests/"},
      {"io", "file or root could not be read"},
  };
  return kRules;
}

// --- analysis entry points ---------------------------------------------------

std::vector<Diagnostic> analyze(const ProjectModel& model,
                                const AnalyzeOptions& options) {
  std::vector<Diagnostic> diags;
  Reporter report{model, diags};
  for (int fi = 0; fi < static_cast<int>(model.files().size()); ++fi) {
    per_file_rules(model, fi, report);
    event_capture_rule(model, fi, report);
    schedule_point_rule(model, fi, report);
    rest_retry_rule(model, fi, report);
    wire_parse_rule(model, fi, report);
    invariant_catalogue_rule(model, fi, report);
    hot_path_alloc_rule(model, fi, report);
    if (options.whole_program) {
      unused_include_rule(model, fi, report);
      bounded_queue_rule(model, fi, report);
    }
  }
  include_rules(model, report);
  if (options.whole_program) dead_symbol_rule(model, report);

  std::sort(diags.begin(), diags.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  diags.erase(std::unique(diags.begin(), diags.end(),
                          [](const Diagnostic& a, const Diagnostic& b) {
                            return a.file == b.file && a.line == b.line &&
                                   a.rule == b.rule && a.message == b.message;
                          }),
              diags.end());
  return diags;
}

std::vector<Diagnostic> analyze_files(
    const std::vector<ProjectModel::Input>& inputs,
    const AnalyzeOptions& options) {
  return analyze(ProjectModel::build(inputs), options);
}

std::vector<Diagnostic> lint_content(const std::string& path,
                                     const std::string& content) {
  AnalyzeOptions options;
  options.whole_program = false;
  return analyze_files({{path, content}}, options);
}

std::vector<Diagnostic> lint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {Diagnostic{path, 0, "io", "cannot read file"}};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return lint_content(path, buf.str());
}

std::vector<std::string> collect_files(const std::vector<std::string>& roots) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  auto wanted = [](const fs::path& p) {
    auto ext = p.extension();
    return ext == ".h" || ext == ".cc" || ext == ".cpp";
  };
  for (const std::string& root : roots) {
    fs::path rp(root);
    std::error_code ec;
    if (fs::is_regular_file(rp, ec)) {
      files.push_back(rp.string());
      continue;
    }
    if (!fs::is_directory(rp, ec)) continue;
    fs::recursive_directory_iterator it(rp, ec), end;
    for (; it != end; it.increment(ec)) {
      if (ec) break;
      const fs::path& p = it->path();
      std::string name = p.filename().string();
      if (it->is_directory() &&
          (name == "build" || (!name.empty() && name[0] == '.'))) {
        it.disable_recursion_pending();
        continue;
      }
      if (it->is_regular_file() && wanted(p)) files.push_back(p.string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

ProjectModel load_project(const std::vector<std::string>& roots,
                          std::vector<Diagnostic>* io_diags) {
  for (const std::string& root : roots) {
    std::error_code ec;
    if (!std::filesystem::exists(root, ec)) {
      io_diags->push_back(
          Diagnostic{root, 0, "io", "no such file or directory"});
    }
  }
  std::vector<ProjectModel::Input> inputs;
  for (const std::string& file : collect_files(roots)) {
    std::ifstream in(file, std::ios::binary);
    if (!in) {
      io_diags->push_back(Diagnostic{file, 0, "io", "cannot read file"});
      continue;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    inputs.push_back({file, buf.str()});
  }
  return ProjectModel::build(inputs);
}

int run(const std::vector<std::string>& roots, std::ostream& out) {
  std::vector<Diagnostic> diags;
  ProjectModel model = load_project(roots, &diags);
  std::vector<Diagnostic> findings = analyze(model);
  diags.insert(diags.end(), findings.begin(), findings.end());
  for (const Diagnostic& d : diags) {
    out << d.file << ":" << d.line << ": " << d.rule << ": " << d.message
        << "\n";
  }
  return static_cast<int>(diags.size());
}

}  // namespace picloud::lint
