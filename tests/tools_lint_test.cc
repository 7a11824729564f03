// Unit tests for picloud_analyze (tools/lint): the lexer, the cross-file
// project model (include graph, computed layering, symbol index), every rule
// (seeded violation + near-miss + suppression), and the baseline/SARIF
// output layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"
#include "util/json.h"

namespace picloud::lint {
namespace {

bool has_rule(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

std::vector<Diagnostic> with_rule(const std::vector<Diagnostic>& diags,
                                  const std::string& rule) {
  std::vector<Diagnostic> out;
  for (const Diagnostic& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

std::vector<Token> of_kind(const std::vector<Token>& toks, TokenKind kind) {
  std::vector<Token> out;
  for (const Token& t : toks) {
    if (t.kind == kind) out.push_back(t);
  }
  return out;
}

bool has_ident(const std::vector<Token>& toks, const std::string& text) {
  return std::any_of(toks.begin(), toks.end(), [&](const Token& t) {
    return t.kind == TokenKind::kIdentifier && t.text == text;
  });
}

// ---------------------------------------------------------------------------
// lexer: comments, strings, raw strings, char literals, line continuations

TEST(Lexer, CommentsAreTokensNotIdentifiers) {
  auto toks = tokenize(
      "int x = 1;  // rand() discussed here\n"
      "/* and time() in a block\n   spanning lines */\n");
  auto comments = of_kind(toks, TokenKind::kComment);
  ASSERT_EQ(comments.size(), 2u);
  EXPECT_NE(comments[0].text.find("rand()"), std::string::npos);
  EXPECT_NE(comments[1].text.find("time()"), std::string::npos);
  EXPECT_EQ(comments[1].line, 2);  // block comment anchored where it starts
  // The banned names never surface as identifier tokens.
  EXPECT_FALSE(has_ident(toks, "rand"));
  EXPECT_FALSE(has_ident(toks, "time"));
}

TEST(Lexer, StringContentsAreOpaque) {
  auto toks = tokenize("const char* s = \"call rand() or srand(7)\";\n");
  auto strings = of_kind(toks, TokenKind::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_FALSE(has_ident(toks, "rand"));
  EXPECT_FALSE(has_ident(toks, "srand"));
}

TEST(Lexer, RawStringIsOneToken) {
  auto toks = tokenize("auto s = R\"(say \"rand please\" in quotes)\";\n");
  auto strings = of_kind(toks, TokenKind::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_EQ(strings[0].text.substr(0, 3), "R\"(");
  EXPECT_NE(strings[0].text.find("\"rand please\""), std::string::npos);
  EXPECT_FALSE(has_ident(toks, "rand"));
  // The token after the raw string is the terminating ';'.
  EXPECT_TRUE(toks.back().is_punct(";"));
}

TEST(Lexer, RawStringDelimiterFormSwallowsFakeClosers) {
  auto toks =
      tokenize("const char* p = R\"xy(contains )\" not the end)xy\";\n");
  auto strings = of_kind(toks, TokenKind::kString);
  ASSERT_EQ(strings.size(), 1u);
  EXPECT_NE(strings[0].text.find("not the end"), std::string::npos);
  EXPECT_TRUE(toks.back().is_punct(";"));
}

TEST(Lexer, CharLiteralsAndDigitSeparators) {
  auto toks = tokenize("char a = '\\''; char b = u8'x'; int n = 1'000'000;\n");
  auto chars = of_kind(toks, TokenKind::kChar);
  ASSERT_EQ(chars.size(), 2u);
  EXPECT_EQ(chars[0].text, "'\\''");
  EXPECT_EQ(chars[1].text, "u8'x'");
  // The digit separators do not open a character literal.
  auto numbers = of_kind(toks, TokenKind::kNumber);
  bool found = std::any_of(numbers.begin(), numbers.end(), [](const Token& t) {
    return t.text == "1'000'000";
  });
  EXPECT_TRUE(found);
}

TEST(Lexer, LineContinuationSplicesAndKeepsPhysicalLines) {
  auto toks = tokenize(
      "#define TWICE(x) \\\n"
      "  ((x) + \\\n"
      "   (x))\n"
      "int spli\\\nced = 7;\n");
  // The macro body lexes as one logical run; positions stay physical.
  ASSERT_FALSE(toks.empty());
  EXPECT_EQ(toks[0].kind, TokenKind::kPpDirective);
  EXPECT_EQ(toks[0].text, "#define");
  EXPECT_EQ(toks[0].line, 1);
  // An identifier spliced across the continuation is one token, anchored
  // where it starts.
  bool spliced = false;
  for (const Token& t : toks) {
    if (t.kind == TokenKind::kIdentifier && t.text == "spliced") {
      spliced = true;
      EXPECT_EQ(t.line, 4);
    }
  }
  EXPECT_TRUE(spliced);
  // The tokens after the splice land on the continued physical line.
  EXPECT_EQ(toks.back().line, 5);  // the trailing ';'
}

TEST(Lexer, IncludeOperandIsAHeaderNameToken) {
  auto toks = tokenize("#include \"util/rng.h\"\n#include <vector>\n");
  auto headers = of_kind(toks, TokenKind::kHeaderName);
  ASSERT_EQ(headers.size(), 2u);
  EXPECT_EQ(headers[0].text, "\"util/rng.h\"");
  EXPECT_EQ(headers[1].text, "<vector>");
  EXPECT_FALSE(has_ident(toks, "vector"));
}

TEST(Lexer, PunctuatorsLongestMatch) {
  auto toks = tokenize("a <<= b; c->d; e::f;\n");
  auto puncts = of_kind(toks, TokenKind::kPunct);
  auto has_punct = [&](const char* p) {
    return std::any_of(puncts.begin(), puncts.end(),
                       [&](const Token& t) { return t.text == p; });
  };
  EXPECT_TRUE(has_punct("<<="));
  EXPECT_TRUE(has_punct("->"));
  EXPECT_TRUE(has_punct("::"));
  EXPECT_FALSE(has_punct("<"));  // never split the compound assignment
}

TEST(Lexer, KeywordClassification) {
  EXPECT_TRUE(is_keyword("for"));
  EXPECT_TRUE(is_keyword("operator"));
  EXPECT_FALSE(is_keyword("fabric"));
  EXPECT_FALSE(is_keyword("PeriodicTask"));
}

// ---------------------------------------------------------------------------
// project model: modules, include resolution, symbol index

TEST(ProjectModel, ModuleOfPath) {
  EXPECT_EQ(module_of("src/net/fabric.cc"), "net");
  EXPECT_EQ(module_of("/abs/checkout/src/hw/board.h"), "hw");
  EXPECT_EQ(module_of("tests/x_test.cc"), "");
  EXPECT_EQ(module_of("src/lonely.cc"), "");  // no module directory
}

TEST(ProjectModel, ResolvesRepoStyleAndSiblingIncludes) {
  ProjectModel model = ProjectModel::build({
      {"src/net/fabric.h", "#pragma once\n"},
      {"src/net/fabric.cc", "#include \"net/fabric.h\"\n#include <vector>\n"},
      {"bench/helper.h", "#pragma once\n"},
      {"bench/run.cc", "#include \"helper.h\"\n"},
  });
  int cc = model.file_index("src/net/fabric.cc");
  ASSERT_GE(cc, 0);
  ASSERT_EQ(model.files()[cc].includes.size(), 2u);
  EXPECT_EQ(model.files()[cc].includes[0].resolved,
            model.file_index("src/net/fabric.h"));
  EXPECT_EQ(model.files()[cc].includes[1].resolved, -1);  // system include
  int run = model.file_index("bench/run.cc");
  ASSERT_GE(run, 0);
  EXPECT_EQ(model.files()[run].includes[0].resolved,
            model.file_index("bench/helper.h"));
}

TEST(ProjectModel, SymbolIndexClassifiesDeclarations) {
  ProjectModel model = ProjectModel::build({
      {"src/util/widget.h",
       "#pragma once\n"
       "#define WIDGET_MAX 4\n"
       "using WidgetId = int;\n"
       "enum class Color { kRed, kBlue };\n"
       "struct Widget { int a = 0; };\n"
       "inline int widget_fn() { return 0; }\n"},
  });
  const std::set<std::string>& names = model.declared_names(0);
  for (const char* expected :
       {"WIDGET_MAX", "WidgetId", "Color", "kRed", "kBlue", "Widget",
        "widget_fn"}) {
    EXPECT_EQ(names.count(expected), 1u) << expected;
  }
  const auto& symbols = model.symbols();
  ASSERT_EQ(symbols.count("widget_fn"), 1u);
  ASSERT_EQ(symbols.at("widget_fn").defs.size(), 1u);
  EXPECT_EQ(symbols.at("widget_fn").defs[0].kind, SymbolKind::kFunction);
  EXPECT_EQ(symbols.at("widget_fn").refs, 0);
  ASSERT_EQ(symbols.count("Widget"), 1u);
  EXPECT_EQ(symbols.at("Widget").defs[0].kind, SymbolKind::kType);
}

// ---------------------------------------------------------------------------
// nondeterminism

TEST(LintNondeterminism, FlagsLibcRandomAndWallClock) {
  auto diags = lint_content("src/sim/x.cc",
                            "int a = rand();\n"
                            "srand(42);\n"
                            "long t = time(nullptr);\n"
                            "auto n = std::chrono::steady_clock::now();\n"
                            "std::this_thread::yield();\n");
  EXPECT_EQ(diags.size(), 5u);
  EXPECT_TRUE(has_rule(diags, "nondeterminism"));
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_NE(diags[0].message.find("rand"), std::string::npos);
}

TEST(LintNondeterminism, AppliesOutsideSrcToo) {
  auto diags = lint_content("bench/bench_x.cc",
                            "auto t0 = std::chrono::system_clock::now();\n");
  EXPECT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "nondeterminism");
}

TEST(LintNondeterminism, IgnoresMembersCommentsAndStrings) {
  auto diags = lint_content(
      "src/sim/x.cc",
      "// rand() and time() discussed in a comment\n"
      "/* srand(7) in a block comment\n   spanning lines */\n"
      "const char* s = \"call rand() or std::random_device here\";\n"
      "double next_time(Entry e) { return e.time; }\n"
      "int runtime(int uptime) { return uptime; }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintNondeterminism, MemberCallNamedTimeStillFlagged) {
  // `time(` is wall-clock-shaped enough to deserve a finding (and an explicit
  // suppression when intentional).
  auto diags = lint_content("src/sim/x.cc", "double d = time(nullptr);\n");
  EXPECT_EQ(diags.size(), 1u);
}

// ---------------------------------------------------------------------------
// raw-assert

TEST(LintRawAssert, FlagsAssertInSrcOnly) {
  const std::string body = "void f(int x) { assert(x > 0); }\n";
  EXPECT_TRUE(has_rule(lint_content("src/os/x.cc", body), "raw-assert"));
  EXPECT_FALSE(has_rule(lint_content("tests/x_test.cc", body), "raw-assert"));
  EXPECT_FALSE(has_rule(lint_content("bench/x.cc", body), "raw-assert"));
}

TEST(LintRawAssert, IgnoresStaticAssertAndCheckMacros) {
  auto diags = lint_content(
      "src/os/x.cc",
      "static_assert(sizeof(int) == 4);\n"
      "void f(int x) { PICLOUD_CHECK(x > 0) << \"context\"; }\n");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// pragma-once

TEST(LintPragmaOnce, FlagsHeaderWithoutGuard) {
  auto diags = lint_content("src/util/x.h", "int f();\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "pragma-once");
  EXPECT_EQ(diags[0].line, 1);
}

TEST(LintPragmaOnce, AcceptsGuardedHeaderAndIgnoresSources) {
  EXPECT_TRUE(lint_content("src/util/x.h", "#pragma once\nint f();\n").empty());
  EXPECT_TRUE(lint_content("src/util/x.cc", "int f() { return 1; }\n").empty());
}

// ---------------------------------------------------------------------------
// include-hygiene: the layering is computed from the whole-tree include
// graph, so the tests build small trees instead of relying on a DAG table.

TEST(LintIncludeHygiene, MinorityEdgeOfAModuleCycleIsFlagged) {
  // sim -> util twice, util -> sim once: the lone upward include is the
  // minority direction of the cycle and gets the finding.
  auto diags = analyze_files({
      {"src/sim/time.h", "#pragma once\n"},
      {"src/util/rng.h", "#pragma once\n"},
      {"src/sim/a.cc", "#include \"util/rng.h\"\n"},
      {"src/sim/b.cc", "#include \"util/rng.h\"\n"},
      {"src/util/bad.cc", "#include \"sim/time.h\"\n"},
  });
  auto findings = with_rule(diags, "include-hygiene");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/util/bad.cc");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("src/util"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/sim"), std::string::npos);
  EXPECT_NE(findings[0].message.find("cycle"), std::string::npos);
}

TEST(LintIncludeHygiene, AcyclicEdgesAndSystemIncludesAreClean) {
  // One direction only (net -> hw) is a consistent layering whatever its
  // orientation: no hand-maintained DAG, no finding.
  auto diags = analyze_files({
      {"src/hw/rack.h", "#pragma once\n"},
      {"src/net/x.cc", "#include <vector>\n#include \"hw/rack.h\"\n"},
  });
  EXPECT_FALSE(has_rule(diags, "include-hygiene"));
}

TEST(LintIncludeHygiene, EqualWeightCycleBreaksDeterministically) {
  // A 1-vs-1 cycle has no usage majority; the tie-break is lexicographic on
  // (from, to) so repeated runs flag the same edge.
  std::vector<ProjectModel::Input> inputs = {
      {"src/sim/time.h", "#pragma once\n"},
      {"src/util/rng.h", "#pragma once\n"},
      {"src/sim/a.cc", "#include \"util/rng.h\"\n"},
      {"src/util/b.cc", "#include \"sim/time.h\"\n"},
  };
  auto first = with_rule(analyze_files(inputs), "include-hygiene");
  auto second = with_rule(analyze_files(inputs), "include-hygiene");
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(first[0].file, second[0].file);
  EXPECT_EQ(first[0].message, second[0].message);
}

TEST(LintIncludeHygiene, SuppressionCommentSilences) {
  auto diags = analyze_files({
      {"src/sim/time.h", "#pragma once\n"},
      {"src/util/rng.h", "#pragma once\n"},
      {"src/sim/a.cc", "#include \"util/rng.h\"\n"},
      {"src/sim/b.cc", "#include \"util/rng.h\"\n"},
      {"src/util/bad.cc",
       "#include \"sim/time.h\"  // picloud-lint: allow(include-hygiene)\n"},
  });
  EXPECT_FALSE(has_rule(diags, "include-hygiene"));
}

TEST(LintIncludeHygiene, OnlyAppliesUnderSrc) {
  EXPECT_TRUE(
      lint_content("tests/x_test.cc", "#include \"cloud/cloud.h\"\n").empty());
}

// ---------------------------------------------------------------------------
// include-cycle

TEST(LintIncludeCycle, MutualIncludesAreAnScc) {
  auto diags = analyze_files({
      {"src/os/x.h", "#pragma once\n#include \"os/y.h\"\n"},
      {"src/os/y.h", "#pragma once\n#include \"os/x.h\"\n"},
  });
  auto findings = with_rule(diags, "include-cycle");
  ASSERT_EQ(findings.size(), 1u);
  // Anchored at the first member's (lexicographically smallest path)
  // include of another member.
  EXPECT_EQ(findings[0].file, "src/os/x.h");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("src/os/x.h"), std::string::npos);
  EXPECT_NE(findings[0].message.find("src/os/y.h"), std::string::npos);
}

TEST(LintIncludeCycle, SelfIncludeIsACycle) {
  auto diags = analyze_files({
      {"src/os/self.h", "#pragma once\n#include \"os/self.h\"\n"},
  });
  EXPECT_TRUE(has_rule(diags, "include-cycle"));
}

TEST(LintIncludeCycle, DiamondIsNotACycle) {
  auto diags = analyze_files({
      {"src/os/a.h", "#pragma once\n#include \"os/b.h\"\n#include \"os/c.h\"\n"},
      {"src/os/b.h", "#pragma once\n#include \"os/d.h\"\n"},
      {"src/os/c.h", "#pragma once\n#include \"os/d.h\"\n"},
      {"src/os/d.h", "#pragma once\n"},
  });
  EXPECT_FALSE(has_rule(diags, "include-cycle"));
}

TEST(LintIncludeCycle, SuppressionCommentSilences) {
  auto diags = analyze_files({
      {"src/os/x.h",
       "#pragma once\n"
       "#include \"os/y.h\"  // picloud-lint: allow(include-cycle)\n"},
      {"src/os/y.h",
       "#pragma once\n"
       "#include \"os/x.h\"  // picloud-lint: allow(include-cycle)\n"},
  });
  EXPECT_FALSE(has_rule(diags, "include-cycle"));
}

// ---------------------------------------------------------------------------
// unused-include

TEST(LintUnusedInclude, FlagsIncludeWithNoReferencedSymbol) {
  auto diags = analyze_files({
      {"src/util/thing.h", "#pragma once\ninline int thing_fn() { return 1; }\n"},
      {"src/net/user.cc", "#include \"util/thing.h\"\nvoid use_nothing() {}\n"},
  });
  auto findings = with_rule(diags, "unused-include");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/net/user.cc");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("util/thing.h"), std::string::npos);
}

TEST(LintUnusedInclude, ReferencedSymbolKeepsTheInclude) {
  auto diags = analyze_files({
      {"src/util/thing.h", "#pragma once\ninline int thing_fn() { return 1; }\n"},
      {"src/net/user.cc", "#include \"util/thing.h\"\nint v = thing_fn();\n"},
  });
  EXPECT_FALSE(has_rule(diags, "unused-include"));
}

TEST(LintUnusedInclude, OwnHeaderIsExemptAndNonSrcIsOutOfScope) {
  // A .cc keeps its own header even when the header only declares what the
  // .cc defines — that include *is* the interface statement.
  auto diags = analyze_files({
      {"src/net/user.h", "#pragma once\nvoid user_fn();\n"},
      {"src/net/user.cc", "#include \"net/user.h\"\nvoid user_fn() {}\n"},
      {"tests/use_test.cc", "void t() { user_fn(); }\n"},
  });
  EXPECT_FALSE(has_rule(diags, "unused-include"));
  // tests/ may over-include freely.
  diags = analyze_files({
      {"src/util/thing.h", "#pragma once\ninline int thing_fn() { return 1; }\n"},
      {"src/net/also.cc", "int w = thing_fn();\n"},
      {"tests/sloppy_test.cc", "#include \"util/thing.h\"\nvoid t() {}\n"},
  });
  EXPECT_FALSE(has_rule(diags, "unused-include"));
}

TEST(LintUnusedInclude, SuppressionCommentSilences) {
  auto diags = analyze_files({
      {"src/util/thing.h", "#pragma once\ninline int thing_fn() { return 1; }\n"},
      {"src/net/user.cc",
       "#include \"util/thing.h\"  // picloud-lint: allow(unused-include)\n"
       "int v = 2;\n"},
  });
  EXPECT_FALSE(has_rule(diags, "unused-include"));
}

// ---------------------------------------------------------------------------
// unordered-container

TEST(LintUnorderedContainer, FlagsUnorderedMapInSrc) {
  auto diags = lint_content("src/cloud/x.cc",
                            "#include <unordered_map>\n"
                            "std::unordered_map<int, int> m;\n");
  auto findings = with_rule(diags, "unordered-container");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("std::map"), std::string::npos);
}

TEST(LintUnorderedContainer, OrderedContainersAndNonSrcAreClean) {
  EXPECT_TRUE(
      lint_content("src/cloud/x.cc", "std::map<int, int> m;\n").empty());
  EXPECT_TRUE(lint_content("tests/x_test.cc",
                           "std::unordered_set<int> seen;\n")
                  .empty());
}

TEST(LintUnorderedContainer, SuppressionCommentSilences) {
  auto diags = lint_content(
      "src/cloud/x.cc",
      "// picloud-lint: allow(unordered-container)\n"
      "std::unordered_map<int, int> m;\n");
  EXPECT_FALSE(has_rule(diags, "unordered-container"));
}

// ---------------------------------------------------------------------------
// event-capture

TEST(LintEventCapture, FlagsDefaultRefCaptureScheduledViaAfter) {
  auto diags = lint_content(
      "src/cloud/x.cc",
      "void X::go() {\n"
      "  sim_.after(d, [&]() { tick(); });\n"
      "}\n");
  auto findings = with_rule(diags, "event-capture");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("after"), std::string::npos);
}

TEST(LintEventCapture, FlagsRefDefaultWithExtrasAndPeriodicTask) {
  // [&, this] still defaults everything else by reference.
  EXPECT_TRUE(has_rule(
      lint_content("src/cloud/x.cc",
                   "void f() { sim_->schedule(t, [&, this]() { go(); }); }\n"),
      "event-capture"));
  EXPECT_TRUE(has_rule(
      lint_content("src/apps/y.cc",
                   "void f() { task_ = PeriodicTask(sim, p, [&]() { s(); }); }\n"),
      "event-capture"));
}

TEST(LintEventCapture, ExplicitCapturesAndNonSchedulersAreClean) {
  // [this] states the lifetime contract.
  EXPECT_TRUE(lint_content("src/cloud/x.cc",
                           "void f() { sim_.after(d, [this]() { tick(); }); }\n")
                  .empty());
  // [&] handed to a synchronous algorithm runs inside the frame.
  EXPECT_TRUE(
      lint_content("src/cloud/x.cc",
                   "void f() { std::sort(v.begin(), v.end(),\n"
                   "  [&](int a, int b) { return a < b; }); }\n")
          .empty());
  // A subscript expression in the argument list is not a lambda introducer.
  EXPECT_TRUE(lint_content("src/cloud/x.cc",
                           "void f() { sim_.after(d, table[&slot]); }\n")
                  .empty());
  // tests/ pump the queue inside the capturing scope by design.
  EXPECT_TRUE(lint_content("tests/x_test.cc",
                           "void f() { sim.after(d, [&]() { ++n; }); }\n")
                  .empty());
}

TEST(LintEventCapture, SuppressionCommentSilences) {
  auto diags = lint_content(
      "src/cloud/x.cc",
      "// picloud-lint: allow(event-capture)\n"
      "void f() { sim_.after(d, [&]() { tick(); }); }\n");
  EXPECT_FALSE(has_rule(diags, "event-capture"));
}

// ---------------------------------------------------------------------------
// schedule-point

TEST(LintSchedulePoint, FlagsDeliveryBypassingTheHub) {
  auto diags = lint_content(
      "src/net/x.cc",
      "void X::go() {\n"
      "  sim_.after(d, [this, msg]() { deliver(msg); });\n"
      "}\n");
  auto findings = with_rule(diags, "schedule-point");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("SchedulePoint"), std::string::npos);
}

TEST(LintSchedulePoint, FlagsL2DeliveryToo) {
  EXPECT_TRUE(has_rule(
      lint_content("src/net/x.cc",
                   "void f() { deliver_to_node(node, msg); }\n"),
      "schedule-point"));
}

TEST(LintSchedulePoint, HubConsultationIsClean) {
  // The canonical shape: active() fast path, then the intercept() offer.
  auto diags = lint_content(
      "src/net/x.cc",
      "void X::go() {\n"
      "  sim_.after(d, [this, msg]() {\n"
      "    if (!sim_.schedule_points().active()) {\n"
      "      deliver(msg);\n"
      "      return;\n"
      "    }\n"
      "    sim_.schedule_points().intercept(std::move(p),\n"
      "                                     [this, msg]() { deliver(msg); });\n"
      "  });\n"
      "}\n");
  EXPECT_FALSE(has_rule(diags, "schedule-point"));
}

TEST(LintSchedulePoint, DefinitionsAndOtherModulesAreOutOfScope) {
  // The qualified member definition is not a dispatch site.
  EXPECT_FALSE(has_rule(
      lint_content("src/net/network.cc",
                   "void Network::deliver(Message msg) { route(msg); }\n"),
      "schedule-point"));
  // The rule only patrols src/net sources.
  EXPECT_FALSE(has_rule(
      lint_content("src/cloud/x.cc", "void f() { deliver(msg); }\n"),
      "schedule-point"));
  EXPECT_FALSE(has_rule(
      lint_content("src/net/network.h", "void f() { deliver(msg); }\n"),
      "schedule-point"));
  EXPECT_FALSE(has_rule(
      lint_content("tests/x_test.cc", "void f() { deliver(msg); }\n"),
      "schedule-point"));
}

TEST(LintSchedulePoint, SuppressionCommentSilences) {
  auto diags = lint_content(
      "src/net/x.cc",
      "// picloud-lint: allow(schedule-point)\n"
      "void f() { deliver(msg); }\n");
  EXPECT_FALSE(has_rule(diags, "schedule-point"));
}

// ---------------------------------------------------------------------------
// dead-symbol

TEST(LintDeadSymbol, FlagsUnreferencedSrcFunctionAndType) {
  auto diags = analyze_files({
      {"src/util/orphan.cc", "int orphan_fn() { return 1; }\n"},
      {"src/util/orphan.h", "#pragma once\nstruct OrphanType {};\n"},
  });
  auto findings = with_rule(diags, "dead-symbol");
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_TRUE(std::any_of(findings.begin(), findings.end(),
                          [](const Diagnostic& d) {
                            return d.message.find("orphan_fn") !=
                                   std::string::npos;
                          }));
  EXPECT_TRUE(std::any_of(findings.begin(), findings.end(),
                          [](const Diagnostic& d) {
                            return d.message.find("OrphanType") !=
                                   std::string::npos;
                          }));
}

TEST(LintDeadSymbol, AnyReferenceAnywhereInTheTreeKeepsIt) {
  // A test exercising the symbol is enough — the rule is whole-program.
  auto diags = analyze_files({
      {"src/util/orphan.cc", "int orphan_fn() { return 1; }\n"},
      {"tests/orphan_test.cc", "void t() { orphan_fn(); }\n"},
  });
  EXPECT_FALSE(has_rule(diags, "dead-symbol"));
}

TEST(LintDeadSymbol, EntryPointsAndInternalNamesAreExempt) {
  auto diags = analyze_files({
      {"src/tools/main.cc", "int main() { return 0; }\n"},
      {"src/util/impl.cc", "int _internal_step() { return 1; }\n"},
  });
  EXPECT_FALSE(has_rule(diags, "dead-symbol"));
  // Declarations without a definition carry no obligation either.
  diags = analyze_files({
      {"src/util/fwd.h", "#pragma once\nvoid later_fn();\n"},
  });
  EXPECT_FALSE(has_rule(diags, "dead-symbol"));
}

TEST(LintDeadSymbol, SuppressionCommentSilences) {
  auto diags = analyze_files({
      {"src/util/orphan.cc",
       "int orphan_fn() { return 1; }  // picloud-lint: allow(dead-symbol)\n"},
  });
  EXPECT_FALSE(has_rule(diags, "dead-symbol"));
}

TEST(LintDeadSymbol, SingleFileEntryPointsDoNotProveSymbolsDead) {
  // lint_content sees one file; a lone definition must not be "dead".
  auto diags =
      lint_content("src/util/orphan.cc", "int orphan_fn() { return 1; }\n");
  EXPECT_FALSE(has_rule(diags, "dead-symbol"));
  EXPECT_FALSE(has_rule(diags, "unused-include"));
}

// ---------------------------------------------------------------------------
// bounded-queue

TEST(LintBoundedQueue, FlagsUnboundedPendingWorkQueue) {
  auto diags = analyze_files({
      {"src/apps/srv.h",
       "#pragma once\n"
       "#include <deque>\n"
       "struct Srv {\n"
       "  std::deque<int> request_queue_;\n"
       "};\n"},
  });
  auto findings = with_rule(diags, "bounded-queue");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/apps/srv.h");
  EXPECT_EQ(findings[0].line, 4);
  EXPECT_NE(findings[0].message.find("request_queue_"), std::string::npos);
}

TEST(LintBoundedQueue, CapacityCheckInSameStemSiblingBounds) {
  // The repo's idiom: declaration in the .h, admission check in the .cc —
  // including the static_cast<int>(...) spelling around .size().
  auto diags = analyze_files({
      {"src/apps/srv.h",
       "#pragma once\n"
       "#include <deque>\n"
       "struct Srv {\n"
       "  void admit(int r);\n"
       "  std::deque<int> request_queue_;\n"
       "  int capacity_ = 64;\n"
       "};\n"},
      {"src/apps/srv.cc",
       "#include \"apps/srv.h\"\n"
       "void Srv::admit(int r) {\n"
       "  if (static_cast<int>(request_queue_.size()) >= capacity_) return;\n"
       "  request_queue_.push_back(r);\n"
       "}\n"},
  });
  EXPECT_FALSE(has_rule(diags, "bounded-queue"));
}

TEST(LintBoundedQueue, OnlyPendingWorkNamesInAppsAndCloudAreInScope) {
  // A BFS scratch queue in net/ and an innocuously-named vector in apps/
  // are out of scope.
  auto diags = analyze_files({
      {"src/net/walk.cc",
       "#include <deque>\n"
       "void walk() { std::deque<int> queue; queue.push_back(0); }\n"},
      {"src/apps/srv.h",
       "#pragma once\n"
       "#include <vector>\n"
       "struct Srv { std::vector<int> history_; };\n"},
  });
  EXPECT_FALSE(has_rule(diags, "bounded-queue"));
}

TEST(LintBoundedQueue, SuppressionCommentSilences) {
  auto diags = analyze_files({
      {"src/cloud/ctl.h",
       "#pragma once\n"
       "#include <vector>\n"
       "struct Ctl {\n"
       "  // picloud-lint: allow(bounded-queue)\n"
       "  std::vector<int> pending_ops_;\n"
       "};\n"},
  });
  EXPECT_FALSE(has_rule(diags, "bounded-queue"));
}

TEST(LintBoundedQueue, SingleFileModeStaysQuiet) {
  // The admission check usually lives in the sibling .cc; a lone header
  // must not be declared unbounded.
  auto diags = lint_content("src/apps/srv.h",
                            "#pragma once\n"
                            "#include <deque>\n"
                            "struct Srv { std::deque<int> job_queue_; };\n");
  EXPECT_FALSE(has_rule(diags, "bounded-queue"));
}

// ---------------------------------------------------------------------------
// rest-retry

TEST(LintRestRetry, FlagsBareRestClientCallInCloudSources) {
  auto diags = lint_content(
      "src/cloud/x.cc",
      "void f() { client_.call(ip, port, Method::kGet, \"/nodes\", Json(),\n"
      "                        cb); }\n");
  ASSERT_TRUE(has_rule(diags, "rest-retry"));
  EXPECT_EQ(diags[0].line, 1);
  EXPECT_NE(diags[0].message.find("RetryPolicy"), std::string::npos);
}

TEST(LintRestRetry, AcceptsCallsStatingPolicyOrTimeout) {
  EXPECT_TRUE(lint_content("src/cloud/x.cc",
                           "void f() { client_.call(ip, p, m, \"/x\", b, cb,\n"
                           "  proto::RetryPolicy::standard(3)); }\n")
                  .empty());
  EXPECT_TRUE(lint_content("src/cloud/x.cc",
                           "void f() { client_->call(ip, p, m, \"/x\", b, cb,\n"
                           "  sim::Duration::seconds(5)); }\n")
                  .empty());
  EXPECT_TRUE(lint_content("src/cloud/x.cc",
                           "void f() { rest_client.post(ip, p, \"/x\", b, cb,\n"
                           "  spawn_timeout); }\n")
                  .empty());
}

TEST(LintRestRetry, IgnoresNonClientReceiversAndAccessors) {
  // unique_ptr<RestClient>::get() takes no args — not a wire call.
  EXPECT_TRUE(
      lint_content("src/cloud/x.cc", "auto* c = client_.get();\n").empty());
  // Receivers that are not clients (maps, routers) are out of scope.
  EXPECT_TRUE(lint_content("src/cloud/x.cc",
                           "auto v = table.get(key);\n"
                           "router_.call(req, params);\n")
                  .empty());
}

TEST(LintRestRetry, OnlyAppliesToCloudSources) {
  const std::string body =
      "void f() { client_.call(ip, p, m, \"/x\", b, cb); }\n";
  EXPECT_FALSE(has_rule(lint_content("src/proto/x.cc", body), "rest-retry"));
  EXPECT_FALSE(has_rule(lint_content("src/cloud/x.h", body), "rest-retry"));
  EXPECT_FALSE(has_rule(lint_content("tests/x_test.cc", body), "rest-retry"));
}

TEST(LintRestRetry, SuppressionCommentSilences) {
  auto diags = lint_content(
      "src/cloud/x.cc",
      "// picloud-lint: allow(rest-retry)\n"
      "void f() { client_.call(ip, p, m, \"/x\", b, cb); }\n");
  EXPECT_FALSE(has_rule(diags, "rest-retry"));
}

// ---------------------------------------------------------------------------
// wire-parse

TEST(LintWireParse, FlagsTextParsingOnTheMessagePath) {
  auto diags = lint_content(
      "src/apps/x.cc",
      "void f(const std::string& s) {\n"
      "  auto j = util::Json::parse(s);\n"
      "  auto req = proto::HttpRequest::parse(s);\n"
      "  auto resp = HttpResponse::parse(s);\n"
      "}\n");
  ASSERT_EQ(diags.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(diags[i].rule, "wire-parse");
    EXPECT_EQ(diags[i].line, i + 2);
  }
  EXPECT_NE(diags[0].message.find("msg.body"), std::string::npos);
}

TEST(LintWireParse, EdgesAndNonSrcTreesMayParse) {
  const std::string body = "auto j = util::Json::parse(text);\n";
  for (const char* path : {"src/util/json.cc", "src/proto/http.cc",
                           "src/mc/schedule.cc", "/abs/repo/src/mc/schedule.cc",
                           "tests/x_test.cc", "tools/mc/picloud_mc.cc",
                           "perfbench/layers.cc"}) {
    EXPECT_FALSE(has_rule(lint_content(path, body), "wire-parse")) << path;
  }
  // An edge's name must match as a whole path, not as a suffix.
  EXPECT_TRUE(
      has_rule(lint_content("src/proto/xhttp.cc", body), "wire-parse"));
}

TEST(LintWireParse, NearMissesAreClean) {
  EXPECT_TRUE(lint_content("src/proto/x.cc",
                           "auto ip = net::Ipv4Addr::parse(s);\n"
                           "auto m = parse_method(name);\n"
                           "auto r = parser.parse(s);\n"
                           "const char* doc = \"Json::parse(s)\";\n"
                           "// Json::parse(s) used to run here\n"
                           "auto req = HttpRequest::from_json(msg.body);\n")
                  .empty());
}

TEST(LintWireParse, SuppressionCommentSilences) {
  auto diags = lint_content(
      "src/cloud/x.cc",
      "// picloud-lint: allow(wire-parse)\n"
      "auto j = util::Json::parse(config_text);\n");
  EXPECT_FALSE(has_rule(diags, "wire-parse"));
}

// ---------------------------------------------------------------------------
// metrics-registry

TEST(LintMetricsRegistry, FlagsStatsStructWithoutRegistryTies) {
  auto diags = lint_content("src/cloud/x.h",
                            "#pragma once\n"
                            "class X {\n"
                            "  struct Stats { int spawned = 0; };\n"
                            "};\n");
  ASSERT_TRUE(has_rule(diags, "metrics-registry"));
  EXPECT_EQ(diags[0].line, 3);
}

TEST(LintMetricsRegistry, AcceptsValueSnapshotOfRegistrySeries) {
  // A Stats struct is not flagged when the file holds registry handles: the
  // rule finds stores that bypass the registry, and a struct that copies
  // registry series is a review matter (callers should read the registry)...
  auto diags = lint_content("src/cloud/x.h",
                            "#pragma once\n"
                            "class X {\n"
                            "  struct Stats { int spawned = 0; };\n"
                            "  util::Counter* spawned_ = nullptr;\n"
                            "};\n");
  EXPECT_FALSE(has_rule(diags, "metrics-registry"));
  // ...or when it includes util/metrics.h directly.
  diags = lint_content("src/proto/x.h",
                       "#pragma once\n"
                       "#include \"util/metrics.h\"\n"
                       "struct CallStats { int retries = 0; };\n");
  EXPECT_FALSE(has_rule(diags, "metrics-registry"));
}

TEST(LintMetricsRegistry, StructRuleSkipsUtilAndNonSrc) {
  // util/ is where the registry itself lives; tests/ and bench/ keep local
  // aggregation structs freely.
  EXPECT_FALSE(has_rule(
      lint_content("src/util/x.h",
                   "#pragma once\nstruct FooStats { int n = 0; };\n"),
      "metrics-registry"));
  EXPECT_FALSE(has_rule(
      lint_content("bench/x.cc", "struct RunStats { int n = 0; };\n"),
      "metrics-registry"));
}

TEST(LintMetricsRegistry, FlagsConsoleOutputInSrc) {
  auto diags = lint_content("src/cloud/x.cc",
                            "void f() {\n"
                            "  printf(\"hi\\n\");\n"
                            "  std::fprintf(stderr, \"oops\\n\");\n"
                            "  std::cerr << 1;\n"
                            "  std::cout << 2;\n"
                            "}\n");
  EXPECT_EQ(diags.size(), 4u);
  EXPECT_TRUE(has_rule(diags, "metrics-registry"));
}

TEST(LintMetricsRegistry, ConsoleRuleSparesSnprintfAndNonSrc) {
  // snprintf/vsnprintf format into buffers (PICLOUD_LOG uses them) and
  // examples/ print to the terminal by design.
  EXPECT_TRUE(lint_content("src/util/strings.cc",
                           "int n = std::snprintf(buf, sizeof(buf), \"x\");\n")
                  .empty());
  EXPECT_TRUE(
      lint_content("examples/demo.cpp", "std::printf(\"table row\\n\");\n")
          .empty());
}

TEST(LintMetricsRegistry, SuppressionCommentSilences) {
  auto diags = lint_content(
      "src/util/logging.cc",
      "// picloud-lint: allow(metrics-registry)\n"
      "void sink() { std::fprintf(stderr, \"x\\n\"); }\n");
  EXPECT_FALSE(has_rule(diags, "metrics-registry"));
}

// ---------------------------------------------------------------------------
// invariant-catalogue

TEST(LintInvariantCatalogue, FlagsUnregisteredProbeFactory) {
  auto diags = lint_content(
      "src/testing/x.cc",
      "InvariantChecker::Probe probe_orphan(const cloud::PiCloud& c) {\n"
      "  return [](const InvariantChecker::FailFn& fail) {};\n"
      "}\n");
  ASSERT_TRUE(has_rule(diags, "invariant-catalogue"));
  EXPECT_NE(diags[0].message.find("probe_orphan"), std::string::npos);
}

TEST(LintInvariantCatalogue, AcceptsRegisteredProbe) {
  auto diags = lint_content(
      "src/testing/x.cc",
      "InvariantChecker::Probe probe_memory(const cloud::PiCloud& c) {\n"
      "  return [](const InvariantChecker::FailFn& fail) {};\n"
      "}\n"
      "void install(InvariantChecker& chk, const cloud::PiCloud& c) {\n"
      "  chk.register_probe(\"memory\", Phase::kSweep, probe_memory(c));\n"
      "}\n");
  EXPECT_FALSE(has_rule(diags, "invariant-catalogue"));
}

TEST(LintInvariantCatalogue, OnlyAppliesToTestingModule) {
  // probe_* helpers elsewhere (e.g. monitoring code in cloud/) are not
  // invariant probes and carry no registration obligation.
  auto diags = lint_content(
      "src/cloud/x.cc",
      "InvariantChecker::Probe probe_thing() {\n"
      "  return [](const InvariantChecker::FailFn& fail) {};\n"
      "}\n");
  EXPECT_FALSE(has_rule(diags, "invariant-catalogue"));
}

TEST(LintInvariantCatalogue, SuppressionCommentSilences) {
  auto diags = lint_content(
      "src/testing/x.cc",
      "// picloud-lint: allow(invariant-catalogue)\n"
      "InvariantChecker::Probe probe_experimental(const cloud::PiCloud& c) {\n"
      "  return [](const InvariantChecker::FailFn& fail) {};\n"
      "}\n");
  EXPECT_FALSE(has_rule(diags, "invariant-catalogue"));
}

// ---------------------------------------------------------------------------
// hot-path-alloc

TEST(LintHotPathAlloc, SimModuleIsHotWholeFile) {
  auto diags = lint_content(
      "src/sim/x.cc",
      "void f() {\n"
      "  int* p = new int(7);\n"
      "  auto u = std::make_unique<int>(1);\n"
      "  std::function<void()> cb;\n"
      "  std::map<std::string, int> by_name;\n"
      "}\n");
  auto findings = with_rule(diags, "hot-path-alloc");
  ASSERT_EQ(findings.size(), 4u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[1].message.find("make_unique"), std::string::npos);
  EXPECT_NE(findings[2].message.find("std::function"), std::string::npos);
  EXPECT_NE(findings[3].message.find("util::Symbol"), std::string::npos);
}

TEST(LintHotPathAlloc, AnnotatedRegionEndsAtTheBlockClose) {
  // Outside src/sim only `// picloud-hot` regions are hot: the marker's line
  // through the close of the next braced block.
  auto diags = lint_content(
      "src/net/x.cc",
      "// picloud-hot\n"
      "void hot_fn() {\n"
      "  int* p = new int(7);\n"
      "}\n"
      "void cold_fn() {\n"
      "  int* q = new int(9);\n"
      "}\n");
  auto findings = with_rule(diags, "hot-path-alloc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(LintHotPathAlloc, TrailingMarkerAnnotatesItsOwnLinesBlock) {
  // `{  // picloud-hot` marks the block opened earlier on the marker's line.
  auto diags = lint_content(
      "src/os/x.cc",
      "void hot_fn() {  // picloud-hot\n"
      "  std::function<void()> cb;\n"
      "}\n");
  auto findings = with_rule(diags, "hot-path-alloc");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintHotPathAlloc, PoolMachineryAndColdFilesAreClean) {
  // Placement new and operator-new overloads are the pool's own machinery;
  // comments/strings are opaque; non-string map keys compare cheaply.
  auto diags = lint_content(
      "src/sim/pool.cc",
      "void f(void* buf) {\n"
      "  int* p = new (buf) int(3);\n"
      "  // new and std::function discussed in a comment\n"
      "  const char* s = \"make_unique in a string\";\n"
      "  std::map<int, int> by_id;\n"
      "}\n"
      "void* operator new(std::size_t n);\n");
  EXPECT_FALSE(has_rule(diags, "hot-path-alloc"));
  // A file without a marker outside src/sim has no hot region at all, and
  // bench/ is out of scope even with one.
  EXPECT_FALSE(has_rule(
      lint_content("src/net/y.cc", "void f() { int* p = new int(1); }\n"),
      "hot-path-alloc"));
  EXPECT_FALSE(has_rule(
      lint_content("bench/bench_x.cc",
                   "// picloud-hot\nvoid f() { int* p = new int(1); }\n"),
      "hot-path-alloc"));
}

TEST(LintHotPathAlloc, SuppressionCommentSilences) {
  // Cold paths inside a hot file (one-time growth, error paths) carry an
  // allow with their justification.
  auto diags = lint_content(
      "src/sim/x.cc",
      "void grow() {\n"
      "  // picloud-lint: allow(hot-path-alloc)\n"
      "  int* block = new int[64];\n"
      "}\n");
  EXPECT_FALSE(has_rule(diags, "hot-path-alloc"));
}

// ---------------------------------------------------------------------------
// full-solve

TEST(LintFullSolve, FlagsOracleSolverOutsideFabricAndTests) {
  auto diags = lint_content("src/cloud/autopilot.cc",
                            "void rebalance(net::Fabric& fabric) {\n"
                            "  fabric.reallocate_full();\n"
                            "}\n");
  auto findings = with_rule(diags, "full-solve");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("reallocate_full"), std::string::npos);

  auto bench = with_rule(
      lint_content("bench/bench_x.cc",
                   "fabric.set_solver_mode(net::SolverMode::kFullOracle);\n"),
      "full-solve");
  ASSERT_EQ(bench.size(), 1u);
  EXPECT_NE(bench[0].message.find("kFullOracle"), std::string::npos);
}

TEST(LintFullSolve, FabricImplementationAndTestsAreExempt) {
  EXPECT_FALSE(has_rule(
      lint_content("src/net/fabric.cc", "void Fabric::reallocate_full() {}\n"),
      "full-solve"));
  EXPECT_FALSE(has_rule(
      lint_content("src/net/fabric.h", "enum class SolverMode { kFullOracle };\n"),
      "full-solve"));
  EXPECT_FALSE(has_rule(
      lint_content("tests/net_fabric_test.cc",
                   "oracle.set_solver_mode(net::SolverMode::kFullOracle);\n"
                   "oracle.reallocate_full();\n"),
      "full-solve"));
}

TEST(LintFullSolve, SuppressionCommentSilences) {
  auto diags = lint_content(
      "bench/bench_x.cc",
      "// picloud-lint: allow(full-solve)\n"
      "fabric.set_solver_mode(net::SolverMode::kFullOracle);\n");
  EXPECT_FALSE(has_rule(diags, "full-solve"));
}

// ---------------------------------------------------------------------------
// suppressions

TEST(LintSuppression, TrailingCommentSilencesThatLine) {
  auto diags = lint_content(
      "src/sim/x.cc",
      "int a = rand();  // picloud-lint: allow(nondeterminism)\n"
      "int b = rand();\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].line, 2);
}

TEST(LintSuppression, PrecedingCommentLineSilencesNextCodeLine) {
  auto diags = lint_content(
      "src/os/x.cc",
      "// picloud-lint: allow(raw-assert)\n"
      "void f(int x) { assert(x > 0); }\n");
  EXPECT_TRUE(diags.empty());
}

TEST(LintSuppression, OnlyNamedRulesAreSilenced) {
  auto diags = lint_content(
      "src/util/x.cc",
      "// picloud-lint: allow(raw-assert)\n"
      "int a = rand();\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "nondeterminism");
}

TEST(LintSuppression, ListSilencesMultipleRules) {
  auto diags = lint_content(
      "src/util/x.cc",
      "// picloud-lint: allow(raw-assert, nondeterminism)\n"
      "int a = rand(); assert(a);\n");
  EXPECT_TRUE(diags.empty());
}

// ---------------------------------------------------------------------------
// baseline ratchet

TEST(Baseline, RoundTripsThroughJsonAndToleratesLineMoves) {
  std::vector<Diagnostic> diags = {
      {"src/a.cc", 10, "nondeterminism", "msg one"},
      {"src/a.cc", 20, "nondeterminism", "msg one"},  // same key, count 2
      {"src/b.cc", 3, "raw-assert", "msg two"},
  };
  Baseline base = Baseline::from_diagnostics(diags);
  EXPECT_EQ(base.size(), 3u);

  Baseline parsed;
  std::string error;
  ASSERT_TRUE(Baseline::parse(base.to_json(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.size(), 3u);

  // Line numbers are not part of the key: moved findings stay baselined.
  std::vector<Diagnostic> moved = {
      {"src/a.cc", 99, "nondeterminism", "msg one"},
      {"src/a.cc", 100, "nondeterminism", "msg one"},
      {"src/b.cc", 4, "raw-assert", "msg two"},
  };
  EXPECT_TRUE(parsed.filter(moved).empty());

  // A third occurrence of a doubled key is beyond the recorded count: new.
  moved.push_back({"src/a.cc", 101, "nondeterminism", "msg one"});
  auto fresh = parsed.filter(moved);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].line, 101);

  // A genuinely new finding always survives the filter.
  std::vector<Diagnostic> other = {{"src/c.cc", 1, "pragma-once", "hdr"}};
  EXPECT_EQ(parsed.filter(other).size(), 1u);
}

TEST(Baseline, RejectsMalformedInput) {
  Baseline out;
  std::string error;
  EXPECT_FALSE(Baseline::parse("not json at all", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Baseline::parse("{\"tool\": \"x\"}", &out, &error));
  EXPECT_FALSE(Baseline::parse("{\"findings\": [42]}", &out, &error));
}

TEST(Baseline, EmptyBaselinePassesEverythingThrough) {
  Baseline parsed;
  std::string error;
  ASSERT_TRUE(Baseline::parse("{\"findings\": []}", &parsed, &error)) << error;
  EXPECT_EQ(parsed.size(), 0u);
  std::vector<Diagnostic> diags = {{"src/a.cc", 1, "raw-assert", "m"}};
  EXPECT_EQ(parsed.filter(diags).size(), 1u);
}

// ---------------------------------------------------------------------------
// output formats

TEST(Output, JsonReportCarriesEveryField) {
  std::string json = to_json({{"src/x.cc", 7, "nondeterminism", "'rand'"}});
  util::Result<util::Json> parsed = util::Json::parse(json);
  ASSERT_TRUE(parsed.ok());
  const util::Json& doc = parsed.value();
  EXPECT_EQ(doc.get_string("tool"), "picloud_analyze");
  const util::JsonArray& findings = doc.get("findings").as_array();
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].get_string("file"), "src/x.cc");
  EXPECT_EQ(findings[0].get("line").as_int(), 7);
  EXPECT_EQ(findings[0].get_string("rule"), "nondeterminism");
  EXPECT_EQ(findings[0].get_string("message"), "'rand'");
}

TEST(Output, SarifReportIsStructurallyValid) {
  std::string sarif =
      to_sarif({{"src/x.cc", 7, "nondeterminism", "'rand' breaks runs"}});
  util::Result<util::Json> parsed = util::Json::parse(sarif);
  ASSERT_TRUE(parsed.ok());
  const util::Json& doc = parsed.value();
  EXPECT_EQ(doc.get_string("version"), "2.1.0");
  const util::JsonArray& runs = doc.get("runs").as_array();
  ASSERT_EQ(runs.size(), 1u);
  const util::Json& driver = runs[0].get("tool").get("driver");
  EXPECT_EQ(driver.get_string("name"), "picloud_analyze");
  // Every catalogued rule appears in the driver's rule table.
  EXPECT_EQ(driver.get("rules").as_array().size(), rule_catalogue().size());
  const util::JsonArray& results = runs[0].get("results").as_array();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].get_string("ruleId"), "nondeterminism");
  EXPECT_EQ(results[0].get("message").get_string("text"),
            "'rand' breaks runs");
  const util::Json& loc = results[0].get("locations").as_array()[0];
  EXPECT_EQ(
      loc.get("physicalLocation").get("artifactLocation").get_string("uri"),
      "src/x.cc");
  EXPECT_EQ(
      loc.get("physicalLocation").get("region").get("startLine").as_int(), 7);
}

TEST(Output, TextFormatMatchesCompilerConvention) {
  std::string text = to_text({{"src/x.cc", 7, "raw-assert", "msg"}});
  EXPECT_EQ(text, "src/x.cc:7: raw-assert: msg\n");
}

// ---------------------------------------------------------------------------
// end-to-end over real files: a seeded violation must fail the run

TEST(LintRun, SeededViolationFailsAndDiagnosticNamesFileLineRule) {
  std::string dir = ::testing::TempDir() + "/lint_seed/src/util";
  std::filesystem::create_directories(dir);
  std::string path = dir + "/bad.h";
  {
    std::ofstream out(path);
    out << "#pragma once\n"
        << "inline int jitter() { return rand(); }\n";
  }
  std::ostringstream report;
  int findings = run({::testing::TempDir() + "/lint_seed"}, report);
  EXPECT_GT(findings, 0);
  EXPECT_NE(report.str().find(path + ":2: nondeterminism"), std::string::npos)
      << report.str();
}

TEST(LintRun, MissingRootIsAFinding) {
  // A typo'd directory in the ctest/CI invocation must fail, not pass.
  std::ostringstream report;
  EXPECT_GT(run({"/no/such/picloud/dir"}, report), 0);
  EXPECT_NE(report.str().find("io: no such file"), std::string::npos);
}

TEST(LintRun, CleanTreeReportsZero) {
  std::string dir = ::testing::TempDir() + "/lint_clean/src/util";
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(dir + "/good.h");
    out << "#pragma once\n"
        << "inline int three() { return 3; }\n";
  }
  {
    // run() analyzes whole-program, so the tree must actually use its own
    // API for dead-symbol to stay quiet — like a real checkout does.
    std::ofstream out(dir + "/use.cc");
    out << "#include \"util/good.h\"\n"
        << "int main() { return three(); }\n";
  }
  std::ostringstream report;
  EXPECT_EQ(run({::testing::TempDir() + "/lint_clean"}, report), 0);
  EXPECT_TRUE(report.str().empty()) << report.str();
}

}  // namespace
}  // namespace picloud::lint
