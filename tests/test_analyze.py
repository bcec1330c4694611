#!/usr/bin/env python3
"""Unit tests for the AST-grounded analyzer (tools/analyze/).

Covers the contract the fixtures encode: every fixture fires exactly
the checks it declares (and nothing else), suppression annotations
swallow findings without hiding that the check ran, a clean file
produces zero findings, the suppression/annotation plumbing in the
parser behaves line-accurately, and the token rules keep their
file scopes.
"""

import os
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from analyze import analyze, checks  # noqa: E402
from analyze import parser  # noqa: E402

FIXDIR = os.path.join("tools", "analyze", "fixtures")


def _scan_fixtures():
    pairs, kept, suppressed = analyze.run(ROOT, FIXDIR)
    expected = {}
    for full, rel in pairs:
        expected.setdefault(rel, set())
        with open(full, encoding="utf-8") as f:
            for m in analyze.EXPECT_RE.finditer(f.read()):
                expected[rel].add(m.group(1))
    return expected, kept, suppressed


class FixtureContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.expected, cls.kept, cls.suppressed = _scan_fixtures()

    def test_each_fixture_fires_exactly_its_own_checks(self):
        found = {}
        for f in self.kept:
            found.setdefault(f.rel, set()).add(f.rule)
        for rel, want in sorted(self.expected.items()):
            self.assertEqual(
                found.get(rel, set()), want,
                "fixture %s fired the wrong rule set" % rel)

    def test_every_rule_has_a_firing_fixture(self):
        fired = {f.rule for f in self.kept}
        for rule in checks.ALL_RULES:
            self.assertIn(rule, fired,
                          "rule %s has no firing fixture" % rule)

    def test_suppressed_fixture_is_silent_but_check_ran(self):
        rel = "tools/analyze/fixtures/suppressed_ok.cpp"
        self.assertEqual([f for f in self.kept if f.rel == rel], [],
                         "suppression failed to silence the finding")
        swallowed = {f.rule for f in self.suppressed if f.rel == rel}
        self.assertIn("determinism-taint", swallowed,
                      "the suppressed check never actually fired")

    def test_clean_fixture_has_zero_findings(self):
        rel = "tools/analyze/fixtures/clean.cpp"
        hits = [f for f in self.kept + self.suppressed if f.rel == rel]
        self.assertEqual(hits, [], "clean fixture produced findings")


class SuppressionPlumbing(unittest.TestCase):
    def test_covers_macro_call_and_whole_next_statement(self):
        fir = parser.parse_file("src/x.cpp", (
            'void f()\n'                             # 1
            '{\n'                                    # 2
            '    DECLUST_ANALYZE_SUPPRESS(\n'        # 3
            '        "rule-a,rule-b: reason "\n'     # 4
            '        "continued");\n'                # 5
            '    call(one,\n'                        # 6
            '         two);\n'                       # 7
            '    after();\n'                         # 8
            '}\n'
        ))
        for line in (3, 4, 5, 6, 7):
            self.assertEqual(fir.suppressions.get(line),
                             {"rule-a", "rule-b"},
                             "line %d not covered" % line)
        self.assertNotIn(8, fir.suppressions,
                         "suppression leaked past the next statement")

    def test_wildcard_all_swallows_any_rule(self):
        fir = parser.parse_file("src/y.cpp", (
            'void g()\n'
            '{\n'
            '    DECLUST_ANALYZE_SUPPRESS("all: bootstrap");\n'
            '    anything();\n'
            '}\n'
        ))
        finding = checks.Finding("src/y.cpp", 4, "hot-path-alloc", "m")
        kept, suppressed = analyze.apply_suppressions([finding], [fir])
        self.assertEqual(kept, [])
        self.assertEqual(suppressed, [finding])

    def test_unsuppressed_line_keeps_its_finding(self):
        fir = parser.parse_file("src/z.cpp", 'void h() { }\n')
        finding = checks.Finding("src/z.cpp", 1, "hot-path-alloc", "m")
        kept, suppressed = analyze.apply_suppressions([finding], [fir])
        self.assertEqual(kept, [finding])
        self.assertEqual(suppressed, [])


def _rules_at(rel, text):
    """{(line, rule)} the checks report for one parsed file."""
    fir = parser.parse_file(rel, text)
    return {(f.line, f.rule) for f in checks.run_checks([fir])}


class TokenRuleScopes(unittest.TestCase):
    """The token-level rules keep their file scopes: determinism is
    waived only in src/harness/, the pending-set ban only in src/sim/,
    and the header rules apply to headers only."""

    SOURCES = (
        '#include <queue>\n'
        '#include <unordered_map>\n'
        'std::unordered_map<int, int> index;\n'         # 3
        'std::priority_queue<int> pending;\n'           # 4
        'long now() { return time(nullptr); }\n'        # 5
    )

    def test_simulation_code_fires_every_token_rule(self):
        self.assertEqual(_rules_at("src/core/x.cpp", self.SOURCES), {
            (3, "determinism-taint"),
            (4, "event-core-priority-queue"),
            (5, "determinism-taint"),
        })

    def test_harness_may_read_clocks_but_not_keep_a_pending_set(self):
        self.assertEqual(_rules_at("src/harness/x.cpp", self.SOURCES),
                         {(4, "event-core-priority-queue")})

    def test_event_core_may_keep_its_heap(self):
        self.assertEqual(_rules_at("src/sim/x.cpp", self.SOURCES),
                         {(3, "determinism-taint"),
                          (5, "determinism-taint")})

    def test_header_rules_skip_sources_but_include_rule_does_not(self):
        text = ('#include "../sim/time.hpp"\n'
                'using namespace std;\n')
        self.assertEqual(_rules_at("src/util/x.cpp", text),
                         {(1, "include-relative")})
        self.assertEqual(_rules_at("src/util/x.hpp", text),
                         {(1, "include-relative"),
                          (1, "header-pragma-once"),
                          (2, "header-using-namespace")})
        self.assertEqual(
            _rules_at("src/util/y.hpp", '#pragma once\nint v;\n'), set())

    def test_member_calls_named_like_sources_are_not_sources(self):
        self.assertEqual(
            _rules_at("src/core/x.cpp",
                      'long f(Rng &r, Sim &s) '
                      '{ return r.rand() + s.time(); }\n'), set())


class ParserPlumbing(unittest.TestCase):
    def test_hot_path_annotation_marks_the_function(self):
        fir = parser.parse_file("src/h.hpp", (
            '#pragma once\n'
            'DECLUST_HOT_PATH\n'
            'void fast();\n'
            'void slow();\n'
        ))
        hot = {fn.name: fn.hot_path for fn in fir.functions}
        self.assertEqual(hot, {"fast": True, "slow": False})

    def test_hot_annotation_seeds_closure_across_calls(self):
        fir = parser.parse_file("src/c.cpp", (
            'void helper(int v) { sink(v); }\n'
            'DECLUST_HOT_PATH\n'
            'void root() { helper(1); }\n'
            'void bystander() { helper(2); }\n'
        ))
        reached = checks.hot_closure([fir])
        names = {fn.name for _fir, fn, _root in reached.values()}
        self.assertEqual(names, {"root", "helper"})

    def test_function_pointer_table_is_a_reference_node(self):
        fir = parser.parse_file("src/t.cpp", (
            'struct Hooks { void (*on)(int); };\n'
            'void hook(int v) { sink(v); }\n'
            'const Hooks kHooks{&hook};\n'
            'const int kPlain{3};\n'
            'DECLUST_HOT_PATH\n'
            'void root() { kHooks.on(1); }\n'
        ))
        names = {fn.name for fn in fir.functions}
        self.assertEqual(names, {"hook", "kHooks", "root"})
        reached = checks.hot_closure([fir])
        names = {fn.name for _fir, fn, _root in reached.values()}
        self.assertEqual(names, {"root", "kHooks", "hook"})


if __name__ == "__main__":
    unittest.main()
