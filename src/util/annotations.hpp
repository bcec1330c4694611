/**
 * @file
 * Source annotations consumed by the AST analyzer (tools/analyze/).
 *
 * The repo enforces its invariants in two layers (see DESIGN.md
 * "Static analysis"): the analyzer for every source-level rule, textual
 * or semantic, and runtime DECLUST_VALIDATE audits for what only
 * execution can see. The two macros here are the analyzer's
 * source-level interface:
 *
 *   DECLUST_HOT_PATH
 *     Marks a function as a hot-path ROOT. The analyzer computes the
 *     closure of everything reachable from annotated roots — direct
 *     calls plus named continuation handoffs (`&stepFn`, function
 *     pointers stored into resume slots) — and rejects heap
 *     allocation, container growth, and std::function conversions
 *     anywhere in that closure. The macro expands to nothing: only
 *     the analyzer's parser reads it.
 *
 *   DECLUST_ANALYZE_SUPPRESS("rule-a,rule-b: reason")
 *     Statement-position suppression, the repo's only suppression
 *     syntax. Suppresses the listed rules on the macro call's own lines and on every
 *     line of the statement that follows it, so it reads like the
 *     construct it excuses:
 *
 *         DECLUST_ANALYZE_SUPPRESS("hot-path-growth: slab warm-up");
 *         slabs_.push_back(makeSlab());
 *
 *     The reason after the colon is mandatory by convention: every
 *     suppression is a documented, deliberate exception, reviewable
 *     with `git grep DECLUST_ANALYZE_SUPPRESS`. The macro compiles to
 *     nothing; the string never reaches the binary.
 */
#pragma once

/** Expands to nothing; parsed by tools/analyze/ as a hot-path root. */
#define DECLUST_HOT_PATH

/** Expands to nothing; parsed by tools/analyze/ for rule suppression. */
#define DECLUST_ANALYZE_SUPPRESS(rules_and_reason) static_assert(true, "")
