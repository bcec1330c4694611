"""Intermediate representation built by parser.py.

The checks in checks.py consume ONLY this IR, never tokens or text
directly, so every check is written against one stable shape.  The IR
is deliberately statement-grained — fine enough for path-sensitive
lifetime analysis, coarse enough that a heuristic C++ parser can build
it reliably.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple


@dataclass
class Stmt:
    """One statement.

    kind: 'simple' (expression/declaration), 'return', 'break',
    'continue', 'block', 'if', 'loop', 'switch'.
    tokens: the statement's own tokens (condition tokens for if/loop/
    switch headers; full text for simple/return).
    """
    kind: str
    line: int
    tokens: List = field(default_factory=list)
    body: List["Stmt"] = field(default_factory=list)       # block/loop/switch
    then_body: List["Stmt"] = field(default_factory=list)  # if
    else_body: List["Stmt"] = field(default_factory=list)  # if


@dataclass
class FunctionIR:
    """One function definition (or bodiless declaration). A namespace-
    scope table of function pointers is recorded the same way, with its
    initializer as the body (see parser._Parser._record_table)."""
    name: str                 # unqualified name ('read', 'grow', ...)
    qual: str                 # scope-qualified ('ArrayController::read')
    line: int
    hot_path: bool = False    # carries the DECLUST_HOT_PATH annotation
    is_method: bool = False   # defined inside a class, or qualified
    has_body: bool = False
    body: List[Stmt] = field(default_factory=list)
    # Parameter list as (type_tokens, name) pairs; type_tokens are the
    # raw spellings, e.g. ['IoOp', '*'].
    params: List[Tuple[List[str], str]] = field(default_factory=list)


@dataclass
class FileIR:
    rel: str                  # repo-relative path, '/'-separated
    is_header: bool = False
    # Direct includes: (line, text, angled). text is the include path
    # as written.
    includes: List[Tuple[int, str, bool]] = field(default_factory=list)
    functions: List[FunctionIR] = field(default_factory=list)
    # Namespace-scope type-ish definitions: name -> line. Covers
    # classes, structs, enums, and using/typedef aliases.
    defined_types: Dict[str, int] = field(default_factory=dict)
    # Forward declarations present in this file ('class Foo;').
    forward_decls: Set[str] = field(default_factory=set)
    # Type aliases: alias name -> target token spellings.
    aliases: Dict[str, List[str]] = field(default_factory=dict)
    # Object-like and function-like macros #defined here: name -> line.
    defined_macros: Dict[str, int] = field(default_factory=dict)
    # All identifier tokens (name, line, prev_token_text,
    # next_token_text) — the raw reference stream for include-graph and
    # determinism-source checks.
    identifiers: List[Tuple[str, int, str, str]] = \
        field(default_factory=list)
    # Suppressions: line -> set of rule ids (already expanded to cover
    # the following code line by the parser).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    # Lines occupied by DECLUST_ANALYZE_SUPPRESS calls themselves.
    suppress_sites: Set[int] = field(default_factory=set)
    # The file carries a `#pragma once` directive.
    pragma_once: bool = False


def iter_stmts(stmts):
    """Depth-first walk over a statement list (pre-order)."""
    for s in stmts:
        yield s
        yield from iter_stmts(s.body)
        yield from iter_stmts(s.then_body)
        yield from iter_stmts(s.else_body)
