"""Gated libclang backend.

Builds the same FileIR as the builtin parser, but from real clang ASTs
via the ``clang.cindex`` python bindings over an exported
``compile_commands.json``.  The whole module is defensive: if the
bindings are missing, libclang cannot be loaded, or a translation unit
fails to parse, :func:`try_parse_all` returns ``(None, reason)`` and
the driver falls back to the builtin backend (``--backend auto``) or
errors out (``--backend libclang``).

Nothing in this file may raise at import time — the container this repo
is developed in has no libclang, and the builtin backend is the one CI
gates on.
"""

import json
import os
import re

from .ir import FileIR, FunctionIR, Stmt

_SUPPRESS_RE = re.compile(
    r'DECLUST_ANALYZE_SUPPRESS\s*\(\s*"([^":]*)(?::[^"]*)?"')

_HOT_ANNOTATION = "declust::hot_path"
_INCLUDE_LINE_RE = re.compile(r"^\s*#\s*include\b")
_PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")


def _load_cindex():
    try:
        from clang import cindex
    except ImportError as e:
        return None, "clang.cindex not importable (%s)" % e
    try:
        index = cindex.Index.create()
    except Exception as e:  # libclang .so missing / version skew
        return None, "libclang not loadable (%s)" % e
    return (cindex, index), None


def _compile_args(compile_commands, full):
    """Fish the compile arguments for ``full`` out of the database."""
    if not compile_commands or not os.path.exists(compile_commands):
        return ["-std=c++20", "-xc++"]
    try:
        with open(compile_commands, encoding="utf-8") as f:
            db = json.load(f)
    except (OSError, ValueError):
        return ["-std=c++20", "-xc++"]
    base = os.path.basename(full)
    for entry in db:
        if os.path.basename(entry.get("file", "")) != base:
            continue
        raw = entry.get("arguments")
        if raw is None:
            raw = entry.get("command", "").split()
        args = []
        skip = False
        for a in raw[1:]:
            if skip:
                skip = False
                continue
            if a in ("-o", "-c"):
                skip = a == "-o"
                continue
            if os.path.basename(a) == base:
                continue
            args.append(a)
        return args
    # Headers are not in the database; reuse any entry's include dirs.
    for entry in db:
        raw = entry.get("arguments") or entry.get("command", "").split()
        args = [a for a in raw[1:]
                if a.startswith(("-I", "-D", "-std="))]
        if args:
            return args + ["-xc++"]
    return ["-std=c++20", "-xc++"]


def _stmt_tokens(cursor):
    return [t.spelling for t in cursor.get_tokens()]


def _build_stmts(cindex, cursor):
    """Map a clang statement cursor tree onto the Stmt IR."""
    K = cindex.CursorKind
    out = []
    for child in cursor.get_children():
        line = child.location.line
        kind = child.kind
        if kind == K.COMPOUND_STMT:
            out.append(Stmt("block", line,
                            body=_build_stmts(cindex, child)))
        elif kind == K.IF_STMT:
            kids = list(child.get_children())
            cond = _stmt_tokens(kids[0]) if kids else []
            s = Stmt("if", line, tokens=cond)
            if len(kids) > 1:
                s.then_body = _wrap(cindex, kids[1])
            if len(kids) > 2:
                s.else_body = _wrap(cindex, kids[2])
            out.append(s)
        elif kind in (K.FOR_STMT, K.WHILE_STMT, K.DO_STMT,
                      K.CXX_FOR_RANGE_STMT):
            kids = list(child.get_children())
            body = _wrap(cindex, kids[-1]) if kids else []
            head = []
            for k in kids[:-1]:
                head.extend(_stmt_tokens(k))
            out.append(Stmt("loop", line, tokens=head, body=body))
        elif kind == K.SWITCH_STMT:
            kids = list(child.get_children())
            cond = _stmt_tokens(kids[0]) if kids else []
            body = _wrap(cindex, kids[-1]) if len(kids) > 1 else []
            out.append(Stmt("switch", line, tokens=cond, body=body))
        elif kind == K.RETURN_STMT:
            out.append(Stmt("return", line,
                            tokens=_stmt_tokens(child)))
        elif kind == K.BREAK_STMT:
            out.append(Stmt("break", line))
        elif kind == K.CONTINUE_STMT:
            out.append(Stmt("continue", line))
        else:
            out.append(Stmt("simple", line,
                            tokens=_stmt_tokens(child)))
    return out


def _wrap(cindex, cursor):
    """A single statement position (if-branch, loop body) as a list."""
    if cursor.kind == cindex.CursorKind.COMPOUND_STMT:
        return _build_stmts(cindex, cursor)
    fake = Stmt("block", cursor.location.line)
    parent_list = _build_stmts_single(cindex, cursor)
    fake.body = parent_list
    return [fake]


def _build_stmts_single(cindex, cursor):
    class _Holder:
        def get_children(self):
            return [cursor]
    return _build_stmts(cindex, _Holder())


def _is_hot(cursor):
    for child in cursor.get_children():
        if child.kind.name == "ANNOTATE_ATTR" and \
                child.spelling == _HOT_ANNOTATION:
            return True
    return False


def _parse_one(cindex, index, full, rel, args):
    tu = index.parse(full, args=args,
                     options=1)  # PARSE_DETAILED_PROCESSING_RECORD
    fir = FileIR(rel=rel, is_header=rel.endswith((".hpp", ".h")),
                 backend="libclang")

    K = cindex.CursorKind
    with open(full, encoding="utf-8") as f:
        lines = f.read().splitlines()

    fir.pragma_once = any(_PRAGMA_ONCE_RE.match(l) for l in lines)
    # Identifier stream + suppressions straight from the token stream so
    # the shape matches the builtin backend: #define bodies count,
    # #include paths do not.
    include_lines = {n for n, l in enumerate(lines, 1)
                     if _INCLUDE_LINE_RE.match(l)}
    toks = list(tu.cursor.get_tokens())
    for i, t in enumerate(toks):
        if t.location.file and t.location.file.name != full:
            continue
        if t.location.line in include_lines:
            continue
        if t.kind.name in ("IDENTIFIER", "KEYWORD"):
            prev = toks[i - 1].spelling if i else ""
            nxt = toks[i + 1].spelling if i + 1 < len(toks) else ""
            fir.identifiers.append((t.spelling, t.location.line,
                                    prev, nxt))

    for lineno, text in enumerate(lines, 1):
        m = _SUPPRESS_RE.search(text)
        if m:
            rules = {r.strip() for r in m.group(1).split(",")
                     if r.strip()}
            fir.suppress_sites.add(lineno)
            fir.suppressions.setdefault(lineno, set()).update(rules)
            for fwd in range(lineno + 1, min(lineno + 4,
                                             len(lines) + 1)):
                stripped = lines[fwd - 1].strip()
                if stripped and not stripped.startswith("//"):
                    fir.suppressions.setdefault(fwd, set()) \
                        .update(rules)
                    break

    for inc in tu.get_includes():
        if inc.depth != 1:
            continue
        loc = inc.location
        if not loc.file or loc.file.name != full:
            continue
        raw = lines[loc.line - 1] if loc.line <= len(lines) else ""
        m = re.search(r'#\s*include\s*([<"])([^>"]+)[>"]', raw)
        if m:
            fir.includes.append((loc.line, m.group(2),
                                 m.group(1) == "<"))

    def visit(cursor, scope, in_class):
        for child in cursor.get_children():
            loc = child.location
            if loc.file and loc.file.name != full:
                continue
            kind = child.kind
            if kind == K.NAMESPACE:
                visit(child, scope + [child.spelling], in_class)
            elif kind in (K.CLASS_DECL, K.STRUCT_DECL, K.ENUM_DECL,
                          K.CLASS_TEMPLATE):
                if child.is_definition():
                    fir.defined_types.setdefault(child.spelling,
                                                 loc.line)
                    visit(child, scope + [child.spelling], True)
                elif child.spelling:
                    fir.forward_decls.add(child.spelling)
            elif kind in (K.TYPE_ALIAS_DECL, K.TYPEDEF_DECL):
                fir.defined_types.setdefault(child.spelling, loc.line)
                fir.aliases[child.spelling] = \
                    _stmt_tokens(child)
            elif kind == K.MACRO_DEFINITION:
                fir.defined_macros.setdefault(child.spelling,
                                              loc.line)
            elif kind in (K.FUNCTION_DECL, K.CXX_METHOD,
                          K.CONSTRUCTOR, K.DESTRUCTOR,
                          K.FUNCTION_TEMPLATE):
                qual = "::".join(scope + [child.spelling]) \
                    if scope else child.spelling
                fn = FunctionIR(name=child.spelling.split("<")[0],
                                qual=qual, line=loc.line,
                                hot_path=_is_hot(child),
                                is_method=(in_class or
                                           "::" in child.spelling))
                for arg in child.get_arguments():
                    fn.params.append(
                        ([arg.type.spelling], arg.spelling))
                body = None
                for sub in child.get_children():
                    if sub.kind == K.COMPOUND_STMT:
                        body = sub
                if body is not None:
                    fn.has_body = True
                    fn.body = _build_stmts(cindex, body)
                fir.functions.append(fn)
            else:
                visit(child, scope, in_class)

    visit(tu.cursor, [], False)
    return fir


def try_parse_all(pairs, compile_commands):
    """Parse every (full, rel) pair with libclang.

    Returns (list_of_FileIR, None) on success or (None, reason) when
    the backend is unavailable or any file fails to parse.
    """
    loaded, err = _load_cindex()
    if loaded is None:
        return None, err
    cindex, index = loaded
    firs = []
    for full, rel in pairs:
        try:
            firs.append(_parse_one(cindex, index, full, rel,
                                   _compile_args(compile_commands,
                                                 full)))
        except Exception as e:  # any cindex failure disables backend
            return None, "parse failed for %s: %s" % (rel, e)
    return firs, None
