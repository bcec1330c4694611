"""C++ tokenizer for the analyzer's parser.

Produces a flat token stream with line numbers plus the preprocessor
directives as structured records. Comments are dropped, string/char
literal bodies are kept (type-tagged) so checks never false-positive on
prose, and preprocessor logical lines (with backslash continuations)
are consumed whole so macro definitions cannot unbalance the brace
structure the parser relies on.
"""

from collections import namedtuple

Token = namedtuple("Token", "kind text line")
# kind: 'id' identifier/keyword, 'num' numeric literal, 'str' string
# literal (text includes quotes), 'chr' char literal, 'punct' operator
# or punctuation.

Directive = namedtuple("Directive", "line kind text")
# kind: 'include', 'define', 'if', 'ifdef', 'ifndef', 'elif', 'else',
# 'endif', 'pragma', 'other'.  text: the directive body (after the
# keyword), continuations joined.

_PUNCT3 = ("<<=", ">>=", "...", "->*")
_PUNCT2 = ("::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
           "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
           ".*")


def _ident_start(c):
    return c.isalpha() or c == "_"


def _ident_char(c):
    return c.isalnum() or c == "_"


def lex(text):
    """Tokenize ``text``; return (tokens, directives)."""
    tokens = []
    directives = []
    i = 0
    n = len(text)
    line = 1
    at_line_start = True  # only whitespace seen since the last newline

    while i < n:
        c = text[i]

        if c == "\n":
            line += 1
            i += 1
            at_line_start = True
            continue
        if c in " \t\r\f\v":
            i += 1
            continue

        nxt = text[i + 1] if i + 1 < n else ""

        # Comments.
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and nxt == "*":
            i += 2
            while i < n - 1 and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    line += 1
                i += 1
            i = min(i + 2, n)
            continue

        # Preprocessor directive: consume the whole logical line.
        if c == "#" and at_line_start:
            start_line = line
            j = i + 1
            buf = []
            while j < n:
                ch = text[j]
                if ch == "\\" and j + 1 < n and text[j + 1] == "\n":
                    line += 1
                    j += 2
                    buf.append(" ")
                    continue
                if ch == "\n":
                    break
                # Strip comments inside the directive.
                if ch == "/" and j + 1 < n and text[j + 1] == "/":
                    while j < n and text[j] != "\n":
                        j += 1
                    break
                if ch == "/" and j + 1 < n and text[j + 1] == "*":
                    j += 2
                    while j < n - 1 and not (text[j] == "*" and
                                             text[j + 1] == "/"):
                        if text[j] == "\n":
                            line += 1
                        j += 1
                    j = min(j + 2, n)
                    buf.append(" ")
                    continue
                buf.append(ch)
                j += 1
            body = "".join(buf).strip()
            word = body.split(None, 1)[0] if body else ""
            rest = body[len(word):].strip()
            kind = word if word in ("include", "define", "if", "ifdef",
                                    "ifndef", "elif", "else", "endif",
                                    "pragma") else "other"
            directives.append(Directive(start_line, kind, rest))
            i = j
            at_line_start = True
            continue

        at_line_start = False

        # Raw string literal: R"delim( ... )delim"
        if c == "R" and nxt == '"':
            j = i + 2
            delim = []
            while j < n and text[j] not in "(\n":
                delim.append(text[j])
                j += 1
            closer = ")" + "".join(delim) + '"'
            end = text.find(closer, j)
            if end == -1:
                end = n - len(closer)
            lit = text[i:end + len(closer)]
            tokens.append(Token("str", lit, line))
            line += lit.count("\n")
            i = end + len(closer)
            continue

        # String / char literals (with escapes).
        if c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote or text[j] == "\n":
                    break
                j += 1
            lit = text[i:j + 1] if j < n else text[i:]
            tokens.append(Token("str" if quote == '"' else "chr", lit,
                                line))
            i = j + 1
            continue

        # Identifiers / keywords.
        if _ident_start(c):
            j = i
            while j < n and _ident_char(text[j]):
                j += 1
            word = text[i:j]
            # String prefixes (u8"...", L"...") — re-lex as string.
            if j < n and text[j] == '"' and word in ("u8", "u", "U", "L"):
                i = j
                at_line_start = False
                continue
            tokens.append(Token("id", word, line))
            i = j
            continue

        # Numbers (incl. hex, digit separators, suffixes, exponents).
        if c.isdigit() or (c == "." and nxt.isdigit()):
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._'" or
                             (text[j] in "+-" and
                              text[j - 1] in "eEpP")):
                j += 1
            tokens.append(Token("num", text[i:j], line))
            i = j
            continue

        # Punctuation, longest match first.
        three = text[i:i + 3]
        if three in _PUNCT3:
            tokens.append(Token("punct", three, line))
            i += 3
            continue
        two = text[i:i + 2]
        if two in _PUNCT2:
            tokens.append(Token("punct", two, line))
            i += 2
            continue
        tokens.append(Token("punct", c, line))
        i += 1

    return tokens, directives
