"""AST-grounded invariant analyzer for the declustering simulator.

Layout:
    lexer.py          C++ tokenizer (comments/strings handled, preprocessor
                      logical lines captured as directives)
    parser.py         structural parser: file/function/statement IR
    ir.py             the IR dataclasses the checks consume
    checks.py         the semantic checks
    analyze.py        command-line driver (also `python3 -m tools.analyze`)
"""
