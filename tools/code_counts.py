"""Count code lines, ``if`` statements and ``raise`` statements per module.

A code line is a line that holds a token other than a comment, a
docstring or whitespace; a token that spans lines (a multi-line string)
makes each of them a code line.  The ``if`` and ``raise`` counts are the
``ast.If`` and ``ast.Raise`` nodes of each module.  Every ``*.py`` file
under the given directory is counted, and the total comes last::

    python tools/code_counts.py src/tring
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree):
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def counts(source):
    """``(code lines, ast.If nodes, ast.Raise nodes)`` of one module's source."""
    tree = ast.parse(source)
    docstrings = _docstring_lines(tree)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start[0] in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    nodes = list(ast.walk(tree))
    return (len(code), sum(isinstance(n, ast.If) for n in nodes),
            sum(isinstance(n, ast.Raise) for n in nodes))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("directory", type=Path)
    args = parser.parse_args(argv)
    files = sorted(args.directory.rglob("*.py"))
    if not files:
        parser.error(f"no .py files under {args.directory}")
    total = [0, 0, 0]
    print(f"{'module':<32} {'code':>6} {'if':>4} {'raise':>5}")
    for path in files:
        row = counts(path.read_text(encoding="utf-8"))
        total = [t + v for t, v in zip(total, row)]
        print(f"{path.relative_to(args.directory).as_posix():<32} {row[0]:>6} {row[1]:>4} {row[2]:>5}")
    print(f"{'total':<32} {total[0]:>6} {total[1]:>4} {total[2]:>5}")


if __name__ == "__main__":
    main()
