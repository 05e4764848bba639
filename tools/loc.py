"""Count the lines of Python source files: all of them, and the logic lines.

A logic line is one that is not blank, not a comment alone, and not part of
a module, class or function docstring.  Usage:

    python3 tools/loc.py [FILE ...]

Without arguments it counts ``src/sphenergy/*.py``, relative to the
repository root.  Standard library only.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers covered by the docstrings of a module, class or function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(all lines, logic lines) of one file."""
    text = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(text))
    # A line carries code when some token other than a comment, a newline or
    # indentation starts or ends on it.
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - skip)


def main(argv: list[str]) -> None:
    paths = [Path(a) for a in argv] or sorted((ROOT / "src" / "sphenergy").glob("*.py"))
    total_all = total_logic = 0
    print(f"{'file':<16} {'wc -l':>6} {'logic':>6}")
    for path in paths:
        n_all, n_logic = count(path)
        total_all += n_all
        total_logic += n_logic
        print(f"{path.stem:<16} {n_all:>6} {n_logic:>6}")
    print(f"{'total':<16} {total_all:>6} {total_logic:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
