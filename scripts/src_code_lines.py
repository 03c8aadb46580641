"""Count the code lines of Python sources: the lines that are not blank,
hold more than a comment and are not part of a docstring.

    python scripts/src_code_lines.py src/swapgate/*.py
    python scripts/src_code_lines.py src/swapgate

prints the total over the files (a directory stands for the ``*.py`` files
directly in it), so that editing a comment or a docstring leaves it
unchanged where ``wc -l`` moves.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

# tokens that are layout or comment, not code
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        first = node.body[0] if isinstance(node, _SCOPES) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code (module docstring)."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(paths: list[str]) -> int:
    files = [f for p in map(Path, paths)
             for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    print(sum(code_lines(f.read_text(encoding="utf-8")) for f in files))
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))
