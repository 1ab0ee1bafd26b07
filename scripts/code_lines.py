"""Print the file lines and code lines of each module in src/dcecon, and their totals.

A code line holds a token other than a comment and is not part of a docstring (the
string that opens a module, class or function body). Blank lines, comment lines and
docstrings count as file lines only:

    python3 scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dcecon"


def code_lines(source: str) -> int:
    """The number of lines of source that hold code other than comments and docstrings."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in layout:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> None:
    total_file = total_code = 0
    print(f"{'module':<18}{'file':>7}{'code':>7}")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        file, code = len(source.splitlines()), code_lines(source)
        total_file, total_code = total_file + file, total_code + code
        print(f"{path.name:<18}{file:>7}{code:>7}")
    print(f"{'total':<18}{total_file:>7}{total_code:>7}")


if __name__ == "__main__":
    main()
