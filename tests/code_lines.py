"""Code lines per module of the smallfdr package, and their total.

    python tests/code_lines.py [SOURCE_DIR]

A code line holds a token other than a comment, a line break, an indent or a
dedent, and lies outside every module, class and function docstring.  A
token spanning several lines, such as a triple-quoted string that is not a
docstring, makes each of them a code line.  SOURCE_DIR defaults to the
package next to this script, src/smallfdr.  The script only prints; it is
not collected by pytest.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the Python text ``source``."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("source", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src" / "smallfdr")
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(parser.parse_args().source.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<16}{count:>6}")
    print(f"{'total':<16}{sum(counts.values()):>6}")


if __name__ == "__main__":
    main()
