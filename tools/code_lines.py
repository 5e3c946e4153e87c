"""Count the code lines of the ``.py`` files under a directory.

A code line holds part of a statement.  Blank lines, comment lines and the
lines of a docstring (a statement made only of string literals) are not
counted; a statement spread over several lines counts each of them.

    python tools/code_lines.py src/gbsclust
"""

import io
import sys
import tokenize
from pathlib import Path

# tokens that carry no code of their own
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in LAYOUT:
            statement.append(token)
        elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(lines)


def count_directory(root) -> int:
    """The code lines of every ``.py`` file under ``root``."""
    return sum(code_lines(path.read_text(encoding="utf-8")) for path in Path(root).rglob("*.py"))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/code_lines.py DIRECTORY")
    print(count_directory(sys.argv[1]))
