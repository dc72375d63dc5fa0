"""Count the code lines of a Python file, or of the Python files in a directory.

A code line holds at least one token that is not a comment, a docstring or
layout (newlines and indentation); blank lines, comment lines and docstring
lines are not counted.  A docstring is a string literal that is a statement
of its own.

    python3 tools/code_lines.py [path]    # default: src/iwagrowth
    python3 tools/code_lines.py -h        # this text (also --help)

A path that does not exist exits 2 with a message on stderr.
"""

import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
          tokenize.ENDMARKER}
NOISE = {tokenize.COMMENT, tokenize.NL}


def code_lines(source: bytes) -> int:
    tokens = [t for t in tokenize.tokenize(io.BytesIO(source).readline) if t.type not in NOISE]
    lines = set()
    for before, token, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
        if token.type in LAYOUT:
            continue
        if (token.type == tokenize.STRING and before.type in LAYOUT
                and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            continue  # a docstring
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


if __name__ == "__main__":
    if sys.argv[1:2] in (["-h"], ["--help"]):
        print(__doc__.strip())
        sys.exit(0)
    root = Path(sys.argv[1] if len(sys.argv) > 1 else "src/iwagrowth")
    if not root.exists():
        print(f"code_lines.py: {root}: no such file or directory", file=sys.stderr)
        sys.exit(2)
    paths = [root] if root.is_file() else sorted(root.glob("*.py"))
    print(sum(code_lines(path.read_bytes()) for path in paths))
