"""Print the size of the package: lines and parser tokens per module.

One tab-separated line per `timefuel/*.py` file of a `src` directory, in
name order: the file's name, its lines (newline characters, as `wc -l`
counts them) and its parser tokens, then a `total` line.  Parser tokens
are all the tokens `tokenize` gives for the file's bytes, its ENCODING,
NEWLINE, INDENT, DEDENT and ENDMARKER tokens included, except COMMENT and
NL: what the compiler reads, so a comment or a blank line adds none and a
docstring adds one.

    python3 tools/size.py [--src OTHER/src]
"""

from __future__ import annotations

import argparse
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = (tokenize.COMMENT, tokenize.NL)


def parser_tokens(source: bytes) -> int:
    tokens = tokenize.tokenize(io.BytesIO(source).readline)
    return sum(token.type not in SKIPPED for token in tokens)


def sizes(src: Path) -> list[tuple[str, int, int]]:
    """(name, lines, parser tokens) of each module of src/timefuel."""
    rows = []
    for path in sorted((src / "timefuel").glob("*.py")):
        source = path.read_bytes()
        rows.append((path.name, source.count(b"\n"), parser_tokens(source)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args(argv)
    rows = sizes(args.src)
    for name, lines, tokens in rows:
        print(f"{name}\t{lines}\t{tokens}")
    print(f"total\t{sum(r[1] for r in rows)}\t{sum(r[2] for r in rows)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
