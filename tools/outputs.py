"""Print the SHA-256 of every file that cdam's stock entry points write.

The entries are the ten `cdam experiment` names at their defaults, plus
`simulate` (`--graph cycle:30 --patterns random:1000 --energy`) and
`automaton` (`--script husband,brother,daughter --start Marge`).  Each
writes into its own directory of one temporary directory.  The output is
one `sha256  relative/path` line per file, sorted by path, then the
SHA-256 of those lines and the word `total`.  Two checkouts that write
the same bytes print the same total.

Run from the root of a checkout: python3 tools/outputs.py [ENTRY ...]
Without arguments every entry runs (11 s on a 2-core machine).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "src")

from cdam import cli, experiments  # noqa: E402

ENTRIES = {name: ["experiment", name] for name in experiments.EXPERIMENTS}
ENTRIES["simulate"] = ["simulate", "--graph", "cycle:30", "--patterns", "random:1000", "--energy"]
ENTRIES["automaton"] = ["automaton", "--script", "husband,brother,daughter", "--start", "Marge"]


def digest_lines(root: Path) -> list[str]:
    """`sha256  relative/path` of every file under root, sorted by path."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(root).as_posix()}"
            for path in sorted(root.rglob("*")) if path.is_file()]


def main(argv: list[str]) -> int:
    names = argv or list(ENTRIES)
    unknown = [name for name in names if name not in ENTRIES]
    if unknown:
        print(f"unknown entry {', '.join(unknown)}; valid: {', '.join(ENTRIES)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in names:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([*ENTRIES[name], "--out", str(root / name)])
            if code != 0:
                print(f"{name} exited with {code}", file=sys.stderr)
                return 1
        listing = "\n".join(digest_lines(root))
    print(listing)
    print(f"{hashlib.sha256(listing.encode()).hexdigest()}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
