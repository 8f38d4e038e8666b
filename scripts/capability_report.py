#!/usr/bin/env python3
"""Print the guaranteed burst-correction figures for a roster of codes.

Usage: python scripts/capability_report.py [spec ...]
With no arguments a default roster covering every construction is used.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from synfuzz.codespec import parse_spec  # noqa: E402
from synfuzz.errors import SynfuzzError  # noqa: E402
from synfuzz.rs import enrollable  # noqa: E402

DEFAULT_ROSTER = [
    "cI(rs(7,3;gf(2^3)))",
    "cI(rs(255,223;gf(2^8)))",
    "cI+parity(rs(15,7;gf(2^4)))",
    "cII(rs(15,7;gf(2^4));3,5)",
    "cIII(rs(15,5;gf(2^4));3,5)",
    "concat(inner=bch(15,2;gf(2)), outer=rs(127,109;gf(2^7)), layout=flat)",
    "concat(inner=bch(7,1;gf(2)), outer=rs(15,11;gf(2^4)), layout=iv(7,5))",
    "concat(inner=bch(15,2;gf(2)), outer=rs(16,8;gf(2^7)), layout=v(4,5))",
    "concat(inner=bch(4,1;gf(5)), outer=rs(8,4;gf(5^2)), layout=vi)",
]


def main(argv):
    roster = argv[1:] or DEFAULT_ROSTER
    for spec in roster:
        try:
            code = enrollable(parse_spec(spec))
        except SynfuzzError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print("=" * 72)
        for line in code.info_lines() + code.capability_lines():
            print(line)
    print("=" * 72)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
