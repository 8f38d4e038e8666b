#!/usr/bin/env python3
"""Monte Carlo sweep of accept rates around each construction's bound.

For every construction in the roster, run seeded enroll/perturb/verify
batches at the guaranteed burst size and one notch above it, and print the
accept rates side by side.  Inside the bound the rate must be 1.0; above
it the scheme is allowed to reject.

Usage: python scripts/burst_montecarlo.py [trials] [seed]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from synfuzz.channel import Rng, gen_burst_1d, gen_burst_2d  # noqa: E402
from synfuzz.codespec import parse_spec  # noqa: E402
from synfuzz.expand import ExpandedCode  # noqa: E402
from synfuzz.fuzzy import enroll, verify  # noqa: E402

ROSTER = [
    "cI(rs(15,7;gf(2^4)))",
    "cI+parity(rs(15,7;gf(2^4)))",
    "cII(rs(15,7;gf(2^4));3,5)",
    "cIII(rs(15,5;gf(2^4));3,5)",
]


def accept_rate(code, size, trials, rng):
    shape = code.shape
    alpha = code.alphabet
    accepted = 0
    for _ in range(trials):
        if len(shape) == 1:
            x = [rng.below(alpha.order) for _ in range(shape[0])]
            if size > shape[0]:
                return float("nan")
            offset = rng.below(shape[0] - size + 1)
            pat = gen_burst_1d(rng, alpha, shape[0], size, offset)
        else:
            rows, cols = shape
            x = [[rng.below(alpha.order) for _ in range(cols)] for _ in range(rows)]
            if size > min(rows, cols):
                return float("nan")
            pos = (rng.below(rows - size + 1), rng.below(cols - size + 1))
            pat = gen_burst_2d(rng, alpha, shape, size, size, pos)
        template = enroll(x, code)
        if verify(pat.apply_to(x), template, code=code).accepted:
            accepted += 1
    return accepted / trials


def main(argv):
    trials = int(argv[1]) if len(argv) > 1 else 200
    seed = int(argv[2]) if len(argv) > 2 else 7
    print(f"{'construction':<34} {'bound':>5} {'at bound':>9} {'above':>7}")
    for spec in ROSTER:
        code = parse_spec(spec)
        assert isinstance(code, ExpandedCode)
        bound = code.capability(1, "square" if code.is_array else "1d")
        step = code.tile
        rng = Rng(seed)
        at = accept_rate(code, bound, trials, rng)
        above = accept_rate(code, bound + step, trials, rng)
        print(f"{spec:<34} {bound:>5} {at:>9.3f} {above:>7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
