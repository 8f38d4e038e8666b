#!/usr/bin/env python3
"""Measure decoder cost against code size.

For a ladder of Reed-Solomon codes, decode full-load random error patterns
from their syndromes and report the mean number of field multiplications
next to n*(n-k), the quantity the cost is expected to track.

Usage: python scripts/decode_cost_scan.py [trials]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from synfuzz.channel import Rng  # noqa: E402
from synfuzz.gf import MUL_COUNTER, ExtField  # noqa: E402
from synfuzz.rs import RsCode  # noqa: E402

LADDER = [
    (2, 3, 7, 3),
    (2, 4, 15, 7),
    (2, 5, 31, 15),
    (2, 6, 63, 39),
    (2, 8, 255, 223),
]


def mean_decode_mults(code, trials, rng):
    total = 0
    for _ in range(trials):
        err = [0] * code.n
        chosen = set()
        while len(chosen) < code.t:
            chosen.add(rng.below(code.n))
        for pos in chosen:
            err[pos] = rng.nonzero(code.field)
        synd = code.syndrome(err)
        before = MUL_COUNTER.count
        assert code.decode_syndrome(synd) == err
        total += MUL_COUNTER.count - before
    return total / trials


def main(argv):
    trials = int(argv[1]) if len(argv) > 1 else 30
    rng = Rng(2024)
    print(f"{'code':>14} {'t':>3} {'n(n-k)':>8} {'mean mults':>11} {'mults/n(n-k)':>13}")
    for p, m, n, k in LADDER:
        code = RsCode(ExtField(p, m), n, k)
        cost = mean_decode_mults(code, trials, rng)
        product = n * (n - k)
        print(
            f"rs({n},{k}){'':>{max(0, 5 - len(str(n)) - len(str(k)))}}"
            f" {code.t:>3} {product:>8} {cost:>11.1f} {cost / product:>13.3f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
