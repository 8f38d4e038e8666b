"""Command-line front end: enroll, verify, capability, simulate, info.

Data files hold whitespace-separated hex symbols, one line for a vector
and one line per row for an array.  Exit codes are stable: 0 for success
or ACCEPT, 1 for REJECT, 2 for usage or data errors.
"""

from __future__ import annotations

import argparse
import sys

from . import fuzzy
from .channel import Rng, gen_mixed
from .codespec import parse_spec
from .concat import FlatLayout, IvLayout, VLayout
from .errors import SynfuzzError
from .expand import KIND_COMPANION, KIND_ROW, KIND_ROW_PARITY, KIND_SQUARE, ExpandedCode
from .rs import RsCode

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_ERROR = 2


def read_data_file(path: str, code):
    shape = code.shape
    order = code.alphabet.order
    with open(path, "r", encoding="ascii") as fh:
        rows = [line.split() for line in fh if line.strip()]
    try:
        parsed = [[int(tok, 16) for tok in row] for row in rows]
    except ValueError as exc:
        raise SynfuzzError(f"malformed hex symbol in {path}: {exc}") from None
    for row in parsed:
        for v in row:
            if not 0 <= v < order:
                raise SynfuzzError(f"symbol {v:#x} outside the alphabet of {order}")
    if len(shape) == 1:
        flat = [v for row in parsed for v in row]
        if len(flat) != shape[0]:
            raise SynfuzzError(f"expected {shape[0]} symbols, found {len(flat)}")
        return flat
    if len(parsed) != shape[0] or any(len(r) != shape[1] for r in parsed):
        raise SynfuzzError(f"expected a {shape[0]}x{shape[1]} grid in {path}")
    return parsed


def write_data_file(path: str, data) -> None:
    with open(path, "w", encoding="ascii") as fh:
        if data and isinstance(data[0], list):
            for row in data:
                fh.write(" ".join(f"{v:x}" for v in row) + "\n")
        else:
            fh.write(" ".join(f"{v:x}" for v in data) + "\n")


_GUIDANCE = {
    KIND_ROW: "single-stage decoding; strong against long 1D bursts, "
              "tolerates only a few scattered random errors",
    KIND_ROW_PARITY: "row expansion plus per-block parity: extra distance "
                     "for random errors at a small length cost",
    KIND_SQUARE: "single-stage decoding; strong against square bursts in "
                 "matrix data, few random errors",
    KIND_COMPANION: "square-burst protection from a shorter decoder at a "
                    "lower rate; suits constrained decoders",
    "flat": "two-stage decoding; one long 1D burst plus extra random errors",
    "iv": "several wide rectangular bursts, with a limited random-error budget",
    "v": "one large burst plus random errors spread thinly over the tiles",
    "vi": "thin row/column bursts and random errors; a full diagonal costs "
          "one outer symbol",
    "rs": "plain extension-field code: random symbol errors only",
}


def capability_lines(code) -> list[str]:
    lines = [f"rate: {code.base_dimension}/{code.base_length} = {code.rate:.4f}"]
    if isinstance(code, RsCode):
        lines.append(f"random symbol errors: <= {code.t}")
        lines.append(f"guidance: {_GUIDANCE['rs']}")
        return lines
    if isinstance(code, ExpandedCode):
        for l in (1, 2):
            b = code.capability(l, "1d")
            label = "single 1D burst" if l == 1 else f"{l} bursts"
            lines.append(f"{label}: length <= {b}")
        if code.is_array:
            side = code.capability(1, "square")
            lines.append(f"single square burst: side <= {side} (area {side * side})")
            side2 = code.capability(2, "square")
            lines.append(f"2 square bursts: side <= {side2} each")
        lines.append(f"guidance: {_GUIDANCE[code.kind]}")
        return lines
    lay = code.layout
    if isinstance(lay, FlatLayout):
        b = code.capability("single_burst")
        lines.append(f"single 1D burst: length <= {b} (bound {b + 1} is not guaranteed)")
        lines.append(f"guidance: {_GUIDANCE['flat']}")
    elif isinstance(lay, IvLayout):
        count, dims = code.capability("bursts")
        lines.append(f"rectangular bursts: {count} of size {dims[0]}x{dims[1]}")
        lines.append(f"random errors besides: <= {code.capability('random_errors')}")
        lines.append(f"guidance: {_GUIDANCE['iv']}")
    elif isinstance(lay, VLayout):
        rects = code.capability("burst_rectangles")
        pretty = ", ".join(f"{h}x{w}" for h, w in rects)
        lines.append(f"single burst rectangles: {pretty}")
        lines.append(
            "off-burst tiles tolerate <= "
            f"{code.capability('off_burst_tile_errors')} errors each"
        )
        lines.append(f"guidance: {_GUIDANCE['v']}")
    else:
        count, shapes = code.capability("thin_bursts")
        pretty = " or ".join(f"{h}x{w}" for h, w in shapes)
        lines.append(f"thin bursts: {count} of size {pretty}")
        lines.append(f"diagonal wipes absorbed as outer errors: <= "
                     f"{code.capability('diagonal_bursts')}")
        lines.append(f"guidance: {_GUIDANCE['vi']}")
    return lines


def info_lines(code) -> list[str]:
    lines = [f"code: {code.spec_string()}"]
    if isinstance(code, RsCode):
        lines.append(f"kind: reed-solomon over {code.field.spec_string()}")
        lines.append(f"length {code.n}, dimension {code.k}, distance {code.distance}")
        if code.is_shortened:
            lines.append(f"shortened from {code.field.order - 1}")
    elif isinstance(code, ExpandedCode):
        lines.append(f"kind: {code.kind} expansion of {code.rs.spec_string()}")
        shape = "x".join(str(d) for d in code.shape)
        lines.append(f"base shape: {shape} over gf({code.rs.field.p})")
        lines.append(f"base dimension: {code.base_dimension}")
    else:
        lines.append(
            f"kind: concatenated, inner {code.inner.spec_string()} "
            f"(t={code.inner.t}), outer {code.outer.spec_string()} (s={code.outer_t})"
        )
        shape = "x".join(str(d) for d in code.shape)
        lines.append(f"base shape: {shape} over gf({code.p})")
        lines.append(f"base dimension: {code.base_dimension}")
    lines.append(f"syndrome symbols: {code.syndrome_symbol_count()}")
    return lines


def parse_model(text: str):
    """Parse an error model "bursts=LxLEN[,LEN...];random=R".

    The first burst token is count x size; extra comma-separated tokens add
    single bursts.  Sizes are lengths for vector codes and square sides for
    array codes.  Counts and sizes must be positive, R non-negative.
    """
    bursts: list[int] = []
    random_errors = 0
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        if clause.startswith("bursts="):
            toks = clause[7:].split(",")
            head = toks[0]
            if "x" in head:
                cnt, size = head.split("x", 1)
                if int(cnt) < 1:
                    raise SynfuzzError(f"burst count {cnt} is not positive")
                bursts.extend([int(size)] * int(cnt))
            elif head:
                bursts.append(int(head))
            for tok in toks[1:]:
                bursts.append(int(tok))
        elif clause.startswith("random="):
            random_errors = int(clause[7:])
        else:
            raise SynfuzzError(f"unknown model clause {clause!r}")
    if random_errors < 0 or any(size < 1 for size in bursts):
        raise SynfuzzError("burst sizes must be positive and random= non-negative")
    return bursts, random_errors


def _random_data(rng: Rng, code):
    shape = code.shape
    order = code.alphabet.order
    if len(shape) == 1:
        return [rng.below(order) for _ in range(shape[0])]
    return [[rng.below(order) for _ in range(shape[1])] for _ in range(shape[0])]


def cmd_enroll(args) -> int:
    code = fuzzy.enrollable(parse_spec(args.code))
    data = read_data_file(args.infile, code)
    template = fuzzy.enroll(data, code, hash_alg=args.hash)
    with open(args.out, "w", encoding="ascii", newline="") as fh:
        fh.write(template.to_text())
    print(f"template written: {args.out}")
    for line in capability_lines(code):
        print(line)
    return EXIT_OK


def cmd_verify(args) -> int:
    with open(args.template, "r", encoding="ascii") as fh:
        template = fuzzy.Template.from_text(fh.read())
    code = fuzzy.enrollable(parse_spec(template.code_spec))
    data = read_data_file(args.infile, code)
    result = fuzzy.verify(data, template, code=code)
    if result.accepted:
        print("ACCEPT")
        if args.recovered_out:
            write_data_file(args.recovered_out, result.recovered)
        return EXIT_OK
    print(f"REJECT({result.reason})")
    return EXIT_REJECT


def cmd_capability(args) -> int:
    code = fuzzy.enrollable(parse_spec(args.code))
    print(f"code: {code.spec_string()}")
    for line in capability_lines(code):
        print(line)
    return EXIT_OK


def cmd_info(args) -> int:
    code = fuzzy.enrollable(parse_spec(args.code))
    for line in info_lines(code):
        print(line)
    return EXIT_OK


def cmd_simulate(args) -> int:
    code = fuzzy.enrollable(parse_spec(args.code))
    bursts, random_errors = parse_model(args.model)
    shape = code.shape
    prime = code.alphabet
    if args.trials < 1:
        raise SynfuzzError("trials must be >= 1")
    root = Rng(args.seed)
    accepts = decode_failures = hash_mismatches = 0
    mults = 0
    dims = [(b, b) for b in bursts] if len(shape) == 2 else list(bursts)
    for trial in range(args.trials):
        rng = root.split(trial)
        x = _random_data(rng, code)
        template = fuzzy.enroll(x, code)
        pattern = gen_mixed(rng, prime, shape, dims, random_errors=random_errors)
        result = fuzzy.verify(pattern.apply_to(x), template, code=code)
        mults += result.decode_mults
        if result.accepted:
            accepts += 1
        elif result.reason == "DecodeFailure":
            decode_failures += 1
        else:
            hash_mismatches += 1
    print(f"code: {code.spec_string()}")
    print(f"model: {args.model} seed: {args.seed}")
    print(f"trials: {args.trials}")
    print(f"accepts: {accepts}")
    print(f"decode_failures: {decode_failures}")
    print(f"hash_mismatches: {hash_mismatches}")
    print(f"accept_rate: {accepts / args.trials:.4f}")
    print(f"mean_decode_mults: {mults / args.trials:.1f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synfuzz",
        description="Syndrome-based fuzzy hashing over burst-correcting codes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enroll", help="hash and sketch a data file into a template")
    p.add_argument("--code", required=True, help="construction spec string")
    p.add_argument("--in", dest="infile", required=True, help="data file")
    p.add_argument("--out", required=True, help="template file to write")
    p.add_argument("--hash", default="sha-256", help="hash algorithm id")
    p.set_defaults(func=cmd_enroll)

    p = sub.add_parser("verify", help="authenticate a data file against a template")
    p.add_argument("--template", required=True, help="template file")
    p.add_argument("--in", dest="infile", required=True, help="data file")
    p.add_argument("--recovered-out", default=None,
                   help="write the recovered word here on accept")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("capability", help="print guaranteed burst bounds")
    p.add_argument("--code", required=True)
    p.set_defaults(func=cmd_capability)

    p = sub.add_parser("info", help="print parsed code parameters")
    p.add_argument("--code", required=True)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("simulate", help="Monte Carlo enroll/perturb/verify runs")
    p.add_argument("--code", required=True)
    p.add_argument("--model", required=True,
                   help='error model, e.g. "bursts=2x5;random=3"')
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (SynfuzzError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
