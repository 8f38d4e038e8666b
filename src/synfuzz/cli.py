"""Command-line front end: enroll, verify, capability, simulate, info.

Data files hold whitespace-separated hex symbols, one line for a vector
and one line per row for an array.  Every outside input is size-checked
before any work: a data file may hold at most twice the characters that
``write_data_file`` writes for the code's widest symbols, and a template
file at most ``fuzzy.MAX_TEMPLATE_CHARS``; neither is read past its cap.
Exit codes are stable: 0 for success or ACCEPT, 1 for REJECT, 2 for usage
or data errors.

The ``info`` and ``capability`` reports are each code's own
``info_lines()`` and ``capability_lines()``; nothing here branches on the
construction.  Only ``enroll``, ``verify`` and ``simulate`` import
``synfuzz.fuzzy``, so a report loads no more than the parse needs.
"""

import argparse
import math
import sys

from .codespec import MAX_CELLS, parse_spec
from .errors import SynfuzzError
from .rs import enrollable

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_ERROR = 2


def read_data_file(path: str, code):
    """The hex symbols of a data file, as a vector or as rows.  Shape and
    range are left to the code's one read of the word, which enroll and
    verify make first."""
    width = len(f"{code.alphabet.order - 1:x}") + 1  # a symbol and its separator
    limit = 2 * math.prod(code.shape) * width
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read(limit + 1)
    if len(text) > limit:
        raise SynfuzzError(f"{path} is longer than {limit} characters")
    lines = [line.split() for line in text.split("\n")]
    try:
        rows = [[int(tok, 16) for tok in toks] for toks in lines if toks]
    except ValueError as exc:
        raise SynfuzzError(f"malformed hex symbol in {path}: {exc}") from None
    return [v for row in rows for v in row] if len(code.shape) == 1 else rows


def write_data_file(path: str, data) -> None:
    with open(path, "w", encoding="ascii") as fh:
        if data and isinstance(data[0], list):
            for row in data:
                fh.write(" ".join(f"{v:x}" for v in row) + "\n")
        else:
            fh.write(" ".join(f"{v:x}" for v in data) + "\n")


def parse_model(text: str):
    """Parse an error model "bursts=LxLEN[,LEN...];random=R".

    The first burst token is count x size; extra comma-separated tokens add
    single bursts.  Sizes are lengths for vector codes and square sides for
    array codes.  Counts and sizes must be positive, R non-negative, and
    the count at most MAX_CELLS: no code has more cells to place bursts in.
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
                if not 1 <= int(cnt) <= MAX_CELLS:
                    raise SynfuzzError(f"burst count {cnt} is not in 1..{MAX_CELLS}")
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


def _random_data(rng, code):
    shape = code.shape
    order = code.alphabet.order
    if len(shape) == 1:
        return [rng.below(order) for _ in range(shape[0])]
    return [[rng.below(order) for _ in range(shape[1])] for _ in range(shape[0])]


def cmd_enroll(args) -> int:
    from . import fuzzy

    code = enrollable(parse_spec(args.code))
    data = read_data_file(args.infile, code)
    template = fuzzy.enroll(data, code, hash_alg=args.hash)
    with open(args.out, "w", encoding="ascii", newline="") as fh:
        fh.write(template.to_text())
    print(f"template written: {args.out}")
    for line in code.capability_lines():
        print(line)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import fuzzy

    with open(args.template, "r", encoding="ascii") as fh:
        template = fuzzy.Template.from_text(fh.read(fuzzy.MAX_TEMPLATE_CHARS + 1))
    code = enrollable(parse_spec(template.code_spec))
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
    code = enrollable(parse_spec(args.code))
    print(f"code: {code.spec_string()}")
    for line in code.capability_lines():
        print(line)
    return EXIT_OK


def cmd_info(args) -> int:
    code = enrollable(parse_spec(args.code))
    for line in code.info_lines():
        print(line)
    return EXIT_OK


def cmd_simulate(args) -> int:
    from . import fuzzy
    from .channel import Rng, gen_mixed  # only simulations draw errors

    code = enrollable(parse_spec(args.code))
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
        result = fuzzy.verify(pattern.apply_to(x), template, code=code, count=True)
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
