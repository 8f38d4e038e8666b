"""Syndrome-based fuzzy hashing of noisy data over burst-correcting codes.

Store a hash digest and a syndrome of a noisy word; later, authenticate a
re-acquired copy by decoding the syndrome difference and checking the
digest.  Burst-oriented base-field layouts of Reed-Solomon codes and
concatenated codes supply the error correction.

The command line, ``synfuzz.cli``, is imported on first use: no library
caller needs argparse.
"""

import importlib

from . import channel, codespec, concat, errors, expand, fuzzy, gf, rs
from .channel import ErrorPattern, Rng, gen_burst_1d, gen_burst_2d, gen_mixed
from .codespec import parse_field, parse_spec
from .concat import (
    ConcatCode,
    FlatLayout,
    IvLayout,
    TrivialCode,
    ViLayout,
    VLayout,
)
from .expand import ExpandedCode
from .fuzzy import Template, VerifyResult, enroll, verify
from .gf import MUL_COUNTER, ExtField
from .rs import BchCode, LinearCode, RsCode

__version__ = "0.1.0"


def __getattr__(name):
    if name == "cli":  # importing the submodule sets it on the package
        return importlib.import_module(f"{__name__}.cli")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BchCode",
    "ConcatCode",
    "ErrorPattern",
    "ExpandedCode",
    "ExtField",
    "FlatLayout",
    "IvLayout",
    "LinearCode",
    "MUL_COUNTER",
    "Rng",
    "RsCode",
    "Template",
    "TrivialCode",
    "VLayout",
    "VerifyResult",
    "ViLayout",
    "channel",
    "cli",
    "codespec",
    "concat",
    "enroll",
    "errors",
    "expand",
    "fuzzy",
    "gen_burst_1d",
    "gen_burst_2d",
    "gen_mixed",
    "gf",
    "parse_field",
    "parse_spec",
    "rs",
    "verify",
]
