"""Syndrome-based fuzzy hashing of noisy data over burst-correcting codes.

Store a hash digest and a syndrome of a noisy word; later, authenticate a
re-acquired copy by decoding the syndrome difference and checking the
digest.  Burst-oriented base-field layouts of Reed-Solomon codes and
concatenated codes supply the error correction.

Two submodules are imported on first use, through the module
``__getattr__``: the command line, ``synfuzz.cli``, since no library
caller needs argparse, and the error channel, ``synfuzz.channel``, with
its five names, which only simulations draw from.  ``fuzzy`` imports
``hashlib`` and ``hmac`` on the first hash.  So ``import synfuzz`` and
spec parsing load neither OpenSSL nor the channel.
"""

import importlib

from . import codespec, concat, errors, expand, fuzzy, gf, rs
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

_CHANNEL_NAMES = ("ErrorPattern", "Rng", "gen_burst_1d", "gen_burst_2d", "gen_mixed")


def __getattr__(name):
    if name in ("channel", "cli"):  # importing the submodule sets it on the package
        return importlib.import_module(f"{__name__}.{name}")
    if name in _CHANNEL_NAMES:
        return getattr(importlib.import_module(f"{__name__}.channel"), name)
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
