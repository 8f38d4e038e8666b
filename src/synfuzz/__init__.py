"""Syndrome-based fuzzy hashing of noisy data over burst-correcting codes.

Store a hash digest and a syndrome of a noisy word; later, authenticate a
re-acquired copy by decoding the syndrome difference and checking the
digest.  Burst-oriented base-field layouts of Reed-Solomon codes and
concatenated codes supply the error correction.

Three submodules are imported on first use, through the module
``__getattr__``: ``synfuzz.fuzzy``, with ``Template``, ``VerifyResult``,
``enroll`` and ``verify``, which only enrollment and verification need;
the command line, ``synfuzz.cli``, since no library caller needs
argparse (nor is it in ``__all__``, so a star import leaves it); and
the error channel, ``synfuzz.channel``, with its five names, which only
simulations draw from.  The hook binds each name it resolves here, so
it runs once per name.  ``fuzzy`` imports ``hashlib``
and ``hmac`` on the first hash.  So ``import synfuzz`` and spec parsing
load the codes, their parser and the errors, and neither ``fuzzy``,
OpenSSL nor the channel.
"""

from . import codespec, concat, errors, expand, gf, rs
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
from .gf import MUL_COUNTER, ExtField
from .rs import BchCode, LinearCode, RsCode

__version__ = "0.1.0"

# each first-use name and the submodule that defines it (a submodule itself)
_LAZY = {
    "channel": "channel", "cli": "cli", "fuzzy": "fuzzy",
    **dict.fromkeys(("Template", "VerifyResult", "enroll", "verify"), "fuzzy"),
    **dict.fromkeys(("ErrorPattern", "Rng", "gen_burst_1d", "gen_burst_2d", "gen_mixed"),
                    "channel"),
}


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = __import__(home, globals(), level=1)  # the submodule, set on the package too
    globals()[name] = value = module if name == home else getattr(module, name)
    return value


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
