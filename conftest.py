"""Make the src layout importable when running pytest from the repo root,
and share the fixtures every test module may use."""

import sys
from collections import OrderedDict
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "src"))


@pytest.fixture
def fresh_codes(monkeypatch):
    """An empty cache of parsed codes for one test; the old one comes back
    afterwards."""
    from synfuzz import codespec

    monkeypatch.setattr(codespec, "_codes", OrderedDict())
    monkeypatch.setattr(codespec, "_codes_weight", 0)
