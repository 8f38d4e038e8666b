"""Layer spans recorded from outside the program.

`Tracer.install` wraps the program's public entry points at run time: each
call becomes a span with a name, start, end, parent span and operation id.
Spans stay in memory until `write` saves them.  An entry point that no
longer exists is listed in `absent` and its metrics read 0; it does not
stop the run.  `uninstall` puts every original back.
"""

from __future__ import annotations

import json
import sys
import time

PACKAGE = "synfuzz"

# (module, attribute path) of every wrapped entry point.  The span name is
# "<module>.<path>".
TARGETS = (
    ("codespec", "parse_spec"),
    ("gf", "ExtField.__init__"),
    ("rs", "RsCode.__init__"),
    ("rs", "RsCode.syndrome"),
    ("rs", "RsCode.decode_syndrome"),
    ("rs", "RsCode.encode"),
    ("rs", "BchCode.__init__"),
    ("rs", "BchCode.syndrome"),
    ("rs", "BchCode.remainder"),
    ("rs", "BchCode.power_sums"),
    ("rs", "BchCode.decode_syndrome"),
    ("rs", "BchCode.encode"),
    ("expand", "ExpandedCode.syndrome"),
    ("expand", "ExpandedCode.decode"),
    ("concat", "ConcatCode.syndrome"),
    ("concat", "ConcatCode.decode"),
    ("fuzzy", "enroll"),
    ("fuzzy", "verify"),
    ("fuzzy", "canonical_bytes"),
    ("fuzzy", "hash_digest"),
    ("fuzzy", "syndrome_to_bytes"),
    ("fuzzy", "syndrome_from_bytes"),
    ("fuzzy", "apply_pattern"),
    ("fuzzy", "Template.to_text"),
    ("fuzzy", "Template.from_text"),
)

# Per-layer metric -> (unit, better, span names, measure).  Measures:
# "self" sums span durations minus their wrapped children, "calls" counts
# spans, "useful" is spans that returned over spans started.  Every figure
# but "useful" is divided by the operations traced.
LAYER_METRICS = {
    "codespec.parse_spec.self_ms": ("ms", "lower", ("codespec.parse_spec",), "self"),
    "gf.tables.ms": ("ms", "lower", ("gf.ExtField.__init__",), "self"),
    "gf.tables.calls": ("count", "lower", ("gf.ExtField.__init__",), "calls"),
    "rs.build.ms": ("ms", "lower", ("rs.RsCode.__init__", "rs.BchCode.__init__"), "self"),
    "rs.syndrome.ms": ("ms", "lower", ("rs.RsCode.syndrome", "rs.BchCode.syndrome"), "self"),
    "bch.remainder.ms": ("ms", "lower", ("rs.BchCode.remainder",), "self"),
    "bch.remainder.calls": ("count", "lower", ("rs.BchCode.remainder",), "calls"),
    "rs.decode.ms": ("ms", "lower", ("rs.RsCode.decode_syndrome",), "self"),
    "rs.decode.calls": ("count", "lower", ("rs.RsCode.decode_syndrome",), "calls"),
    "rs.decode.useful_ratio": ("ratio", "higher", ("rs.RsCode.decode_syndrome",), "useful"),
    "bch.decode.ms": (
        "ms", "lower", ("rs.BchCode.decode_syndrome", "rs.BchCode.power_sums"), "self"),
    "rs.encode.ms": ("ms", "lower", ("rs.RsCode.encode", "rs.BchCode.encode"), "self"),
    "expand.syndrome.self_ms": ("ms", "lower", ("expand.ExpandedCode.syndrome",), "self"),
    "expand.decode.self_ms": ("ms", "lower", ("expand.ExpandedCode.decode",), "self"),
    "concat.syndrome.self_ms": ("ms", "lower", ("concat.ConcatCode.syndrome",), "self"),
    "concat.decode.self_ms": ("ms", "lower", ("concat.ConcatCode.decode",), "self"),
    "concat.inner_decode.useful_ratio": (
        "ratio", "higher", ("rs.BchCode.decode_syndrome",), "useful"),
    "fuzzy.canonical_bytes.ms": ("ms", "lower", ("fuzzy.canonical_bytes",), "self"),
    "fuzzy.hash.ms": ("ms", "lower", ("fuzzy.hash_digest",), "self"),
    "fuzzy.serialize.ms": (
        "ms", "lower", ("fuzzy.syndrome_to_bytes", "fuzzy.Template.to_text"), "self"),
    "fuzzy.parse.ms": (
        "ms", "lower", ("fuzzy.syndrome_from_bytes", "fuzzy.Template.from_text"), "self"),
    "fuzzy.apply_pattern.ms": ("ms", "lower", ("fuzzy.apply_pattern",), "self"),
    "fuzzy.self_ms": ("ms", "lower", ("fuzzy.enroll", "fuzzy.verify"), "self"),
}
# Metrics the harness fills in itself.
HARNESS_METRICS = {
    "concat.recheck.ms": ("ms", "lower"),     # ConcatCode.syndrome spans under ConcatCode.decode
    "gf.mults": ("count", "lower"),           # MUL_COUNTER delta
    "fuzzy.template_bytes": ("bytes", "lower"),
    "trace.overhead": ("ratio", "higher"),    # traced / untraced ops_per_s
}


def harness_metric(name: str, value: float) -> dict:
    return {"value": value, "unit": HARNESS_METRICS[name][0]}


class Tracer:
    def __init__(self):
        self.spans: list = []        # (name, start, end, parent, op, returned)
        self.absent: list[str] = []
        self.op = -1
        self.mults = 0
        self._stack: list[int] = []
        self._undo: list = []
        self._counter = None

    # ------------------------------------------------------------------
    # wrapping
    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, returned)

        return traced

    def install(self) -> None:
        self.absent = []
        modules = {
            key: mod for key, mod in sys.modules.items()
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        }
        for modname, path in TARGETS:
            name = f"{modname}.{path}"
            mod = modules.get(f"{PACKAGE}.{modname}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.absent.append(name)
                continue
            if owner_name:
                if isinstance(raw, (classmethod, staticmethod)):
                    new = type(raw)(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
                continue
            # A module-level function: replace every reference the package's
            # modules hold (for parse_spec that includes cli's own import).
            new = self._wrap(name, raw)
            for holder in modules.values():
                for key, value in list(vars(holder).items()):
                    if value is raw:
                        setattr(holder, key, new)
                        self._undo.append((holder, key, raw))
        gf = modules.get(f"{PACKAGE}.gf")
        self._counter = getattr(gf, "MUL_COUNTER", None)
        if self._counter is None:
            self.absent.append("gf.MUL_COUNTER")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def around_ops(self, call):
        """Wrap an operation so its spans carry its id and its mults count."""

        def op(*args):
            self.op += 1
            counter = self._counter
            before = counter.count if counter is not None else 0
            try:
                return call(*args)
            finally:
                if counter is not None:
                    self.mults += counter.count - before

        return op

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-operation figures for every metric in LAYER_METRICS, plus
        concat.recheck.ms and gf.mults."""
        spans = self.spans
        ops = max(self.op + 1, 1)
        child = [0.0] * len(spans)
        for name, start, end, parent, _op, _ok in spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = {}
        calls: dict[str, int] = {}
        returned: dict[str, int] = {}
        recheck = 0.0
        for i, (name, start, end, parent, _op, ok) in enumerate(spans):
            dur = end - start
            own[name] = own.get(name, 0.0) + dur - child[i]
            calls[name] = calls.get(name, 0) + 1
            returned[name] = returned.get(name, 0) + ok
            if name == "concat.ConcatCode.syndrome" and parent >= 0 \
                    and spans[parent][0] == "concat.ConcatCode.decode":
                recheck += dur
        out = {}
        for metric, (unit, _better, names, measure) in LAYER_METRICS.items():
            if measure == "self":
                value = sum(own.get(n, 0.0) for n in names) * 1e3 / ops
            elif measure == "calls":
                value = sum(calls.get(n, 0) for n in names) / ops
            else:
                tried = sum(calls.get(n, 0) for n in names)
                value = sum(returned.get(n, 0) for n in names) / tried if tried else 0.0
            out[metric] = {"value": value, "unit": unit}
        out["concat.recheck.ms"] = harness_metric("concat.recheck.ms", recheck * 1e3 / ops)
        out["gf.mults"] = harness_metric("gf.mults", self.mults / ops)
        return out

    def write(self, path) -> None:
        """One JSON header line, then one JSON array per span:
        [name, start_s, end_s, parent_index, op_id, returned]."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps({"ops": self.op + 1, "absent": self.absent}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
