"""Span tracing of the gf4lrc layers from outside the package.

The tracer replaces public functions and methods with timing wrappers at
every module binding through which they are called (``concat`` does
``from .matrix import rows_rank``, so ``gf4lrc.concat.rows_rank`` is
wrapped as well as ``gf4lrc.matrix.rows_rank``).  Each span records name,
start, end, parent and the job it belongs to.  Spans are kept in flat
arrays while the run lasts and written out once at the end.  Self time is a
span's duration minus the durations of its direct children; it is summed
per (phase, name) as spans close, with the inclusive time next to it, so
reading the totals needs no pass over the spans.

``gf4`` gets no wrapper: a wrapper around each field operation would cost
more than the operation, so its time shows up in its callers' self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import time
from array import array
from collections import Counter, defaultdict

SETUP = "setup"
JOBS = "jobs"


class Tracer:
    """Collects spans and per-(phase, name) totals while ``active``."""

    def __init__(self):
        self.active = False
        self.phase = SETUP
        self.job = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, start, child seconds]
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self) -> list:
        idx = len(self.span_start)
        parent = self._stack[-1][0] if self._stack else -1
        self.span_name.append(-1)
        self.span_parent.append(parent)
        self.span_job.append(self.job)
        start = time.perf_counter()
        self.span_start.append(start)
        self.span_end.append(start)
        frame = [idx, start, 0.0]
        self._stack.append(frame)
        return frame

    def close(self, frame: list, name: str) -> None:
        """End the innermost span and file it under ``name``."""
        end = time.perf_counter()
        if self._stack.pop() is not frame:
            raise AssertionError("spans closed out of order")
        idx, start, child = frame
        dur = end - start
        self.span_end[idx] = end
        self.span_name[idx] = self._name_id(name)
        if self._stack:
            self._stack[-1][2] += dur
        key = (self.phase, name)
        self.calls[key] += 1
        self.self_s[key] += dur - child
        self.total_s[key] += dur

    def add(self, name: str, amount) -> None:
        """Add a work count under the current phase."""
        self.counts[(self.phase, name)] += amount

    def write(self, path) -> int:
        """Write all spans as columnar gzip JSON; returns the span count."""
        doc = {
            "names": self.names,
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "job": self.span_job.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
        return len(self.span_start)


def _span(tracer: Tracer, name: str, fn, classify=None):
    """Wrap ``fn`` in a span.  ``classify(args, kwargs, result)`` returns
    ``(span name, (count name, amount), ...)`` once the call has returned."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.open()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(frame, name + ".raised")
            raise
        if classify is None:
            tracer.close(frame, name)
        else:
            final, *counts = classify(args, kwargs, result)
            tracer.close(frame, final)
            for count_name, amount in counts:
                tracer.add(count_name, amount)
        return result

    return wrapper


def _rebind(modules, old, new, undo) -> None:
    """Point every module-level binding of ``old`` at ``new``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                undo.append((mod, attr, value))
                setattr(mod, attr, new)


def _patch_method(cls, attr, make, undo) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, classmethod):
        new = classmethod(make(raw.__func__))
    else:
        new = make(raw)
    undo.append((cls, attr, raw))
    setattr(cls, attr, new)


def install(tracer: Tracer):
    """Wrap the layers' public entry points; returns an ``uninstall`` callable."""
    from gf4lrc import bounds, cli, code, concat, families, matrix, projective, repair, reproduce

    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "gf4lrc"]
    undo: list = []

    def fn(name, func, classify=None):
        _rebind(modules, func, _span(tracer, name, func, classify), undo)

    def method(name, cls, attr, classify=None):
        _patch_method(cls, attr, lambda f: _span(tracer, name, f, classify), undo)

    def min_distance_kind(args, kwargs, cert):
        c = args[0]
        if cert.method == code.METHOD_EXHAUSTIVE:
            return ("code.enum", ("code.enum.codewords", c.codeword_count()))
        return ("code.min_distance_columns",)

    def weights_kind(args, kwargs, result):
        return ("code.enum", ("code.enum.codewords", args[0].codeword_count()))

    def locality_kind(args, kwargs, result):
        target, r = args[0], args[1]
        if isinstance(target, concat.BinaryLrc) and r >= 2:
            return ("concat.locality_check",)
        plain = target.code if isinstance(target, concat.BinaryLrc) else target
        # The dual scan is enumeration; its span counts for both layers.
        dual_words = plain.q ** (plain.n - plain.k)
        return ("concat.locality_check.dual_scan", ("code.enum.codewords", dual_words))

    def certify_kind(args, kwargs, cert):
        ell = args[0].ell
        covered = sum(math.comb(ell, s) for s in range(1, cert.d // 2))
        return ("concat.certify_distance", ("concat.subsets_covered", covered))

    erased_seen = [0]

    def simulate_kind(args, kwargs, report):
        # Erasures are counted by the model's draw; those since the last
        # simulate call belong to this one.
        total = tracer.counts[(tracer.phase, "repair.erased_symbols")]
        erased, erased_seen[0] = total - erased_seen[0], total
        trials = report.trials
        return (
            "repair.simulate",
            ("repair.trials", trials),
            ("repair.decode_failures", round((1.0 - report.success_rate) * trials)),
            ("repair.locally_repaired", round(report.local_fraction * erased)),
        )

    fn("matrix.rows_rank", matrix.rows_rank)
    method("matrix.rref", matrix.FieldMatrix, "rref")
    method("matrix.mat_mul", matrix.FieldMatrix, "mat_mul")
    method("matrix.nullspace", matrix.FieldMatrix, "nullspace")
    method("code.from_parity", code.LinearCode, "from_parity")
    method("code.encode", code.LinearCode, "encode")
    method("code.contains", code.LinearCode, "contains")
    method("code.weight_distribution", code.LinearCode, "weight_distribution", weights_kind)
    _patch_method(
        code.LinearCode,
        "min_distance",
        lambda f: _cached_passthrough(f, _span(tracer, "code.min_distance", f, min_distance_kind)),
        undo,
    )
    method("concat.from_json", concat.BinaryLrc, "from_json")
    fn("concat.concatenate", concat.concatenate)
    fn("concat.certify_distance", concat.certify_distance, certify_kind)
    fn("concat.locality_check", concat.locality_check, locality_kind)
    for builder in (
        families.mds_rs,
        families.hamming4,
        families.hexacode,
        families.macdonald,
        families.solomon_stiffler,
        families.cap_code,
        families.cyclic4,
    ):
        fn("families.build", builder)
    fn("families.ingest", families.ingest)
    method("projective.verify", projective.CapSet, "verify")
    fn("bounds.classify", bounds.classify)
    fn("repair.simulate", repair.simulate, simulate_kind)
    for model in (repair.RandomErasures, repair.PerSymbolErasures):
        _patch_method(model, "draw", lambda f: _count_erasures(tracer, f), undo)
    fn("reproduce.run", reproduce.run)
    fn("cli.main", cli.main)

    def uninstall():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall


def _cached_passthrough(raw, traced):
    """A cached ``min_distance`` answer is a lookup, not a distance run."""

    @functools.wraps(raw)
    def wrapper(self, *args, **kwargs):
        if self.cached_distance is not None:
            return raw(self, *args, **kwargs)
        return traced(self, *args, **kwargs)

    return wrapper


def _count_erasures(tracer: Tracer, draw):
    @functools.wraps(draw)
    def wrapper(*args, **kwargs):
        pattern = draw(*args, **kwargs)
        if tracer.active:
            tracer.add("repair.erased_symbols", len(pattern))
        return pattern

    return wrapper
