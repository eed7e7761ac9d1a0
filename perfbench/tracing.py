"""Spans and counters for the traced benchmark run.

The traced run wraps public finosc functions from outside the package: every
module namespace under ``finosc`` that binds a target function (the package
itself, the defining module, and each module that imported the name with
``from ... import``) gets the wrapper in its place, so calls between modules
are seen as well as calls from the benchmark.  Nothing under ``src/`` is
edited.  A target name that the package no longer has is reported as absent.
``install`` returns a patch that can put the original functions back, so a
run can alternate traced and untraced rounds and measure what tracing costs.

Spans stay in memory (one row per span in flat arrays) and are written out
when the run ends.  Per-layer figures come from the spans: a layer's total is
the time its outermost spans cover, and its self time is each span's duration
minus the time covered by its direct child spans.  Bookkeeping done by the
wrappers' hooks (residual audits, cache accounting) runs off the tracer's
clock, so it is charged to no span.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

C16 = 16  # bytes per complex128 entry


class Tally:
    """Span and counter totals at one moment.  The difference of two tallies
    holds the totals of the spans that closed between them."""

    def __init__(self, count, total, self_time, counters):
        self.count, self.total, self.self_time, self.counters = count, total, self_time, counters

    def __sub__(self, other: "Tally") -> "Tally":
        return Tally(self.count - other.count, self.total - other.total,
                     self.self_time - other.self_time, self.counters - other.counters)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("H")
        self.parent = array("i")
        self.request = array("i")
        self.request_id = -1
        self._stack: list[list] = []  # [span index, name, child time]
        self._open: Counter = Counter()
        self._excluded = 0.0
        self.count: Counter = Counter()
        self.total: Counter = Counter()  # outermost-span time per name
        self.self_time: Counter = Counter()
        self.counters: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.absent: list[str] = []

    def clock(self) -> float:
        return time.perf_counter() - self._excluded

    @contextmanager
    def aside(self):
        """Run bookkeeping whose time no span should see."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._excluded += time.perf_counter() - t0

    def enter(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.request.append(self.request_id)
        self._stack.append([idx, name, 0.0])
        self._open[name] += 1

    def exit(self) -> None:
        t = self.clock()
        idx, name, child = self._stack.pop()
        self.end[idx] = t
        dur = t - self.start[idx]
        if self._stack:
            self._stack[-1][2] += dur
        self.count[name] += 1
        self.self_time[name] += dur - child
        self._open[name] -= 1
        if self._open[name] == 0:
            self.total[name] += dur

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), float(value))

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if hook is not None:
                with self.aside():
                    hook(self, args, kwargs, result)
            return result

        return traced

    def span_count(self) -> int:
        return len(self.start)

    def tally(self) -> Tally:
        return Tally(Counter(self.count), Counter(self.total), Counter(self.self_time),
                     Counter(self.counters) + Counter({"trace.spans": self.span_count()}))

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            request=np.frombuffer(self.request, dtype=np.int32),
        )


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _hermite_rows(tr, args, kwargs, result):
    # Ψ_m comes from the three-term recurrence, so it costs m + 1 rows
    tr.counters["reference.hermite_rows"] += int(_arg(args, kwargs, 0, "m")) + 1


def _frame_size(tr, args, kwargs, result):
    d = _arg(args, kwargs, 0, "lat").d
    tr.note_max("phasespace.frame_mb", d**3 * C16 / 2**20)


def _basis_audit(tr, args, kwargs, result):
    op = _arg(args, kwargs, 0, "op")
    h = np.asarray(getattr(op, "mat", op)).real
    v, lam = result.vectors, result.values
    resid = np.linalg.norm(h @ v - v * lam, axis=0).max()
    tr.note_max("spectral.residual_max", resid / max(1.0, float(np.linalg.norm(h))))
    defect = np.abs(v.T @ v - np.eye(v.shape[1])).max()
    tr.note_max("spectral.orth_defect", defect)


class _KernelBook:
    """Tells cache hits from builds by object identity: a hit hands back the
    kernel object an earlier call returned for the same basis and order.
    Live kernels per basis give the cache size without reading the cache."""

    def __init__(self):
        self.seen = weakref.WeakValueDictionary()
        self.live: dict[int, weakref.WeakSet] = {}

    def __call__(self, tr, args, kwargs, kern):
        basis = _arg(args, kwargs, 0, "basis")
        key = (id(basis), float(_arg(args, kwargs, 1, "alpha")))
        if self.seen.get(key) is kern:
            tr.counters["frft.kernel_hits"] += 1
            return
        tr.counters["frft.kernel_builds"] += 1
        self.seen[key] = kern
        live = self.live.setdefault(id(basis), weakref.WeakSet())
        live.add(kern)
        d = basis.lattice.d
        tr.note_max("frft.cache_mb", len(live) * d * d * C16 / 2**20)


# (module that owns the public name, name, span name, hook factory)
TARGETS = [
    ("finosc.cli", "main", "cli.main", None),
    ("finosc", "run_suite", "verify.run_suite", None),
    ("finosc", "eigh", "spectral.eigh", None),
    ("finosc", "oscillator_basis", "spectral.oscillator_basis", lambda: _basis_audit),
    ("finosc", "hermite_gaussian", "reference.hermite_gaussian", lambda: _hermite_rows),
    ("finosc", "hermite_sample", "reference.hermite_sample", None),
    ("finosc", "mehta_function", "reference.mehta_function", None),
    ("finosc", "deviation_report", "reference.deviation_report", None),
    ("finosc", "continuous_frft_oracle", "reference.oracle", None),
    ("finosc", "coherent_frame", "phasespace.coherent_frame", lambda: _frame_size),
    ("finosc", "frame_hamiltonian", "quantize.frame_hamiltonian", None),
    ("finosc", "ladder_states", "quantize.ladder_states", None),
    ("finosc", "dft_operator", "fourier.dft_operator", None),
    ("finosc", "ground_state", "thetagauss.ground_state", None),
    ("finosc", "frft_kernel", "frft.frft_kernel", _KernelBook),
    ("finosc", "apply_frft", "frft.apply_frft", None),
]


class Patch:
    """The wrapper sites of one install; ``disable`` puts every original
    function back and ``enable`` the wrappers again."""

    def __init__(self):
        self.sites = []  # (module, attribute, original, wrapper)

    def enable(self) -> None:
        for mod, attr, _, wrapper in self.sites:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original, _ in self.sites:
            setattr(mod, attr, original)


def install(tracer: Tracer) -> Patch:
    """Put a wrapper in every finosc namespace that binds a target function."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "finosc" or n.startswith("finosc."))]
    patch = Patch()
    for owner, name, span, hook_factory in TARGETS:
        fn = getattr(sys.modules.get(owner), name, None)
        if not callable(fn):
            tracer.absent.append(f"{owner}.{name}")
            continue
        wrapper = tracer.wrap(span, fn, hook_factory() if hook_factory else None)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    patch.sites.append((mod, attr, fn, wrapper))
    patch.enable()
    return patch


def layer_metrics(t: Tally, rounds: int, maxima: dict) -> dict:
    """Per-layer figures, as {name: (value, unit)}, from the tally ``t`` of
    ``rounds`` rounds: counts and times per round, a mean time per call, and
    the largest values the hooks noted."""

    def ms(span):
        return 1e3 * t.total[span] / rounds

    def per_round(n):
        return n / rounds

    applies = t.count["frft.apply_frft"]
    return {
        "spectral.eigh_ms": (ms("spectral.eigh"), "ms"),
        "spectral.label_ms": (1e3 * t.self_time["spectral.oscillator_basis"] / rounds, "ms"),
        "spectral.residual_max": (maxima.get("spectral.residual_max", 0.0), "ratio"),
        "spectral.orth_defect": (maxima.get("spectral.orth_defect", 0.0), "ratio"),
        "reference.hermite_calls": (per_round(t.count["reference.hermite_gaussian"]), "count"),
        "reference.hermite_rows": (per_round(t.counters["reference.hermite_rows"]), "count"),
        "reference.hermite_ms": (ms("reference.hermite_gaussian"), "ms"),
        "reference.mehta_calls": (per_round(t.count["reference.mehta_function"]), "count"),
        "reference.deviation_report_ms": (ms("reference.deviation_report"), "ms"),
        "reference.oracle_ms": (ms("reference.oracle"), "ms"),
        "phasespace.coherent_frame_ms": (ms("phasespace.coherent_frame"), "ms"),
        "phasespace.frame_mb": (maxima.get("phasespace.frame_mb", 0.0), "MB"),
        "quantize.frame_hamiltonian_ms": (ms("quantize.frame_hamiltonian"), "ms"),
        "quantize.ladder_ms": (ms("quantize.ladder_states"), "ms"),
        "fourier.dft_calls": (per_round(t.count["fourier.dft_operator"]), "count"),
        "fourier.dft_ms": (ms("fourier.dft_operator"), "ms"),
        "thetagauss.ground_state_calls": (per_round(t.count["thetagauss.ground_state"]), "count"),
        "frft.kernel_builds": (per_round(t.counters["frft.kernel_builds"]), "count"),
        "frft.kernel_hits": (per_round(t.counters["frft.kernel_hits"]), "count"),
        "frft.kernel_ms": (ms("frft.frft_kernel"), "ms"),
        "frft.apply_us": (1e6 * t.total["frft.apply_frft"] / max(1, applies), "us"),
        "frft.cache_mb": (maxima.get("frft.cache_mb", 0.0), "MB"),
        "verify.suite_ms": (ms("verify.run_suite"), "ms"),
        "cli.self_ms": (1e3 * t.self_time["cli.main"] / rounds, "ms"),
        "trace.spans": (per_round(t.counters["trace.spans"]), "count"),
    }


# the layers that set up a frft workload, reported per set-up build
SETUP_LAYERS = ("spectral.eigh_ms", "spectral.label_ms", "quantize.frame_hamiltonian_ms")
