"""The three benchmark workloads.

Each workload is a closed loop: one caller sends a request, waits for its
result, and only then sends the next.  A run repeats whole rounds; the
request sequence of every round comes from the run's seed, and every round of
a workload does the same work, so the work done and the memory held do not
depend on how fast the machine is.  The README gives the make-up of each
workload and why it was chosen.

A workload object provides

    setup()          build what the timed requests need (timed as set-up),
    round(r)         the requests of round r (untimed),
    run(req)         one timed request, returning its output,
    accept(req, out) record or check one output (untimed),
    key(req)         the kind of request, for ``summarize``,
    summarize(samples)  (requests, busy seconds, p50, tail) of a window of
                     (key, seconds) samples,
    end_round()      drop per-round state (untimed),
    final_checks()   checks made after the timed loop, returning problems.

Only the public finosc API and ``finosc.cli.main`` are called, always through
the module attribute, so a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import io
import math
import os
import statistics

import numpy as np

import checks

FRFT_D = 151
# fixed grid over one period; its 8 kernels hold 2.8 MiB at d = 151, more
# than the 2 MiB L2 of one core of the 2-vCPU Xeon this was built on, so a
# request reads its kernel from the shared L3
SWEEP_ORDERS = tuple(k / 2.0 for k in range(8))
SWEEP_SIGNALS = 16
FRESH_ORDERS_PER_ROUND = 40

# (subcommand, d, extra args): one round of the cli workload.  The first
# four are the commands and sizes of the baseline that ROADMAP open item 1
# asks later changes to reproduce (verify --d 21, compare --d 101, spectrum
# --d 201, frft --d 101 --oracle); table1 (which always computes its grid at
# d = 21) and the Harper spectrum at the same d complete the five
# subcommands.  Each appears once per round: no record of how often users
# run each command exists, so none is weighted above another.  The make-up
# is fixed, so every seed asks for the same work; the seed sets the order of
# the requests and the frft order and Gaussian width.
CLI_ROUND = (
    ("verify", 21, ()),
    ("compare", 101, ()),
    ("spectrum", 201, ("--method", "frame")),
    ("frft", 101, ("--method", "both")),
    ("table1", 21, ()),
    ("spectrum", 201, ("--method", "harper")),
)


def nearest_rank(sorted_values, q: float) -> float:
    """The q-th percentile of a sorted sample, by nearest rank."""
    n = len(sorted_values)
    return float(sorted_values[max(0, math.ceil(q / 100.0 * n) - 1)])


class Cli:
    """All five subcommands in process through ``finosc.cli.main``."""

    window_rounds = None  # one window: the whole run
    min_rounds = 2
    tail = "the dearest request of the mean round"

    def __init__(self, finosc, rng, out_dir):
        self.finosc = finosc
        self.rng = rng
        self.out = os.path.join(out_dir, "cli-out.csv")
        self.outputs = []
        self.out_bytes = 0

    def setup(self):
        pass  # the command layer needs nothing beyond its imports

    def round(self, r):
        reqs = []
        for k in self.rng.permutation(len(CLI_ROUND)):
            k = int(k)
            cmd, d, extra = CLI_ROUND[k]
            argv = [cmd, "--d", str(d), *extra]
            params = {}
            if cmd == "frft":
                params = {"alpha": float(self.rng.uniform(-1.9, 1.9)),
                          "kappa": float(np.exp(self.rng.uniform(np.log(0.6), np.log(1.7))))}
                argv += [f"--alpha={params['alpha']!r}",
                         f"--signal=gauss:{params['kappa']!r}", "--oracle"]
            reqs.append((k, cmd, d, extra, params, argv + ["--out", self.out]))
        return reqs

    def key(self, req):
        return req[0]

    @staticmethod
    def summarize(samples):
        """(requests, busy seconds, p50, tail) of a run: each request of the
        round takes its mean time over the run's rounds, the p50 is the
        median of those six times and the tail is the largest."""
        times = {}
        for key, t in samples:
            times.setdefault(key, []).append(t)
        mean = sorted(statistics.fmean(ts) for ts in times.values())
        return len(samples), sum(t for _, t in samples), statistics.median(mean), mean[-1]

    def run(self, req):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.finosc.cli.main(req[5])
        if code != 0:
            raise RuntimeError(f"finosc {' '.join(req[5])} exited {code}: {sink.getvalue()[-300:]}")
        return code

    def accept(self, req, out):
        with open(self.out, encoding="utf-8") as fh:
            text = fh.read()
        os.unlink(self.out)
        self.out_bytes += len(text.encode())
        self.outputs.append((req, text))
        return []

    def end_round(self):
        gc.collect()

    def final_checks(self):
        problems = []
        for (_, cmd, d, extra, params, argv), text in self.outputs:
            if cmd == "spectrum":
                found = checks.check_spectrum(d, extra[1], text)
            elif cmd == "table1":
                found = checks.check_table1(d, text)
            elif cmd == "compare":
                found = checks.check_compare(d, text)
            elif cmd == "frft":
                found = checks.check_frft(d, params["kappa"], params["alpha"], extra[1], text)
            else:
                found = checks.check_verify(text)
            problems += [f"{' '.join(argv[:3])}: {p}" for p in found]
        return problems


class _Frft:
    """Shared part of the two FRFT workloads: the frame basis at d = 151."""

    tail = "p99 of a window"

    def __init__(self, finosc, rng, out_dir):
        self.finosc = finosc
        self.rng = rng
        self.pristine = None  # a basis no kernel was ever built on
        self.signals = None

    def setup(self):
        f = self.finosc
        lat = f.make_lattice(FRFT_D)
        self.pristine = f.oscillator_basis(f.frame_hamiltonian(lat).op, lat, "frame")
        if self.signals is None:
            amp = self.rng.standard_normal((SWEEP_SIGNALS, FRFT_D)) \
                + 1j * self.rng.standard_normal((SWEEP_SIGNALS, FRFT_D))
            self.signals = [f.Signal(lat, a / np.linalg.norm(a)) for a in amp]

    def key(self, req):
        return None

    @staticmethod
    def summarize(samples):
        """(requests, busy seconds, p50, p99) of one window."""
        lat = sorted(t for _, t in samples)
        return len(lat), sum(lat), nearest_rank(lat, 50.0), nearest_rank(lat, 99.0)

    def run(self, req):
        basis, alpha, sig = req
        return self.finosc.apply_frft(self.finosc.frft_kernel(basis, alpha), sig)

    def accept(self, req, out):
        if abs(np.linalg.norm(out.amp) - 1.0) > 1e-10:
            return [f"order {req[1]!r} changed the norm to {np.linalg.norm(out.amp)!r}"]
        return []

    def end_round(self):
        pass

    def final_checks(self):
        return checks.check_kernel_laws(self.finosc, copy.deepcopy(self.pristine), self.rng)


class FrftSweep(_Frft):
    """One basis; every signal is swept through the same grid of orders, so
    after the first pass every kernel lookup is a cache hit."""

    window_rounds = min_rounds = 8  # 1024 requests, 10 beyond p99

    def setup(self):
        super().setup()
        self.basis = copy.deepcopy(self.pristine)

    def round(self, r):
        return [(self.basis, alpha, sig) for sig in self.signals for alpha in SWEEP_ORDERS]


class FrftFresh(_Frft):
    """Every request asks for an order not seen before on its basis, so each
    one builds a kernel.  Each round starts from a copy of the basis with an
    empty cache, which bounds the memory a run holds by one round's kernels."""

    window_rounds = min_rounds = 25  # 1000 requests, 10 beyond p99

    def round(self, r):
        basis = copy.deepcopy(self.pristine)
        n = FRESH_ORDERS_PER_ROUND
        # one draw per stratum of (-2, 2): distinct orders within the round
        alphas = -2.0 + 4.0 * (np.arange(n) + self.rng.uniform(0.0, 1.0, n)) / n
        self.rng.shuffle(alphas)
        return [(basis, float(a), self.signals[i % len(self.signals)])
                for i, a in enumerate(alphas)]

    def end_round(self):
        gc.collect()


WORKLOADS = {"cli": Cli, "frft-sweep": FrftSweep, "frft-fresh": FrftFresh}
