"""Self-certification suite: named invariant checks over the whole library.

Every check is a small function that recomputes one contract from scratch,
many of them pitting a fast construction against a brute-force oracle (the
quantizer against the projector average, the eigensolver against closed-form
spectra, the discrete transforms against the continuous oracle).  The CLI's
``verify`` command runs the applicable checks at d = 5, 7 and the requested
size, each size-independent one once, and reports one line per check.

Checks assert corrected invariants only: where a quoted figure turned out to
be irreproducible, the honest computed behavior is asserted here and the
discrepancy is documented in the test suite instead.
"""

from __future__ import annotations

from functools import cached_property, partial

import numpy as np

from . import frft, quantize, reference, spectral
from .fourier import (
    _root,
    circulant,
    closed_form_coordinate_transforms,
    dft_operator,
    equidistant_circulant,
    fourier_projectors,
)
from .lattice import (
    Signal,
    basis_signal,
    coordinate_signal,
    inner_product,
    make_lattice,
)
from .phasespace import (
    CoherentFrame,
    PhasePoint,
    _displacement_parts,
    _overlaps,
    displacement,
    momentum_operator,
)
from .thetagauss import (
    frequency_series,
    ground_state,
    jacobi_theta3,
    spatial_series,
    theta_gaussian,
)


class _CheckFailure(AssertionError):
    pass


def _require(cond: bool, detail: str) -> None:
    if not cond:
        raise _CheckFailure(detail)


class _Ctx:
    """Per-size workspace with memoized heavyweight objects."""

    def __init__(self, d: int):
        self.d = d
        self.lat = make_lattice(d)
        self.rng = np.random.default_rng(20260 + d)

    @cached_property
    def fmat(self):
        return dft_operator(self.lat)

    @cached_property
    def projectors(self):
        return fourier_projectors(self.lat)

    @cached_property
    def ground(self):
        return ground_state(self.lat)

    @cached_property
    def frame(self):
        return CoherentFrame(self.ground)

    @cached_property
    def fh(self):
        return quantize.frame_hamiltonian(self.lat)

    @cached_property
    def harper(self):
        return spectral.harper_hamiltonian(self.lat)

    @cached_property
    def frame_basis(self):
        return spectral.oscillator_basis(self.fh.op, self.lat, "frame")

    @cached_property
    def harper_basis(self):
        return spectral.oscillator_basis(self.harper, self.lat, "harper")

    @cached_property
    def ladder(self):
        return quantize.ladder_states(self.frame)

    def random_signal(self) -> Signal:
        amp = self.rng.standard_normal(self.d) + 1j * self.rng.standard_normal(
            self.d
        )
        return Signal(self.lat, amp)

    def random_indices(self, k: int) -> np.ndarray:
        """k phase-space index pairs (a, b), uniform over -s..s, one draw."""
        return self.rng.integers(-self.lat.s, self.lat.s + 1, size=(k, 2))


# ---------------------------------------------------------------- lattice

def _chk_lattice_reject(ctx):
    for bad in (4, 3, 0, -7, 2.5):
        try:
            make_lattice(bad)
        except (ValueError, TypeError):
            continue
        raise _CheckFailure(f"accepted invalid size {bad!r}")
    return "rejects even, small, and non-integer sizes"


def _chk_inner_product(ctx):
    a, b, c = (ctx.random_signal() for _ in range(3))
    z = complex(ctx.rng.standard_normal(), ctx.rng.standard_normal())
    lin = abs(
        inner_product(a, Signal(ctx.lat, b.amp + z * c.amp))
        - inner_product(a, b)
        - z * inner_product(a, c)
    )
    herm = abs(inner_product(a, b) - np.conj(inner_product(b, a)))
    scale = max(a.norm() * b.norm(), 1.0)
    _require(lin <= 1e-13 * scale, f"linearity off by {lin:.2e}")
    _require(herm <= 1e-13 * scale, f"conjugation off by {herm:.2e}")
    return f"second-slot linear, conjugate first slot ({lin:.1e})"


def _chk_periodic_access(ctx):
    sig = ctx.random_signal()
    for n in (-ctx.lat.s, 0, 1, ctx.lat.s):
        if sig[n] != sig[n + ctx.d] or sig[n] != sig[n - ctx.d]:
            raise _CheckFailure(f"index {n} not d-periodic bit-exactly")
    return "index access is d-periodic bit-exactly"


# ---------------------------------------------------------------- fourier

def _chk_fourier_unitary(ctx):
    f = ctx.fmat
    dev = np.linalg.norm(f @ f.conj().T - np.eye(ctx.d))
    _require(dev < 1e-13, f"‖FF⁺ - I‖ = {dev:.2e}")
    return f"‖FF⁺ - I‖_F = {dev:.1e}"


def _chk_fourier_fourth_power(ctx):
    f = ctx.fmat
    dev = np.linalg.norm(np.linalg.matrix_power(f, 4) - np.eye(ctx.d))
    _require(dev < 1e-12, f"‖F⁴ - I‖ = {dev:.2e}")
    return f"‖F⁴ - I‖_F = {dev:.1e}"


def _chk_fourier_parity(ctx):
    sig = ctx.random_signal()
    twice = ctx.fmat @ (ctx.fmat @ sig.amp)
    flipped = sig.amp[ctx.lat.pos(-ctx.lat.indices)]
    dev = np.max(np.abs(twice - flipped))
    _require(dev < 1e-13, f"F² flip deviation {dev:.2e}")
    return f"F² reverses the grid ({dev:.1e})"


def _chk_root_of_unity_sum(ctx):
    d, s = ctx.d, ctx.lat.s
    a = np.arange(-s, s + 1)
    n = np.arange(-2 * d, 2 * d + 1)
    # d rows of the 4d + 1 at a time: each row's sum is the same either way
    total = np.concatenate(
        [_root(np.outer(n[i : i + d], a), d).sum(axis=1) for i in range(0, len(n), d)]
    )
    want = np.where(n % d == 0, d, 0.0)
    worst = float(np.max(np.abs(total - want)))
    _require(worst < 1e-10, f"geometric sum off by {worst:.2e}")
    return f"Σ e^{{2πian/d}} = d·[d|n] ({worst:.1e})"


def _chk_projectors(ctx):
    pr = ctx.projectors
    eye = np.eye(ctx.d)
    total = sum(pr)
    dev_sum = np.linalg.norm(total - eye)
    worst = 0.0
    for j in range(4):
        worst = max(worst, np.linalg.norm(pr[j] @ pr[j] - pr[j]))
        worst = max(worst, np.linalg.norm(pr[j] - pr[j].conj().T))
        for k in range(j + 1, 4):
            worst = max(worst, np.linalg.norm(pr[j] @ pr[k]))
    # Σ(-i)^m·π_m in place: the terms are real or imaginary, so each one is
    # added to one part, in the order m = 0..3
    recon = np.zeros((ctx.d, ctx.d), dtype=complex)
    recon.real += pr[0]
    recon.imag -= pr[1]
    recon.real -= pr[2]
    recon.imag += pr[3]
    recon -= ctx.fmat
    dev_rec = np.linalg.norm(recon)
    _require(dev_sum < 1e-12, f"Σπ - I = {dev_sum:.2e}")
    _require(worst < 1e-12, f"projector algebra off by {worst:.2e}")
    _require(dev_rec < 1e-12, f"Σ(-i)^m π_m - F = {dev_rec:.2e}")
    return f"orthogonal idempotents resolving F ({max(dev_sum, worst, dev_rec):.1e})"


def _chk_projector_ranks(ctx):
    pr = ctx.projectors
    traces = [float(np.trace(p)) for p in pr]
    counts = [int(round(t)) for t in traces]
    worst = max(abs(t - c) for t, c in zip(traces, counts))
    _require(worst < 1e-10, f"trace not integral: {traces}")
    _require(sum(counts) == ctx.d, f"ranks {counts} do not sum to d")
    k, r = divmod(ctx.d, 4)
    want = [k + 1, k, k, k] if r == 1 else [k + 1, k + 1, k + 1, k]
    _require(counts == want, f"multiplicities {counts}, expected {want}")
    return f"eigenvalue multiplicities {tuple(counts)}"


def _chk_projector_vs_eigensolver(ctx):
    # F = π_0 - π_2 + i(π_3 - π_1) with F symmetric, so the ±1 eigenspaces
    # of Re F are π_0 and π_2, and those of Im F are π_3 and π_1
    pr = ctx.projectors
    worst = 0.0
    for herm, targets in (
        (ctx.fmat.real, ((1.0, pr[0]), (-1.0, pr[2]))),
        (ctx.fmat.imag, ((-1.0, pr[1]), (1.0, pr[3]))),
    ):
        vals, vecs = spectral.eigh(herm)
        for target_eig, proj in targets:
            sel = np.abs(vals - target_eig) < 0.5
            rebuilt = vecs[:, sel] @ vecs[:, sel].T
            worst = max(worst, np.linalg.norm(rebuilt - proj))
    _require(worst < 1e-11, f"projector mismatch {worst:.2e}")
    return f"projectors match Re/Im eigenspaces ({worst:.1e})"


def _chk_coordinate_transforms(ctx):
    fq, fq2 = closed_form_coordinate_transforms(ctx.lat)
    q = coordinate_signal(ctx.lat).amp
    dev1 = np.max(np.abs(ctx.fmat @ q - fq.amp))
    dev2 = np.max(np.abs(ctx.fmat @ (q * q) - fq2.amp))
    # relative to ‖x‖₁/√d, the largest entry |F·x| can have
    bound1 = 1e-14 * np.sum(np.abs(q)) / np.sqrt(ctx.d)
    bound2 = 1e-14 * np.sum(q * q) / np.sqrt(ctx.d)
    _require(dev1 < bound1, f"F[q] closed form off by {dev1:.2e} (bound {bound1:.1e})")
    _require(dev2 < bound2, f"F[q²] closed form off by {dev2:.2e} (bound {bound2:.1e})")
    return f"closed forms match the transform ({max(dev1, dev2):.1e})"


def _chk_circulant_shift(ctx):
    col = ctx.rng.standard_normal(ctx.d)
    mat = circulant(ctx.lat, col).mat
    # with S the cyclic shift, S·M rolls the rows down and M·S the columns left
    dev = np.linalg.norm(np.roll(mat, 1, axis=0) - np.roll(mat, -1, axis=1))
    _require(dev < 1e-12, f"shift commutator {dev:.2e}")
    return f"commutes with the cyclic shift ({dev:.1e})"


def _chk_circulant_diagonalization(ctx):
    amp = ctx.rng.standard_normal(ctx.d) + 1j * ctx.rng.standard_normal(ctx.d)
    spec_c = circulant(ctx.lat, amp)
    mat = spec_c.mat
    ev = spec_c.eigenvalues()
    f = ctx.fmat
    rebuilt = (f.conj().T * ev) @ f
    dev = np.linalg.norm(rebuilt - mat)
    bound = 1e-14 * np.linalg.norm(mat)
    _require(dev < bound, f"F⁺·diag·F off by {dev:.2e} (bound {bound:.1e})")
    return f"F⁺·diag(ev)·F rebuilds the matrix ({dev:.1e})"


def _chk_equidistant_circulant(ctx):
    spec_c = equidistant_circulant(ctx.lat)
    c0 = spec_c.first_column[ctx.lat.pos(0)]
    _require(abs(c0 - (ctx.d + 1) / 2) < 1e-13, f"central entry {c0}")
    mat = spec_c.mat
    herm = np.linalg.norm(mat - mat.conj().T)
    _require(herm < 1e-12, f"not Hermitian: {herm:.2e}")
    ev = np.sort(spec_c.eigenvalues().real)
    dev = np.max(np.abs(ev - np.arange(1, ctx.d + 1)))
    # relative to the spectrum's scale d
    _require(dev < 1e-13 * ctx.d, f"spectrum deviates from 1..d by {dev:.2e}")
    tr = float(np.trace(mat).real)
    _require(abs(tr - ctx.d * (ctx.d + 1) / 2) < 1e-9, f"trace {tr}")
    return f"Hermitian with spectrum 1..{ctx.d} ({dev:.1e})"


# ---------------------------------------------------------------- thetagauss

def _chk_theta_two_series(ctx):
    worst = 0.0
    for kappa in (0.25, 1.0, 4.0):
        sp, _, tail_sp = spatial_series(ctx.lat, kappa, 1e-18)
        fr, _, tail_fr = frequency_series(ctx.lat, kappa, 1e-18)
        allowance = 10.0 * (tail_sp + tail_fr)
        dev = float(np.max(np.abs(sp - fr)))
        _require(dev <= allowance, f"κ={kappa}: series differ by {dev:.2e}")
        worst = max(worst, dev)
    return f"spatial and frequency series agree ({worst:.1e})"


def _chk_theta_function_form(ctx):
    kappa = 1.0
    tg = theta_gaussian(ctx.lat, kappa)
    n = ctx.lat.indices
    via_theta = (kappa * ctx.d) ** -0.5 * jacobi_theta3(n / ctx.d, 1.0 / (kappa * ctx.d))
    # storage order is index order, so g(n) is amp itself
    worst = float(np.max(np.abs(tg.amp - via_theta)))
    _require(worst < 1e-12, f"θ₃ form off by {worst:.2e}")
    return f"matches the θ₃ evaluation ({worst:.1e})"


def _chk_theta_fourier_law(ctx):
    worst = 0.0
    for kappa in (0.25, 0.5, 1.0, 2.0, 10.0):
        tg = theta_gaussian(ctx.lat, kappa)
        other = theta_gaussian(ctx.lat, 1.0 / kappa)
        dev = np.max(np.abs(ctx.fmat @ tg.amp - other.amp / np.sqrt(kappa)))
        worst = max(worst, float(dev))
    _require(worst < 1e-11, f"transform law off by {worst:.2e}")
    return f"F maps width κ to width 1/κ ({worst:.1e})"


def _chk_theta_product_identity(ctx):
    lat = ctx.lat
    g1 = theta_gaussian(lat, 1.0)
    g2 = theta_gaussian(lat, 2.0)
    gh = theta_gaussian(lat, 0.5)
    a = 2.0 * g2[0] - gh[0]
    b = g2[0] - gh[0]
    # storage order is index order, so g(n) is amp itself and g(2n) a gather
    lhs = g1.amp ** 2
    rhs = a * g2.amp - b * gh.amp[lat.pos(2 * lat.indices)]
    worst = float(np.max(np.abs(lhs - rhs)))
    _require(worst < 1e-13, f"square identity off by {worst:.2e}")
    return f"g₁² expands over widths 2 and 1/2 ({worst:.1e})"


def _chk_ground_state(ctx):
    g = ctx.ground
    norm_dev = abs(float(np.dot(g.amp, g.amp)) - 1.0)
    _require(norm_dev < 1e-14, f"‖g‖² - 1 = {norm_dev:.2e}")
    fg_dev = np.max(np.abs(ctx.fmat @ g.amp - g.amp))
    _require(fg_dev < 1e-12, f"Fg - g = {fg_dev:.2e}")
    even_dev = np.max(np.abs(g.amp - g.amp[::-1]))
    _require(even_dev == 0.0, f"evenness broken by {even_dev:.2e}")
    return f"unit, even, Fourier-fixed ({fg_dev:.1e})"


def _chk_ground_autocorrelation(ctx):
    lat = ctx.lat
    g = ctx.ground.amp
    fg2 = ctx.fmat @ (g * g)
    # row j of the gather is g rolled back by j, so acf[j] = Σ_a g(a)·g(a + j)
    j = np.arange(lat.d)
    acf = g[(j[:, None] + j[None, :]) % lat.d] @ g / np.sqrt(lat.d)
    worst = float(np.max(np.abs(acf - fg2[lat.pos(j)])))
    _require(worst < 1e-12, f"autocorrelation law off by {worst:.2e}")
    return f"autocorrelation equals F[g²] ({worst:.1e})"


# ---------------------------------------------------------------- phasespace

def _chk_momentum_operator(ctx):
    lat = ctx.lat
    p = momentum_operator(lat)
    herm = np.linalg.norm(p - p.conj().T)
    _require(herm < 1e-15 * np.linalg.norm(p), f"not Hermitian: {herm:.2e}")
    qexp = np.exp(-1j * lat.sqrt_delta * lat.points)
    # P is Q in the transform picture, so e^{-i√δP} = F⁺·e^{-i√δQ}·F, and it
    # must advance each δ_n, whose transform is column n of F, by one site
    sites = np.array([-lat.s, -1, 0, lat.s])
    shifted = ctx.fmat.conj().T @ (qexp[:, None] * ctx.fmat[:, lat.pos(sites)])
    want = np.stack([basis_signal(lat, n + 1).amp for n in sites], axis=1)
    worst = float(np.max(np.abs(shifted - want)))
    _require(worst < 1e-12, f"site shift off by {worst:.2e}")
    return f"Hermitian, generates the unit shift ({worst:.1e})"


def _chk_momentum_convolution_form(ctx):
    lat = ctx.lat
    pmat = momentum_operator(lat)
    n = lat.indices
    # kern[v] = (1/d)·Σ_n q_n·e^{2πi·n·v/d}, and (Pφ)_n = Σ_v kern[v]·φ(n - v)
    kern = _root(np.outer(n, n), lat.d) @ lat.points / lat.d
    shifts = lat.pos(n[:, None] - n[None, :])
    worst = 0.0
    for _ in range(10):
        sig = ctx.random_signal()
        direct = pmat @ sig.amp
        convd = sig.amp[shifts] @ kern
        worst = max(worst, float(np.max(np.abs(direct - convd))))
    _require(worst < 1e-11, f"convolution form off by {worst:.2e}")
    return f"matches the phase-weighted convolution ({worst:.1e})"


def _parts(lat, a, b) -> tuple[np.ndarray, np.ndarray]:
    """(cols, vals) of D(a, b) over index arrays, each asserted monomial.

    A displacement is a permutation times a diagonal of roots of unity, so
    each row of ``cols`` must hold every column once and ``vals`` must have
    no zero; the products below rest on it.
    """
    cols, vals = _displacement_parts(lat, a, b)
    ok = (np.sort(cols, axis=-1) == np.arange(lat.d)).all(axis=-1) & (vals != 0).all(axis=-1)
    if not ok.all():
        i = np.unravel_index(np.argmin(ok), ok.shape)
        a, b = np.broadcast_arrays(a, b)
        raise _CheckFailure(f"displacement ({a[i]}, {b[i]}) is not monomial")
    return cols, vals


def _chk_displacement_unitary(ctx):
    """Random displacements are unitary, and ``displacement`` scatters its parts.

    Every entry of DD⁺ is a sum with at most one nonzero term, and with the
    columns a permutation only the diagonal |vals|² has one.  The dense
    matrices are read one at a time, so memory stays O(d²): with the parts
    a permutation of nonzeros, a matrix with d nonzeros that holds them at
    their positions is that monomial matrix exactly.
    """
    lat = ctx.lat
    a, b = ctx.random_indices(20).T
    cols, vals = _parts(lat, a, b)
    worst = float(np.max(np.linalg.norm(np.abs(vals) ** 2 - 1.0, axis=-1)))
    _require(worst < 1e-13, f"unitarity off by {worst:.2e}")
    rows = np.arange(lat.d)
    for p, q, c, v in zip(a, b, cols, vals):
        mat = displacement(PhasePoint(lattice=lat, a_idx=int(p), b_idx=int(q)))
        _require(np.count_nonzero(mat) == lat.d, f"displacement ({p}, {q}) is not monomial")
        _require(np.array_equal(mat[rows, c], v), f"displacement ({p}, {q}) is not its parts")
    return f"random displacements unitary ({worst:.1e})"


def _symplectic_phase(lat, a1, b1, a2, b2) -> np.ndarray:
    """e^{-(i/2)(α₁β₂ - α₂β₁)} = e^{-iπ(a₁b₂ - a₂b₁)/d}, the composition phase."""
    return _root(a1 * b2 - a2 * b1, 2 * lat.d, -1.0)


def _composition_errors(lat, a1, b1, a2, b2, factor, a, b) -> np.ndarray:
    """‖D(a₁,b₁)·D(a₂,b₂) - factor·D(a,b)‖_F per index triple, over the parts.

    The three displacements come from one call of the parts.  Row n of the
    product is D₁[n, c₁(n)]·D₂[c₁(n)], a single nonzero at column c₂(c₁(n)),
    the same value the dense product sums to.  Two monomial rows differ by
    |x - y|² where their columns agree and by |x|² + |y|² where they do not.
    """
    (c1, c2, want_cols), (v1, v2, want) = _parts(
        lat, np.stack([a1, a2, a]), np.stack([b1, b2, b])
    )
    cols = np.take_along_axis(c2, c1, axis=-1)
    vals = v1 * np.take_along_axis(v2, c1, axis=-1)
    want = factor[:, None] * want
    sq = np.where(
        cols == want_cols,
        np.abs(vals - want) ** 2,
        np.abs(vals) ** 2 + np.abs(want) ** 2,
    )
    return np.sqrt(np.sum(sq, axis=-1))


# pairs drawn for the group law: at least 9/16 of them (the large-d limit)
# keep both index sums in range, so fewer than the 20 needed lies more than
# nine standard deviations below the mean
_GROUP_LAW_DRAWS = 128


def _chk_displacement_group_law(ctx):
    lat = ctx.lat
    a1, b1, a2, b2 = ctx.random_indices(2 * _GROUP_LAW_DRAWS).reshape(-1, 4).T
    asum, bsum = a1 + a2, b1 + b2
    keep = np.flatnonzero((np.abs(asum) <= lat.s) & (np.abs(bsum) <= lat.s))[:20]
    _require(len(keep) == 20, f"only {len(keep)} in-range pairs drawn")
    a1, b1, a2, b2, asum, bsum = (x[keep] for x in (a1, b1, a2, b2, asum, bsum))
    phase = _symplectic_phase(lat, a1, b1, a2, b2)
    worst = float(np.max(_composition_errors(lat, a1, b1, a2, b2, phase, asum, bsum)))
    _require(worst < 1e-12, f"group law off by {worst:.2e}")
    return f"composition law exact in range ({worst:.1e})"


def _chk_displacement_wrap_sign(ctx):
    """Composing displacements whose index sums leave -s..s costs one sign.

    Writing a1+a2 = a' + σ_a·d and b1+b2 = b' + σ_b·d with reduced a', b',
    the composition law picks up (-1)^{σ_b·a' + σ_a·b' + σ_a·σ_b} on top of
    the usual symplectic phase (the half-phase e^{-iαβ/2} is not periodic
    in the indices; reducing them shifts it by half-turns).
    """
    lat = ctx.lat
    s = lat.s
    # a-wrap only, b-wrap only, both at once, and negative-side wraps; each
    # row is (a1, b1, a2, b2)
    a1, b1, a2, b2 = np.array([
        (s, 1, 1, 0),
        (1, s, 0, 1),
        (s, s, 1, 1),
        (-s, 2, -1, 0),
        (2, -s, 1, -1),
        (-s, -s, -1, -1),
    ]).T
    a_red = lat.wrap(a1 + a2)
    b_red = lat.wrap(b1 + b2)
    sig_a = (a1 + a2 - a_red) // lat.d
    sig_b = (b1 + b2 - b_red) // lat.d
    phase = _symplectic_phase(lat, a1, b1, a2, b2)
    sign = (-1.0) ** (sig_b * a_red + sig_a * b_red + sig_a * sig_b)
    worst = float(np.max(_composition_errors(lat, a1, b1, a2, b2, sign * phase, a_red, b_red)))
    _require(worst < 1e-12, f"wrap sign rule off by {worst:.2e}")
    return f"index reduction costs one explicit sign ({worst:.1e})"


def _chk_frame_states(ctx):
    frame = ctx.frame
    norms = np.linalg.norm(frame.states, axis=1)
    dev_norm = float(np.max(np.abs(norms - 1.0)))
    _require(dev_norm < 1e-13, f"state norms off by {dev_norm:.2e}")
    smat = frame.frame_operator()
    dev_id = float(np.linalg.norm(smat - np.eye(ctx.d)))
    _require(dev_id < 1e-11, f"frame operator off identity {dev_id:.2e}")
    return f"unit states, tight frame ({dev_id:.1e})"


def _chk_frame_parseval(ctx):
    frame = ctx.frame
    worst = 0.0
    for _ in range(10):
        sig = ctx.random_signal()
        coeff = frame.states.conj() @ sig.amp
        total = float(np.sum(np.abs(coeff) ** 2)) / ctx.d
        worst = max(worst, abs(total - sig.norm() ** 2) / sig.norm() ** 2)
    _require(worst < 1e-11, f"Parseval off by {worst:.2e}")
    return f"frame coefficients carry ‖φ‖² ({worst:.1e})"


def _chk_frame_fourier_rotation(ctx):
    """The transform rotates the coherent family a quarter turn.

    With the e^{-i} transform kernel the forward rotation is
    F|α,β⟩ = |β,-α⟩; the inverse transform gives F⁺|α,β⟩ = |-β,α⟩.  Both
    directions are checked over every state, as the two products F·Sᵀ and
    F⁺·Sᵀ against the rotated rows of the state array S.
    """
    lat = ctx.lat
    frame = ctx.frame
    states = frame.states
    a, b = np.meshgrid(lat.indices, lat.indices, indexing="ij")
    a, b = a.ravel(), b.ravel()
    here = states[frame.flat_indices(a, b)].T
    fwd = states[frame.flat_indices(b, -a)].T
    inv = states[frame.flat_indices(-b, a)].T
    worst = max(
        float(np.max(np.abs(ctx.fmat @ here - fwd))),
        float(np.max(np.abs(ctx.fmat.conj().T @ here - inv))),
    )
    _require(worst < 1e-11, f"rotation law off by {worst:.2e}")
    return f"F: (α,β) → (β,-α) and F⁺: (α,β) → (-β,α) ({worst:.1e})"


def _chk_overlap_formula(ctx):
    frame = ctx.frame
    a1, b1, a2, b2 = ctx.random_indices(2 * 50).reshape(-1, 4).T
    # the rows of the dense sweep are the states bit for bit
    s1 = frame.states[frame.flat_indices(a1, b1)]
    s2 = frame.states[frame.flat_indices(a2, b2)]
    direct = np.sum(s1.conj() * s2, axis=1)
    formula = _overlaps(frame, a1, b1, a2, b2)
    worst = float(np.max(np.abs(direct - formula)))
    _require(worst < 1e-12, f"overlap formula off by {worst:.2e}")
    return f"closed overlap matches inner products ({worst:.1e})"


# ---------------------------------------------------------------- quantize

def _chk_quantizer_identity_symbol(ctx):
    amat = quantize.frame_quantize(ctx.frame, lambda a, b: 1.0)
    dev = float(np.linalg.norm(amat - np.eye(ctx.d)))
    _require(dev < 1e-11, f"unit symbol off identity by {dev:.2e}")
    return f"quantizing 1 gives the identity ({dev:.1e})"


def _chk_hamiltonian_fast_path(ctx):
    brute = quantize.frame_quantize(ctx.frame, quantize.harmonic_symbol)
    brute = brute - 0.5 * np.eye(ctx.d)
    dev = float(np.max(np.abs(brute - ctx.fh.op.mat)))
    _require(dev < 1e-11, f"fast path off brute force by {dev:.2e}")
    return f"circulant fast path equals projector average ({dev:.1e})"


def _chk_hamiltonian_structure(ctx):
    """H is the real circulant-plus-well layout of its record, and the frame average.

    ``frame_hamiltonian`` returns H as its well and hop, so realness, symmetry
    and that layout hold by construction and only guard the dense matrix.  The
    independent statement is the Fourier form the frame average reduces to,
    H = -I/2 + diag(w/2) + F⁺·diag(w/2)·F, with the cyclic convolution
    w = q² ∗ g² recomputed here from its definition.
    """
    lat = ctx.lat
    fh = ctx.fh
    mat = fh.op.mat
    g2 = ctx.ground.amp ** 2
    q2 = coordinate_signal(lat).amp ** 2
    diff = lat.indices[:, None] - lat.indices[None, :]  # n - m
    w = g2[lat.pos(diff)] @ q2
    f = ctx.fmat
    oracle = -0.5 * np.eye(lat.d) + np.diag(w / 2) + (f.conj().T * (w / 2)) @ f
    rel = float(np.linalg.norm(mat - oracle) / np.linalg.norm(mat))
    _require(rel < 1e-12, f"Fourier form off by {rel:.2e} of ‖H‖")
    imag = float(np.max(np.abs(mat.imag)))
    asym = float(np.max(np.abs(mat - mat.T)))
    _require(imag < 1e-12 and asym < 1e-12, f"structure {imag:.2e}/{asym:.2e}")
    dist = np.abs(diff)
    want = fh.op.first_column[lat.pos(np.minimum(dist, lat.d - dist))]
    np.fill_diagonal(want, fh.op.well[lat.pos(np.abs(lat.indices))])
    worst = float(np.max(np.abs(mat.real - want)))
    _require(worst < 1e-12, f"τ/ω layout off by {worst:.2e}")
    flip = lat.pos(-lat.indices)
    cs = float(np.max(np.abs(mat - mat[np.ix_(flip, flip)])))
    _require(cs < 1e-12, f"centro-symmetry off by {cs:.2e}")
    return f"circulant-plus-well layout equals the Fourier form ({rel:.1e})"


def _chk_hamiltonian_fourier_invariance(ctx):
    mat = ctx.fh.op.mat
    dev = float(np.linalg.norm(ctx.fmat @ mat - mat @ ctx.fmat))
    _require(dev < 1e-10, f"‖FH - HF‖ = {dev:.2e}")
    return f"commutes with F ({dev:.1e})"


def _chk_hamiltonian_trace(ctx):
    lat = ctx.lat
    tr = float(np.trace(ctx.fh.op.mat).real)
    want = -lat.d / 2.0 + 2.0 * np.pi * lat.s * (lat.s + 1) / 3.0
    _require(abs(tr - want) < 1e-10, f"trace {tr} vs {want}")
    tau0 = np.pi * lat.s * (lat.s + 1) / (3.0 * lat.d)
    read = ctx.fh.op.well[lat.pos(0)] + 0.5 - ctx.fh.conv.amp[lat.pos(0)] / 2
    _require(abs(read - tau0) < 1e-12, f"τ₀ off: {read}")
    return f"trace and τ₀ match closed forms ({abs(tr - want):.1e})"


def _chk_hamiltonian_offdiagonal_product(ctx):
    lat = ctx.lat
    mat = ctx.fh.op.mat
    g2 = ctx.ground.amp ** 2
    _, fq2 = closed_form_coordinate_transforms(lat)
    fg2 = ctx.fmat @ g2
    at = lat.pos(lat.indices[:, None] - lat.indices[None, :])  # n - m
    want = 0.5 * fq2.amp[at] * fg2[at]
    off = ~np.eye(lat.d, dtype=bool)
    worst = float(np.max(np.abs(mat - want)[off]))
    _require(worst < 1e-11, f"entry product law off by {worst:.2e}")
    return f"off-diagonal = ½·F[q²]·F[g²] ({worst:.1e})"


def _chk_positivity(ctx):
    amat = ctx.fh.op.mat + 0.5 * np.eye(ctx.d)
    vals, _ = spectral.eigh(amat)
    _require(vals[0] >= -1e-10, f"negative eigenvalue {vals[0]:.2e}")
    return f"quantized energy nonnegative (min {vals[0]:.1e})"


def _chk_coherent_expectation(ctx):
    frame = ctx.frame
    a, b = ctx.random_indices(50).T
    states = frame.states[frame.flat_indices(a, b)]
    sandwich = np.sum(states.conj() * (states @ ctx.fh.op.mat.T), axis=1).real
    # the closed form at (a, b) and with the shifts swapped, in one call
    closed, swapped = quantize._coherent_energies(
        ctx.fh, frame, np.stack([a, b]), np.stack([b, a])
    )
    worst = float(max(np.max(np.abs(sandwich - closed)), np.max(np.abs(closed - swapped))))
    _require(worst < 1e-11, f"expectation law off by {worst:.2e}")
    return f"closed mean energy matches sandwiches ({worst:.1e})"


def _chk_wielandt_hoffman(ctx):
    lhs, rhs = quantize.wielandt_hoffman_gap(ctx.fh)
    _require(rhs >= 0.0, f"negative bound {rhs}")
    _require(lhs <= rhs + 1e-12, f"lhs {lhs:.4f} exceeds rhs {rhs:.4f}")
    shifted = ctx.fh.op.mat + 0.5 * np.eye(ctx.d)
    cmat = equidistant_circulant(ctx.lat).mat
    frob = float(np.linalg.norm(shifted - cmat)) / np.sqrt(ctx.d)
    _require(abs(rhs - frob) < 1e-10, f"rhs {rhs} vs Frobenius form {frob}")
    return f"drift {lhs:.3f} ≤ bound {rhs:.3f}"


def _chk_raising_operator(ctx):
    lat = ctx.lat
    fast = quantize.raising_operator(ctx.frame).mat
    brute = quantize.frame_quantize(ctx.frame, quantize.raising_symbol)
    imag = float(np.max(np.abs(brute.imag)))
    _require(imag < 1e-11, f"imaginary parts {imag:.2e}")
    dev = float(np.max(np.abs(fast - brute)))
    _require(dev < 1e-12, f"factorized form off by {dev:.2e}")
    flip = lat.pos(-lat.indices)
    anti = float(np.max(np.abs(fast + fast[np.ix_(flip, flip)])))
    _require(anti < 1e-11, f"antisymmetry off by {anti:.2e}")
    # the lowering symbol (α + iβ)/√2
    adj = quantize.frame_quantize(ctx.frame, lambda a, b: (a + 1j * b) / np.sqrt(2.0))
    dev_adj = float(np.max(np.abs(brute.conj().T - adj)))
    _require(dev_adj < 1e-12, f"adjoint symbol law off by {dev_adj:.2e}")
    return f"real, antisymmetric, matches brute force ({dev:.1e})"


def _chk_ladder_recurrence(ctx):
    ap = quantize.raising_operator(ctx.frame).mat
    states = ctx.ladder
    dev0 = float(np.max(np.abs(states[0] - ctx.ground.amp)))
    _require(dev0 == 0.0, f"f̃₀ differs from g by {dev0:.2e}")
    worst = 0.0
    for n in range(len(states) - 1):
        resid = ap @ states[n] - np.sqrt(n + 1.0) * states[n + 1]
        worst = max(worst, float(np.max(np.abs(resid))))
    _require(worst < 1e-14, f"recurrence residual {worst:.2e}")
    return f"a⁺f̃_n = √(n+1)·f̃_{{n+1}} to {worst:.1e}"


# ---------------------------------------------------------------- spectral

def _char_poly(mat):
    """Coefficients of det(λI - A) by the trace recursion, no eigensolver."""
    n = mat.shape[0]
    coeffs = np.ones(n + 1)
    acc = np.eye(n)
    for k in range(1, n + 1):
        acc = mat @ acc
        coeffs[k] = -np.trace(acc) / k
        acc += coeffs[k] * np.eye(n)
    return coeffs


def _chk_eigh_oracles(ctx):
    n = ctx.d
    a = ctx.rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    vals, vecs = spectral.eigh(a)
    # the readings reuse their d×d temporaries, and a and V go before the
    # cosine part
    gram = vecs.T @ vecs
    gram.flat[:: n + 1] -= 1.0
    gram = float(np.linalg.norm(gram))
    resid = a @ vecs
    resid -= np.multiply(vecs, vals, out=vecs)
    resid = float(np.max(np.linalg.norm(resid, axis=0)))
    scale = np.linalg.norm(a)
    del a, vecs
    _require(resid < 1e-10 * scale, f"residual {resid:.2e}")
    _require(gram < 1e-12, f"orthonormality {gram:.2e}")
    # (C + Cᵀ)/2 for the cyclic shift C has the eigenvalues cos(2πk/d)
    cyc = np.zeros((n, n))
    i = np.arange(n)
    cyc[i, i - 1] = cyc[i - 1, i] = 0.5
    vals, _ = spectral.eigh(cyc)
    want = np.sort(np.cos(2.0 * np.pi * np.arange(n) / n))
    drift = float(np.max(np.abs(vals - want)))
    _require(drift < 1e-12, f"cosine spectrum off by {drift:.2e}")
    # the d = 5 Harper matrix against the roots of its characteristic polynomial
    harper5 = spectral.harper_hamiltonian(make_lattice(5)).mat
    vals, _ = spectral.eigh(harper5)
    roots = np.sort(np.roots(_char_poly(harper5)).real)
    drift5 = float(np.max(np.abs(vals - roots)))
    _require(drift5 < 1e-11, f"Harper-5 roots off by {drift5:.2e}")
    return f"closed-form spectra reproduced ({max(drift, drift5):.1e})"


def _chk_eigh_rejects(ctx):
    bad = ctx.rng.standard_normal((ctx.d, ctx.d))
    bad[0, 1] += 1.0
    try:
        spectral.eigh(bad)
    except ValueError:
        return "rejects asymmetric input"
    raise _CheckFailure("accepted an asymmetric matrix")


def _chk_harper_matrix(ctx):
    lat = ctx.lat
    hmat = ctx.harper.mat
    _require(
        hmat[lat.pos(-lat.s), lat.pos(lat.s)] == 1.0
        and hmat[lat.pos(lat.s), lat.pos(-lat.s)] == 1.0,
        "corner hops missing",
    )
    _require(hmat[lat.pos(0), lat.pos(0)] == -2.0, "central well entry wrong")
    comm = float(np.linalg.norm(ctx.fmat @ hmat - hmat @ ctx.fmat))
    _require(comm < 1e-10, f"‖F𝓗 - 𝓗F‖ = {comm:.2e}")
    vals, _ = spectral.eigh(hmat)
    _require(vals[0] >= -8.0 - 1e-12 and vals[-1] < 0.0, f"range {vals[0]}..{vals[-1]}")
    gap = float(np.min(np.diff(vals)))
    _require(gap > 1e-8, f"near-degenerate gap {gap:.2e}")
    return f"ring Laplacian plus cosine well, gap {gap:.1e}"


def _chk_basis_labels(ctx, basis, what):
    d = ctx.d
    gram = float(np.linalg.norm(basis.vectors.T @ basis.vectors - np.eye(d)))
    _require(gram < 1e-11, f"Gram deviation {gram:.2e}")
    vecs = basis.vectors
    eig = np.array([1.0, -1j, -1.0, 1j])[np.arange(d) % 4]  # (-i)^m
    worst = float(np.max(np.abs(ctx.fmat @ vecs - vecs * eig)))
    _require(worst < 1e-9, f"Fourier eigenrelation off by {worst:.2e}")
    deficits = np.arange(d) - basis.alternations
    # counting saturates for the most oscillatory vectors once d is large
    # enough that genuine lobes sink below the relative floor; the deficit
    # is then even and the count never overshoots
    _require(
        bool(np.all(deficits >= 0)) and bool(np.all(deficits % 2 == 0)),
        "alternation ladder broken",
    )
    if d <= 49:
        _require(
            bool(np.all(deficits == 0)), "alternation ladder broken"
        )
    evens = int(np.sum(basis.parities == 0))
    _require(
        evens == ctx.lat.s + 1, f"{evens} even vectors, expected s+1"
    )
    return f"{what}: labels consistent, Fv_m = (-i)^m v_m ({worst:.1e})"


def _chk_basis_order(ctx, kind):
    """Level m carries the m-th eigenvalue, counted up the frame spectrum and
    down the Harper one, up to doublet swaps: the upper spectrum pairs into
    (even, odd) doublets with the even member below its odd partner, so the
    rank of level m can differ from m by one inside a pair but never more."""
    sign, first, what = {
        "frame": (1.0, "ground state", "frame basis"),
        "harper": (-1.0, "nodeless state", "Harper basis"),
    }[kind]
    basis = getattr(ctx, f"{kind}_basis")
    ranked = sign * basis.values  # ascending along the levels
    ranks = np.argsort(np.argsort(ranked))
    dev = np.abs(ranks - np.arange(ctx.d))
    _require(int(dev.max()) <= 1, f"rank strays {int(dev.max())} from level")
    _require(int(np.argmin(ranked)) == 0, f"{first} not at m=0")
    return _chk_basis_labels(ctx, basis, what)


def _chk_eigen_residuals(ctx):
    """‖Hv - λv‖ / ‖H‖_F of both returned bases, formed densely."""
    worst = 0.0
    for basis, mat in (
        (ctx.frame_basis, ctx.fh.op.mat.real),
        (ctx.harper_basis, ctx.harper.mat),
    ):
        resid = np.max(
            np.linalg.norm(mat @ basis.vectors - basis.vectors * basis.values, axis=0)
        )
        worst = max(worst, float(resid) / np.linalg.norm(mat))
    _require(worst < 1e-10, f"relative residual {worst:.2e}")
    return f"eigenpair residuals ({worst:.1e})"


# ---------------------------------------------------------------- reference

def _chk_hermite_values(ctx):
    p0 = reference.hermite_gaussian(0, 0.0)
    _require(abs(p0 - np.pi ** -0.25) < 1e-15, f"Ψ₀(0) = {p0}")
    _require(abs(reference.hermite_gaussian(1, 0.0)) < 1e-15, "Ψ₁(0) ≠ 0")
    xs = np.linspace(-12.0, 12.0, 2001)
    orders = (5, 50, 300)
    # one pass of the recurrence, keeping only the rows asked for
    for m, row in zip(orders, reference._hermite_rows(orders, xs)):
        mx = float(np.max(np.abs(row)))
        _require(mx < 1.0, f"Ψ_{m} exceeds 1: {mx}")
    # the integrand decays like a Gaussian, so the rectangle rule is spectrally
    # accurate on a grid that reaches past its tails
    xs, dx = np.linspace(-10.0, 10.0, 20001, retstep=True)
    v2 = reference.hermite_gaussian(2, xs)
    norm = float(np.sum(v2 * v2) * dx)
    _require(abs(norm - 1.0) < 1e-8, f"‖Ψ₂‖² = {norm}")
    return "recurrence bounded and normalized"


def _wrap_error_envelope(lat) -> float:
    """Size of the dominant periodization term at the grid edge.

    The grid families differ from the sampled line functions mainly through
    the nearest image term exp(-(π/d)(s+1)²); a single constant tolerance
    cannot serve every d, so small-grid checks scale against this envelope.
    """
    return float(np.exp(-np.pi / lat.d * (lat.s + 1) ** 2))


def _chk_ground_approximation(ctx):
    target = reference.hermite_sample(ctx.lat, 0).amp
    dev = float(np.max(np.abs(ctx.ground.amp - target)))
    bound = max(1e-6, 10.0 * _wrap_error_envelope(ctx.lat))
    _require(dev < bound, f"ground-state mismatch {dev:.2e}")
    return f"g tracks the scaled Gaussian ({dev:.1e})"


def _chk_mehta_ground(ctx):
    phi0 = reference.mehta_function(ctx.lat, 0).amp
    g1 = theta_gaussian(ctx.lat, 1.0).amp
    dev = float(np.max(np.abs(phi0 - np.pi ** -0.25 * g1)))
    _require(dev < 1e-12, f"periodized Ψ₀ off by {dev:.2e}")
    return f"Φ₀ = π^(-1/4)·g₁ ({dev:.1e})"


def _chk_mehta_near_eigenvectors(ctx):
    # Φ_0..Φ_5 (Φ_0..Φ_4 at d = 5) as the rows of one table
    phi = reference._periodized_table(ctx.lat, 5)[: min(6, ctx.d)]
    eig = (-1j) ** np.arange(len(phi))
    worst = float(np.max(np.abs(phi @ ctx.fmat.T - eig[:, None] * phi)))
    bound = max(1e-3, 100.0 * _wrap_error_envelope(ctx.lat))
    _require(worst < bound, f"near-eigenvector drift {worst:.2e}")
    return f"Φ_m almost Fourier-eigen ({worst:.1e})"


def _ground_vector_bound(ctx) -> float:
    """A posteriori bound on Δ_f(0), the frame ground vector's sup deviation.

    Let g be the unit theta ground state, sign-aligned with the frame ground
    vector v₀, and let ρ = gᵀHg, r = Hg - ρg and γ = min_{j≠0} |λ_j - ρ| over
    the other eigenvalues of the frame Hamiltonian H.  Write
    g = cos θ·v₀ + sin θ·w with w a unit vector orthogonal to v₀ (cos θ ≥ 0
    by the alignment).  Then r = (H - ρ)g has the component sin θ·(H - ρ)w
    orthogonal to v₀, and w lies in the span of the eigenvectors j ≠ 0, so
    ‖r‖₂ ≥ sin θ·γ (Davis–Kahan).  With θ ≤ π/2,
    ‖v₀ - g‖_∞ ≤ ‖v₀ - g‖₂ = 2·sin(θ/2) ≤ √2·sin θ, and the triangle
    inequality gives

        Δ_f(0) ≤ √2·‖r‖₂/γ + ‖g - ⁴√δ·Ψ₀‖_∞.

    The theta Gaussian's periodization envelope bounds only the second term;
    the first is the frame Hamiltonian's own departure from g.
    """
    h = ctx.fh.op.mat
    basis = ctx.frame_basis
    g = ctx.ground.amp / np.linalg.norm(ctx.ground.amp)
    if float(g @ basis.vectors[:, 0]) < 0.0:
        g = -g
    hg = h @ g
    rho = float(g @ hg)
    resid = float(np.linalg.norm(hg - rho * g))
    gamma = float(np.min(np.abs(basis.values[1:] - rho)))
    target = reference.hermite_sample(ctx.lat, 0).amp
    return np.sqrt(2.0) * resid / gamma + float(np.max(np.abs(g - target)))


def _chk_deviation_report(ctx):
    rep = reference.deviation_report(ctx.frame_basis, ctx.harper_basis, ctx.ladder)
    for arr in (rep.delta_f, rep.delta_h, rep.delta_m, rep.delta_r):
        _require(bool(np.all(arr >= 0.0)), "negative deviation")
    ground = _ground_vector_bound(ctx)
    _require(rep.delta_f[0] < ground, f"Δ(0) = {rep.delta_f[0]:.2e} (bound {ground:.1e})")
    # that bound moves with H; a fixed one does not.  From d = 21 the frame
    # ground vector lies within 1e-6 of Ψ₀ (6.6e-7 at d = 21, about 3.3×
    # smaller at each next odd d)
    if ctx.d >= 21:
        _require(rep.delta_f[0] < 1e-6, f"Δ(0) = {rep.delta_f[0]:.2e} above 1e-6")
    # the periodized samples and the ladder's first state are theta objects
    bound = max(1e-6, 10.0 * _wrap_error_envelope(ctx.lat))
    _require(rep.delta_m[0] < bound, f"Δ_M(0) = {rep.delta_m[0]:.2e}")
    _require(rep.delta_r[0] < bound, f"Δ_R(0) = {rep.delta_r[0]:.2e}")
    # Both order-m vectors lie in the Fourier class m mod 4 (the label audit
    # pins it) and share the sign convention.  Where that class is one-
    # dimensional (tr π_k = 1: orders 1, 2, 3 at d = 5, order 3 at d = 7) they
    # are the same vector, so δ_f and δ_h agree up to rounding and which one
    # is smaller is not a property of either basis.
    dims = np.array([round(float(np.trace(p))) for p in ctx.projectors])
    tied = dims[np.arange(ctx.d) % 4] == 1
    spread = float(np.max(np.abs(rep.delta_f - rep.delta_h)[tied], initial=0.0))
    _require(spread < 1e-12, f"one-dimensional classes differ by {spread:.2e}")
    contested = ~tied
    won = rep.delta_f < rep.delta_h
    wins = int(np.sum(won[contested]))
    # near the top of the spectrum both bases sit far from the continuum
    # and the contest is noise; the frame advantage is a bulk statement
    bulk = won[: max(0, ctx.d - 8)]
    _require(bool(np.all(bulk)), f"frame loses below order d-8 (wins {wins})")
    total = int(np.sum(contested))
    if ctx.d <= 21:
        _require(wins >= total - 1, f"frame beats Harper on only {wins} of {total} orders")
    return f"frame basis closest on {wins}/{total} contested orders"


def _chk_frft_oracle_identity(ctx):
    prof = reference.GaussianProfile(10.0)
    out = reference.continuous_frft_oracle(prof, 0.0, ctx.lat)
    samples = ctx.lat.delta ** 0.25 * prof(ctx.lat.points)
    dev = float(np.max(np.abs(out.amp - samples)))
    _require(dev < 5e-3, f"order-0 reproduction off by {dev:.2e}")
    return f"order 0 reproduces the input ({dev:.1e})"


def _chk_frft_oracle_fourier(ctx):
    prof = reference.GaussianProfile(10.0)
    out = reference.continuous_frft_oracle(prof, 1.0, ctx.lat)
    target = ctx.lat.delta ** 0.25 * reference.GaussianProfile(0.1)(
        ctx.lat.points
    ) / np.sqrt(10.0)
    dev = float(np.max(np.abs(out.amp - target)))
    _require(dev < 5e-3, f"order-1 law off by {dev:.2e}")
    out2 = reference.continuous_frft_oracle(prof, 2.0, ctx.lat)
    dev2 = float(np.max(np.abs(out2.amp - ctx.lat.delta ** 0.25 * prof(ctx.lat.points))))
    _require(dev2 < 5e-3, f"order-2 parity off by {dev2:.2e}")
    return f"order 1 maps width 10 to width 1/10 ({dev:.1e})"


# ---------------------------------------------------------------- frft

def _chk_kernel_laws(ctx):
    eye = np.eye(ctx.d)
    worst_u = worst_a = 0.0
    for basis in (ctx.frame_basis, ctx.harper_basis):
        k0 = frft.frft_kernel(basis, 0.0).mat
        k1 = frft.frft_kernel(basis, 1.0).mat
        _require(
            float(np.linalg.norm(k0 - eye)) < 1e-10, "order 0 not identity"
        )
        _require(
            float(np.linalg.norm(k1 - ctx.fmat)) < 1e-9, "order 1 not Fourier"
        )
        kb = frft.frft_kernel(basis, 0.7).mat
        for alpha in (0.1, 0.25, 0.5, 1.0, 1.5, 2.0):
            ka = frft.frft_kernel(basis, alpha).mat
            worst_u = max(
                worst_u, float(np.linalg.norm(ka @ ka.conj().T - eye))
            )
            worst_u = max(worst_u, float(np.linalg.norm(ka - ka.T)))
            kab = frft.frft_kernel(basis, alpha + 0.7).mat
            worst_a = max(worst_a, float(np.linalg.norm(ka @ kb - kab)))
        kper = frft.frft_kernel(basis, 0.5 + 4.0).mat
        worst_a = max(
            worst_a,
            float(np.linalg.norm(kper - frft.frft_kernel(basis, 0.5).mat)),
        )
    _require(worst_u < 1e-10, f"unitarity/symmetry off by {worst_u:.2e}")
    _require(worst_a < 1e-9, f"additivity/period off by {worst_a:.2e}")
    return f"unitary, additive, 4-periodic ({max(worst_u, worst_a):.1e})"


def _chk_factored_apply(ctx):
    # each apply requests its kernel afresh; only an order's first request
    # computes its phases.  All meet K·x = (V·diag(phases))·(Vᵀx)
    # formed in complex arithmetic, where the apply runs two real products;
    # V·diag(phases) is formed 256 rows at a time, never as a d×d array
    sig = ctx.random_signal()
    signals = (sig, Signal(ctx.lat, sig.amp.real.copy()))
    worst = 0.0
    for basis in (ctx.frame_basis, ctx.harper_basis):
        vecs = basis.vectors
        coeffs = [vecs.T @ x.amp for x in signals]
        for alpha in (-1.3, 0.37, 2.5, 5.1):
            outs = [
                frft.apply_frft(frft.frft_kernel(basis, alpha), x).amp
                for _ in range(2)
                for x in signals
            ]
            phases = frft.frft_kernel(basis, alpha).phases
            wants = [np.empty(ctx.d, dtype=complex) for _ in signals]
            for r in range(0, ctx.d, 256):
                scaled = vecs[r:r + 256] * phases
                for want, y in zip(wants, coeffs):
                    want[r:r + 256] = scaled @ y
            for x, want, out in zip(signals * 2, wants * 2, outs):
                dev = float(np.linalg.norm(out - want))
                worst = max(worst, dev / x.norm())
    _require(worst < 1e-13, f"factored apply off by {worst:.2e} relative")
    return f"V·(phases ⊙ Vᵀx) equals K·x on first and repeated requests ({worst:.1e})"


def _chk_kernel_on_gaussian(ctx):
    sig = theta_gaussian(ctx.lat, 10.0)
    out = frft.apply_frft(frft.frft_kernel(ctx.frame_basis, 1.0), sig)
    target = theta_gaussian(ctx.lat, 0.1).amp / np.sqrt(10.0)
    dev = float(np.max(np.abs(out.amp - target)))
    _require(dev < 1e-9, f"order-1 Gaussian law off by {dev:.2e}")
    return f"kernel at order 1 acts as F ({dev:.1e})"


def _chk_rectangular_signal(ctx):
    sig = frft.rectangular_signal(ctx.lat)
    _require(abs(sig.norm() ** 2 - 3.0) < 1e-14, "squared norm not 3")
    _require(sig[1] == sig[-1] == sig[0] == 1.0, "plateau wrong")
    out = ctx.fmat @ sig.amp
    want = (1.0 + 2.0 * np.cos(2.0 * np.pi * ctx.lat.indices / ctx.d)) / np.sqrt(
        ctx.d
    )
    dev = float(np.max(np.abs(out - want)))
    _require(dev < 1e-13, f"three-term transform off by {dev:.2e}")
    return f"indicator with cosine transform ({dev:.1e})"


def _chk_comparative_accuracy(ctx):
    lat = ctx.lat
    scale = lat.delta ** 0.25
    cases = [
        (theta_gaussian(lat, 10.0), reference.GaussianProfile(10.0)),
        (frft.rectangular_signal(lat), reference.rectangular_profile(lat)),
    ]
    details = []
    for sig, prof in cases:
        oracle = reference.continuous_frft_oracle(prof, 0.5, lat).amp
        err = {}
        for basis in (ctx.frame_basis, ctx.harper_basis):
            out = frft.apply_frft(frft.frft_kernel(basis, 0.5), sig).amp
            err[basis.kind] = float(np.max(np.abs(scale * out - oracle)))
        _require(
            err["frame"] < err["harper"],
            f"frame {err['frame']:.2e} not below harper {err['harper']:.2e}",
        )
        details.append(f"{err['frame']:.1e} < {err['harper']:.1e}")
    return "frame beats Harper on both signals: " + ", ".join(details)


# (name, check, (d_min, d_max)): the range keeps brute-force oracles and
# eigenbasis audits away from sizes where they are either too slow or where
# the asserted structure is not guaranteed (Harper gaps shrink past d=51,
# claims about the d=21 comparison need a grid of comparable size).  The
# dense eigenpair residual ‖HV - VΛ‖ runs at every size: it is the oracle
# for the audit that ``oscillator_basis`` reads in the parity frame.
_ALL = (5, None)
_ONCE = (None, None)  # size-independent: run at the first size only
_BASES = (5, 51)
_FRAME = (5, 101)
_BRUTE = (5, 33)
_HEADLINE = (11, 51)

_CHECKS = [
    ("lattice: size validation", _chk_lattice_reject, _ONCE),
    ("lattice: inner product sesquilinear", _chk_inner_product, _ALL),
    ("lattice: periodic index access", _chk_periodic_access, _ALL),
    ("fourier: transform unitary", _chk_fourier_unitary, _ALL),
    ("fourier: fourth power is identity", _chk_fourier_fourth_power, _ALL),
    ("fourier: square reverses the grid", _chk_fourier_parity, _ALL),
    ("fourier: root-of-unity sums", _chk_root_of_unity_sum, _ALL),
    ("fourier: spectral projectors", _chk_projectors, _ALL),
    ("fourier: projector multiplicities", _chk_projector_ranks, _ALL),
    ("fourier: projectors vs eigensolver", _chk_projector_vs_eigensolver, _ALL),
    ("fourier: coordinate transforms", _chk_coordinate_transforms, _ALL),
    ("fourier: circulant shift symmetry", _chk_circulant_shift, _ALL),
    ("fourier: circulant diagonalization", _chk_circulant_diagonalization, _ALL),
    ("fourier: equidistant circulant", _chk_equidistant_circulant, _ALL),
    ("thetagauss: dual series agreement", _chk_theta_two_series, _ALL),
    ("thetagauss: theta-function form", _chk_theta_function_form, _ALL),
    ("thetagauss: Fourier width law", _chk_theta_fourier_law, _ALL),
    ("thetagauss: square identity", _chk_theta_product_identity, _ALL),
    ("thetagauss: ground state", _chk_ground_state, _ALL),
    ("thetagauss: autocorrelation law", _chk_ground_autocorrelation, _ALL),
    ("phasespace: momentum operator", _chk_momentum_operator, _ALL),
    ("phasespace: momentum convolution form", _chk_momentum_convolution_form, _ALL),
    ("phasespace: displacement unitarity", _chk_displacement_unitary, _ALL),
    ("phasespace: displacement group law", _chk_displacement_group_law, _ALL),
    ("phasespace: wraparound sign rule", _chk_displacement_wrap_sign, _ALL),
    ("phasespace: coherent frame tight", _chk_frame_states, _FRAME),
    ("phasespace: frame Parseval", _chk_frame_parseval, _FRAME),
    ("phasespace: Fourier rotation of states", _chk_frame_fourier_rotation, _FRAME),
    ("phasespace: overlap formula", _chk_overlap_formula, _FRAME),
    ("quantize: unit symbol", _chk_quantizer_identity_symbol, _BRUTE),
    ("quantize: fast path vs brute force", _chk_hamiltonian_fast_path, _BRUTE),
    ("quantize: Hamiltonian layout", _chk_hamiltonian_structure, _FRAME),
    ("quantize: Fourier invariance", _chk_hamiltonian_fourier_invariance, _FRAME),
    ("quantize: trace closed forms", _chk_hamiltonian_trace, _FRAME),
    ("quantize: off-diagonal product law", _chk_hamiltonian_offdiagonal_product, _FRAME),
    ("quantize: energy positivity", _chk_positivity, _FRAME),
    ("quantize: coherent mean energy", _chk_coherent_expectation, _FRAME),
    ("quantize: eigenvalue drift bound", _chk_wielandt_hoffman, _FRAME),
    ("quantize: raising operator", _chk_raising_operator, _BRUTE),
    ("quantize: ladder recurrence", _chk_ladder_recurrence, _FRAME),
    ("spectral: eigensolver vs closed forms", _chk_eigh_oracles, _ALL),
    ("spectral: asymmetric input rejected", _chk_eigh_rejects, _ALL),
    ("spectral: finite-difference oscillator", _chk_harper_matrix, _BASES),
    ("spectral: frame eigenbasis labels", partial(_chk_basis_order, kind="frame"), _BASES),
    ("spectral: Harper eigenbasis labels", partial(_chk_basis_order, kind="harper"), _BASES),
    ("spectral: eigenpair residuals", _chk_eigen_residuals, _ALL),
    ("reference: Hermite recurrence", _chk_hermite_values, _ONCE),
    ("reference: ground-state approximation", _chk_ground_approximation, _ALL),
    ("reference: periodized ground identity", _chk_mehta_ground, _ALL),
    ("reference: periodized near-eigenvectors", _chk_mehta_near_eigenvectors, _ALL),
    ("reference: deviation report", _chk_deviation_report, _BASES),
    ("reference: oracle at order 0", _chk_frft_oracle_identity, _ALL),
    ("reference: oracle Fourier laws", _chk_frft_oracle_fourier, _ALL),
    ("frft: kernel group laws", _chk_kernel_laws, _BASES),
    ("frft: factored apply matches the kernel", _chk_factored_apply, _ALL),
    ("frft: kernel Gaussian action", _chk_kernel_on_gaussian, _BASES),
    ("frft: rectangular test signal", _chk_rectangular_signal, _ALL),
    ("frft: comparative accuracy", _chk_comparative_accuracy, _HEADLINE),
]


def run_suite(d_values, emit=print) -> tuple[int, int]:
    """Run every applicable check at each size; returns (passed, failed).

    A check that raises fails, except on a MemoryError, which is no failed
    invariant and leaves the suite."""
    passed = failed = 0
    for i, d in enumerate(d_values):
        ctx = _Ctx(d)
        for name, fn, span in _CHECKS:
            lo, hi = span
            if span is _ONCE and i:
                continue  # already run at the first size
            if (lo is not None and d < lo) or (hi is not None and d > hi):
                continue
            try:
                detail = fn(ctx)
                passed += 1
                emit(f"ok   d={d:<4d} {name}: {detail}")
            except MemoryError:
                raise
            except Exception as exc:  # noqa: BLE001 - every other failure is reportable
                failed += 1
                emit(f"FAIL d={d:<4d} {name}: {exc}")
    return passed, failed
