"""Output checks for the benchmark, computed apart from finosc.

Every expected value here is rebuilt from its definition with numpy, scipy
or a closed form, or is a property the construction must have.  Nothing is
compared against saved output.  Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

SHIFTS = (1, 3, 6, 9)  # the table1 grid of phase-space indices
LOW_ORDERS = 6  # compare: delta_m is checked against scipy for m < LOW_ORDERS
LAW_PAIRS = 4  # seeded (α, β) pairs for K(α)K(β) = K(α+β)


def grid(d):
    s = (d - 1) // 2
    n = np.arange(-s, s + 1)
    return s, n, math.sqrt(2.0 * math.pi / d)


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def column(header, rows, name, kind=float):
    j = header.index(name)
    return np.array([kind(r[j]) for r in rows])


def _expect_header(header, want):
    return [] if header == list(want) else [f"header {header} != {list(want)}"]


def _labels(d, header, rows):
    problems = []
    m = column(header, rows, "m", int)
    if not np.array_equal(m, np.arange(d)):
        return [f"labels are not 0..{d - 1}"]
    parity = column(header, rows, "parity", str)
    if list(parity) != ["even" if k % 2 == 0 else "odd" for k in m]:
        problems.append("parity is not m mod 2")
    if not np.array_equal(column(header, rows, "fourier_index", int), m % 4):
        problems.append("Fourier index is not m mod 4")
    alt = column(header, rows, "alternations", int)
    # a count limited by float resolution falls short of m by an even amount
    if np.any(alt > m) or np.any((m - alt) % 2):
        problems.append("an alternation count is above m or short by an odd amount")
    return problems


def harper_matrix(d):
    _, n, _ = grid(d)
    h = np.diag(2.0 * (np.cos(2.0 * np.pi * n / d) - 2.0))
    for k in range(d):
        h[k, (k + 1) % d] = h[k, (k - 1) % d] = 1.0
    return h


def check_spectrum(d, method, text):
    header, rows = parse_csv(text)
    problems = _expect_header(
        header, ("m", "eigenvalue", "parity", "alternations", "fourier_index"))
    if problems or len(rows) != d:
        return problems or [f"{len(rows)} rows for d = {d}"]
    problems += _labels(d, header, rows)
    vals = column(header, rows, "eigenvalue")
    if method == "harper":
        want = np.linalg.eigvalsh(harper_matrix(d))
        err = float(np.max(np.abs(np.sort(vals) - want)))
        if err > 1e-9:
            problems.append(f"Harper eigenvalues off eigvalsh by {err:.2e}")
    else:
        s = (d - 1) // 2
        want = -d / 2.0 + 2.0 * math.pi * s * (s + 1) / 3.0
        if abs(vals.sum() - want) > 1e-9 * d:
            problems.append(f"frame eigenvalues sum to {vals.sum()!r}, want {want!r}")
    return problems


def theta(d, kappa):
    """The width-κ grid Gaussian from its direct sum Σ_ℓ exp(-(κπ/d)(ℓd + n)²)."""
    _, n, _ = grid(d)
    ell = np.arange(-4, 5)[:, None]
    return np.exp(-(kappa * math.pi / d) * (ell * d + n[None, :]) ** 2).sum(axis=0)


def check_table1(d, text):
    header, rows = parse_csv(text)
    problems = _expect_header(header, ("alpha_idx", "beta_idx", "deviation"))
    if problems or len(rows) != len(SHIFTS) ** 2:
        return problems or [f"{len(rows)} table rows"]
    s, n, h = grid(d)
    g = theta(d, 1.0)
    g /= np.linalg.norm(g)
    sel = np.abs(n) <= min(8, s)
    want = {}
    for a in SHIFTS:
        # the coherent state and the sampled displaced Gaussian carry the same
        # unimodular factor, so the deviation is |g(n-a) - ⁴√δ·Ψ₀(n√δ - α)|
        disc = g[(n - a + s) % d]
        cont = h**0.5 * math.pi**-0.25 * np.exp(-0.5 * ((n - a) * h) ** 2)
        want[a] = float(np.max(np.abs(disc - cont)[sel]))
    for r in rows:
        a, b, dev = int(r[0]), int(r[1]), float(r[2])
        if abs(dev - want[a]) > 1e-13 + 1e-8 * want[a]:
            problems.append(f"table1 ({a},{b}) = {dev!r}, want {want[a]!r}")
    return problems


def _psi(m, x):
    from scipy.special import eval_hermite

    norm = 1.0 / math.sqrt(2.0**m * math.factorial(m) * math.sqrt(math.pi))
    return norm * eval_hermite(m, x) * np.exp(-0.5 * x * x)


def check_compare(d, text):
    header, rows = parse_csv(text)
    problems = _expect_header(header, ("m", "delta_f", "delta_h", "delta_m", "delta_r"))
    if problems or len(rows) != d:
        return problems or [f"{len(rows)} rows for d = {d}"]
    if not np.array_equal(column(header, rows, "m", int), np.arange(d)):
        problems.append(f"orders are not 0..{d - 1}")
    for name in header[1:]:
        col = column(header, rows, name)
        if not np.all(np.isfinite(col)) or np.any(col < 0.0):
            problems.append(f"{name} has a negative or non-finite entry")
    _, n, h = grid(d)
    delta_m = column(header, rows, "delta_m")
    ell = np.arange(-4, 5)[:, None]
    for m in range(min(LOW_ORDERS, d)):
        target = h**0.5 * _psi(m, n * h)
        phi = _psi(m, (ell * d + n[None, :]) * h).sum(axis=0)
        phi /= np.linalg.norm(phi)
        if phi @ target < 0.0:
            phi = -phi
        want = float(np.max(np.abs(phi - target)))
        if abs(delta_m[m] - want) > 1e-12:
            problems.append(f"delta_m[{m}] = {delta_m[m]!r}, scipy gives {want!r}")
    return problems


def line_gaussian_frft(kappa, alpha, x):
    """Order-α transform of e^{-κx²/2}, with e^{-iπmα/2} on Ψ_m.

    With φ = πα/2 the Gaussian maps to
    e^{iφ/2}·(cos φ + iκ sin φ)^{-1/2}·exp(-x²/2·(κ cos φ + i sin φ)/(cos φ + iκ sin φ));
    the principal root is continuous in α on (-2, 2].
    """
    phi = 0.5 * math.pi * alpha
    den = math.cos(phi) + 1j * kappa * math.sin(phi)
    width = (kappa * math.cos(phi) + 1j * math.sin(phi)) / den
    return np.exp(0.5j * phi) / np.sqrt(den) * np.exp(-0.5 * width * x * x)


def check_frft(d, kappa, alpha, method, text):
    header, rows = parse_csv(text)
    pairs = ("frame", "harper") if method == "both" else ("out",)
    want_header = ["n", "in_re"]
    for p in pairs:
        want_header += [f"{p}_re", f"{p}_im"]
    want_header += ["oracle_re", "oracle_im"]
    problems = _expect_header(header, want_header)
    if problems or len(rows) != d:
        return problems or [f"{len(rows)} rows for d = {d}"]
    _, n, h = grid(d)
    x = column(header, rows, "in_re")
    if np.max(np.abs(x - theta(d, kappa))) > 1e-12:
        problems.append("input is not the width-κ theta Gaussian")
    for p in pairs:
        out = column(header, rows, f"{p}_re") + 1j * column(header, rows, f"{p}_im")
        if abs(np.linalg.norm(out) - np.linalg.norm(x)) > 1e-10 * np.linalg.norm(x):
            problems.append(f"{p} transform changed the norm")
    oracle = column(header, rows, "oracle_re") + 1j * column(header, rows, "oracle_im")
    err = float(np.max(np.abs(oracle - line_gaussian_frft(kappa, alpha, n * h))))
    if err > 1e-9:
        problems.append(f"oracle off the closed form by {err:.2e}")
    return problems


def check_verify(text):
    lines = text.strip().splitlines()
    tail = lines[-1].split()
    if len(tail) != 6 or (tail[1], tail[3], tail[5]) != ("checks:", "passed,", "failed"):
        return [f"unexpected verify summary {lines[-1]!r}"]
    problems = [] if tail[4] == "0" else [f"verify reports {tail[4]} failed"]
    if any(not line.startswith("ok ") for line in lines[:-1]):
        problems.append("a verify line is not ok")
    return problems


def centred_dft(x):
    """F[k, n] = d^(-1/2)·e^{-2πikn/d} on indices -s..s, through numpy.fft."""
    return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(x))) / math.sqrt(len(x))


def check_kernel_laws(finosc, basis, rng):
    """K(1) is the centred DFT, K(2) reverses the grid, K(α)K(β) = K(α+β)."""
    lat = basis.lattice
    x = rng.standard_normal(lat.d) + 1j * rng.standard_normal(lat.d)
    tol = 1e-10 * np.linalg.norm(x)

    def k(alpha, v):
        return finosc.apply_frft(finosc.frft_kernel(basis, alpha), finosc.Signal(lat, v)).amp

    problems = []
    if np.linalg.norm(k(1.0, x) - centred_dft(x)) > tol:
        problems.append("K(1)x is not the centred DFT")
    if np.linalg.norm(k(2.0, x) - x[::-1]) > tol:
        problems.append("K(2)x is not x reversed")
    for a, b in rng.uniform(-2.0, 2.0, size=(LAW_PAIRS, 2)):
        if np.linalg.norm(k(a, k(b, x)) - k(a + b, x)) > tol:
            problems.append(f"K({a:.4f})K({b:.4f}) != K({a + b:.4f})")
    return problems
