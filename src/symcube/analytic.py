"""Global numerics: Dirichlet coefficients, partial Euler products, and a
smoothed evaluator for completed L-functions.

The completed-value machinery evaluates

    F(s) = sum_n lambda(n) n^{-s} V_s(n / X),
    V_s(y) = (1/2 pi i) int_(c) gamma(s+u) y^{-u} du / u,

with gamma the product of Gamma_C factors (times conductor^{s/2}).  The
contour-shift identity gives  Lambda(s) = F_X(s) + eps G_X(s),  where the
reflected sum G_X is F at 1 - s with X replaced by 1/X (weights V(nX)).
afe_values returns F_X alone: the reflection-suppression scale X shrinks
G_X, so F_X approximates the completed value throughout the critical strip
without knowing the root number.  The dropped term is not negligible: at
the default X = 16 it is about 1e-7 of Lambda on the sym3 of Delta, and
X = 32 brings it to about 1e-11; pole_scan reads Lambda this way (the
two-sided scan is in ROADMAP.md).  The root-number probe instead solves
the identity at X = 1/2 and X = 2 for eps, from sums of 64 terms, and reads
eps = -1 on the sym3 of Delta to about 3e-13; a wrong gamma configuration
destroys the constancy of the solved eps and |eps| = 1, which is the
negative control validating the shipped configuration.

V_s is a trapezoid sum over nodes u_k in arithmetic progression on the line
Re(u) = 2.5.  So y^{-u_k} factors into a giant step times a baby step, and
the sum over k is evaluated baby-step/giant-step, as a polynomial in
y^{-i/4} (Paterson-Stockmeyer); the powers of y are shared by every s,
and afe_values keeps its last four blocks of 2048 rows (592 bytes a row,
4.9 MB) for later calls, whatever the sequence of calls.
The step 1/4 aliases the pole of 1/u at u = 0 into the sum with relative
size about 2 pi e^{-2 pi * 2.5 / (1/4)} = 5e-28 (Trefethen and Weideman,
SIAM Rev. 2014), far below rounding.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .localfactor import LocalPoleError, RepTag, ReciprocalPoly, primes_upto

LOG_2PI = math.log(2.0 * math.pi)


class MissingPrimeError(KeyError):
    def __init__(self, p: int):
        self.p = p
        super().__init__(f"no local factor supplied for prime {p}")


@dataclass
class CoefficientTable:
    """Multiplicative coefficients lambda(n), n <= n_max, from local factors."""

    values: np.ndarray           # complex, index 0 unused, values[1] = 1
    rep_tag: Optional[RepTag] = None
    source: str = ""

    @property
    def n_max(self) -> int:
        return len(self.values) - 1


def dirichlet_coeffs(local_factors: Dict[int, ReciprocalPoly], N: int,
                     rep_tag: Optional[RepTag] = None,
                     source: str = "") -> CoefficientTable:
    """Expand an Euler product into Dirichlet coefficients up to N.

    Every prime p <= N needs a factor; one of degree 0 (L_p = 1) leaves
    lambda zero on the multiples of p.  lambda(p^k) follows the recurrence of
    the local polynomial.  In descending prime order each p^k <= N sets
    lambda(p^k m) = lambda(p^k) lambda(m) for all m: the last write to p^e m
    (p not dividing m) is k = e, and reads lambda(m), untouched by p.
    """
    plist = primes_upto(N)
    for p in plist:
        if p not in local_factors:
            raise MissingPrimeError(p)
    lam = np.zeros(N + 1, dtype=np.complex128)
    lam[1] = 1.0
    for p in reversed(plist):
        poly = local_factors[p]
        if poly.degree == 0:
            continue
        c = [complex(x) for x in poly.coeffs]
        vals = [1.0 + 0j]
        k, pk = 1, p
        while pk <= N:
            v = 0j
            for j in range(1, min(k, poly.degree) + 1):
                v -= c[j] * vals[k - j]
            vals.append(v)
            lam[pk::pk] = v * lam[1:N // pk + 1]
            k += 1
            pk *= p
    return CoefficientTable(lam, rep_tag=rep_tag, source=source)


@dataclass
class PartialProductTrace:
    value: complex
    checkpoints: List[Tuple[int, complex]]
    outside_convergence: bool = False


def partial_L(s: complex, X: int,
              local_factors: Dict[int, ReciprocalPoly]) -> PartialProductTrace:
    """prod_{p <= X} 1/P_p(p^{-s}) with compensated log-space accumulation.

    local_factors needs an entry for every prime p <= X; a factor of degree 0
    (L_p = 1) is skipped.  Checkpoints record the running product each time
    the prime bound doubles.  Evaluation with Re(s) <= 1 is permitted but
    flagged as outside the absolute-convergence contract; ValueError, naming p
    and s, when p^{-s} or P_p(p^{-s}) is beyond the float range.
    """
    total = 0j
    comp = 0j   # Kahan compensation
    checkpoints = []
    next_mark = 2
    for p in primes_upto(X):
        if p not in local_factors:
            raise MissingPrimeError(p)
        poly = local_factors[p]
        if poly.degree == 0:
            continue
        while p > next_mark:
            checkpoints.append((next_mark, np.exp(total)))
            next_mark *= 2
        try:
            val = poly.evaluate(p ** (-s))
        except OverflowError:
            val = math.inf
        if not cmath.isfinite(val):
            raise ValueError(f"p^(-s) or its local factor at p = {p}, s = {s} "
                             f"is beyond the float range")
        if abs(val) < 1e-12:
            raise LocalPoleError(p, s)
        term = -np.log(val) - comp
        t = total + term
        comp = (t - total) - term
        total = t
    value = np.exp(total)
    checkpoints.append((X, value))
    return PartialProductTrace(complex(value), checkpoints,
                               outside_convergence=(complex(s).real <= 1.0))


def dirichlet_sum(s: complex, coeffs: CoefficientTable) -> complex:
    """Plain truncated Dirichlet series, the cross-check partner of partial_L."""
    n = np.arange(1, coeffs.n_max + 1, dtype=np.float64)
    return complex(np.sum(coeffs.values[1:] * n ** (-complex(s))))


# --- smoothed completed-value machinery -----------------------------------

@dataclass(frozen=True)
class AFEConfig:
    """Archimedean data and evaluation parameters for a completed L-function.

    Each gamma shift is one Gamma_C factor, so the degree is 2 len(gamma_shifts).
    x_scale controls how far the smoothed sum is unbalanced: reflected terms
    carry weights V(n * x_scale), and the module docstring gives the size of
    the dropped reflected term.  Higher degrees decay more slowly and need a
    larger x_scale (with a correspondingly larger cutoff).
    """

    gamma_shifts: Tuple[float, ...]
    conductor: int = 1
    self_dual: bool = True
    cutoff: int = 0               # 0 = derive from the analytic conductor
    x_scale: float = 16.0         # reflection-suppression scale

    def __post_init__(self):
        shifts = tuple(float(k) for k in self.gamma_shifts)
        if not shifts or not all(map(math.isfinite, shifts)):
            raise ValueError(f"gamma_shifts must be nonempty and finite, got {shifts}")
        if not (math.isfinite(self.x_scale) and self.x_scale > 0):
            raise ValueError(f"x_scale must be a finite number > 0, got {self.x_scale}")
        if not self.conductor >= 1:
            raise ValueError(f"conductor must be >= 1, got {self.conductor}")
        if not self.cutoff >= 0:
            raise ValueError(f"cutoff must be >= 0, got {self.cutoff}")
        object.__setattr__(self, "gamma_shifts", shifts)


def delta_sym3_config(cutoff: int = 4000) -> AFEConfig:
    """Shipped configuration for the symmetric cube of the weight-12 level-1 form."""
    return AFEConfig(gamma_shifts=(5.5, 16.5), conductor=1,
                     self_dual=True, cutoff=cutoff)


# Stirling series of log Gamma: B_2k / (2k (2k - 1)) for k = 1..9.  At
# |z| >= _STIRLING_MIN with Re(z) >= 0 the first omitted term is below 2e-16.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400, 43867 / 244188)
_STIRLING_MIN = 10.0
# arguments per block of _loggamma: the blocks bound the memory of its dozen
# temporaries, not its time (a 1000-point scan batch, 642 000 arguments,
# peaks at about 10 MiB blocked and 72 MiB at once; speed is about the same)
_LOGGAMMA_BLOCK = 4096


def _log(z: np.ndarray) -> np.ndarray:
    """Principal log of a complex array as log|z| + i arg z, arg in [-pi, pi]
    (the branch of np.log, at about half its cost on complex arrays)."""
    out = np.empty_like(z)
    out.real = np.log(np.abs(z))
    out.imag = np.arctan2(z.imag, z.real)
    return out


def _loggamma(w) -> np.ndarray:
    """log Gamma(w) elementwise, on the principal branch (that of
    scipy.special.loggamma: continuous off the negative real axis).

    An argument with |w| < _STIRLING_MIN or Re(w) < 0 is first moved to
    z = w + m with Re(z) >= _STIRLING_MIN, by
    log Gamma(w) = log Gamma(z) - sum_{j<m} log(w + j) with one principal
    log per factor, which keeps the branch for every w off the poles.
    """
    w = np.asarray(w, dtype=np.complex128)
    flat = w.ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _LOGGAMMA_BLOCK):
        out[i:i + _LOGGAMMA_BLOCK] = _loggamma_block(flat[i:i + _LOGGAMMA_BLOCK])
    return out.reshape(w.shape)


def _loggamma_block(w: np.ndarray) -> np.ndarray:
    """_loggamma of a 1-d block of arguments."""
    near = (np.abs(w) < _STIRLING_MIN) | (w.real < 0)
    w_near = w[near]
    m = np.ceil(_STIRLING_MIN - w_near.real)
    # row j holds the factors w + j, and 1 (log 1 = 0) where j >= m; the rows are
    # added in order (a sum() may pair them), so that no value depends on
    # the other arguments of the call
    j = np.arange(m.max(initial=0))[:, None]
    logs = np.zeros_like(w_near)
    for row in _log(np.where(j < m, w_near + j, 1)):
        logs += row
    z = w.copy()
    z[near] = w_near + m
    r = 1 / z
    r2 = r * r
    tail = np.full_like(z, _STIRLING[-1])
    for c in _STIRLING[-2::-1]:
        tail *= r2
        tail += c
    tail *= r
    # (z - 1/2) log z - z + log(2 pi) / 2 + tail, in place
    out = z - 0.5
    out *= _log(z)
    out -= z
    out += 0.5 * LOG_2PI
    out += tail
    out[near] -= logs
    return out


def _log_gamma_factor(s: np.ndarray, cfg: AFEConfig) -> np.ndarray:
    """log(conductor^{s/2} prod_j Gamma_C(s + kappa_j)), elementwise."""
    w = s[..., None] + np.array(cfg.gamma_shifts)
    factors = math.log(2.0) - w * LOG_2PI + _loggamma(w)
    lg = 0.5 * s * math.log(cfg.conductor)
    for k in range(len(cfg.gamma_shifts)):
        lg = lg + factors[..., k]
    return lg


def gamma_completed(s, cfg: AFEConfig):
    """conductor^{s/2} * prod_j Gamma_C(s + kappa_j), Gamma_C(w) = 2 (2pi)^{-w} Gamma(w),
    at a point (a complex number) or elementwise over a sequence of points;
    ValueError at a non-finite point."""
    s = np.asarray(s, dtype=np.complex128)
    for z in s[~np.isfinite(s)].flat:
        _check_finite(complex(z))
    return np.exp(_log_gamma_factor(s, cfg))


def analytic_conductor(s: complex, cfg: AFEConfig) -> float:
    """conductor * prod_j |(s + kappa_j) / 2pi|^2; ValueError at a non-finite point or value."""
    _check_finite(complex(s))
    try:
        out = float(cfg.conductor)
        for k in cfg.gamma_shifts:
            out *= abs((complex(s) + k) / (2 * math.pi)) ** 2
    except OverflowError:
        out = math.inf
    if out == math.inf:
        raise ValueError(f"the analytic conductor at s = {s} is past the float range")
    return out


def default_cutoff(s: complex, cfg: AFEConfig) -> int:
    _check_point(complex(s))
    base = math.ceil(10.0 * math.sqrt(analytic_conductor(s, cfg)))
    return max(64, int(base * cfg.x_scale))


# quadrature for the vertical-line kernel: contour Re(u) = _CONTOUR,
# trapezoid step _STEP, truncation at +-_VMAX; the integrand decays like the
# Gamma_C product, i.e. faster than e^{-pi |v|} for degree >= 4.  The
# trapezoid error is the aliased pole of 1/u, about e^{-2 pi _CONTOUR / _STEP}
# (module docstring)
_CONTOUR = 2.5
_STEP = 0.25
_VMAX = 40.0
# largest supported |Im s|: the kernel sum cancels by about e^{pi |Im s|} and
# the weights peak near v = -Im s, so accuracy falls as |Im s| grows (at
# Re s = 3 the relative error against the Euler product is 9e-10 at
# |Im s| = 6, 2e-9 at 7 and 6e2 at 20).  The corner with _MAX_RE is less
# accurate than either axis: along |Im s| = 6 the error against the plain
# Dirichlet series peaks near Re s = 11, at 1.9e-9 (5.8e-10 at 12 +- 6i)
_MAX_IM = 6.0
# largest supported Re s: accuracy also falls as Re s grows.  Largest
# relative error of Lambda(s)/gamma(s) against the plain Dirichlet series
# (sym3 of Delta, 8192 terms, cutoff 4000, Im s = 0, Re s in steps of 0.02)
# on [3, 4]: 7.5e-11, [9, 10]: 5.6e-10, [11, 12]: 1.0e-9, [12, 13]: 1.2e-9,
# [14, 15]: 1.9e-9, [19, 20]: 5.5e-9; 4.5e-8 at 40, 2.4e-6 at 50, 1.3e-4 at
# 60 and 1.07 at 100; from about Re s = 146 the sum overflows.  At
# |Im s| = 6 the error is larger: 1.9e-9 at 11 +- 6i (see _MAX_IM)
_MAX_RE = 12.0


# _kernel_sums relies on the nodes being an exact arithmetic progression: the
# real part is constant and the imaginary parts are spaced exactly _STEP apart
_NODES = _CONTOUR + 1j * np.arange(-_VMAX, _VMAX + _STEP / 2, _STEP)
# node k = _BABY * j + m is the giant step _NODES[_BABY * j] plus the baby
# step i * _STEP * m, so y^{-u_k} factors as the product of their powers
_BABY = 16
_GIANT = -(-len(_NODES) // _BABY)
# rows of log y the kernel factors are built for at once; bounds its memory
_BLOCK = 2048


def _kernel_weights(s, cfg: AFEConfig) -> np.ndarray:
    """Quadrature weights at the shared nodes u = _NODES; only these depend on s.

    One row per point when s is a sequence of points.
    """
    u = _NODES
    lg = _log_gamma_factor(np.add.outer(np.asarray(s, dtype=np.complex128), u), cfg)
    return np.exp(lg) / u * (_STEP / (2 * math.pi))


def _powers(logy: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The giant steps P = y^{-_NODES[_BABY * j]} and the baby steps
    Q = y^{-i _STEP m} of y = exp(logy), for one block of at most _BLOCK rows.

    Each factor is exponentiated in place, so a block holds no temporary
    beside its two factors.
    """
    P = np.outer(logy, -_NODES[::_BABY])
    Q = np.outer(logy, -1j * _STEP * np.arange(_BABY))
    return np.exp(P, out=P), np.exp(Q, out=Q)


def _kernel_sums(blocks: Iterable[Tuple[np.ndarray, np.ndarray]],
                 weights: Sequence[np.ndarray],
                 lengths: Sequence[int]) -> List[np.ndarray]:
    """V_p = exp(-outer(logy[:lengths[p]], u)) @ weights[p] for every p, with
    u = _NODES, without forming that matrix; blocks are the _powers of
    consecutive _BLOCK-row slices of logy, and must cover at least
    max(lengths) rows (blocks past those rows are not drawn).

    With k = _BABY * j + m, y^{-u_k} = P[n, j] * Q[n, m] for the giant steps
    P = y^{-_NODES[_BABY * j]} and the baby steps Q = y^{-i _STEP m}, so
    V_p[n] = sum_j P[n, j] * (Q @ W_p)[n, j] with W_p[m, j] = weights[p][k]
    (zero past the last node): _BABY + _GIANT = 37 exponentials a row
    instead of len(_NODES) = 321, 592 bytes a row.  Each block is shared by
    every point; each point has its own product, so its value does not
    depend on the other points of the batch.
    """
    W = np.zeros((len(weights), _GIANT * _BABY), dtype=np.complex128)
    for row, w in zip(W, weights):
        row[:len(_NODES)] = w
    W = W.reshape(len(weights), _GIANT, _BABY).transpose(0, 2, 1)
    out = [np.empty(n, dtype=np.complex128) for n in lengths]
    for i, (P, Q) in zip(range(0, max(lengths, default=0), _BLOCK), blocks):
        for V, W_p in zip(out, W):
            rows = len(V) - i
            if rows > 0:
                V[i:i + _BLOCK] = np.einsum("nj,nj->n", P[:rows], Q[:rows] @ W_p)
    return out


@functools.lru_cache(maxsize=4)
def _afe_block(start: int, stop: int, x_scale: float) -> Tuple[np.ndarray, np.ndarray]:
    """The read-only _powers of log(n / x_scale), start < n <= stop: one of the
    _BLOCK-row blocks of afe_values, 4 of them (4.9 MB) kept at most.  Keyed on
    the exact stop, so the last block of a short table is never cut from a
    longer table's block, whose values could round differently."""
    block = _powers(np.log(np.arange(start + 1, stop + 1, dtype=np.float64) / x_scale))
    for factor in block:
        factor.flags.writeable = False
    return block


# a derived sum length whose tail is not yet negligible is redone once at
# this many times its length
_RETRY = 2


class CutoffTooSmall(ValueError):
    def __init__(self, needed: int, given: int):
        self.needed, self.given = needed, given
        super().__init__(
            f"cutoff {given} too small for target accuracy; need about {needed}")


def _check_finite(s: complex) -> None:
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError(f"s = {s} is not a finite point")


def _check_point(s: complex) -> None:
    """ValueError unless afe_values supports s (see its docstring)."""
    _check_finite(s)
    if s.real + _CONTOUR <= 1.05:
        raise ValueError(f"Re(s) = {s.real} below the supported strip")
    if s.real > _MAX_RE:
        raise ValueError(f"Re(s) = {s.real} above the supported Re(s) <= {_MAX_RE:g}")
    if abs(s.imag) > _MAX_IM:
        raise ValueError(f"Im(s) = {s.imag} outside the supported "
                         f"|Im(s)| <= {_MAX_IM:g}")


@np.errstate(over="ignore", invalid="ignore")   # a non-finite sum raises ValueError below
def afe_values(points: Sequence[complex], cfg: AFEConfig,
               coeffs: CoefficientTable) -> List[complex]:
    """Completed values Lambda(s) at every point, each up to the dropped
    reflected term (its size is in the module docstring).

    Supported for 1 - _CONTOUR + 0.05 < Re(s) <= _MAX_RE (the contour must
    stay inside the region of absolute convergence of the shifted series)
    and |Im(s)| <= _MAX_IM (ValueError otherwise); the relative error is
    about 1e-9 on either axis bound and up to 1.9e-9 at their corner
    (11 +- 6i; comments at _MAX_IM and _MAX_RE).  Every point
    is validated before any sum is formed.  The powers y^{-u} at
    y = n / x_scale do not depend on s: their giant-step and baby-step
    factors (see _kernel_sums) are built once per block of _BLOCK values of
    n for the whole batch, and the last four blocks drawn are kept for later
    calls with the same x_scale (_afe_block), so after any sequence of calls
    at most 4.9 MB of them are held.  Raises CutoffTooSmall when the tail of
    a smoothed sum is not yet negligible, at a configured cutoff at once and
    at a derived one (cfg.cutoff = 0) after one retry at twice its length,
    and ValueError at a point whose sum or gamma scale is not finite.
    """
    points = [complex(s) for s in points]
    cutoffs = []
    for s in points:
        _check_point(s)
        cutoff = afe_rows([s], cfg)
        if coeffs.n_max < cutoff:
            raise CutoffTooSmall(cutoff, coeffs.n_max)
        cutoffs.append(cutoff)
    rows = max(cutoffs, default=0)
    n_all = np.arange(1, rows + 1, dtype=np.float64)
    blocks = (_afe_block(i, min(i + _BLOCK, rows), cfg.x_scale)
              for i in range(0, rows, _BLOCK))
    kernels = _kernel_sums(blocks, _kernel_weights(points, cfg), cutoffs)
    scales = np.abs(gamma_completed(points, cfg)).tolist()
    values = []
    for s, cutoff, V, scale in zip(points, cutoffs, kernels, scales):
        n = n_all[:cutoff]
        terms = coeffs.values[1:cutoff + 1] * n ** (-s) * V
        total = complex(np.sum(terms))
        if not math.isfinite(abs(total) + scale):   # NaN or inf in either
            raise ValueError(f"the smoothed sum at s = {s} is not finite: the gamma "
                             f"shifts or the conductor are past the float range")
        tail = float(np.sum(np.abs(terms[-16:])))
        if tail > 1e-9 * max(abs(total), scale):
            if cfg.cutoff or coeffs.n_max < _RETRY * cutoff:
                raise CutoffTooSmall(_RETRY * cutoff, cutoff)
            total = afe_value(s, replace(cfg, cutoff=_RETRY * cutoff), coeffs)
        values.append(total)
    return values


def afe_rows(points: Sequence[complex], cfg: AFEConfig) -> int:
    """The coefficient rows afe_values reads at the points, before a retry:
    cfg.cutoff, or else the longest derived length."""
    return cfg.cutoff or max(default_cutoff(s, cfg) for s in points)


def afe_value(s: complex, cfg: AFEConfig, coeffs: CoefficientTable) -> complex:
    """Completed value Lambda(s): the one-point case of afe_values."""
    return afe_values([s], cfg, coeffs)[0]


@dataclass
class EpsilonReport:
    points: List[complex]
    estimates: List[complex]
    max_pairwise_deviation: float
    modulus_deviation: float
    skipped: List[complex] = field(default_factory=list)


# epsilon_probe's scales X = 1/2 and 2: at 1 - s the sum at x_scale X gives
# G_{1/X}, so two x_scale keys, whose blocks and the scan's two fit the four
# _afe_block keeps
_PROBE_SCALES = (0.5, 2.0)


def epsilon_probe(points: Sequence[complex], cfg: AFEConfig,
                  coeffs: CoefficientTable) -> EpsilonReport:
    """Solve Lambda(s) = F_X(s) + eps G_X(s) for the root number at each point.

    F_X is the smoothed sum at s with x_scale X and G_X the reflected one,
    the smoothed sum at 1 - s with x_scale 1/X; the two scales X = 1/2 and 2
    give eps = (F_{1/2} - F_2) / (G_2 - G_{1/2}).  Every sum takes its derived
    length, whatever cfg.cutoff and cfg.x_scale say.  Constancy across
    points and |eps| = 1 validate the gamma configuration; points where the
    denominator sits below the noise floor are skipped.  The point s = 1/2,
    where 1 - s = s and eps = 1 for any data, is refused with ValueError, and
    so is one point on Re(s) = 1/2, repeated or not: there G_X(s) is the
    conjugate of F_{1/X}(s), so |eps| = 1 for any real series whatever the
    gamma configuration.
    """
    if not cfg.self_dual:
        raise ValueError("root-number probe requires self-dual data")
    points = [complex(s) for s in points]
    if 0.5 in points:
        raise ValueError("s = 0.5 is its own reflection 1 - s, where the "
                         "solved root number is 1 for any data")
    n = len(points)
    both = points + [1 - s for s in points]
    sums = [afe_values(both, replace(cfg, cutoff=0, x_scale=x), coeffs) for x in _PROBE_SCALES]
    # after the sums, which report a point outside their support first
    if len(set(points)) < 2 and all(s.real == 0.5 for s in points):
        raise ValueError("one point on Re(s) = 1/2 checks nothing: there the solved "
                         "|eps| = 1 for any real series; add a second point")
    gammas = np.abs(gamma_completed(points, cfg)).tolist()
    used, estimates, skipped = [], [], []
    for i, (s, gamma) in enumerate(zip(points, gammas)):
        (f_half, g_two), (f_two, g_half) = ((v[i], v[n + i]) for v in sums)
        den = g_two - g_half
        if abs(den) < 1e-13 * gamma:
            skipped.append(s)
            continue
        used.append(s)
        estimates.append((f_half - f_two) / den)
    if not estimates:
        return EpsilonReport([], [], math.inf, math.inf, skipped)
    dev = max((abs(a - b) for a in estimates for b in estimates), default=0.0)
    mdev = max(abs(abs(e) - 1.0) for e in estimates)
    return EpsilonReport(used, estimates, dev, mdev, skipped)


def probe_rows(points: Sequence[complex], cfg: AFEConfig) -> int:
    """The coefficient rows epsilon_probe reads at most: the longest derived
    length of its sums at the points and their reflections, retried once."""
    both = [complex(s) for s in points] + [1 - complex(s) for s in points]
    return _RETRY * max(afe_rows(both, replace(cfg, cutoff=0, x_scale=x)) for x in _PROBE_SCALES)


VERDICT_CONSISTENT = "consistent-with-holomorphy"
VERDICT_FLAGGED = "growth-flagged"


@dataclass
class PoleScanReport:
    grid: List[float]
    values: List[complex]
    normalized: List[float]       # |Lambda(sigma) / gamma(sigma)|
    max_normalized: float
    threshold: float
    verdict: str
    flagged_points: List[float]


def pole_scan(interval: Tuple[float, float], grid: int, cfg: AFEConfig,
              coeffs: CoefficientTable, threshold: float = 3.0) -> PoleScanReport:
    """Evaluate the completed function on a real grid and judge boundedness.

    This is a consistency check, not a proof: the verdict reports whether the
    gamma-normalized values stay below the configured threshold.  An Euler
    factor with a pole in the interval inflates them well past it.
    """
    a, b = float(interval[0]), float(interval[1])
    if not math.isfinite(b - a):
        raise ValueError(f"the interval [{a}, {b}] has no finite length")
    if grid < 1 or (grid < 2 and a != b):
        raise ValueError("grid must have at least 2 points on a real interval")
    sigmas = [a] if a == b else [a + (b - a) * i / (grid - 1) for i in range(grid)]
    values = afe_values(sigmas, cfg, coeffs)
    gammas = np.abs(gamma_completed(sigmas, cfg)).tolist()
    normalized, flagged = [], []
    for sg, val, gamma in zip(sigmas, values, gammas):
        norm = abs(val) / gamma
        normalized.append(norm)
        if norm > threshold:
            flagged.append(sg)
    mx = max(normalized)
    verdict = VERDICT_FLAGGED if flagged else VERDICT_CONSISTENT
    return PoleScanReport(sigmas, values, normalized, mx, threshold, verdict, flagged)


def inject_pole_factor(coeffs: CoefficientTable, p: int, sigma0: float) -> CoefficientTable:
    """Multiply the Dirichlet series by (1 - p^{sigma0 - s})^{-1}.

    Negative-control helper: the product acquires a pole at s = sigma0, which
    pole_scan must flag.  p must be an int >= 2.
    """
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"the injected factor needs an integer p >= 2, got {p!r}")
    N = coeffs.n_max
    lam = coeffs.values.copy()
    k, pk = 1, p
    try:
        w = float(p) ** float(sigma0)
        while pk <= N:
            lam[pk::pk] += (w ** k) * coeffs.values[1:N // pk + 1]
            k += 1
            pk *= p
    except OverflowError:
        raise ValueError(f"{p}^({k} sigma0) overflows at sigma0 = {sigma0}") from None
    return CoefficientTable(lam)
