"""Network data model and sampled verification of the standing assumptions.

Activation functions come from a small registry (the concrete functions the
source examples use, plus tabulated data). Global quantified conditions on
the activations are checked on user-set sample boxes; a verdict never claims
validity beyond the box it was sampled on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

from .geometry import SPLIT_MIN_NODES, RectDomain, _each_component, first_eigenvalue

DEFAULT_BOX_HALFWIDTH = 100.0
DEFAULT_SAMPLES = 10_000

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_LANES = 512   # states per block of the vectorized stream
_JUMP_MULT = pow(_PCG64_MULT, _LANES, 1 << 128)   # A: _LANES steps at once


def _pcg64_seed(seed: int) -> tuple[int, int]:
    """(state, increment) of np.random.PCG64(seed): SeedSequence's hash mix
    of the seed's 32-bit words into a 4-word pool, 4 uint64 words generated
    from it, then pcg64_srandom_r."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy += [0] * (4 - len(entropy))
    mult = 0x43B0D7E5

    def hashmix(v):
        nonlocal mult
        v ^= mult
        mult = mult * 0x931E8875 & _M32
        v = v * mult & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        pool = [mix(p, hashmix(w)) for p in pool]
    words, mult = [], 0x8B51F9DD
    for i in range(8):
        v = pool[i % 4] ^ mult
        mult = mult * 0x58F38DED & _M32
        v = v * mult & _M32
        words.append(v ^ v >> 16)
    # uint32 pairs read little-endian as the uint64 words w0..w3, then
    # initstate = w0:w1 and initseq = w2:w3 as 128-bit (high, low) pairs
    w = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    return ((inc + (w[0] << 64 | w[1])) * _PCG64_MULT + inc) & _M128, inc


def seeded_uniforms(seed: int, count: int) -> np.ndarray:
    """The first count doubles in [0, 1) of np.random.default_rng(seed).random,
    bit for bit; Generator.uniform(lo, hi) would give lo + (hi - lo) * d.

    The PCG64 stream (O'Neill, HMC-CS-2014-0905: a 128-bit LCG with XSL-RR
    output, each draw (next_uint64 >> 11) * 2**-53) is computed in-repo, so
    numpy.random is never imported. The first _LANES states run in Python
    ints; each later block of _LANES states is the block before it jumped
    ahead _LANES steps at once, s <- A s + C mod 2**128 (Brown, Trans. Am.
    Nucl. Soc. 71, 1994), lanewise on (high, low) uint64 words. 40,000
    draws take about 5 ms (one core of a 2-vCPU host, numpy 2.4); importing
    numpy.random costs 13-20 ms and 3-5 MB resident.
    """
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    start, inc = _pcg64_seed(seed)
    first, state = [], start
    for _ in range(min(count, _LANES)):
        state = (state * _PCG64_MULT + inc) & _M128
        first.append(state)
    # C of the jump, valid when a second block follows (the first is then full)
    jump_inc = (state - _JUMP_MULT * start) & _M128
    u64 = np.uint64
    m32, s32 = u64(_M32), u64(32)
    c_hi, c_lo = u64(jump_inc >> 64), u64(jump_inc & _M64)
    a_hi, a_lo, a1, a0 = (u64(w) for w in (_JUMP_MULT >> 64, _JUMP_MULT & _M64,
                                           _JUMP_MULT >> 32 & _M32, _JUMP_MULT & _M32))
    hi = np.empty((-(-count // _LANES), len(first)), dtype=np.uint64)
    lo = np.empty_like(hi)
    hi[:1], lo[:1] = [s >> 64 for s in first], [s & _M64 for s in first]
    for b in range(1, len(hi)):
        h, l = hi[b - 1], lo[b - 1]
        # the high word of l * a_lo from 32-bit halves; the rest wraps mod 2**64
        l0, l1 = l & m32, l >> s32
        p01, p10 = l0 * a1, l1 * a0
        mid = (l0 * a0 >> s32) + (p01 & m32) + (p10 & m32)
        lo[b] = l * a_lo + c_lo
        hi[b] = (l1 * a1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32) + h * a_lo
                 + l * a_hi + c_hi + (lo[b] < c_lo))
    hi, lo = hi.ravel()[:count], lo.ravel()[:count]
    x = hi ^ lo
    rot = hi >> u64(58)
    x = x >> rot | x << (u64(64) - rot & u64(63))
    return (x >> u64(11)).astype(np.float64) * 2.0**-53


def signed_cbrt(u):
    """Real cube root, sign-preserving for negative arguments."""
    return np.sign(u) * np.power(np.abs(u), 1.0 / 3.0)


def piecewise_cbrt(u, d: float, a: float, mu1: float):
    """Piecewise cube-root activation: linear core, cube-root tails.

    (3D/A) mu1 u^(1/3) + (2D/A) mu1 for u <= -1, (D/A) mu1 u on [-1, 1],
    (3D/A) mu1 u^(1/3) - (2D/A) mu1 for u >= 1. Both tail branches meet the
    core continuously at u = +-1.
    """
    k = d / a * mu1
    u = np.asarray(u, dtype=float)
    core = k * u
    tails = 3.0 * k * (np.sign(u) * np.power(np.abs(u), 1.0 / 3.0)) - 2.0 * k * np.sign(u)
    return np.where(np.abs(u) <= 1.0, core, tails)


def piecewise_cbrt_antiderivative(u, d: float, a: float, mu1: float):
    """Antiderivative of piecewise_cbrt with F(0) = 0."""
    k = d / a * mu1
    u = np.asarray(u, dtype=float)
    core = 0.5 * k * u**2
    tails = 2.25 * k * np.power(np.abs(u), 4.0 / 3.0) - 2.0 * k * np.abs(u) + 0.25 * k
    return np.where(np.abs(u) <= 1.0, core, tails)


def _known(p, *keys) -> None:
    """Raise on a param not among keys, naming both."""
    unknown = [k for k in p if k not in keys]
    if unknown:
        raise ValueError(f"unknown activation params {unknown}, expected {list(keys)}")


def _floats(p, *keys) -> list[float]:
    """The named params as floats; an unknown, missing or non-numeric one raises."""
    _known(p, *keys)
    missing = [k for k in keys if k not in p]
    if missing:
        raise ValueError(f"missing activation params {missing}")
    return [float(p[k]) for k in keys]


def _affine(p):
    a, b = _floats(p, "a", "b")
    return lambda s: a * s + b, lambda s: 0.5 * a * s**2 + b * s


def _scaled_sine(p):
    a, b, c = _floats(p, "a", "b", "c")
    return (lambda s: a + b * s + c * np.sin(s),
            lambda s: a * s + 0.5 * b * s**2 + c * (1.0 - np.cos(s)))


def _piecewise_cbrt(p, fn=piecewise_cbrt, F=piecewise_cbrt_antiderivative):
    # bound at import, not looked up by name per call (see ACTIVATIONS)
    d, a, mu1 = _floats(p, "d", "a_weight", "mu1")
    return lambda s: fn(s, d, a, mu1), lambda s: F(s, d, a, mu1)


def _identity(p):
    _known(p)
    return lambda s: s * 1.0, lambda s: 0.5 * s**2


def _saturation(p):
    lo, hi = _floats({"lo": -1.0, "hi": 1.0, **p}, "lo", "hi")
    return lambda s: np.clip(s, lo, hi), None


def _tabulated(p):
    _known(p, "x", "y")
    xs, ys = np.asarray(p["x"], dtype=float), np.asarray(p["y"], dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("tabulated activation needs matching 1D x/y arrays")
    return lambda s: np.interp(s, xs, ys), None


# The activation registry: name -> builder(params) returning the activation
# and its antiderivative vanishing at 0 (None where there is no closed form),
# both elementwise on float arrays of any shape. A builder reads and checks
# its params when it runs, so a bad set, an unknown key included, fails
# before any evaluation. An activation and its antiderivative give the same
# bits on a Python float, on a 1-element array and elementwise in one call on
# a longer array (simulate_ode relies on it for the activation: it steps u on
# floats and evaluates each delay window's g(u(t - tau)) in one array call;
# Activation relies on it when it splits the components between two threads).
# A builder's functions call no public rdnet function by name: perfbench's
# tracer rebinds those names, and the worker thread must not enter its spans.
ACTIVATIONS = {
    "affine": _affine,
    "identity": _identity,
    "scaled_sine": _scaled_sine,
    "piecewise_cbrt": _piecewise_cbrt,
    "saturation": _saturation,
    "tabulated": _tabulated,
}


@dataclass(frozen=True)
class Activation:
    """One registry activation g applied to every neuron, with declared
    per-neuron Lipschitz constants G_i (assumption A1).

    fn and antiderivative are the registry entry, built once from name and
    params; both are elementwise, so they apply to every component at once.
    antiderivative is None where the registry has no closed form.
    """

    name: str
    params: Mapping                    # frozen, keys sorted, at construction
    lipschitz: tuple[float, ...]       # declared constants G_i > 0
    fn: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False,
                                                   compare=False)
    antiderivative: Callable[[np.ndarray], np.ndarray] | None = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(g <= 0 for g in self.lipschitz):
            raise ValueError("Lipschitz constants must be positive")
        frozen = MappingProxyType(dict(sorted(dict(self.params).items())))
        object.__setattr__(self, "params", frozen)
        if self.name not in ACTIVATIONS:
            raise KeyError(f"unknown activation '{self.name}'")
        fn, antiderivative = ACTIVATIONS[self.name](self.params)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "antiderivative", antiderivative)

    @classmethod
    def uniform(cls, name: str, params: Mapping, lipschitz: float, n: int) -> "Activation":
        return cls(name, params, (lipschitz,) * n)

    @property
    def n(self) -> int:
        return len(self.lipschitz)

    @property
    def G(self) -> np.ndarray:
        """Lipschitz matrix diag(G_1, ..., G_n)."""
        return np.diag(self.lipschitz)

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Apply componentwise; v has the component index on axis 0.

        With n > 1 components of at least SPLIT_MIN_NODES values each, fn
        runs on the rows of v, split between two threads by _each_component;
        fn is elementwise, so the bits are those of one call on all of v.
        """
        v = np.asarray(v, dtype=float)
        n = v.shape[0]
        if n != len(self.lipschitz):
            raise ValueError(f"expected {self.n} components, got {n}")
        if n < 2 or v[0].size < SPLIT_MIN_NODES:
            return self.fn(v)
        out = np.empty_like(v)

        def row(i):
            out[i] = self.fn(v[i])
        _each_component(row, n, v[0].size)
        return out


@dataclass(frozen=True)
class Mode:
    """One network configuration: diffusion, decay, couplings, input, domain."""

    D: np.ndarray
    C: np.ndarray
    A: np.ndarray
    B: np.ndarray
    J: np.ndarray
    domain: RectDomain
    lambda1: float = field(init=False)

    def __post_init__(self):
        for name in ("D", "C", "A", "B", "J"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        n = self.D.shape[0]
        for M in (self.D, self.C, self.A, self.B):
            if M.shape != (n, n):
                raise ValueError("matrix dimensions inconsistent")
        if self.J.shape != (n,):
            raise ValueError("input vector dimension inconsistent")
        for M, label in ((self.D, "D"), (self.C, "C")):
            if np.any(M != np.diag(np.diag(M))) or np.any(np.diag(M) <= 0):
                raise ValueError(f"{label} must be positive diagonal")
        object.__setattr__(self, "lambda1", first_eigenvalue(self.domain))

    @property
    def n(self) -> int:
        return self.D.shape[0]


def constant_delay(tau: float) -> Callable[[float], float]:
    return lambda t: tau


@dataclass(frozen=True)
class SwitchedNetwork:
    """N modes sharing an activation bundle, delay spec and switching data."""

    modes: tuple[Mode, ...]
    activation: Activation
    tau_max: float
    Psi: np.ndarray
    q: float = 1.00001
    gamma: float = 0.1
    delay: Callable[[float], float] | None = None   # tau(t); None: constant tau_max

    def __post_init__(self):
        if not self.modes:
            raise ValueError("need at least one mode")
        n = self.modes[0].n
        if any(m.n != n for m in self.modes) or self.activation.n != n:
            raise ValueError("mode/activation dimensions differ")
        object.__setattr__(self, "Psi", np.asarray(self.Psi, dtype=float))
        if self.Psi.shape != (n, n) or not np.allclose(self.Psi, self.Psi.T):
            raise ValueError("Psi must be symmetric n x n")
        if np.linalg.eigvalsh(self.Psi).min() <= 0:
            raise ValueError("Psi must be positive definite")
        if self.q <= 1:
            raise ValueError("q must exceed 1")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.tau_max < 0:
            raise ValueError("tau_max must be nonnegative")

    @property
    def n(self) -> int:
        return self.modes[0].n

    @property
    def N(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a sampled condition check."""

    holds: bool
    worst_ratio: float
    witness: np.ndarray | None = None


def _as_box(box, n: int) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = np.tile(box, (n, 1))
    if box.shape != (n, 2) or np.any(box[:, 0] >= box[:, 1]):
        raise ValueError("box must give a nonempty interval per neuron")
    return box


def check_A1_sampled(activation: Activation, box=None,
                     samples: int = DEFAULT_SAMPLES) -> Verdict:
    """Sampled Lipschitz check: |g_i(s) - g_i(t)| <= G_i |s - t| on the box.

    Samples pairs per neuron plus close pairs (finite-difference slopes);
    reports the worst ratio over all neurons relative to its G_i.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    n = activation.n
    box = _as_box(box if box is not None else [-DEFAULT_BOX_HALFWIDTH, DEFAULT_BOX_HALFWIDTH], n)
    # per neuron, s then t: Generator.uniform(lo, hi, samples) twice
    draws = seeded_uniforms(0, 2 * n * samples).reshape(n, 2, samples)
    worst = 0.0
    witness = None
    for i in range(n):
        lo, hi = box[i]
        draws[i] *= hi - lo
        draws[i] += lo
        s, t = draws[i]
        # slope probes at small separation catch the local Lipschitz constant
        near = np.clip(s + (1e-6 * (hi - lo)), lo, hi)
        gs, gt, gn = activation.fn(s), activation.fn(t), activation.fn(near)
        if not all(np.all(np.isfinite(g)) for g in (gs, gt, gn)):
            raise FloatingPointError(f"activation {i} returned non-finite values")
        # the far pairs (s, t), then the close pairs (s, near)
        for other, g_other in ((t, gt), (near, gn)):
            ds = np.abs(s - other)
            mask = ds > 0
            rel = np.abs(gs[mask] - g_other[mask]) / ds[mask] / activation.lipschitz[i]
            j = int(np.argmax(rel))
            if rel[j] > worst:
                worst = float(rel[j])
                witness = np.array([s[mask][j], other[mask][j]])
    # worst is the largest sampled slope over G_i, across all neurons
    return Verdict(holds=worst <= 1.0 + 1e-9, worst_ratio=worst, witness=witness)


def stationarity_map(mode: Mode, activation: Activation, v: np.ndarray) -> np.ndarray:
    """-C v + A g(v) + B g(v) + J, columnwise for v of shape (n, k)."""
    gv = activation(v)
    return -mode.C @ v + (mode.A + mode.B) @ gv + mode.J[:, None]
