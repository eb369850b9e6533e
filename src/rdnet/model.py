"""Network data model and sampled verification of the standing assumptions.

Activation functions come from a small registry (the concrete functions the
source examples use, plus tabulated data). Global quantified conditions on
the activations are checked on user-set sample boxes; a verdict never claims
validity beyond the box it was sampled on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import RectDomain, first_eigenvalue

DEFAULT_BOX_HALFWIDTH = 100.0
DEFAULT_SAMPLES = 10_000


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
    tails = 3.0 * k * signed_cbrt(u) - 2.0 * k * np.sign(u)
    return np.where(np.abs(u) <= 1.0, core, tails)


def piecewise_cbrt_antiderivative(u, d: float, a: float, mu1: float):
    """Antiderivative of piecewise_cbrt with F(0) = 0."""
    k = d / a * mu1
    u = np.asarray(u, dtype=float)
    core = 0.5 * k * u**2
    tails = 2.25 * k * np.power(np.abs(u), 4.0 / 3.0) - 2.0 * k * np.abs(u) + 0.25 * k
    return np.where(np.abs(u) <= 1.0, core, tails)


def _tabulated(p):
    xs, ys = np.asarray(p["x"], dtype=float), np.asarray(p["y"], dtype=float)
    if xs.ndim != 1 or xs.shape != ys.shape or xs.size < 2:
        raise ValueError("tabulated activation needs matching 1D x/y arrays")
    return lambda s: np.interp(s, xs, ys), None


# The activation registry: name -> builder(params) returning the activation
# and its antiderivative vanishing at 0 (None where there is no closed form),
# both elementwise on float arrays of any shape. An activation and its
# antiderivative give the same bits on a Python float as on a 1-element array
# (simulate_ode relies on it for the activation).
ACTIVATIONS = {
    "affine": lambda p: (lambda s: p["a"] * s + p["b"],
                         lambda s: 0.5 * p["a"] * s**2 + p["b"] * s),
    "identity": lambda p: (lambda s: s * 1.0, lambda s: 0.5 * s**2),
    "scaled_sine": lambda p: (
        lambda s: p["a"] + p["b"] * s + p["c"] * np.sin(s),
        lambda s: p["a"] * s + 0.5 * p["b"] * s**2 + p["c"] * (1.0 - np.cos(s))),
    "piecewise_cbrt": lambda p: (
        lambda s: piecewise_cbrt(s, p["d"], p["a_weight"], p["mu1"]),
        lambda s: piecewise_cbrt_antiderivative(s, p["d"], p["a_weight"], p["mu1"])),
    "saturation": lambda p: (lambda s: np.clip(s, p.get("lo", -1.0), p.get("hi", 1.0)),
                             None),
    "tabulated": _tabulated,
}


def _registry_entry(name: str, params: dict) -> tuple[Callable, Callable | None]:
    if name not in ACTIVATIONS:
        raise KeyError(f"unknown activation '{name}'")
    return ACTIVATIONS[name](dict(params))


def make_activation_fn(name: str, params: dict) -> Callable[[np.ndarray], np.ndarray]:
    """Build a scalar activation from the registry."""
    fn, _ = _registry_entry(name, params)
    return lambda s: fn(np.asarray(s, dtype=float))


def make_activation_antiderivative(name: str, params: dict) -> Callable[[np.ndarray], np.ndarray]:
    """Antiderivative (vanishing at 0) for registry activations that admit one."""
    _, antiderivative = _registry_entry(name, params)
    if antiderivative is None:
        raise KeyError(f"no closed antiderivative for activation '{name}'")
    return lambda s: antiderivative(np.asarray(s, dtype=float))


@dataclass(frozen=True)
class Activation:
    """Per-neuron scalar activations with declared Lipschitz constants.

    is_uniform is True when every neuron has the same name and params."""

    names: tuple[str, ...]
    params: tuple[tuple, ...]          # frozen (key, value) pairs per neuron
    lipschitz: tuple[float, ...]       # declared constants G_i > 0

    def __post_init__(self):
        if not (len(self.names) == len(self.params) == len(self.lipschitz)):
            raise ValueError("per-neuron field lengths differ")
        if any(g <= 0 for g in self.lipschitz):
            raise ValueError("Lipschitz constants must be positive")
        # registry functions, built once; a uniform bundle takes one vectorised call
        object.__setattr__(self, "_fns", tuple(
            _registry_entry(name, dict(p))[0] for name, p in zip(self.names, self.params)))
        object.__setattr__(self, "is_uniform", len(set(self.names)) <= 1
                           and all(p == self.params[0] for p in self.params))

    @classmethod
    def uniform(cls, name: str, params: dict, lipschitz: float, n: int) -> "Activation":
        frozen = tuple(sorted(params.items()))
        return cls((name,) * n, (frozen,) * n, (lipschitz,) * n)

    @classmethod
    def per_neuron(cls, specs: Sequence[tuple[str, dict, float]]) -> "Activation":
        names, params, lip = zip(*[(s[0], tuple(sorted(s[1].items())), s[2]) for s in specs])
        return cls(names, params, lip)

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def G(self) -> np.ndarray:
        """Lipschitz matrix diag(G_1, ..., G_n)."""
        return np.diag(self.lipschitz)

    def component(self, i: int) -> Callable[[np.ndarray], np.ndarray]:
        return make_activation_fn(self.names[i], dict(self.params[i]))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        """Apply componentwise; v has the component index on axis 0."""
        v = np.asarray(v, dtype=float)
        if v.shape[0] != len(self.names):
            raise ValueError(f"expected {self.n} components, got {v.shape[0]}")
        if self.is_uniform:
            return self._fns[0](v)
        return np.stack([fn(vi) for fn, vi in zip(self._fns, v)])


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
    delay: Callable[[float], float] | None = None

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
        if self.delay is None:
            object.__setattr__(self, "delay", constant_delay(self.tau_max))

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


def _sample_box(box: np.ndarray, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Latin-hypercube sample of the box; shape (samples, n)."""
    lo, hi = box[:, 0], box[:, 1]
    n = box.shape[0]
    u = (rng.permuted(np.tile(np.arange(samples), (n, 1)), axis=1).T
         + rng.random((samples, n))) / samples
    return lo + u * (hi - lo)


def _as_box(box, n: int) -> np.ndarray:
    box = np.asarray(box, dtype=float)
    if box.ndim == 1:
        box = np.tile(box, (n, 1))
    if box.shape != (n, 2) or np.any(box[:, 0] >= box[:, 1]):
        raise ValueError("box must give a nonempty interval per neuron")
    return box


def check_A1_sampled(activation: Activation, box=None, samples: int = DEFAULT_SAMPLES,
                     seed: int = 0) -> Verdict:
    """Sampled Lipschitz check: |g_i(s) - g_i(t)| <= G_i |s - t| on the box.

    Samples pairs per neuron plus close pairs (finite-difference slopes);
    reports the worst ratio over all neurons relative to its G_i.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    n = activation.n
    box = _as_box(box if box is not None else [-DEFAULT_BOX_HALFWIDTH, DEFAULT_BOX_HALFWIDTH], n)
    rng = np.random.default_rng(seed)
    worst = 0.0
    witness = None
    for i in range(n):
        g = activation.component(i)
        lo, hi = box[i]
        s = rng.uniform(lo, hi, samples)
        t = rng.uniform(lo, hi, samples)
        # slope probes at small separation catch the local Lipschitz constant
        eps = 1e-6 * (hi - lo)
        s = np.concatenate([s, s])
        t = np.concatenate([t, np.clip(s[:samples] + eps, lo, hi)])
        gs, gt = g(s), g(t)
        if not (np.all(np.isfinite(gs)) and np.all(np.isfinite(gt))):
            raise FloatingPointError(f"activation {i} returned non-finite values")
        ds = np.abs(s - t)
        mask = ds > 0
        ratios = np.abs(gs[mask] - gt[mask]) / ds[mask]
        rel = ratios / activation.lipschitz[i]
        j = int(np.argmax(rel))
        if rel[j] > worst:
            worst = float(rel[j])
            witness = np.array([s[mask][j], t[mask][j]])
    # worst is relative to G_i; report the raw ratio of the worst neuron
    return Verdict(holds=worst <= 1.0 + 1e-9, worst_ratio=worst, witness=witness)


def stationarity_map(mode: Mode, activation: Activation, v: np.ndarray) -> np.ndarray:
    """-C v + A g(v) + B g(v) + J, columnwise for v of shape (n, k)."""
    gv = activation(v)
    return -mode.C @ v + (mode.A + mode.B) @ gv + mode.J[:, None]


def check_A2_on_box(mode: Mode, activation: Activation, c: float, box=None,
                    samples: int = DEFAULT_SAMPLES, signed: bool = True,
                    seed: int = 0) -> Verdict:
    """Sampled boundedness check of the stationarity map against c * D * 1.

    signed=True requires 0 <= map <= c D 1 componentwise; signed=False only
    the absolute bound (the variant admitting sign-changing solutions).
    Returns the first violating sample as witness, if any.
    """
    if c <= 0:
        raise ValueError("c must be positive")
    n = mode.n
    box = _as_box(box if box is not None else [-DEFAULT_BOX_HALFWIDTH, DEFAULT_BOX_HALFWIDTH], n)
    rng = np.random.default_rng(seed)
    v = _sample_box(box, samples, rng).T            # (n, samples)
    vals = stationarity_map(mode, activation, v)    # (n, samples)
    bound = c * np.diag(mode.D)[:, None]
    ratio = np.abs(vals) / bound
    ok = np.all(ratio <= 1.0, axis=0)
    if signed:
        ok &= np.all(vals >= 0.0, axis=0)
    worst = float(ratio.max())
    if np.all(ok):
        return Verdict(holds=True, worst_ratio=worst)
    bad = int(np.argmin(ok))
    return Verdict(holds=False, worst_ratio=worst, witness=v[:, bad].copy())
