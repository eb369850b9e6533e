"""Rectangular Dirichlet-zero domains and the discrete Laplacian.

Uniform tensor grids in 1D/2D, second-order centered differences,
Helmholtz solves in the discrete sine basis that diagonalizes them (a
stack's large components two at a time, on the caller and one worker
thread), and h-weighted L2 quadrature. Boundary nodes carry the value 0
identically and are never stored; every field lives on interior nodes.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# a grid's sine basis is a dense c x c matrix per axis: 32 MB at this count
MAX_AXIS_NODES = 2000
# components of at least this many nodes are worked two at a time; below it
# the worker's round trip (about 20 us) costs more than the second core saves
SPLIT_MIN_NODES = 64 * 64

_worker = None   # the executor of the one worker thread, made on first use
_worker_lock = threading.Lock()


def _drop_worker() -> None:
    """Forget the worker in a forked child, which has no copy of its thread."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_drop_worker)


def _each_component(fn, n: int, nodes: int) -> None:
    """fn(i) for i in range(n) over components of the given node count: the
    even i on the calling thread and the odd i on one worker thread shared
    by all callers, or every i on the calling thread for n = 1 or below
    SPLIT_MIN_NODES nodes.

    The worker is a ThreadPoolExecutor(1), imported on first use, as
    concurrent.futures loads logging. Returns once the worker has finished
    this call's jobs, also when the caller's part raises; a worker's error
    is raised after the caller's part. fn must call no public rdnet function,
    as perfbench's tracer rebinds those and keeps one span stack for all
    threads, and must not call _each_component, whose worker would then wait
    on itself.
    """
    global _worker
    if n < 2 or nodes < SPLIT_MIN_NODES:
        for i in range(n):
            fn(i)
        return
    with _worker_lock:
        if _worker is None:
            from concurrent.futures import ThreadPoolExecutor
            _worker = ThreadPoolExecutor(1)
        jobs = [_worker.submit(fn, i) for i in range(1, n, 2)]
    try:
        for i in range(0, n, 2):
            fn(i)
    finally:
        for job in jobs:
            job.exception()   # waits; a caller's error takes precedence
    for job in jobs:
        job.result()


@dataclass(frozen=True)
class RectDomain:
    """Open rectangle (0, l1) or (0, l1) x (0, l2) with zero boundary data."""

    lengths: tuple[float, ...]

    def __post_init__(self):
        if len(self.lengths) not in (1, 2):
            raise ValueError("only 1D and 2D rectangles are supported")
        if any(l <= 0 for l in self.lengths):
            raise ValueError("domain lengths must be positive")

    @property
    def dims(self) -> int:
        return len(self.lengths)


def first_eigenvalue(domain: RectDomain) -> float:
    """Smallest eigenvalue of -Laplace with zero boundary: sum (pi/l_i)^2."""
    return sum((math.pi / l) ** 2 for l in domain.lengths)


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid of interior nodes on a RectDomain."""

    domain: RectDomain
    counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.counts) != self.domain.dims:
            raise ValueError("counts must match domain dimension")
        if any(c < 3 or c > MAX_AXIS_NODES for c in self.counts):
            raise ValueError(f"need 3 to {MAX_AXIS_NODES} interior nodes per axis")
        if not all(0 < h * h < math.inf and 1.0 / (h * h) < math.inf for h in self.spacing):
            raise ValueError("grid spacing out of range: h^2 and h^-2 must be finite and positive")

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(l / (c + 1) for l, c in zip(self.domain.lengths, self.counts))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def size(self) -> int:
        return math.prod(self.counts)

    @property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    def axes(self) -> tuple[np.ndarray, ...]:
        """Interior node coordinates along each axis."""
        return tuple(
            np.linspace(h, l - h, c)
            for l, c, h in zip(self.domain.lengths, self.counts, self.spacing)
        )

    def zeros(self) -> np.ndarray:
        return np.zeros(self.shape)

    @cached_property
    def sine_basis(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per axis, the symmetric self-inverse DST-I matrix S and eigenvalues of -Lap_h.

        Column k of S samples sin(k pi x/l), whose 3-point stencil eigenvalue is
        (2/h sin(k pi h/2l))^2 (Buzbee, Golub & Nielson, SIAM J. Numer. Anal.
        7(4), 1970); entry (j, k) is sin(r pi/(c+1)) sqrt(2/(c+1)) with the
        sine argument reduced mod 2 pi exactly, r = j*k mod 2(c+1), so S
        reads its c^2 entries from a table of 2(c+1) values, a block of rows
        at a time, with no c^2 index array. An axis with the first axis's
        count and length shares its tuple.
        """
        basis = []
        for c, h, l in zip(self.counts, self.spacing, self.domain.lengths):
            if basis and (c, l) == (self.counts[0], self.domain.lengths[0]):
                basis.append(basis[0])
                continue
            period = 2 * (c + 1)
            table = np.arange(period, dtype=float) * (math.pi / (c + 1))
            table = np.sin(table) * math.sqrt(2.0 / (c + 1))
            k = np.arange(1, c + 1)
            s = np.empty((c, c))
            rows = max(1, 4096 // c)   # an index block of at most 32 KB
            for a in range(0, c, rows):
                r = np.multiply.outer(k[a:a + rows], k)
                r %= period
                table.take(r, out=s[a:a + rows], mode="clip")
            lam = (2.0 / h * np.sin(k * math.pi * h / (2.0 * l))) ** 2
            basis.append((s, lam))
        return tuple(basis)


def apply_laplacian(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Delta_h u for a scalar field stored on the grid shape.

    The stencil sums its terms from zero in the column order of the sparse
    matrix product, (i-1,j), (i,j-1), (i,j), (i,j+1), (i+1,j), with the
    coefficients 1/h^2 and -2/h^2 per axis, so it rounds as that product does.
    """
    if u.shape != grid.shape:
        raise ValueError(f"field shape {u.shape} != grid shape {grid.shape}")
    inv_h2 = [1.0 / h**2 for h in grid.spacing]
    out = np.zeros(grid.shape)
    out[1:] += inv_h2[0] * u[:-1]
    if len(inv_h2) == 2:
        out[:, 1:] += inv_h2[1] * u[:, :-1]
    out += sum(-2.0 * k for k in inv_h2) * u
    if len(inv_h2) == 2:
        out[:, :-1] += inv_h2[1] * u[:, 1:]
    out[:-1] += inv_h2[0] * u[1:]
    return out


def _sine_solve(grid: Grid, c, rhs: np.ndarray, out: np.ndarray | None = None
                ) -> np.ndarray:
    """(c I - Delta_h)^-1 rhs for one field: u = S (S rhs / (c + lam)) per
    axis, the last product written into out when it is given."""
    if grid.domain.dims == 1:
        ((s1, lam1),) = grid.sine_basis
        y = s1 @ rhs
        y /= c + lam1
        return np.matmul(s1, y, out=out)
    (s1, lam1), (s2, lam2) = grid.sine_basis
    y = s1 @ rhs @ s2
    y /= c + lam1[:, None] + lam2
    return np.matmul(s1 @ y, s2, out=out)


def helmholtz_solve(grid: Grid, c, rhs: np.ndarray) -> np.ndarray:
    """Solve (c I - Delta_h) u = rhs on the grid; c >= 0.

    The grid's sine basis diagonalizes the operator, so u = S (S rhs / (c + lam))
    per axis in closed form for every c; for c >= 0 every denominator is
    positive. rhs is one field of the grid's shape, or a stack of n fields of
    shape (n, *grid.shape) with c one value or one per component. A stack is
    solved component by component, split between two threads by
    _each_component, which gives the same bits.
    """
    if rhs.shape == grid.shape:
        if c < 0:
            raise ValueError("c must be nonnegative")
        return _sine_solve(grid, c, rhs)
    if rhs.shape[1:] != grid.shape:
        raise ValueError(f"rhs shape {rhs.shape} is neither the grid shape "
                         f"{grid.shape} nor a stack of fields on it")
    n = rhs.shape[0]
    cs = [c] * n if np.ndim(c) == 0 else c
    if np.ndim(c) > 1 or len(cs) != n:
        raise ValueError(f"c has shape {np.shape(c)}: a stack of {n} fields needs "
                         "one value or one per component")
    if min(cs) < 0:
        raise ValueError("c must be nonnegative")
    out = np.empty(rhs.shape)
    _each_component(lambda i: _sine_solve(grid, cs[i], rhs[i], out=out[i]), n, grid.size)
    return out


def l2_inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """h-weighted interior sum, the exact trapezoid rule for zero-boundary data.

    Vector fields (leading component axis) are accepted; components are
    summed, matching integral of a . b over the domain.
    """
    if a.shape != b.shape:
        raise ValueError("field shapes differ")
    if a.shape[-grid.domain.dims:] != grid.shape:
        raise ValueError("fields do not live on this grid")
    return float(np.sum(a * b) * grid.cell_volume)


def l2_norm(grid: Grid, a: np.ndarray) -> float:
    return math.sqrt(max(l2_inner(grid, a, a), 0.0))


def eigenfunction(grid: Grid, k: tuple[int, ...]) -> tuple[np.ndarray, float]:
    """Product-of-sines Dirichlet eigenfunction of grid.domain, sampled on the grid.

    Returns the field normalized to unit L2 quadrature norm together with
    its exact continuum eigenvalue sum (k_i pi / l_i)^2.
    """
    domain = grid.domain
    if len(k) != domain.dims or any(ki < 1 for ki in k):
        raise ValueError("mode indices must be >= 1 per axis")
    fields = [np.sin(ki * math.pi * x / l) for ki, x, l in zip(k, grid.axes(), domain.lengths)]
    if domain.dims == 1:
        phi = fields[0]
    else:
        phi = np.outer(fields[0], fields[1])
    phi = phi / l2_norm(grid, phi)
    ev = sum((ki * math.pi / l) ** 2 for ki, l in zip(k, domain.lengths))
    return phi, ev
