"""Pair kernels and the tuple weights they induce on each degree.

A degree-p tuple (i_0 < ... < i_p) carries the mass

    (p+1)! * (1/(p+1)) * sum_k prod_{l != k} j(x_{i_k}, x_{i_l}) * prod_m w_{i_m},

the density of the degree-p product measure folded onto sorted representatives.
Degree-0 masses are the point weights themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .space import MetricMeasureSpace
from .neighborhoods import TupleSet, _member_product


class KernelError(ValueError):
    """Raised for invalid kernel parameters or failed weight assembly."""


@dataclass(frozen=True, eq=False)
class KernelModel:
    """Symmetric positive pair kernel j(x, y), evaluated off the diagonal only."""

    kind: str  # "fractional" | "truncated_fractional" | "constant" | "custom"
    d: float | None = None
    alpha: float | None = None
    scale: float = 1.0
    eps_trunc: float | None = None
    floor: float = 0.0
    table: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("fractional", "truncated_fractional", "constant", "custom"):
            raise KernelError(f"unknown kernel kind {self.kind!r}")
        if self.kind in ("fractional", "truncated_fractional"):
            if self.alpha is None or not (0.0 < self.alpha < 2.0):
                raise KernelError("alpha must lie in (0, 2)")
            if self.d is None or self.d <= 0:
                raise KernelError("dimension parameter d must be positive")
        if self.scale <= 0:
            raise KernelError("scale must be positive")
        if self.kind == "truncated_fractional":
            if self.eps_trunc is None or self.eps_trunc <= 0:
                raise KernelError("truncation radius must be positive")
            if self.floor < 0:
                raise KernelError("floor must be nonnegative")
        if self.kind == "custom":
            if self.table is None:
                raise KernelError("custom kernel needs a table")
            t = np.asarray(self.table, dtype=float)
            if t.ndim != 2 or t.shape[0] != t.shape[1]:
                raise KernelError("custom kernel table must be square")
            if np.abs(t - t.T).max(initial=0.0) > 1e-12:
                i, j = np.unravel_index(np.argmax(np.abs(t - t.T)), t.shape)
                raise KernelError(f"custom kernel asymmetric at ({i}, {j})")
            off = t + np.eye(t.shape[0]) * (1.0 + np.abs(t).max())
            if off.min() <= 0 or not np.isfinite(t).all():
                raise KernelError("custom kernel must be positive and finite off the diagonal")
            object.__setattr__(self, "table", t)


def fractional_kernel(d: float, alpha: float, scale: float = 1.0) -> KernelModel:
    """j(x, y) = scale * dist(x, y)^(-d-alpha)."""
    return KernelModel("fractional", d=d, alpha=alpha, scale=scale)


def truncated_fractional_kernel(
    d: float, alpha: float, eps_trunc: float, scale: float = 1.0, floor: float = 0.0
) -> KernelModel:
    """Fractional inside dist < eps_trunc, constant floor outside."""
    return KernelModel(
        "truncated_fractional", d=d, alpha=alpha, scale=scale, eps_trunc=eps_trunc, floor=floor
    )


def constant_kernel(value: float) -> KernelModel:
    return KernelModel("constant", scale=value)


def custom_kernel(table: np.ndarray) -> KernelModel:
    return KernelModel("custom", table=table)


def load_kernel_table(path, n: int) -> KernelModel:
    """Load 'i, j, value' triples covering every unordered pair of 0..n-1."""
    table = np.full((n, n), np.nan)
    np.fill_diagonal(table, 0.0)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = [s.strip() for s in line.split(",")]
            if len(parts) != 3:
                raise KernelError(f"{path}:{lineno}: expected 'i, j, value'")
            try:
                i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError:
                raise KernelError(
                    f"{path}:{lineno}: expected integer indices and a number, got {line!r}"
                ) from None
            if not math.isfinite(v):
                raise KernelError(f"{path}:{lineno}: non-finite value {parts[2]!r}")
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise KernelError(f"{path}:{lineno}: bad pair ({i}, {j})")
            table[i, j] = v
            table[j, i] = v
    missing = np.argwhere(np.isnan(table))
    if missing.size:
        i, j = missing[0]
        raise KernelError(f"kernel table missing pair ({i}, {j})")
    return custom_kernel(table)


def kernel_matrix(model: KernelModel, space: MetricMeasureSpace) -> np.ndarray:
    """Dense kernel values with a zero diagonal (the diagonal is never used)."""
    k = _pair_kernel(model, space, *np.indices((space.n, space.n)))
    np.fill_diagonal(k, 0.0)
    return k


def _pair_kernel(model: KernelModel, space: MetricMeasureSpace, i, j) -> np.ndarray:
    """j(x_i, x_j) at each index pair, elementwise; pairs with i == j are meaningless.

    The truncation and the floor apply pointwise, and (i, j) reads dist[i, j],
    which equals dist[j, i] only within the metric tolerance.
    """
    if model.kind == "constant":
        return np.full(np.shape(i), model.scale)
    if model.kind == "custom":
        if model.table.shape[0] != space.n:
            raise KernelError("custom kernel table size does not match the space")
        return model.table[i, j]
    d = space.dist.reshape(-1)[i * space.n + j]  # one flat gather; dist is C-contiguous
    with np.errstate(divide="ignore", over="ignore"):
        k = model.scale * d ** (-(model.d + model.alpha))
    if model.kind == "truncated_fractional":
        k = np.where(d < model.eps_trunc, k, model.floor)
    return k


def assemble_weights(
    model: KernelModel, space: MetricMeasureSpace, tuple_set: TupleSet
) -> np.ndarray:
    """Fold the degree-p density over sorted tuples into per-tuple masses.

    The masses are strictly positive and come back as a read-only array.
    """
    p = tuple_set.degree
    t = tuple_set.tuples
    if p == 0:
        masses = space.weights[t[:, 0]]  # a copy: fancy indexing never aliases
    elif t.shape[0] == 0:
        masses = np.empty(0)
    else:
        density = np.zeros(t.shape[0])
        for k in range(p + 1):
            others = [l for l in range(p + 1) if l != k]
            # from the first factor on: a product started at 1.0 has the same bits
            prod = _pair_kernel(model, space, t[:, k], t[:, others[0]])
            for l in others[1:]:
                prod = prod * _pair_kernel(model, space, t[:, k], t[:, l])
            density += prod
        density /= p + 1
        masses = math.factorial(p + 1) * density * _member_product(space.weights, t)
        if not np.isfinite(masses).all():
            bad = int(np.flatnonzero(~np.isfinite(masses))[0])
            raise KernelError(f"non-finite mass for tuple {tuple(t[bad].tolist())}")
        if masses.min() <= 0.0:
            bad = int(np.argmin(masses))
            raise KernelError(f"non-positive mass for tuple {tuple(t[bad].tolist())}")
    masses.setflags(write=False)
    return masses
