"""Antisymmetric cochains and the coboundary calculus on tuple sets.

A degree-p cochain is stored by its values on the strictly increasing
admissible tuples; evaluation at an arbitrary ordering multiplies by the sign
of the sorting permutation, and repeated-index tuples evaluate to zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .neighborhoods import TupleSet, faces


class CochainError(ValueError):
    """Raised for structural problems: degree mismatches, missing tuples."""


def sign_sort(idx) -> tuple[tuple[int, ...], int]:
    """Sorted tuple plus the sign of the sorting permutation; sign 0 on repeats."""
    idx = [int(v) for v in idx]
    if len(set(idx)) != len(idx):
        return tuple(sorted(idx)), 0
    sign = 1
    arr = list(idx)
    # insertion sort; tuples are short (p + 1 <= ~5)
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    return tuple(arr), sign


@dataclass(eq=False)
class Cochain:
    degree: int
    tuple_set: TupleSet
    values: np.ndarray

    def __post_init__(self):
        if self.tuple_set.degree != self.degree:
            raise CochainError("tuple set degree does not match cochain degree")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.tuple_set.size,):
            raise CochainError(
                f"value vector shape {v.shape} does not match {self.tuple_set.size} tuples"
            )
        self.values = v

    def evaluate(self, idx) -> float:
        """Value at an arbitrary ordered index tuple (0 on repeated indices)."""
        key, sign = sign_sort(idx)
        if sign == 0:
            return 0.0
        try:
            row = self.tuple_set.index_of(key)
        except KeyError:
            raise CochainError(f"tuple {key} is not admissible at degree {self.degree}")
        return sign * float(self.values[row])


def alt_project(evaluator, tuple_set: TupleSet) -> Cochain:
    """Antisymmetrize an arbitrary evaluator over ordered tuples.

    (Alt F)(x_0..x_p) = (1/(p+1)!) sum_sigma sgn(sigma) F(x_sigma(0)..x_sigma(p)).
    """
    p = tuple_set.degree
    fact = math.factorial(p + 1)
    vals = np.zeros(tuple_set.size)
    for r, row in enumerate(tuple_set.tuples.tolist()):
        acc = 0.0
        for perm in itertools.permutations(range(p + 1)):
            _, sign = sign_sort(perm)
            acc += sign * evaluator(tuple(row[q] for q in perm))
        vals[r] = acc / fact
    return Cochain(p, tuple_set, vals)


def alt_tensor(fs, tuple_set: TupleSet) -> Cochain:
    """Alt(f_0 x ... x f_p) assembled directly from determinants."""
    fs = [np.asarray(f, dtype=float) for f in fs]
    p = tuple_set.degree
    if len(fs) != p + 1:
        raise CochainError(f"need {p + 1} factors at degree {p}")
    if tuple_set.size == 0:
        return Cochain(p, tuple_set, np.empty(0))
    t = tuple_set.tuples
    mats = np.stack([np.stack([f[t[:, j]] for j in range(p + 1)], axis=1) for f in fs], axis=1)
    vals = np.linalg.det(mats) / math.factorial(p + 1)
    return Cochain(p, tuple_set, vals)


def elementary_form(g, fs, tuple_set: TupleSet) -> Cochain:
    """Averaged-coefficient form: gbar * coboundary of Alt(f_1 x ... x f_p).

    Value on (x_0..x_p) is mean_k g(x_k) times (1/p!) det of the matrix with
    entries f_i(x_j) - f_i(x_0), i, j = 1..p. g may be a scalar or a vector.
    """
    p = tuple_set.degree
    fs = [np.asarray(f, dtype=float) for f in fs]
    if len(fs) != p:
        raise CochainError(f"need {p} potential factors at degree {p}")
    if tuple_set.size == 0:
        return Cochain(p, tuple_set, np.empty(0))
    t = tuple_set.tuples
    if np.isscalar(g):
        gbar = np.full(t.shape[0], float(g))
    else:
        g = np.asarray(g, dtype=float)
        gbar = g[t].mean(axis=1)
    if p == 0:
        return Cochain(0, tuple_set, gbar)
    diffs = np.stack(
        [np.stack([f[t[:, j]] - f[t[:, 0]] for j in range(1, p + 1)], axis=1) for f in fs],
        axis=1,
    )
    vals = gbar * np.linalg.det(diffs) / math.factorial(p)
    return Cochain(p, tuple_set, vals)


@dataclass(frozen=True, eq=False)
class CoboundaryOperator:
    """Signed face-sum matrix from degree p to degree p+1, integer entries."""

    degree: int
    source: TupleSet
    target: TupleSet
    matrix: sp.csr_matrix


def build_coboundary(source: TupleSet, target: TupleSet) -> CoboundaryOperator:
    """Matrix of (delta F)(x_0..x_{p+1}) = sum_i (-1)^i F(..omit x_i..).

    Each row has exactly p+2 entries of alternating sign, written by
    `_signed_face_csr`. A missing face means the tuple sets are not face-closed.
    """
    if target.degree != source.degree + 1:
        raise CochainError("coboundary needs consecutive degrees")
    cols = source.locate(faces(target.tuples))
    missing = np.argwhere(cols < 0)
    if missing.size:
        r, i = missing[0]  # the first missing face in row-major order
        row = tuple(target.tuples[r].tolist())
        face = row[:i] + row[i + 1 :]
        raise CochainError(f"face {face} of tuple {row} is missing: tuple sets not face-closed")
    mat = _signed_face_csr(lambda i: cols[:, i], cols.shape[1], (target.size, source.size))
    return CoboundaryOperator(source.degree, source, target, mat)


def _signed_face_csr(face_cols, k: int, shape: tuple[int, int]) -> sp.csr_matrix:
    """Int64 CSR whose row r holds (-1)^i at column face_cols(i)[r], i = 0..k-1.

    Face i drops member i, and a sorted tuple's faces sort as dropping its
    last member first: each row is written reversed, k ascending columns
    signed (-1)^(k-1)..(-1)^0, the layout `covers.LocalComplex.coboundary_entries`
    reads back. Each face's columns go straight into one index array, int32
    when they fit.
    """
    rows = shape[0]
    index = np.int32 if max(k * rows, shape[1]) <= np.iinfo(np.int32).max else np.int64
    indices = np.empty((rows, k), dtype=index)
    for i in range(k):
        indices[:, k - 1 - i] = face_cols(i)
    data = np.tile((-1) ** np.arange(k - 1, -1, -1, dtype=np.int64), rows)
    indptr = np.arange(0, k * rows + 1, k, dtype=index)
    return sp.csr_matrix((data, indices.ravel(), indptr), shape=shape)


def coboundary_apply(op: CoboundaryOperator, F: Cochain) -> Cochain:
    if F.tuple_set is not op.source and not np.array_equal(
        F.tuple_set.tuples, op.source.tuples
    ):
        raise CochainError("cochain does not live on the operator's source tuples")
    return Cochain(op.degree + 1, op.target, op.matrix @ F.values)


def multiply_power(chi, F: Cochain) -> Cochain:
    """Module action of a 0-cochain: values scaled by prod_m chi(x_{i_m})."""
    chi = np.asarray(chi, dtype=float)
    if F.tuple_set.size == 0:
        return Cochain(F.degree, F.tuple_set, F.values.copy())
    factor = np.prod(chi[F.tuple_set.tuples], axis=1)
    return Cochain(F.degree, F.tuple_set, factor * F.values)


def cup_average(g, F: Cochain) -> Cochain:
    """Antisymmetrized cup with a 0-cochain: gbar(x_0..x_p) * F(x_0..x_p)."""
    g = np.asarray(g, dtype=float)
    if F.tuple_set.size == 0:
        return Cochain(F.degree, F.tuple_set, F.values.copy())
    gbar = g[F.tuple_set.tuples].mean(axis=1)
    return Cochain(F.degree, F.tuple_set, gbar * F.values)

