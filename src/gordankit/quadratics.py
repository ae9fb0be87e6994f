"""Symmetric matrices, quadratic functions and families, domains, and weights.

Every value here is immutable after construction (arrays are frozen), so
objects can be shared freely across threads.  All numeric tolerances are
scale-relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatchError,
    NumericError,
    WeightError,
)

# Default tolerances.  They are relative to the magnitude of the data they
# gate, so desk-scale and mildly rescaled inputs behave identically.
TOL_SYM = 1e-9
TOL_EIG = 1e-10
TOL_PSD = 1e-8
PINV_CUTOFF = 1e-10
TOL_WEIGHT = 1e-9


def _as_float_array(data, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """A dense real symmetric matrix.

    Input is symmetrized as ``(M + M^T)/2``; asymmetry beyond ``tol_sym``
    relative to the entry magnitude is rejected.  Entries are stored
    row-major and are exactly symmetric after construction.
    """

    entries: np.ndarray
    tol_sym: float = TOL_SYM

    def __post_init__(self):
        m = _as_float_array(self.entries, "matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        scale = 1.0 + np.abs(m).max()
        asym = np.abs(m - m.T).max()
        if asym > self.tol_sym * scale:
            raise ValueError(f"matrix asymmetry {asym:.3e} exceeds tolerance {self.tol_sym * scale:.3e}")
        sym = (m + m.T) / 2.0
        object.__setattr__(self, "entries", _freeze(sym))

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"SymMatrix(n={self.n})"

    @staticmethod
    def zeros(n: int) -> "SymMatrix":
        return SymMatrix(np.zeros((n, n)))

    @staticmethod
    def identity(n: int) -> "SymMatrix":
        return SymMatrix(np.eye(n))


@dataclass(frozen=True, eq=False)
class QuadraticFunction:
    """q(x) = (1/2) x^T A x + b^T x + c with A symmetric."""

    a: SymMatrix
    b: np.ndarray
    c: float

    def __post_init__(self):
        b = _as_float_array(self.b, "linear part").reshape(-1)
        if b.shape[0] != self.a.n:
            raise DimensionMismatchError(
                f"linear part has length {b.shape[0]}, matrix has dimension {self.a.n}"
            )
        c = float(self.c)
        if not np.isfinite(c):
            raise ValueError("constant term is non-finite")
        object.__setattr__(self, "b", _freeze(b))
        object.__setattr__(self, "c", c)

    @property
    def dim(self) -> int:
        return self.a.n

    def __call__(self, x) -> float:
        return eval_quadratic(self, x)

    def gradient(self, x) -> np.ndarray:
        x = _as_float_array(x, "point").reshape(-1)
        if x.shape[0] != self.dim:
            raise DimensionMismatchError("point dimension mismatch")
        return self.a.entries @ x + self.b

    def shifted(self, alpha: float) -> "QuadraticFunction":
        """The same function with ``alpha`` subtracted from the constant."""
        return QuadraticFunction(self.a, self.b, self.c - alpha)

    def scaled(self, beta: float) -> "QuadraticFunction":
        return QuadraticFunction(SymMatrix(self.a.entries * beta), self.b * beta, self.c * beta)

    @staticmethod
    def linear(b, c: float = 0.0) -> "QuadraticFunction":
        b = np.asarray(b, dtype=float).reshape(-1)
        return QuadraticFunction(SymMatrix.zeros(b.shape[0]), b, c)


@dataclass(frozen=True, eq=False)
class QuadraticFamily:
    """A nonempty finite indexed list of quadratic functions on a shared space."""

    members: tuple
    labels: Optional[tuple] = None

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("family must have at least one member")
        dim = members[0].dim
        for q in members:
            if not isinstance(q, QuadraticFunction):
                raise TypeError("family members must be QuadraticFunction")
            if q.dim != dim:
                raise DimensionMismatchError("family members have inconsistent dimensions")
        labels = self.labels
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != len(members):
                raise ValueError("labels length must match member count")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "labels", labels)
        # Stacked coefficient arrays for vectorized evaluation.
        object.__setattr__(self, "_a_stack", _freeze(np.stack([q.a.entries for q in members])))
        object.__setattr__(self, "_b_stack", _freeze(np.stack([q.b for q in members])))
        object.__setattr__(self, "_c_stack", _freeze(np.array([q.c for q in members])))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def coefficient_stacks(self):
        """Stacked ``(A, b, c)`` arrays of shapes (m,n,n), (m,n), (m,)."""
        return self._a_stack, self._b_stack, self._c_stack

    def eval_members(self, points: np.ndarray) -> np.ndarray:
        """Evaluate all members at a batch of points.

        ``points`` has shape (k, n); the result has shape (m, k).
        """
        x = np.atleast_2d(np.asarray(points, dtype=float))
        if x.shape[1] != self.dim:
            raise DimensionMismatchError("point dimension mismatch")
        vals = self._b_stack @ x.T + self._c_stack[:, None]
        for j, a in enumerate(self._a_stack):  # one member at a time: (k, n) temporaries only
            vals[j] += 0.5 * ((x @ a) * x).sum(axis=1)
        return vals

    def sup_at(self, x) -> float:
        """sup over members at a single point."""
        return float(self.eval_members(np.asarray(x, dtype=float).reshape(1, -1)).max())

    def shifted(self, alpha: float) -> "QuadraticFamily":
        if alpha == 0.0:
            return self
        return QuadraticFamily(tuple(q.shifted(alpha) for q in self.members), self.labels)

    def scaled(self, beta: float) -> "QuadraticFamily":
        return QuadraticFamily(tuple(q.scaled(beta) for q in self.members), self.labels)


# --------------------------------------------------------------------------
# Domains


class Domain:
    """Base class for the supported feasible sets."""

    dim: int


@dataclass(frozen=True)
class Reals(Domain):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")


@dataclass(frozen=True)
class NonnegOrthant(Domain):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")


@dataclass(frozen=True)
class UnitSphere(Domain):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")


@dataclass(frozen=True, eq=False)
class Box(Domain):
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = _as_float_array(self.lo, "box lower bound").reshape(-1)
        hi = _as_float_array(self.hi, "box upper bound").reshape(-1)
        if lo.shape != hi.shape:
            raise DimensionMismatchError("box bounds have different lengths")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        object.__setattr__(self, "lo", _freeze(lo))
        object.__setattr__(self, "hi", _freeze(hi))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]


@dataclass(frozen=True, eq=False)
class FinitePointSet(Domain):
    points: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(_as_float_array(self.points, "point set"))
        if pts.shape[0] < 1:
            raise ValueError("point set must be nonempty")
        object.__setattr__(self, "points", _freeze(pts))

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def project_onto(dom: Domain, points: np.ndarray) -> np.ndarray:
    """Project a batch of points (k, n) onto the domain (sphere: normalize)."""
    x = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(dom, Reals):
        return x
    if isinstance(dom, NonnegOrthant):
        return np.maximum(x, 0.0)
    if isinstance(dom, Box):
        return np.clip(x, dom.lo, dom.hi)
    if isinstance(dom, UnitSphere):
        norms = np.linalg.norm(x, axis=1, keepdims=True)
        out = np.where(norms > 1e-300, x / np.maximum(norms, 1e-300), 0.0)
        # A zero vector projects to the first basis vector, deterministically.
        dead = norms.reshape(-1) <= 1e-300
        if np.any(dead):
            out = out.copy()
            out[dead] = 0.0
            out[dead, 0] = 1.0
        return out
    raise DimensionMismatchError(f"cannot project onto {type(dom).__name__}")


# --------------------------------------------------------------------------
# Weights


def _clamp_nonneg(values: np.ndarray, tol: float, what: str) -> np.ndarray:
    if values.ndim != 1 or values.shape[0] < 1:
        raise WeightError(f"{what} must be a nonempty vector")
    if np.any(values < -tol):
        raise WeightError(f"{what} has entry {values.min():.3e} below -{tol:.1e}")
    return np.maximum(values, 0.0)


@dataclass(frozen=True, eq=False)
class SimplexWeight:
    """A point of the probability simplex.

    Entries within ``TOL_WEIGHT`` of feasibility are clamped (negatives
    clipped to zero, then renormalized to sum exactly one); anything worse
    is rejected.
    """

    t: np.ndarray

    def __post_init__(self):
        t = _as_float_array(self.t, "simplex weight").reshape(-1)
        t = _clamp_nonneg(t, TOL_WEIGHT, "simplex weight")
        s = t.sum()
        if abs(s - 1.0) > TOL_WEIGHT:
            raise WeightError(f"simplex weight sums to {s!r}, not 1")
        object.__setattr__(self, "t", _freeze(t / s))

    @property
    def m(self) -> int:
        return self.t.shape[0]

    def __repr__(self):
        return f"SimplexWeight({np.array2string(self.t, precision=6)})"


@dataclass(frozen=True, eq=False)
class ConeWeight:
    """A componentwise-nonnegative multiplier vector (dual-cone element)."""

    u: np.ndarray

    def __post_init__(self):
        u = _as_float_array(self.u, "cone weight").reshape(-1)
        object.__setattr__(self, "u", _freeze(_clamp_nonneg(u, TOL_WEIGHT, "cone weight")))

    @property
    def m(self) -> int:
        return self.u.shape[0]

    def __repr__(self):
        return f"ConeWeight({np.array2string(self.u, precision=6)})"


WeightLike = Union[SimplexWeight, ConeWeight, Sequence[float], np.ndarray]


def weight_vector(w: WeightLike) -> np.ndarray:
    if isinstance(w, SimplexWeight):
        return w.t
    if isinstance(w, ConeWeight):
        return w.u
    return np.asarray(w, dtype=float).reshape(-1)


# --------------------------------------------------------------------------
# Operations


def sym_eigen(m: SymMatrix, tol_eig: float = TOL_EIG):
    """Eigendecomposition of a symmetric matrix.

    Returns ``(eigenvalues, eigenvectors)`` with eigenvalues ascending and
    eigenvectors as orthonormal columns.  The reconstruction residual is
    verified against ``tol_eig`` relative to the matrix magnitude.
    """
    a = m.entries
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericError(f"eigendecomposition failed for n={m.n}: {exc}") from exc
    scale = 1.0 + np.abs(a).max()
    resid = np.abs(v @ np.diag(w) @ v.T - a).max()
    ortho = np.abs(v.T @ v - np.eye(m.n)).max()
    if resid > tol_eig * scale or ortho > tol_eig * m.n:
        raise NumericError(
            f"eigendecomposition residual {resid:.3e} / orthonormality {ortho:.3e} "
            f"exceed tolerance for n={m.n}"
        )
    return w, v


def is_psd(m: SymMatrix, tol: float = TOL_PSD) -> bool:
    """True iff the minimum eigenvalue is >= -tol relative to the scale."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    w, _ = sym_eigen(m)
    scale = 1.0 + np.abs(m.entries).max()
    return bool(w[0] >= -tol * scale)


def eval_quadratic(q: QuadraticFunction, x) -> float:
    x = _as_float_array(x, "point").reshape(-1)
    if x.shape[0] != q.dim:
        raise DimensionMismatchError(
            f"point has length {x.shape[0]}, function has dimension {q.dim}"
        )
    return float(0.5 * x @ q.a.entries @ x + q.b @ x + q.c)


def aggregate(fam: QuadraticFamily, w: WeightLike) -> QuadraticFunction:
    """The weighted sum sum_j w_j q_j as a single quadratic function."""
    wv = weight_vector(w)
    if wv.shape[0] != fam.size:
        raise DimensionMismatchError(
            f"weight length {wv.shape[0]} does not match family size {fam.size}"
        )
    a_s, b_s, c_s = fam.coefficient_stacks()
    a = np.einsum("m,mij->ij", wv, a_s)
    b = wv @ b_s
    c = float(wv @ c_s)
    return QuadraticFunction(SymMatrix(a), b, c)


# --------------------------------------------------------------------------
# JSON encoding shared with the command-line front-end


def sym_to_json(m: SymMatrix) -> list:
    return [list(row) for row in m.entries]


def quadratic_to_json(q: QuadraticFunction) -> dict:
    return {"A": sym_to_json(q.a), "b": list(q.b), "c": q.c}


def quadratic_from_json(obj: dict) -> QuadraticFunction:
    if not isinstance(obj, dict):
        raise ValueError("quadratic function must be an object")
    unknown = set(obj) - {"A", "b", "c"}
    if unknown:
        raise ValueError(f"unknown quadratic fields: {sorted(unknown)}")
    for key in ("A", "b", "c"):
        if key not in obj:
            raise ValueError(f"quadratic function missing field {key!r}")
    return QuadraticFunction(SymMatrix(obj["A"]), obj["b"], obj["c"])


def domain_to_json(dom: Domain) -> dict:
    if isinstance(dom, Reals):
        return {"type": "reals", "dim": dom.dim}
    if isinstance(dom, NonnegOrthant):
        return {"type": "nonneg_orthant", "dim": dom.dim}
    if isinstance(dom, UnitSphere):
        return {"type": "unit_sphere", "dim": dom.dim}
    if isinstance(dom, Box):
        return {"type": "box", "lo": list(dom.lo), "hi": list(dom.hi)}
    if isinstance(dom, FinitePointSet):
        return {"type": "finite_points", "points": [list(p) for p in dom.points]}
    raise ValueError(f"cannot encode domain {type(dom).__name__}")


def domain_from_json(obj: dict) -> Domain:
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValueError("domain must be a tagged object with a 'type' field")
    kind = obj["type"]
    fields = {
        "reals": {"type", "dim"},
        "nonneg_orthant": {"type", "dim"},
        "unit_sphere": {"type", "dim"},
        "box": {"type", "lo", "hi"},
        "finite_points": {"type", "points"},
    }
    if kind not in fields:
        raise ValueError(f"unknown domain type {kind!r}")
    unknown = set(obj) - fields[kind]
    if unknown:
        raise ValueError(f"unknown domain fields: {sorted(unknown)}")
    if kind == "reals":
        return Reals(int(obj["dim"]))
    if kind == "nonneg_orthant":
        return NonnegOrthant(int(obj["dim"]))
    if kind == "unit_sphere":
        return UnitSphere(int(obj["dim"]))
    if kind == "box":
        return Box(obj["lo"], obj["hi"])
    return FinitePointSet(obj["points"])
