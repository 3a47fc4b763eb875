"""Closed-form functional calculus for symmetric 2x2 matrices.

Everything works componentwise on arrays (xx, xy, yy) holding one matrix
per element: the eigenvalues the solver's positivity checks use, the
eigenvector rotation, the lift of a scalar function through them, the
eigenvalue cutoff chi, and executable checks of the matrix inequalities
the stress analysis relies on (difference-of-logs bound, concavity trace
chains), which the matrix-inequalities verify suite runs on whole blocks
of samples.

Everything is specialized to d = 2; the dimension enters inequality
constants and is kept in the single constant DIM below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Union

import numpy as np

DIM = 2

# Eigenvalue gaps below this (relative) threshold count as repeated;
# the rotation is then pinned to the identity.
_TIE_BREAK_REL = 1e-14

# Default slacks for the inequality checkers.
_SCALAR_LOG_SLACK = 1e-12
_MATRIX_LOG_SLACK = 1e-10
_CONVEXITY_SLACK = 1e-10


Entry = Union[float, np.ndarray]


class NotSPDError(ValueError):
    """Matrix argument is not symmetric positive definite."""


@dataclass(frozen=True)
class SymMat2:
    """Symmetric 2x2 matrix stored as three entries (no skew part exists).

    The entries are floats, or arrays of one shape holding one matrix per
    element; every method works entrywise on either.
    """

    xx: Entry
    xy: Entry
    yy: Entry

    def trace(self) -> Entry:
        return self.xx + self.yy

    def det(self) -> Entry:
        return self.xx * self.yy - self.xy * self.xy

    def sub(self, other: "SymMat2") -> "SymMat2":
        return SymMat2(self.xx - other.xx, self.xy - other.xy, self.yy - other.yy)

    def inner(self, other: "SymMat2") -> Entry:
        """Frobenius inner product A:B (off-diagonal counted twice)."""
        return self.xx * other.xx + 2.0 * self.xy * other.xy + self.yy * other.yy

    def frobenius(self) -> Entry:
        return np.sqrt(self.inner(self))

    def sample(self, i: int) -> "SymMat2":
        """Matrix i of array entries, with float entries."""
        return SymMat2(float(self.xx[i]), float(self.xy[i]), float(self.yy[i]))


# ---------------------------------------------------------------------------
# The eigendecomposition, on whole component arrays (xx, xy, yy), so that
# per-cell loops never appear in the solver.  eig_fields() returns the
# eigenvalues only, all a positivity check needs; rotation_fields() adds the
# eigenvector angle (arctan2, the tie mask, cos and sin) that a lift
# through recombine_fields() needs.  eig_fields() is the only
# eigendecomposition in the package: the solver's positivity checks and
# cutoff chi and the inequality checkers below all run it.


def eig_fields(xx: np.ndarray, xy: np.ndarray, yy: np.ndarray):
    """Componentwise eigenvalues (lam1, lam2) with lam1 >= lam2.

    The roots of the characteristic quadratic: the smaller-magnitude
    eigenvalue comes from det/lam to avoid subtraction cancellation.  Each
    branch is one masked divide, so a cell pays only for the quotient it
    keeps.

    Three arrays and one mask hold every intermediate (the plain-expression
    form is tests/oracles.eig_fields_np).  A cell with mean >= 0 needs only
    big = mean + radius, any other cell only big = mean - radius, so one
    array holds big.  Where mean >= 0 and big = 0, mean and radius are
    zeros, and lam2 = mean - radius is mean itself, sign of zero included.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = np.multiply(xx, yy)
        big = np.multiply(xy, xy)
        det -= big
        mean = np.add(xx, yy)
        mean *= 0.5
        np.subtract(xx, yy, out=big)
        big *= 0.5
        np.hypot(big, xy, out=big)  # the radius
        mask = mean >= 0.0
        np.add(mean, big, out=big, where=mask)
        np.logical_not(mask, out=mask)  # mean < 0 or NaN
        np.subtract(mean, big, out=big, where=mask)
        # lam2 is built in mean's array: big_neg here, det / big_pos below
        np.copyto(mean, big, where=mask)
        lam1 = np.divide(det, big, out=big, where=mask)
        np.logical_not(mask, out=mask)
        np.not_equal(lam1, 0.0, out=mask, where=mask)
        lam2 = np.divide(det, lam1, out=mean, where=mask)
    return lam1, lam2


def rotation_fields(xx: np.ndarray, xy: np.ndarray, yy: np.ndarray,
                    lam1: np.ndarray, lam2: np.ndarray):
    """(cos, sin) of the eigenvector angle; the identity at (near-)ties."""
    with np.errstate(invalid="ignore", over="ignore"):
        angle = 0.5 * np.arctan2(2.0 * xy, xx - yy)
        tie = (lam1 - lam2) < _TIE_BREAK_REL * (1.0 + np.abs(lam1))
        angle = np.where(tie, 0.0, angle)
        return np.cos(angle), np.sin(angle)


def recombine_fields(g1: np.ndarray, g2: np.ndarray, c: np.ndarray, s: np.ndarray):
    """Assemble O diag(g1, g2) O^T componentwise."""
    cc, ss, cs = c * c, s * s, c * s
    return g1 * cc + g2 * ss, (g1 - g2) * cs, g1 * ss + g2 * cc


def inverse_fields(xx: np.ndarray, xy: np.ndarray, yy: np.ndarray):
    """Componentwise inverse: the adjugate over the determinant."""
    det = xx * yy - xy**2
    return yy / det, -xy / det, xx / det


def cutoff_fields(xx: np.ndarray, xy: np.ndarray, yy: np.ndarray, floor: float):
    """Cutoff chi: eigenvalues floored at floor, (chi1, chi2), and chi(T)'s components."""
    lam1, lam2 = eig_fields(xx, xy, yy)
    chi1, chi2 = np.maximum(lam1, floor), np.maximum(lam2, floor)
    c, s = rotation_fields(xx, xy, yy, lam1, lam2)
    return (chi1, chi2), recombine_fields(chi1, chi2, c, s)


# ---------------------------------------------------------------------------
# Inequality checkers.  The matrix-inequalities suite decomposes each of its
# matrices once per block of samples (decompose: one eig_fields and one
# rotation_fields call, the path cutoff_fields runs) and
# hands the decomposition to every checker, which lifts each function
# from it with recombine_fields.  Each checker returns one lhs, rhs and
# holds per sample; scalar_log_ineq also takes a pair of floats.


def decompose(p: SymMat2):
    """(lam1, lam2, cos, sin) of p's entry arrays: eigenvalues, then the rotation."""
    lam1, lam2 = eig_fields(p.xx, p.xy, p.yy)
    return (lam1, lam2) + rotation_fields(p.xx, p.xy, p.yy, lam1, lam2)


def _lift(g: Callable, e) -> SymMat2:
    """g lifted to the matrices whose decomposition is e = (lam1, lam2, cos, sin)."""
    lam1, lam2, c, s = e
    return SymMat2(*recombine_fields(g(lam1), g(lam2), c, s))


def first_false(ok) -> int:
    """Index of the first False of ok, in flattened order."""
    return int(np.flatnonzero(np.logical_not(ok))[0])


class IneqResult(NamedTuple):
    lhs: Entry
    rhs: Entry
    holds: Entry


class ChainResult(NamedTuple):
    left: Entry
    mid: Entry
    right: Entry
    holds: Entry


def scalar_log_ineq(a: Entry, b: Entry) -> IneqResult:
    """-(a-b)(1/a-1/b) >= (log a - log b)^2 for positive a, b.

    Raises ValueError, naming the first bad sample, unless every a and b
    is > 0 (NaN is not).
    """
    positive = np.logical_and(a > 0.0, b > 0.0)
    if not np.all(positive):
        raise ValueError(f"arguments must be positive (sample {first_false(positive)})")
    lhs = -(a - b) * (1.0 / a - 1.0 / b)
    rhs = (np.log(a) - np.log(b)) ** 2
    return IneqResult(lhs, rhs, lhs >= rhs - _SCALAR_LOG_SLACK)


def matrix_log_diff_ineq(a: SymMat2, b: SymMat2, ea, eb) -> IneqResult:
    """|tr log A - tr log B|^2 <= -d tr((A-B)(A^-1 - B^-1)) for SPD pairs.

    ea and eb are decompose(a) and decompose(b); they serve tr log and the
    inverse.  Raises NotSPDError, naming the first bad sample, unless
    every lam2 > 0 (NaN is not).
    """
    spd = np.logical_and(ea[1] > 0.0, eb[1] > 0.0)
    if not np.all(spd):
        raise NotSPDError(
            f"both arguments must be positive definite (sample {first_false(spd)})")
    lhs = (np.log(ea[0]) + np.log(ea[1]) - (np.log(eb[0]) + np.log(eb[1]))) ** 2
    inv_a = _lift(lambda s: 1.0 / s, ea)
    inv_b = _lift(lambda s: 1.0 / s, eb)
    rhs = -DIM * a.sub(b).inner(inv_a.sub(inv_b))
    scale = 1.0 + abs(lhs) + abs(rhs)
    return IneqResult(lhs, rhs, lhs <= rhs + _MATRIX_LOG_SLACK * scale)


def convexity_trace_ineq(g: Callable, g_prime: Callable, kind: str,
                         a: SymMat2, b: SymMat2, ea, eb) -> ChainResult:
    """Trace chain (A-B):g'(B) >= tr g(A) - tr g(B) >= (A-B):g'(A).

    Stated for concave g; a convex tag flips both comparisons.  g and
    g_prime act elementwise on arrays; ea and eb are decompose(a) and
    decompose(b), from which every lift is taken.
    """
    if kind not in ("concave", "convex"):
        raise ValueError("kind must be 'concave' or 'convex'")
    diff = a.sub(b)
    left = diff.inner(_lift(g_prime, eb))
    mid = _lift(g, ea).trace() - _lift(g, eb).trace()
    right = diff.inner(_lift(g_prime, ea))
    scale = 1.0 + abs(left) + abs(mid) + abs(right)
    slack = _CONVEXITY_SLACK * scale
    if kind == "concave":
        holds = np.logical_and(left >= mid - slack, mid >= right - slack)
    else:
        holds = np.logical_and(left <= mid + slack, mid <= right + slack)
    return ChainResult(left, mid, right, holds)
