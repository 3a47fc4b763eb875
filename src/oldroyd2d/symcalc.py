"""Closed-form functional calculus for symmetric 2x2 matrices.

Provides the eigendecomposition, the lift of a scalar function through
it, tr log, and executable checks of the matrix inequalities the stress
analysis relies on (difference-of-logs bound, concavity trace chains).
The array versions at the end serve the solver's fields: eigenvalues
and the eigenvalue cutoff chi per cell.

Everything is specialized to d = 2; the dimension enters inequality
constants and is kept in the single constant DIM below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

DIM = 2

# Eigenvalue gaps below this (relative) threshold count as repeated;
# the rotation is then pinned to the identity.
_TIE_BREAK_REL = 1e-14

# Default slacks for the inequality checkers.
_SCALAR_LOG_SLACK = 1e-12
_MATRIX_LOG_SLACK = 1e-10
_CONVEXITY_SLACK = 1e-10


class NotSPDError(ValueError):
    """Matrix argument is not symmetric positive definite."""


@dataclass(frozen=True)
class SymMat2:
    """Symmetric 2x2 matrix stored as three entries (no skew part exists)."""

    xx: float
    xy: float
    yy: float

    def trace(self) -> float:
        return self.xx + self.yy

    def det(self) -> float:
        return self.xx * self.yy - self.xy * self.xy

    def sub(self, other: "SymMat2") -> "SymMat2":
        return SymMat2(self.xx - other.xx, self.xy - other.xy, self.yy - other.yy)

    def inner(self, other: "SymMat2") -> float:
        """Frobenius inner product A:B (off-diagonal counted twice)."""
        return self.xx * other.xx + 2.0 * self.xy * other.xy + self.yy * other.yy

    def frobenius(self) -> float:
        return math.sqrt(self.inner(self))


@dataclass(frozen=True)
class EigenPair2:
    """Ordered eigenvalues lam1 >= lam2 plus the rotation angle of O.

    O = [[cos phi, -sin phi], [sin phi, cos phi]] maps the standard basis
    onto the eigenvectors, first column belonging to lam1.
    """

    lam1: float
    lam2: float
    angle: float

    def tr_log(self) -> float:
        """tr log of the matrix, for positive eigenvalues."""
        return math.log(self.lam1) + math.log(self.lam2)


def eig(p: SymMat2) -> EigenPair2:
    """Closed-form eigendecomposition via the characteristic quadratic.

    The smaller-magnitude root comes from det/lam to dodge the
    subtraction cancellation when the eigenvalues are far apart.  The
    rotation angle comes from atan2 on the off-diagonal structure,
    guarded so that a (near-)repeated eigenvalue yields O = I.
    """
    mean = 0.5 * (p.xx + p.yy)
    half_gap = 0.5 * (p.xx - p.yy)
    radius = math.hypot(half_gap, p.xy)
    if radius == 0.0:
        return EigenPair2(mean, mean, 0.0)
    if mean >= 0.0:
        lam1 = mean + radius
        lam2 = p.det() / lam1 if lam1 != 0.0 else mean - radius
    else:
        lam2 = mean - radius
        lam1 = p.det() / lam2
    if lam1 - lam2 < _TIE_BREAK_REL * (1.0 + abs(lam1)):
        return EigenPair2(lam1, lam2, 0.0)
    angle = 0.5 * math.atan2(2.0 * p.xy, p.xx - p.yy)
    return EigenPair2(lam1, lam2, angle)


def lift(g: Callable[[float], float], e: EigenPair2) -> SymMat2:
    """The scalar function g lifted to the matrix whose eigendecomposition is e."""
    return SymMat2(*recombine_fields(g(e.lam1), g(e.lam2), math.cos(e.angle), math.sin(e.angle)))


class IneqResult(NamedTuple):
    lhs: float
    rhs: float
    holds: bool


class ChainResult(NamedTuple):
    left: float
    mid: float
    right: float
    holds: bool


def scalar_log_ineq(a: float, b: float) -> IneqResult:
    """-(a-b)(1/a-1/b) >= (log a - log b)^2 for positive a, b."""
    if a <= 0.0 or b <= 0.0:
        raise ValueError("arguments must be positive")
    lhs = -(a - b) * (1.0 / a - 1.0 / b)
    rhs = (math.log(a) - math.log(b)) ** 2
    return IneqResult(lhs, rhs, lhs >= rhs - _SCALAR_LOG_SLACK)


def matrix_log_diff_ineq(a: SymMat2, b: SymMat2, ea: EigenPair2, eb: EigenPair2) -> IneqResult:
    """|tr log A - tr log B|^2 <= -d tr((A-B)(A^-1 - B^-1)) for SPD pairs.

    ea and eb are eig(a) and eig(b); they serve tr log and the inverse.
    """
    if ea.lam2 <= 0.0 or eb.lam2 <= 0.0:
        raise NotSPDError("both arguments must be positive definite")
    lhs = (ea.tr_log() - eb.tr_log()) ** 2
    inv_a = lift(lambda s: 1.0 / s, ea)
    inv_b = lift(lambda s: 1.0 / s, eb)
    rhs = -DIM * a.sub(b).inner(inv_a.sub(inv_b))
    scale = 1.0 + abs(lhs) + abs(rhs)
    return IneqResult(lhs, rhs, lhs <= rhs + _MATRIX_LOG_SLACK * scale)


def convexity_trace_ineq(
    g: Callable[[float], float],
    g_prime: Callable[[float], float],
    kind: str,
    a: SymMat2,
    b: SymMat2,
    ea: EigenPair2,
    eb: EigenPair2,
) -> ChainResult:
    """Trace chain (A-B):g'(B) >= tr g(A) - tr g(B) >= (A-B):g'(A).

    Stated for concave g; a convex tag flips both comparisons.  ea and eb
    are eig(a) and eig(b), from which every lift is taken.
    """
    if kind not in ("concave", "convex"):
        raise ValueError("kind must be 'concave' or 'convex'")
    diff = a.sub(b)
    left = diff.inner(lift(g_prime, eb))
    mid = lift(g, ea).trace() - lift(g, eb).trace()
    right = diff.inner(lift(g_prime, ea))
    scale = 1.0 + abs(left) + abs(mid) + abs(right)
    slack = _CONVEXITY_SLACK * scale
    if kind == "concave":
        holds = (left >= mid - slack) and (mid >= right - slack)
    else:
        holds = (left <= mid + slack) and (mid <= right + slack)
    return ChainResult(left, mid, right, holds)


# ---------------------------------------------------------------------------
# Vectorized companions operating on whole component arrays (xx, xy, yy).
# Same formulas as the scalar path; used by the field operators so that
# per-cell loops never appear in the solver.  eig_fields() returns the
# eigenvalues only, which is all tr log T needs; cutoff_fields() alone
# adds the rotation (arctan2, the tie mask, cos and sin) to recombine chi(T).
#
# eig() keeps its own scalar code: it takes about 1.5 us per matrix, the
# same formulas as numpy calls on 0-d arrays about 40 us (call overhead).
# The checkers take each matrix's EigenPair2 from the caller and lift()
# every function from it, so a matrix-inequalities sample makes 2 eig()
# calls, one per matrix, and the suite's 20,000 take about 0.03 s, not 0.8 s.
# recombine_fields() is plain arithmetic; lift() calls it too.


def eig_fields(xx: np.ndarray, xy: np.ndarray, yy: np.ndarray):
    """Componentwise eigenvalues (lam1, lam2) with lam1 >= lam2.

    Mirrors eig(): the smaller-magnitude eigenvalue comes from det/lam
    to avoid subtraction cancellation.  Each branch is one masked divide,
    so a cell pays only for the quotient it keeps.

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

