"""Kinetic oracle for the stress closure.

Solves the spatially homogeneous dumbbell Fokker-Planck equation on a
truncated configuration square and compares its Kramers stress moments
against the closed macroscopic moment equation, built from the solver's
own stretching and relaxation terms (model.add_stretching, add_relaxation).
For Hookean springs the closure is exact, so any mismatch measures
configuration-grid discretization and truncation only.  A density is a
plain (nq, nq) array of samples on the cell centers of [-Q, Q]^2.

The drift-diffusion update keeps three structural properties on purpose:
mass is conserved in exact flux form, the discrete Maxwellian is an exact
steady state of the relaxation part (the flux is written through psi/M
ratios), and positivity survives under the advertised CFL bound (limited
second-order upwind for the velocity-gradient drift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .integrate import BlowupError
from .model import PhysParams, add_relaxation, add_stretching
from .symcalc import SymMat2

TWO_PI = 2.0 * math.pi

# relative mass allowed on the outermost cell ring before the truncation
# box is declared too small for the flow being simulated
BOUNDARY_MASS_LIMIT = 1e-6
# closure_compare samples the gap every steps // SAMPLES steps (every step if fewer)
SAMPLES = 50
# fraction of the positivity-preserving step bound that fp_cfl_dt returns
CFL = 0.8


class TruncationBreach(RuntimeError):
    """Distribution mass reached the configuration-space truncation box."""


@dataclass(frozen=True)
class GradU2:
    """Constant velocity-gradient matrix driving the homogeneous problem."""

    xx: float = 0.0
    xy: float = 0.0
    yx: float = 0.0
    yy: float = 0.0

    def __post_init__(self):
        for name in ("xx", "xy", "yx", "yy"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"velocity gradient entry {name} must be finite")

    @staticmethod
    def shear(rate: float) -> "GradU2":
        return GradU2(xy=rate)

    @staticmethod
    def rotation(omega: float) -> "GradU2":
        return GradU2(xy=omega, yx=-omega)

    def max_row_sums(self) -> tuple[float, float]:
        return abs(self.xx) + abs(self.xy), abs(self.yx) + abs(self.yy)


def centers(nq: int, Q: float) -> np.ndarray:
    """Cell centers of [-Q, Q] split into nq cells of width 2 Q / nq."""
    return -Q + (np.arange(nq) + 0.5) * (2.0 * Q / nq)


def maxwellian(qx, qy):
    """Equilibrium density (1/2 pi) exp(-|q|^2 / 2) for the Hookean spring."""
    return np.exp(-0.5 * (np.asarray(qx) ** 2 + np.asarray(qy) ** 2)) / TWO_PI


def equilibrium_distribution(eta_bar: float, nq: int, Q: float) -> np.ndarray:
    """eta_bar times the Maxwellian, sampled at cell centers."""
    q = centers(nq, Q)
    return eta_bar * maxwellian(q[:, None], q[None, :])


def kramers_stress(psi: np.ndarray, Q: float, k: float) -> SymMat2:
    """k times the second moment of psi on [-Q, Q]^2; symmetric by construction."""
    q = centers(len(psi), Q)
    w = psi * (2.0 * Q / len(psi)) ** 2
    xx = float(np.sum(w * q[:, None] ** 2))
    yy = float(np.sum(w * q[None, :] ** 2))
    xy = float(np.sum(w * q[:, None] * q[None, :]))
    return SymMat2(k * xx, k * xy, k * yy)


def boundary_mass_fraction(psi: np.ndarray) -> float:
    """Mass on the outermost cell ring relative to the total."""
    total = float(np.sum(psi))
    if total <= 0.0:
        return 0.0
    ring = (
        float(np.sum(psi[0, :]))
        + float(np.sum(psi[-1, :]))
        + float(np.sum(psi[1:-1, 0]))
        + float(np.sum(psi[1:-1, -1]))
    )
    return ring / total


class _AxisConstants(NamedTuple):
    vel: np.ndarray  # drift velocity on the interior faces
    up: np.ndarray  # vel >= 0.0: the face takes its left-cell reconstruction


class _FpWork:
    """fp_step's constants for one (nq, Q, kappa, phys) and its scratch rows.

    Both axes run one axis-0 code path: the y constants are stored
    transposed, and the y pass reads a transposed copy of psi.  The scratch
    holds no data between calls, so every step of a comparison shares it.
    """

    def __init__(self, nq: int, Q: float, kappa: GradU2, phys: PhysParams):
        if nq < 4:
            raise ValueError("need at least 4 configuration cells per axis")
        if Q <= 0.0:
            raise ValueError("truncation radius must be positive")
        self.dq = dq = 2.0 * Q / nq
        diff = phys.A0 / (4.0 * phys.lam)
        q = centers(nq, Q)
        qf = q[:-1] + 0.5 * dq  # interior face coordinates
        m1 = np.exp(-0.5 * q**2)
        self.m1 = m1[:, None]
        self.neg_diff_eq = -diff * np.sqrt(m1[:-1] * m1[1:])[:, None]
        vel_x = kappa.xx * qf[:, None] + kappa.xy * q[None, :]
        vel_y = (kappa.yx * q[:, None] + kappa.yy * qf[None, :]).T.copy()
        self.axes = (_AxisConstants(vel_x, vel_x >= 0.0), _AxisConstants(vel_y, vel_y >= 0.0))
        rows = np.empty((4, nq, nq))
        self.mask = np.empty((nq, nq), dtype=bool)
        self.transposed = rows[3]
        self.cells = rows[2]
        # rows 0 and 1 hold face values
        self.faces = rows[:2, :-1]


def _mc_slopes(psi: np.ndarray, work: _FpWork) -> np.ndarray:
    """Monotonized-central limited slopes along axis 0, into work.cells.

    The outermost cells get zero slope.
    """
    d, tmp = work.faces
    np.subtract(psi[1:], psi[:-1], out=d)
    dm, dp = d[:-1], d[1:]
    slopes = work.cells
    lim = slopes[1:-1]
    np.abs(d, out=tmp)
    np.multiply(2.0, tmp, out=tmp)
    np.minimum(tmp[:-1], tmp[1:], out=lim)
    tmp = tmp[:-1]
    np.add(dm, dp, out=tmp)
    np.abs(tmp, out=tmp)
    np.multiply(0.5, tmp, out=tmp)
    np.minimum(lim, tmp, out=lim)
    # copysign(lim, dm) is sign(dm) * lim wherever dm * dp > 0.0 keeps it
    np.copysign(lim, dm, out=lim)
    # where(dm * dp > 0.0, lim, 0.0)
    np.multiply(dm, dp, out=tmp)
    differ = work.mask[1:-1]
    np.greater(tmp, 0.0, out=differ)
    np.logical_not(differ, out=differ)
    np.copyto(lim, 0.0, where=differ)
    slopes[0] = 0.0
    slopes[-1] = 0.0
    return slopes


def _axis_flux(psi: np.ndarray, axis: _AxisConstants, work: _FpWork) -> np.ndarray:
    """Interior-face flux along axis 0, into work.faces[1].

    Limited upwind drift plus ratio diffusion.
    """
    half = _mc_slopes(psi, work)
    np.multiply(0.5, half, out=half)
    left, flux = work.faces
    np.add(psi[:-1], half[:-1], out=left)
    np.subtract(psi[1:], half[1:], out=flux)
    np.copyto(flux, left, where=axis.up)
    np.multiply(axis.vel, flux, out=flux)  # the drift
    ratio = work.cells
    np.divide(psi, work.m1, out=ratio)
    fp = left
    np.subtract(ratio[1:], ratio[:-1], out=fp)
    np.multiply(work.neg_diff_eq, fp, out=fp)
    np.divide(fp, work.dq, out=fp)
    np.add(flux, fp, out=flux)
    return flux


def _flux_divergence(flux: np.ndarray, rate: float, work: _FpWork) -> np.ndarray:
    """rate times the axis-0 divergence of the interior-face flux, into work.cells.

    The walls carry no flux.  The last cell's term is stored negated, so
    subtracting it adds rate * flux[-1] to the same bits.
    """
    div = work.cells
    np.multiply(rate, flux[0], out=div[0])
    np.subtract(flux[1:], flux[:-1], out=div[1:-1])
    np.multiply(rate, div[1:-1], out=div[1:-1])
    np.multiply(rate, flux[-1], out=div[-1])
    np.negative(div[-1], out=div[-1])
    return div


def fp_step(psi: np.ndarray, work: _FpWork, dt: float) -> np.ndarray:
    """One conservative explicit step of the drift-relaxation-diffusion flow.

    d psi/dt + div(kappa q psi) = (A0 / 4 lambda) div(grad psi + q psi);
    the right side is discretized through M grad(psi / M) with geometric-mean
    Maxwellian face factors, so the sampled Maxwellian is exactly stationary.
    Zero-flux walls keep the total mass constant in exact arithmetic.

    The constants and scratch rows come from work, built once per
    comparison, so a warm step allocates only the array it returns.
    """
    with np.errstate(over="ignore"):  # overflow lands in the post-check
        if not np.isfinite(psi, out=work.mask).all():
            raise BlowupError("kinetic distribution lost finiteness")
        rate = dt / work.dq
        out = psi - _flux_divergence(_axis_flux(psi, work.axes[0], work), rate, work)
        # the y pass reads the input, not the x-updated out
        np.copyto(work.transposed, psi.T)
        div = _flux_divergence(_axis_flux(work.transposed, work.axes[1], work), rate, work)
        np.copyto(work.transposed, div.T)
        out -= work.transposed
    if not np.isfinite(out, out=work.mask).all():
        raise BlowupError("kinetic distribution lost finiteness")
    return out


def fp_cfl_dt(kappa: GradU2, phys: PhysParams, nq: int, Q: float) -> float:
    """Time step keeping the explicit update positivity-preserving.

    The diffusion bound carries the worst-case Maxwellian face ratio
    exp(Q dq / 2); the drift bound carries a factor 2 margin for the
    limited reconstruction.
    """
    dq = 2.0 * Q / nq
    diff = phys.A0 / (4.0 * phys.lam)
    diff_rate = 4.0 * diff * math.exp(0.5 * Q * dq) / dq**2
    ax, ay = kappa.max_row_sums()
    drift_rate = 2.0 * (ax + ay) * Q / dq
    return CFL / (diff_rate + drift_rate)


def _moment_rhs(txx: float, txy: float, tyy: float, eta: float,
                kappa: GradU2, phys: PhysParams) -> list[float]:
    """The solver's stress source terms, evaluated for a homogeneous flow."""
    out = [0.0, 0.0, 0.0]
    add_stretching(out, kappa.xx, kappa.xy, kappa.yx, kappa.yy, txx, txy, tyy)
    add_relaxation(out, txx, txy, tyy, eta, phys)
    return out


def macro_moment_step(T: SymMat2, eta: float, kappa: GradU2, phys: PhysParams,
                      dt: float) -> SymMat2:
    """Classical RK4 update of dT/dt = kappa T + T kappa^T + relaxation."""
    y = (T.xx, T.xy, T.yy)

    def f(v):
        return _moment_rhs(v[0], v[1], v[2], eta, kappa, phys)

    k1 = f(y)
    k2 = f(tuple(a + 0.5 * dt * b for a, b in zip(y, k1)))
    k3 = f(tuple(a + 0.5 * dt * b for a, b in zip(y, k2)))
    k4 = f(tuple(a + dt * b for a, b in zip(y, k3)))
    out = tuple(
        a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    )
    return SymMat2(out[0], out[1], out[2])


class ClosureSample(NamedTuple):
    t: float
    kinetic: SymMat2
    macro: SymMat2
    error: float  # Frobenius gap over k eta_bar


class ClosureReport(NamedTuple):
    samples: tuple[ClosureSample, ...]
    max_error: float
    boundary_fraction: float  # worst value seen over the run
    dt: float
    steps: int


def closure_compare(
    kappa: GradU2,
    eta_bar: float,
    phys: PhysParams,
    t_end: float,
    nq: int = 128,
    Q: float = 8.0,
) -> ClosureReport:
    """March the kinetic and macroscopic descriptions from matched data.

    psi0 = eta_bar M pairs with T0 = k eta_bar I (no stress shift); the report
    carries the Frobenius gap normalized by k eta_bar at t = 0, at t_end and
    every steps // SAMPLES steps.  Raises TruncationBreach as soon as the
    outer cell ring holds more than BOUNDARY_MASS_LIMIT of the mass.
    """
    if eta_bar <= 0.0:
        raise ValueError("eta_bar must be positive")
    if not (math.isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be a finite positive number, not {t_end!r}")
    work = _FpWork(nq, Q, kappa, phys)
    psi = equilibrium_distribution(eta_bar, nq, Q)
    T = SymMat2(phys.k * eta_bar, 0.0, phys.k * eta_bar)
    dt = fp_cfl_dt(kappa, phys, nq, Q)
    steps = max(1, math.ceil(t_end / dt))
    dt = t_end / steps
    stride = max(1, steps // SAMPLES)
    scale = phys.k * eta_bar

    worst_boundary = boundary_mass_fraction(psi)

    def sample(t: float) -> ClosureSample:
        kin = kramers_stress(psi, Q, phys.k)
        gap = kin.sub(T).frobenius() / scale
        return ClosureSample(t, kin, T, gap)

    out = [sample(0.0)]
    for n in range(1, steps + 1):
        psi = fp_step(psi, work, dt)
        T = macro_moment_step(T, eta_bar, kappa, phys, dt)
        frac = boundary_mass_fraction(psi)
        worst_boundary = max(worst_boundary, frac)
        if frac > BOUNDARY_MASS_LIMIT:
            raise TruncationBreach(
                f"boundary ring holds {frac:.3e} of the mass at t={n * dt:.6g}"
                f" (limit {BOUNDARY_MASS_LIMIT:.1e}); enlarge Q"
            )
        if n % stride == 0 or n == steps:
            out.append(sample(n * dt))
    # np.max, not max: max() skips a NaN that follows a number
    max_error = float(np.max([s.error for s in out]))
    return ClosureReport(tuple(out), max_error, worst_boundary, dt, steps)

