"""Kinetic oracle for the stress closure.

Solves the spatially homogeneous dumbbell Fokker-Planck equation on a
truncated configuration square and compares its Kramers stress moments
against the closed macroscopic moment equation, built from the solver's
own stretching and relaxation terms (model.add_stretching, add_relaxation).
For Hookean springs the closure is exact, so any mismatch measures
configuration-grid discretization and truncation only.

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


@dataclass
class KineticDistribution:
    """Density samples on the cell centers of [-Q, Q]^2."""

    psi: np.ndarray
    nq: int
    Q: float

    def __post_init__(self):
        if self.nq < 4:
            raise ValueError("need at least 4 configuration cells per axis")
        if self.Q <= 0.0:
            raise ValueError("truncation radius must be positive")
        if self.psi.shape != (self.nq, self.nq):
            raise ValueError("psi shape does not match nq")

    @property
    def dq(self) -> float:
        return 2.0 * self.Q / self.nq

    def centers(self) -> np.ndarray:
        return -self.Q + (np.arange(self.nq) + 0.5) * self.dq


def maxwellian(qx, qy):
    """Equilibrium density (1/2 pi) exp(-|q|^2 / 2) for the Hookean spring."""
    return np.exp(-0.5 * (np.asarray(qx) ** 2 + np.asarray(qy) ** 2)) / TWO_PI


def equilibrium_distribution(eta_bar: float, nq: int = 128, Q: float = 8.0) -> KineticDistribution:
    """eta_bar times the Maxwellian, sampled at cell centers."""
    psi = KineticDistribution(np.zeros((nq, nq)), nq, Q)
    q = psi.centers()
    psi.psi = eta_bar * maxwellian(q[:, None], q[None, :])
    return psi


def kramers_stress(psi: KineticDistribution, k: float) -> SymMat2:
    """k times the second moment of psi; symmetric by construction."""
    q = psi.centers()
    w = psi.psi * psi.dq**2
    xx = float(np.sum(w * q[:, None] ** 2))
    yy = float(np.sum(w * q[None, :] ** 2))
    xy = float(np.sum(w * q[:, None] * q[None, :]))
    return SymMat2(k * xx, k * xy, k * yy)


def boundary_mass_fraction(psi: KineticDistribution) -> float:
    """Mass on the outermost cell ring relative to the total."""
    total = float(np.sum(psi.psi))
    if total <= 0.0:
        return 0.0
    ring = (
        float(np.sum(psi.psi[0, :]))
        + float(np.sum(psi.psi[-1, :]))
        + float(np.sum(psi.psi[1:-1, 0]))
        + float(np.sum(psi.psi[1:-1, -1]))
    )
    return ring / total


def _slab(arr: np.ndarray, lo: int, hi: int, axis: int) -> np.ndarray:
    """View of indices lo..hi-1 along axis 0 or 1."""
    return arr[lo:hi] if axis == 0 else arr[:, lo:hi]


def _mc_slopes(psi: np.ndarray, axis: int) -> np.ndarray:
    """Monotonized-central limited slopes; zero in the outermost cells."""
    d = np.diff(psi, axis=axis)
    m = d.shape[axis]
    dm = _slab(d, 0, m - 1, axis)
    dp = _slab(d, 1, m, axis)
    same = dm * dp > 0.0
    lim = np.sign(dm) * np.minimum(
        np.minimum(2.0 * np.abs(dm), 2.0 * np.abs(dp)), 0.5 * np.abs(dm + dp)
    )
    inner = np.where(same, lim, 0.0)
    slopes = np.zeros(psi.shape, dtype=inner.dtype)
    _slab(slopes, 1, m, axis)[...] = inner
    return slopes


def _axis_flux(psi2d: np.ndarray, face_vel: np.ndarray, ratio: np.ndarray,
               eq_face: np.ndarray, diff: float, dq: float, axis: int) -> np.ndarray:
    """Interior-face flux along one axis: limited upwind drift + ratio diffusion."""
    slopes = _mc_slopes(psi2d, axis)
    n = psi2d.shape[axis]
    left = _slab(psi2d, 0, n - 1, axis) + 0.5 * _slab(slopes, 0, n - 1, axis)
    right = _slab(psi2d, 1, n, axis) - 0.5 * _slab(slopes, 1, n, axis)
    drift = np.where(face_vel >= 0.0, face_vel * left, face_vel * right)
    fp = -diff * eq_face * (_slab(ratio, 1, n, axis) - _slab(ratio, 0, n - 1, axis)) / dq
    return drift + fp


def fp_step(psi: KineticDistribution, kappa: GradU2, phys: PhysParams,
            dt: float) -> KineticDistribution:
    """One conservative explicit step of the drift-relaxation-diffusion flow.

    d psi/dt + div(kappa q psi) = (A0 / 4 lambda) div(grad psi + q psi);
    the right side is discretized through M grad(psi / M) with geometric-mean
    Maxwellian face factors, so the sampled Maxwellian is exactly stationary.
    Zero-flux walls keep the total mass constant in exact arithmetic.
    """
    if not np.all(np.isfinite(psi.psi)):
        raise BlowupError("kinetic distribution lost finiteness")
    dq = psi.dq
    q = psi.centers()
    qf = q[:-1] + 0.5 * dq  # interior face coordinates
    diff = phys.A0 / (4.0 * phys.lam)
    m1 = np.exp(-0.5 * q**2)
    eq_face = np.sqrt(m1[:-1] * m1[1:])

    with np.errstate(over="ignore"):  # overflow lands in the post-check
        ratio_x = psi.psi / m1[:, None]
        vel_x = kappa.xx * qf[:, None] + kappa.xy * q[None, :]
        flux_x = _axis_flux(psi.psi, vel_x, ratio_x, eq_face[:, None], diff, dq, axis=0)

        ratio_y = psi.psi / m1[None, :]
        vel_y = kappa.yx * q[:, None] + kappa.yy * qf[None, :]
        flux_y = _axis_flux(psi.psi, vel_y, ratio_y, eq_face[None, :], diff, dq, axis=1)

    out = psi.psi.copy()
    out[0, :] -= dt / dq * flux_x[0, :]
    out[1:-1, :] -= dt / dq * np.diff(flux_x, axis=0)
    out[-1, :] += dt / dq * flux_x[-1, :]
    out[:, 0] -= dt / dq * flux_y[:, 0]
    out[:, 1:-1] -= dt / dq * np.diff(flux_y, axis=1)
    out[:, -1] += dt / dq * flux_y[:, -1]

    if not np.all(np.isfinite(out)):
        raise BlowupError("kinetic distribution lost finiteness")
    return KineticDistribution(out, psi.nq, psi.Q)


def fp_cfl_dt(kappa: GradU2, phys: PhysParams, nq: int, Q: float,
              cfl: float = 0.8) -> float:
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
    return cfl / (diff_rate + drift_rate)


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
    psi = equilibrium_distribution(eta_bar, nq, Q)
    T = SymMat2(phys.k * eta_bar, 0.0, phys.k * eta_bar)
    dt = fp_cfl_dt(kappa, phys, nq, Q)
    steps = max(1, math.ceil(t_end / dt))
    dt = t_end / steps
    stride = max(1, steps // SAMPLES)
    scale = phys.k * eta_bar

    worst_boundary = boundary_mass_fraction(psi)

    def sample(t: float) -> ClosureSample:
        kin = kramers_stress(psi, phys.k)
        gap = kin.sub(T).frobenius() / scale
        return ClosureSample(t, kin, T, gap)

    out = [sample(0.0)]
    for n in range(1, steps + 1):
        psi = fp_step(psi, kappa, phys, dt)
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
    max_error = max(s.error for s in out)
    return ClosureReport(tuple(out), max_error, worst_boundary, dt, steps)

