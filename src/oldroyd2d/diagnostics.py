"""Run-time monitors: energy budget, conservation, positivity, stress norms.

Everything here is read-only over state snapshots.  The energy report
carries the stored energy together with the instantaneous dissipation and
source rates, so a time series of reports can be folded into a one-sided
budget residual and a two-sided budget gap.  The remaining monitors track
the quantities a healthy run must keep under control: total mass of rho
and eta, the minimum eigenvalue of the conformation stress, its L2 and
sup norms, and the two discrete gradient inequalities (with and without
the eigenvalue cutoff) that tie log-stress oscillation to stress
oscillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import grid as g2
from . import symcalc
from .grid import SymTensorField2D, cell_sum
from .model import PhysParams, RegParams, SimState, tr_log_field, velocity_jacobian
from .symcalc import DIM

# slack granted to the discrete field inequalities, scaled by 1 + |lhs| + |rhs|
FIELD_INEQ_SLACK = 1e-8


# ---------------------------------------------------------------------------
# energy report


@dataclass(frozen=True)
class EnergyReport:
    """Stored energy components plus instantaneous dissipation/source rates."""

    t: float
    kinetic: float
    pressure_pot: float
    artificial_pot: float
    polymer_entropy: float
    polymer_quad: float
    stress_trace: float
    eta_diss: float
    newtonian_diss: float
    stress_relax: float
    inverse_term: float
    log_grad: float
    force_work: float
    eta_source: float
    const_source: float

    @property
    def total(self) -> float:
        return (
            self.kinetic
            + self.pressure_pot
            + self.artificial_pot
            + self.polymer_entropy
            + self.polymer_quad
            + self.stress_trace
        )

    @property
    def dissipation(self) -> float:
        return (
            self.eta_diss
            + self.newtonian_diss
            + self.stress_relax
            + self.inverse_term
            + self.log_grad
        )

    @property
    def sources(self) -> float:
        return self.force_work + self.eta_source + self.const_source


def _xlogx(arr: np.ndarray) -> np.ndarray:
    # continuous extension: s log s -> 0 as s -> 0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(arr > 0.0, arr * np.log(np.where(arr > 0.0, arr, 1.0)), 0.0)


def _div_and_dev2(jxx, jxy, jyx, jyy):
    """div u and the squared deviatoric strain rate |D u - (div u / 2) I|^2."""
    div_u = jxx + jyy
    off = 0.5 * (jxy + jyx)
    return div_u, (jxx - 0.5 * div_u) ** 2 + (jyy - 0.5 * div_u) ** 2 + 2.0 * off**2


def energy(state: SimState, phys: PhysParams, reg: RegParams) -> EnergyReport:
    """Evaluate every energy component and rate on one state snapshot.

    With alpha > 0 the stress term is int 1/2 tr(T - alpha log T) plus the
    constant |Omega| (alpha log alpha - alpha) that makes it nonnegative;
    the alpha = 0 variant keeps plain 1/2 tr T and drops every log-derived
    rate.  Raises NotSPDError if alpha > 0 and T is not positive definite.
    """
    grid = state.rho.grid
    rho, u, eta, T = state.rho, state.u, state.eta, state.T
    alpha = reg.alpha

    kinetic = 0.5 * cell_sum(grid, rho.data * (u.x**2 + u.y**2))
    pressure_pot = (phys.a / (phys.gamma - 1.0)) * cell_sum(
        grid, np.maximum(rho.data, 0.0) ** phys.gamma
    )
    artificial_pot = 0.0
    if reg.sigma1 != 0.0:
        artificial_pot = (reg.sigma1 / (reg.Gamma - 1.0)) * cell_sum(
            grid, np.maximum(rho.data, 0.0) ** reg.Gamma
        )
    polymer_entropy = phys.k * phys.L * cell_sum(grid, _xlogx(eta.data) + 1.0)
    polymer_quad = phys.delta * cell_sum(grid, eta.data**2)

    tr_t = T.xx + T.yy
    if alpha != 0.0:
        trlog = tr_log_field(T, context="energy report")
        stress_trace = 0.5 * cell_sum(grid, tr_t - alpha * trlog) + grid.area * (
            alpha * math.log(alpha) - alpha
        )
    else:
        stress_trace = 0.5 * cell_sum(grid, tr_t)

    dex = g2.grad_x(eta.data, eta.bc, grid.hx)
    dey = g2.grad_y(eta.data, eta.bc, grid.hy)
    grad_eta2 = dex**2 + dey**2
    if phys.L != 0.0:
        with np.errstate(divide="ignore", invalid="ignore"):
            entropic = np.where(
                grad_eta2 == 0.0, 0.0, phys.k * phys.L * grad_eta2 / eta.data
            )
    else:
        entropic = np.zeros_like(grad_eta2)
    eta_diss = phys.eps * cell_sum(grid, entropic + 2.0 * phys.delta * grad_eta2)

    div_u, dev2 = _div_and_dev2(*velocity_jacobian(u))
    newtonian_diss = cell_sum(grid, phys.muS * dev2 + phys.muB * div_u**2)

    rate = phys.A0 / (4.0 * phys.lam)
    stress_relax = rate * cell_sum(grid, tr_t)
    if alpha != 0.0:
        det = T.xx * T.yy - T.xy**2
        inverse_term = alpha * phys.k * rate * cell_sum(
            grid, (eta.data + alpha) * tr_t / det
        )
        gx = g2.grad_x(trlog, T.bc, grid.hx)
        gy = g2.grad_y(trlog, T.bc, grid.hy)
        log_grad = (alpha * phys.eps / (2.0 * DIM)) * cell_sum(grid, gx**2 + gy**2)
        const_source = alpha * DIM * phys.A0 / (4.0 * phys.lam) * grid.area
    else:
        inverse_term = 0.0
        log_grad = 0.0
        const_source = 0.0

    force_work = 0.0
    if phys.f is not None:
        force_work = cell_sum(grid, rho.data * (phys.f.x * u.x + phys.f.y * u.y))
    eta_source = (phys.k * phys.A0 * DIM / (4.0 * phys.lam)) * cell_sum(
        grid, eta.data + alpha
    )

    return EnergyReport(
        t=state.t,
        kinetic=kinetic,
        pressure_pot=pressure_pot,
        artificial_pot=artificial_pot,
        polymer_entropy=polymer_entropy,
        polymer_quad=polymer_quad,
        stress_trace=stress_trace,
        eta_diss=eta_diss,
        newtonian_diss=newtonian_diss,
        stress_relax=stress_relax,
        inverse_term=inverse_term,
        log_grad=log_grad,
        force_work=force_work,
        eta_source=eta_source,
        const_source=const_source,
    )


def _budget_mismatch(reports: Sequence[EnergyReport]) -> list[float]:
    """E(t_n) + int (dissipation - sources) dt - E(t_0) for n >= 1.

    The integral is accumulated by the trapezoidal rule with the spacing
    taken from the report timestamps, which also covers a final sample
    recorded off cadence.
    """
    e0 = reports[0].total
    out = []
    acc = 0.0
    for prev, rep in zip(reports[:-1], reports[1:]):
        acc += 0.5 * (rep.t - prev.t) * (
            (prev.dissipation - prev.sources) + (rep.dissipation - rep.sources)
        )
        out.append(rep.total + acc - e0)
    return out


def energy_residual_series(reports: Sequence[EnergyReport]) -> list[float]:
    """One-sided budget residual at each report time, normalized by E0 + 1.

    The budget mismatch is clipped below at zero: extra numerical
    dissipation is allowed, spurious energy production is not.
    """
    if not reports:
        return []
    scale = reports[0].total + 1.0
    # residual at t0 is E0 - E0
    return [0.0] + [max(m, 0.0) / scale for m in _budget_mismatch(reports)]


def energy_inequality_residual(reports: Sequence[EnergyReport]) -> float:
    """Max over report times of the one-sided budget residual; 0 if empty."""
    series = energy_residual_series(reports)
    # np.max, unlike max, lets a NaN report through
    return float(np.max(series)) if series else 0.0


def energy_budget_gap(reports: Sequence[EnergyReport]) -> float:
    """Max absolute two-sided budget mismatch, normalized by E0 + 1.

    Unlike the one-sided residual this does not forgive extra numerical
    dissipation, so it measures how tightly the scheme closes the budget
    and shrinks under space-time refinement.
    """
    if not reports:
        return 0.0
    worst = float(np.max([0.0] + [abs(m) for m in _budget_mismatch(reports)]))
    return worst / (reports[0].total + 1.0)


# ---------------------------------------------------------------------------
# conservation and positivity


def conservation(state: SimState, initial: SimState) -> tuple[float, float]:
    """Relative drift of total mass and total polymer density."""

    def rel_drift(now: float, ref: float) -> float:
        den = abs(ref) if ref != 0.0 else 1.0
        return abs(now - ref) / den

    return (
        rel_drift(cell_sum(state.rho.grid, state.rho.data),
                  cell_sum(initial.rho.grid, initial.rho.data)),
        rel_drift(cell_sum(state.eta.grid, state.eta.data),
                  cell_sum(initial.eta.grid, initial.eta.data)),
    )


class SPDReport(NamedTuple):
    min_eig: float
    argmin: tuple[int, int]


def spd_monitor(T: SymTensorField2D) -> SPDReport:
    """Pointwise minimum stress eigenvalue and its cell.

    Uses the solver's eigenvalues (symcalc.eig_fields), so the monitor and
    the solver's positivity check agree on every cell.  Reports a
    nonpositive minimum instead of raising.
    """
    lam2 = symcalc.eig_fields(T.xx, T.xy, T.yy)[1]
    idx = np.unravel_index(np.argmin(lam2), lam2.shape)
    return SPDReport(float(lam2[idx]), (int(idx[0]), int(idx[1])))


# ---------------------------------------------------------------------------
# stress norms


def stress_norms(T: SymTensorField2D) -> tuple[float, float]:
    """(sup, l2): the largest pointwise Frobenius norm over cells and int |T|^2.

    Both count the off-diagonal twice and share one pointwise square.
    """
    sq = T.frobenius_sq()
    return math.sqrt(float(np.max(sq))), cell_sum(T.grid, sq)


# ---------------------------------------------------------------------------
# functional inequalities on a state


class FieldIneq(NamedTuple):
    lhs: float
    rhs: float
    margin: float  # rhs - lhs
    holds: bool


def _field_ineq(lhs: float, rhs: float) -> FieldIneq:
    margin = rhs - lhs
    holds = margin >= -FIELD_INEQ_SLACK * (1.0 + abs(lhs) + abs(rhs))
    return FieldIneq(lhs, rhs, margin, holds)


def _tensor_grads(grid, bc, xx, xy, yy):
    for deriv, h in ((g2.grad_x, grid.hx), (g2.grad_y, grid.hy)):
        yield deriv(xx, bc, h), deriv(xy, bc, h), deriv(yy, bc, h)


def log_grad_bound(T: SymTensorField2D) -> FieldIneq:
    """(1/2) int |grad tr log T|^2 <= sum_j int tr(((d_j T) T^-1)^2).

    Raises NotSPDError when T has a nonpositive eigenvalue.
    """
    grid = T.grid
    trlog = tr_log_field(T, context="log-gradient inequality")
    gx = g2.grad_x(trlog, T.bc, grid.hx)
    gy = g2.grad_y(trlog, T.bc, grid.hy)
    lhs = 0.5 * cell_sum(grid, gx**2 + gy**2)

    ixx, ixy, iyy = symcalc.inverse_fields(T.xx, T.xy, T.yy)
    rhs = 0.0
    for dxx, dxy, dyy in _tensor_grads(grid, T.bc, T.xx, T.xy, T.yy):
        m11 = dxx * ixx + dxy * ixy
        m12 = dxx * ixy + dxy * iyy
        m21 = dxy * ixx + dyy * ixy
        m22 = dxy * ixy + dyy * iyy
        rhs += cell_sum(grid, m11**2 + m22**2 + 2.0 * m12 * m21)
    return _field_ineq(lhs, rhs)


def cutoff_log_grad_bound(T: SymTensorField2D, sigma3: float) -> FieldIneq:
    """(1/2) int |grad tr log chi(T)|^2 <= -int grad T :: grad chi(T)^-1.

    chi floors the eigenvalues at sigma3, so this version tolerates stress
    fields that have lost definiteness as long as sigma3 > 0.
    """
    grid = T.grid
    (chi1, chi2), (cxx, cxy, cyy) = symcalc.cutoff_fields(T.xx, T.xy, T.yy, sigma3)
    trlog_chi = np.log(chi1) + np.log(chi2)
    gx = g2.grad_x(trlog_chi, T.bc, grid.hx)
    gy = g2.grad_y(trlog_chi, T.bc, grid.hy)
    lhs = 0.5 * cell_sum(grid, gx**2 + gy**2)

    inv_xx, inv_xy, inv_yy = symcalc.inverse_fields(cxx, cxy, cyy)
    rhs = 0.0
    t_grads = _tensor_grads(grid, T.bc, T.xx, T.xy, T.yy)
    inv_grads = _tensor_grads(grid, T.bc, inv_xx, inv_xy, inv_yy)
    for (txx, txy, tyy), (vxx, vxy, vyy) in zip(t_grads, inv_grads):
        rhs -= cell_sum(grid, txx * vxx + 2.0 * txy * vxy + tyy * vyy)
    return _field_ineq(lhs, rhs)


# ---------------------------------------------------------------------------
# time-series CSV

# EnergyReport's fields after t, in declaration order
_ENERGY_FIELDS = tuple(f.name for f in fields(EnergyReport) if f.name != "t")

# Fixed column layout.  mass / eta_mass are int rho and int eta; E_total is
# the stored energy; the energy columns follow; residual is the one-sided
# budget residual up to that row; min_eig is the pointwise minimum stress
# eigenvalue; sup_T the largest pointwise Frobenius norm; l2_T is int |T|^2.
CSV_COLUMNS = ("t", "mass", "eta_mass", "E_total", *_ENERGY_FIELDS,
               "residual", "min_eig", "sup_T", "l2_T")


class TimeseriesRecorder:
    """Collects one CSV row per sampled state; residuals are filled at the end.

    Use the hook method as a diag hook for integrate.run, then call rows()
    once the run finishes.
    """

    def __init__(self, phys: PhysParams, reg: RegParams):
        self.phys = phys
        self.reg = reg
        self.reports: list[EnergyReport] = []
        self._rows: list[dict[str, float]] = []

    def hook(self, state: SimState) -> None:
        rep = energy(state, self.phys, self.reg)
        row = {"t": state.t,
               "mass": cell_sum(state.rho.grid, state.rho.data),
               "eta_mass": cell_sum(state.eta.grid, state.eta.data),
               "E_total": rep.total}
        for name in _ENERGY_FIELDS:
            row[name] = getattr(rep, name)
        row["residual"] = 0.0
        row["min_eig"] = spd_monitor(state.T).min_eig
        row["sup_T"], row["l2_T"] = stress_norms(state.T)
        self.reports.append(rep)
        self._rows.append(row)

    def rows(self) -> list[dict[str, float]]:
        residuals = energy_residual_series(self.reports)
        for row, res in zip(self._rows, residuals):
            row["residual"] = res
        return self._rows


def format_csv(rows: Iterable[Mapping[str, float]]) -> str:
    """Render rows under the fixed header at 17 significant digits."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(format(float(row[col]), ".17g") for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_timeseries(path, rows: Iterable[Mapping[str, float]]) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_csv(rows))
