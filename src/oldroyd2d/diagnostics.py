"""Run-time monitors: energy budget, conservation, positivity, norm bounds.

Everything here is read-only over state snapshots.  The energy report
carries the stored energy together with the instantaneous dissipation and
source rates, so a time series of reports can be folded into a one-sided
budget residual.  The remaining monitors track the quantities a healthy
run must keep under control: total mass of rho and eta, the minimum
eigenvalue of the conformation stress, its L2/gradient norms, and the
discrete gradient inequalities that tie log-stress oscillation to stress
oscillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from . import grid as g2
from . import symcalc
from .grid import ScalarField2D, SymTensorField2D, VectorField2D, cell_sum
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
    return max(series) if series else 0.0


def energy_budget_gap(reports: Sequence[EnergyReport]) -> float:
    """Max absolute two-sided budget mismatch, normalized by E0 + 1.

    Unlike the one-sided residual this does not forgive extra numerical
    dissipation, so it measures how tightly the scheme closes the budget
    and shrinks under space-time refinement.
    """
    if not reports:
        return 0.0
    worst = max([0.0] + [abs(m) for m in _budget_mismatch(reports)])
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


class TraceStats(NamedTuple):
    inv_trace: float  # int tr(T^-1); nan when T is not SPD
    entropy_trace: float  # int tr(T - alpha log T); nan when alpha > 0 and not SPD


class SPDReport(NamedTuple):
    min_eig: float
    argmin: tuple[int, int]
    trace_stats: TraceStats


def spd_monitor(T: SymTensorField2D, alpha: float = 0.0) -> SPDReport:
    """Pointwise minimum eigenvalue plus the trace integrals a run must bound.

    Reports nonpositive minima instead of raising; the integrals that need
    positivity come back as nan in that case.
    """
    grid = T.grid
    lam_min = symcalc.min_eig_fields(T.xx, T.xy, T.yy)
    idx = np.unravel_index(np.argmin(lam_min), lam_min.shape)
    min_eig = float(lam_min[idx])
    tr_t = T.xx + T.yy
    spd = min_eig > 0.0 and bool(np.all(np.isfinite(lam_min)))
    if spd:
        det = T.xx * T.yy - T.xy**2
        inv_trace = cell_sum(grid, tr_t / det)
        if alpha != 0.0:
            lam1, lam2 = symcalc.eig_fields(T.xx, T.xy, T.yy)
            entropy_trace = cell_sum(
                grid, tr_t - alpha * (np.log(lam1) + np.log(lam2))
            )
        else:
            entropy_trace = cell_sum(grid, tr_t)
    else:
        inv_trace = math.nan
        entropy_trace = cell_sum(grid, tr_t) if alpha == 0.0 else math.nan
    return SPDReport(min_eig, (int(idx[0]), int(idx[1])), TraceStats(inv_trace, entropy_trace))


# ---------------------------------------------------------------------------
# stress norms


def stress_l2(T: SymTensorField2D) -> float:
    """int |T|^2 with the off-diagonal counted twice."""
    return cell_sum(T.grid, T.xx**2 + 2.0 * T.xy**2 + T.yy**2)


def stress_sup(T: SymTensorField2D) -> float:
    """Largest pointwise Frobenius norm over cells."""
    return math.sqrt(float(np.max(T.xx**2 + 2.0 * T.xy**2 + T.yy**2)))


def stress_grad_l2(T: SymTensorField2D) -> float:
    """int |grad T|^2, summed over both derivative directions."""
    grid = T.grid
    total = 0.0
    for comp, weight in ((T.xx, 1.0), (T.xy, 2.0), (T.yy, 1.0)):
        dx = g2.grad_x(comp, T.bc, grid.hx)
        dy = g2.grad_y(comp, T.bc, grid.hy)
        total += weight * cell_sum(grid, dx**2 + dy**2)
    return total


class StressL2Report(NamedTuple):
    bound: float  # sup_t int |T|^2 + eps int int |grad T|^2 + (A0/4 lam) int int |T|^2
    sup_l2: float
    grad_accum: float
    relax_accum: float
    l2_series: tuple[float, ...]
    doubled: bool  # some value more than doubled over a unit-time window


def stress_l2_monitor(
    times: Sequence[float],
    stresses: Sequence[SymTensorField2D],
    phys: PhysParams,
) -> StressL2Report:
    """Accumulate the stress norm bound over a sampled run and flag blowup."""
    if len(times) != len(stresses):
        raise ValueError("times and stress snapshots must pair up")
    l2_vals = [stress_l2(T) for T in stresses]
    grad_vals = [stress_grad_l2(T) for T in stresses]
    grad_accum = 0.0
    relax_accum = 0.0
    for i in range(1, len(times)):
        half_dt = 0.5 * (times[i] - times[i - 1])
        grad_accum += half_dt * (grad_vals[i - 1] + grad_vals[i])
        relax_accum += half_dt * (l2_vals[i - 1] + l2_vals[i])
    sup_l2 = max(l2_vals) if l2_vals else 0.0
    bound = sup_l2 + phys.eps * grad_accum + phys.A0 / (4.0 * phys.lam) * relax_accum

    doubled = not all(math.isfinite(v) for v in l2_vals)
    window_min = math.inf
    lag = 0
    for j in range(len(times)):
        while lag < j and times[j] - times[lag] >= 1.0:
            window_min = min(window_min, l2_vals[lag])
            lag += 1
        if window_min < math.inf and l2_vals[j] > 2.0 * window_min:
            doubled = True
    return StressL2Report(bound, sup_l2, grad_accum, relax_accum, tuple(l2_vals), doubled)


def relaxation_distance(state: SimState, phys: PhysParams, reg: RegParams) -> float:
    """Squared L2 distance of the stress from its local relaxation target."""
    target = phys.k * (state.eta.data + reg.alpha)
    dxx = state.T.xx - target
    dyy = state.T.yy - target
    return cell_sum(state.rho.grid, dxx**2 + 2.0 * state.T.xy**2 + dyy**2)


# ---------------------------------------------------------------------------
# renormalized continuity residual


def renormalization_residual(
    b: Callable[[np.ndarray], np.ndarray],
    rho_series: Sequence[ScalarField2D],
    u_series: Sequence[VectorField2D],
    dt: float,
    b_prime: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Max residual of d/dt int b(rho) + int (b'(rho) rho - b(rho)) div u.

    The transport term int div(b(rho) u) is included as well; it telescopes
    to zero under no-slip and costs nothing.  b must be C^1 on (0, inf) and
    continuous at 0, with derivative b_prime.
    """
    if len(rho_series) != len(u_series):
        raise ValueError("rho and velocity series must pair up")
    if len(rho_series) < 2:
        return 0.0
    grid = rho_series[0].grid

    def spatial(rho: ScalarField2D, u: VectorField2D) -> float:
        brho = b(rho.data)
        transport = cell_sum(
            grid, g2.upwind_div(u.x, u.y, brho, rho.bc, grid.hx, grid.hy)
        )
        div_u = g2.grad_x(u.x, u.bc, grid.hx) + g2.grad_y(u.y, u.bc, grid.hy)
        compress = cell_sum(grid, (b_prime(rho.data) * rho.data - brho) * div_u)
        return transport + compress

    worst = 0.0
    spatial_prev = spatial(rho_series[0], u_series[0])
    mass_prev = cell_sum(grid, b(rho_series[0].data))
    for rho, u in zip(rho_series[1:], u_series[1:]):
        spatial_next = spatial(rho, u)
        mass_next = cell_sum(grid, b(rho.data))
        residual = (mass_next - mass_prev) / dt + 0.5 * (spatial_prev + spatial_next)
        worst = max(worst, abs(residual))
        spatial_prev, mass_prev = spatial_next, mass_next
    return worst


# ---------------------------------------------------------------------------
# functional inequalities on a state


class FittedIneq(NamedTuple):
    lhs: float
    rhs: float  # norm quantity the fitted constant multiplies
    constant: float  # lhs / rhs, or 0 when both sides vanish


class FieldIneq(NamedTuple):
    lhs: float
    rhs: float
    margin: float  # rhs - lhs
    holds: bool


class FieldIneqReport(NamedTuple):
    korn: FittedIneq
    gagliardo_nirenberg: FittedIneq
    log_grad_bound: FieldIneq
    cutoff_log_grad_bound: FieldIneq


def _fitted(lhs: float, rhs: float) -> FittedIneq:
    constant = lhs / rhs if rhs > 0.0 else 0.0
    return FittedIneq(lhs, rhs, constant)


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

    det = T.xx * T.yy - T.xy**2
    ixx, ixy, iyy = T.yy / det, -T.xy / det, T.xx / det
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
    lam1, lam2 = symcalc.eig_fields(T.xx, T.xy, T.yy)
    chi1, chi2 = np.maximum(lam1, sigma3), np.maximum(lam2, sigma3)
    trlog_chi = np.log(chi1) + np.log(chi2)
    gx = g2.grad_x(trlog_chi, T.bc, grid.hx)
    gy = g2.grad_y(trlog_chi, T.bc, grid.hy)
    lhs = 0.5 * cell_sum(grid, gx**2 + gy**2)

    c, s = symcalc.rotation_fields(T.xx, T.xy, T.yy, lam1, lam2)
    cxx, cxy, cyy = symcalc.recombine_fields(chi1, chi2, c, s)
    det_c = cxx * cyy - cxy**2
    inv_xx, inv_xy, inv_yy = cyy / det_c, -cxy / det_c, cxx / det_c
    rhs = 0.0
    t_grads = _tensor_grads(grid, T.bc, T.xx, T.xy, T.yy)
    inv_grads = _tensor_grads(grid, T.bc, inv_xx, inv_xy, inv_yy)
    for (txx, txy, tyy), (vxx, vxy, vyy) in zip(t_grads, inv_grads):
        rhs -= cell_sum(grid, txx * vxx + 2.0 * txy * vxy + tyy * vyy)
    return _field_ineq(lhs, rhs)


def functional_ineq_checks(state: SimState, sigma3: float = 0.0) -> FieldIneqReport:
    """Evaluate both sides of each functional inequality on one snapshot.

    Korn and Gagliardo-Nirenberg come back with fitted constants (reported,
    not asserted); the two log-gradient bounds come back with margins.
    """
    grid = state.rho.grid
    jxx, jxy, jyx, jyy = velocity_jacobian(state.u)
    grad_norm = math.sqrt(cell_sum(grid, jxx**2 + jxy**2 + jyx**2 + jyy**2))
    dev_norm = math.sqrt(cell_sum(grid, _div_and_dev2(jxx, jxy, jyx, jyy)[1]))
    korn = _fitted(grad_norm, dev_norm)

    eta = state.eta
    l4 = cell_sum(grid, eta.data**4) ** 0.25
    l2 = math.sqrt(cell_sum(grid, eta.data**2))
    dex = g2.grad_x(eta.data, eta.bc, grid.hx)
    dey = g2.grad_y(eta.data, eta.bc, grid.hy)
    w12 = math.sqrt(cell_sum(grid, eta.data**2 + dex**2 + dey**2))
    gn = _fitted(l4, math.sqrt(l2 * w12) if l2 * w12 > 0.0 else 0.0)

    return FieldIneqReport(
        korn=korn,
        gagliardo_nirenberg=gn,
        log_grad_bound=log_grad_bound(state.T),
        cutoff_log_grad_bound=cutoff_log_grad_bound(state.T, sigma3),
    )


# ---------------------------------------------------------------------------
# time-series CSV

# Fixed column layout.  mass / eta_mass are int rho and int eta; E_total is
# the stored energy; the next fourteen columns repeat EnergyReport in field
# order; residual is the one-sided budget residual up to that row; min_eig
# is the pointwise minimum stress eigenvalue; sup_T the largest pointwise
# Frobenius norm; l2_T is int |T|^2.
CSV_COLUMNS = (
    "t",
    "mass",
    "eta_mass",
    "E_total",
    "kinetic",
    "pressure_pot",
    "artificial_pot",
    "polymer_entropy",
    "polymer_quad",
    "stress_trace",
    "eta_diss",
    "newtonian_diss",
    "stress_relax",
    "inverse_term",
    "log_grad",
    "force_work",
    "eta_source",
    "const_source",
    "residual",
    "min_eig",
    "sup_T",
    "l2_T",
)

_ENERGY_FIELDS = (
    "kinetic",
    "pressure_pot",
    "artificial_pot",
    "polymer_entropy",
    "polymer_quad",
    "stress_trace",
    "eta_diss",
    "newtonian_diss",
    "stress_relax",
    "inverse_term",
    "log_grad",
    "force_work",
    "eta_source",
    "const_source",
)


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

    def hook(self, state: SimState) -> dict:
        rep = energy(state, self.phys, self.reg)
        spd = spd_monitor(state.T, alpha=self.reg.alpha)
        row = {"t": state.t,
               "mass": cell_sum(state.rho.grid, state.rho.data),
               "eta_mass": cell_sum(state.eta.grid, state.eta.data),
               "E_total": rep.total}
        for name in _ENERGY_FIELDS:
            row[name] = getattr(rep, name)
        row["residual"] = 0.0
        row["min_eig"] = spd.min_eig
        row["sup_T"] = stress_sup(state.T)
        row["l2_T"] = stress_l2(state.T)
        self.reports.append(rep)
        self._rows.append(row)
        return {}

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
