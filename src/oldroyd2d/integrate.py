"""Time advancement in conservative variables (rho, rho*u, eta, T).

Default scheme is SSP-RK2 (Heun), second order in time.  Each stage builds
the face velocities and the velocity Jacobian of its state once and hands
them to every right-hand-side term.  _diffusions alone decides how the
scheme treats the diffusions sigma2 lap rho, eps lap eta and eps lap T:
rk2 adds them to the right-hand side and bounds dt by them; IMEX leaves
them out of the same update, then applies one implicit Euler solve of
each: a Lie splitting, first order in time.  The mirror-ghost Neumann laplacian is
exactly diagonalized by the type-II cosine transform, so the solve is
direct; the transform runs on numpy.fft, as an even/odd reorder, a real
FFT and a quarter-wave twiddle along each axis (Makhoul 1980).  No
positivity projection is ever applied to the stress: loss of positive
definiteness is a reportable failure, not a repairable one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from oldroyd2d import grid as g2
from oldroyd2d.grid import require
from oldroyd2d.model import (
    PhysParams,
    RegParams,
    SimState,
    rhs_continuity,
    rhs_eta,
    rhs_momentum,
    rhs_stress,
    state_from_components,
    velocity_jacobian,
)
from oldroyd2d.symcalc import NotSPDError

BLOWUP_LIMIT = 1e12
RHO_FLOOR = 1e-10


class BlowupError(RuntimeError):
    """A field left the representable range during time stepping."""


class DegenerateStateError(RuntimeError):
    """No usable step: density at the floor, a stability bound that is not finite
    or not positive, or dt too small for t."""


# the errors that abort a run; run() names the time it failed at on each
RUN_ABORTS = (BlowupError, DegenerateStateError, NotSPDError)


@dataclass(frozen=True)
class StepConfig:
    dt: Optional[float] = None  # None means auto (stability bound each step)
    t_end: float = 1.0
    cfl: float = 0.4
    scheme: str = "rk2"
    diag_every: int = 1

    def __post_init__(self):
        require(self.dt is None or self.dt > 0.0,
                f"dt = {self.dt} violates dt > 0 (or the literal 'auto')", "dt")
        require(self.t_end >= 0.0, f"t_end = {self.t_end} violates t_end >= 0", "t_end")
        # an infinite t_end makes run()'s stopping time inf - 1e-14 * inf = nan,
        # and the run would return at once without a step
        require(self.t_end < math.inf, f"t_end = {self.t_end} must be finite", "t_end")
        require(0.0 < self.cfl <= 1.0, f"cfl = {self.cfl} violates 0 < cfl <= 1", "cfl")
        require(self.scheme in ("rk2", "imex"),
                f"scheme = {self.scheme!r} must be 'rk2' or 'imex'", "scheme")
        require(self.diag_every >= 1,
                f"diag_every = {self.diag_every} violates diag_every >= 1", "diag_every")


@dataclass
class RunResult:
    final: SimState
    steps: int
    floor_hits: int


def auto_dt(state: SimState, phys: PhysParams, reg: RegParams, cfg: StepConfig) -> float:
    """Stability bound cfl * min(diffusive, advective, relaxation) time step.

    The relaxation bound keeps (A0 / 2 lam) * dt <= cfl <= 1, so every
    explicit Maxwell relaxation stage is monotone.
    """
    rho, ux, uy, *_ = state.components()
    rho_min = float(rho.min())
    if rho_min <= RHO_FLOOR:
        raise DegenerateStateError(
            f"density minimum {rho_min:.3e} at or below floor {RHO_FLOOR:.1e}"
        )
    g = state.grid
    h = min(g.hx, g.hy)

    nu_eff = (phys.muS + phys.muB) / rho_min
    # nu_eff goes last: max() passes over a nan anywhere but first
    explicit = _diffusions(phys, reg, cfg.scheme)[0]
    diffusive = max((*(kappa for kappa, _ in explicit), nu_eff))
    dt_diff = cfg.cfl * h * h / (4.0 * diffusive) if diffusive > 0.0 else math.inf

    rho = np.maximum(rho, 0.0)
    dp = phys.a * phys.gamma * rho ** (phys.gamma - 1.0)
    if reg.sigma1 != 0.0:
        dp = dp + reg.sigma1 * reg.Gamma * rho ** (reg.Gamma - 1.0)
    c_max = math.sqrt(float(dp.max()))
    u_max = float(np.sqrt(ux**2 + uy**2).max())
    speed = u_max + c_max
    dt_adv = cfg.cfl * h / speed if speed > 0.0 else math.inf

    dt_relax = cfg.cfl * 2.0 * phys.lam / phys.A0

    dt = min(dt_diff, dt_adv, dt_relax)
    if not math.isfinite(dt):
        raise DegenerateStateError(f"stability bound dt = {dt} is not finite")
    if dt <= 0.0:
        # a rate overflowed: name the bound it zeroed and the rate itself
        if dt_diff <= 0.0:
            cause = f"diffusive bound: diffusivity {diffusive:.3e} over h^2 = {h * h:.3e}"
        elif dt_adv <= 0.0:
            cause = f"advective bound: max |u| = {u_max:.3e}, sound speed c = {c_max:.3e}"
        else:
            cause = f"relaxation bound: rate A0 / (2 lambda) = {phys.A0 / (2.0 * phys.lam):.3e}"
        raise DegenerateStateError(f"stability bound dt = {dt!r} vanished in the {cause}")
    return dt


def _pack(comps):
    """Conservative components; all but the momenta are the arrays of comps."""
    rho, ux, uy, *rest = comps
    return [rho, rho * ux, rho * uy, *rest]


def _unpack(y, floor_counter) -> tuple:
    """The seven primitive components of the packed y, in SimState.components() order."""
    rho, mx, my, eta, txx, txy, tyy = y
    safe = np.maximum(rho, RHO_FLOOR)
    if floor_counter is not None and np.any(rho < RHO_FLOOR):
        floor_counter[0] += int(np.count_nonzero(rho < RHO_FLOOR))
    # the momenta are left intact: step still reads the first stage's y
    ux = mx / safe
    uy = np.divide(my, safe, out=safe)
    return rho, ux, uy, eta, txx, txy, tyy


def _diffusions(phys: PhysParams, reg: RegParams, scheme: str):
    """(explicit, implicit): the (kappa, packed indices) of each diffusion
    kappa lap_neumann of a packed component, as scheme treats it."""
    terms = ((reg.sigma2, (0,)),) if reg.sigma2 != 0.0 else ()
    terms += ((phys.eps, (3, 4, 5, 6)),)
    return (terms, ()) if scheme == "rk2" else ((), terms)


def _rhs(grid: g2.Grid2D, comps, phys: PhysParams, reg: RegParams, explicit):
    """The packed right-hand side of the stage state comps, with the explicit diffusions.

    The momentum, which allocates most, runs while no other output is
    live, and the Jacobian is dropped after its last reader.
    """
    faces = g2.face_velocities(comps[1], comps[2])
    jac = velocity_jacobian(grid, comps[1], comps[2])
    mx, my = rhs_momentum(grid, comps, faces, jac, phys, reg)
    stress = rhs_stress(grid, comps, faces, jac, phys, reg)
    del jac
    f = [rhs_continuity(grid, comps, faces), mx, my, rhs_eta(grid, comps, faces), *stress]
    for kappa, indices in explicit:
        for i in indices:
            d = g2.lap(comps[i], g2.NEUMANN, grid.hx, grid.hy)
            d *= kappa
            f[i] += d
    return f


def _neumann_symbol(grid: g2.Grid2D) -> np.ndarray:
    """Eigenvalues of the mirror-ghost Neumann laplacian, in the heat solve's spectral layout.

    Row k is x-mode k.  The half spectrum's column l holds y-mode l in its
    real part and y-mode (ny - l) % ny in its imaginary part; viewed as
    real numbers, those are columns 2 l and 2 l + 1 here.
    """
    lam_x = (2.0 * np.cos(np.pi * np.arange(grid.nx) / grid.nx) - 2.0) / (grid.hx * grid.hx)
    lam_y = (2.0 * np.cos(np.pi * np.arange(grid.ny) / grid.ny) - 2.0) / (grid.hy * grid.hy)
    modes = np.arange(grid.ny // 2 + 1)
    packed = np.stack([lam_y[modes], lam_y[-modes]], axis=1).ravel()
    return lam_x[:, None] + packed[None, :]


def _even_odd_blocks(nx: int, ny: int):
    """(reordered, natural) index pairs: per axis, even samples ascending, then odd descending."""
    def axis(n):
        half = (n + 1) // 2
        return ((slice(None, half), slice(None, None, 2)),
                (slice(half, None), slice(n - 1 - n % 2, None, -2)))

    return [((rx, ry), (sx, sy)) for rx, sx in axis(nx) for ry, sy in axis(ny)]


def _neumann_heat_solve(arr: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Solve (I - kappa_dt * lap_neumann) x = arr by a DCT-II computed on numpy.fft.

    denom is 1 - kappa_dt * _neumann_symbol(grid), shared by every
    component diffused at the same kappa_dt.

    Along one axis of n samples, the unnormalized DCT-II at mode k is
    Re(t_k w_k): w is the FFT of the samples reordered even indices
    ascending, then odd indices descending, and t_k = exp(-i pi k / 2 n) is
    the quarter-wave twiddle (J. Makhoul, IEEE Trans. ASSP 28, 27-34, 1980).
    In 2D, with w the real FFT of the reordered array along y and its FFT
    along x, g_k = ty (tx_k w_k + conj(tx_k) w_{-k}) / 2 holds mode (k, l)
    in its real part and mode (k, ny - l), negated, in its imaginary part:
    the layout of denom.  The inverse of that map is
    conj(ty) conj(tx_k) (g_k - i g_{nx-k}) with g_nx = 0, then come the
    inverse FFTs, whose 1/(nx ny) and the 1/2 in g are the whole
    normalization, and the inverse reorder.
    """
    nx, ny = arr.shape
    hy = ny // 2 + 1
    tx = np.exp(-0.5j * np.pi / nx * np.arange(nx))[:, None]
    ty = np.exp(-0.5j * np.pi / ny * np.arange(hy))
    half = 0.5 * tx
    blocks = _even_odd_blocks(nx, ny)
    # the reordered samples in the first ny columns; viewed as complex,
    # the same bytes later hold the row-flipped term of each map
    work = np.empty((nx, 2 * hy))
    v = work[:, :ny]
    flip = work.view(np.complex128)
    for r, s in blocks:
        v[r] = arr[s]
    w = np.fft.rfft(v, axis=1)
    np.fft.fft(w, axis=0, out=w)
    w *= ty
    np.multiply(w[0], half[0].conj(), out=flip[0])
    np.multiply(w[:0:-1], half[1:].conj(), out=flip[1:])
    w *= half
    w += flip
    spec = w.view(np.float64)
    np.divide(spec, denom, out=spec)
    flip[0] = 0.0
    np.multiply(w[:0:-1], -1j, out=flip[1:])
    w += flip
    w *= tx.conj()
    w *= ty.conj()
    np.fft.ifft(w, axis=0, out=w)
    np.fft.irfft(w, ny, axis=1, out=v)
    out = np.empty_like(arr)
    for r, s in blocks:
        out[s] = v[r]
    return out


# names of the packed conservative components, in _pack order
_COMPONENTS = ("rho", "rho*u_x", "rho*u_y", "eta", "T_xx", "T_xy", "T_yy")


def _check_finite(y, t: float) -> None:
    for name, comp in zip(_COMPONENTS, y):
        # max |comp| without an |comp| array; NaN propagates through both
        m = np.maximum(comp.max(), -comp.min())
        if not np.isfinite(m) or m > BLOWUP_LIMIT:
            # argmax picks the first NaN if there is one, else the largest |value|
            idx = np.unravel_index(np.argmax(np.abs(comp)), comp.shape)
            raise BlowupError(
                f"field magnitude {m:.3e} exceeds {BLOWUP_LIMIT:.1e} at t={t:.6g}"
                f" in {name} at cell {tuple(int(v) for v in idx)}"
            )


def _euler_stage(y0, f, dt: float):
    """y0 + dt * f per component, built in the right-hand side f's own arrays."""
    for a, b in zip(y0, f):
        b *= dt
        np.add(a, b, out=b)
    return f


def _heun_stage(y0, y1, f, dt: float):
    """0.5 * (y0 + y1 + dt * f) per component, built in f's own arrays."""
    for a, b, c in zip(y0, y1, f):
        c *= dt
        np.add(np.add(a, b), c, out=c)
        c *= 0.5
    return f


def step(state: SimState, phys: PhysParams, reg: RegParams, cfg: StepConfig,
         dt: float, floor_counter=None) -> SimState:
    """One SSP-RK2 (or IMEX) step of size dt.

    Returns a fresh state at t + dt that shares no memory with state;
    no input array is modified.
    """
    # SSP-RK2 stages on everything but the implicit diffusions ...
    grid = state.grid
    explicit, implicit = _diffusions(phys, reg, cfg.scheme)
    comps = state.components()
    y0 = _pack(comps)
    y1 = _euler_stage(y0, _rhs(grid, comps, phys, reg, explicit), dt)
    comps = _unpack(y1, floor_counter)
    y2 = _heun_stage(y0, y1, _rhs(grid, comps, phys, reg, explicit), dt)
    del comps, y1  # the first stage is dead before the implicit solves
    # ... then one implicit Euler solve per implicitly diffused component
    symbol = _neumann_symbol(grid) if implicit else None
    for kappa, indices in implicit:
        denom = 1.0 - kappa * dt * symbol
        for i in indices:
            y2[i] = _neumann_heat_solve(y2[i], denom)
        del denom  # one live denominator at a time: fewer pages to fault in

    _check_finite(y2, state.t + dt)
    return state_from_components(state.t + dt, grid, *_unpack(y2, floor_counter))


def run(
    initial: SimState,
    phys: PhysParams,
    reg: RegParams,
    cfg: StepConfig,
    diag_hooks: Sequence[Callable[[SimState], object]] = (),
) -> RunResult:
    """Advance to t_end, calling each diag hook every diag_every steps; returns are ignored."""
    floor_counter = [0]

    def record(s: SimState) -> None:
        for hook in diag_hooks:
            hook(s)

    state = initial.copy()
    steps = 0
    t_final = initial.t + cfg.t_end
    # every abort, whether from a hook, auto_dt or step, names the time of
    # the last state that the run completed; a run that ends where it
    # starts (t_end = 0, or t_end below the tolerance) records one row
    try:
        record(state)
        while state.t < t_final - 1e-14 * max(1.0, abs(t_final)):
            dt = cfg.dt if cfg.dt is not None else auto_dt(state, phys, reg, cfg)
            dt = min(dt, t_final - state.t)
            if state.t + dt <= state.t:
                raise DegenerateStateError(f"time step dt={dt!r} does not advance t={state.t!r}")
            state = step(state, phys, reg, cfg, dt=dt, floor_counter=floor_counter)
            steps += 1
            if steps % cfg.diag_every == 0:
                record(state)
        if steps % cfg.diag_every != 0:
            record(state)
    except RUN_ABORTS as err:
        raise type(err)(f"{err} (run failed at t={state.t:.6g})") from err
    return RunResult(final=state, steps=steps, floor_hits=floor_counter[0])
