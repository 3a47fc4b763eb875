"""Matrix-calculus unit tests: frozen reference values plus property sweeps."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from oracles import (apply_scalar, apply_scalar_fields, chi_cutoff, chi_scalar,
                     jacobi_residual, sym_scale, tr_log)
from oldroyd2d.symcalc import (
    DIM,
    EigenPair2,
    NotSPDError,
    SymMat2,
    convexity_trace_ineq,
    cutoff_fields,
    eig,
    eig_fields,
    lift,
    matrix_log_diff_ineq,
    recombine_fields,
    rotation_fields,
    scalar_log_ineq,
)

RECON_TOL = 1e-12

# Frozen via tests/oracles.py (numpy.linalg.eigh / scipy.linalg.logm routes).
EIG_211_LAM = (3.0, 1.0)
EIG_211_VEC1 = (0.7071067811865475, 0.7071067811865475)
TR_LOG_211 = 1.0986122886681096
G_AT_ZERO_HALF = -1.6931471805599454
SCALAR_INEQ_21 = (0.5, 0.4804530139182014)
MATRIX_INEQ_2I_I = (1.9218120556728056, 2.0)
CHAIN_G_HALF_2I_I = (2.0, 1.3862943611198906, 1.0)


def sym(xx, xy, yy):
    return SymMat2(float(xx), float(xy), float(yy))


def identity() -> SymMat2:
    return SymMat2(1.0, 0.0, 1.0)


def log_diff(a, b):
    """matrix_log_diff_ineq with each matrix's own decomposition."""
    return matrix_log_diff_ineq(a, b, eig(a), eig(b))


def chain(g, g_prime, kind, a, b):
    """convexity_trace_ineq with each matrix's own decomposition."""
    return convexity_trace_ineq(g, g_prime, kind, a, b, eig(a), eig(b))


def to_array(p: SymMat2) -> np.ndarray:
    return np.array([[p.xx, p.xy], [p.xy, p.yy]])


def from_array(m: np.ndarray) -> SymMat2:
    return SymMat2(float(m[0, 0]), 0.5 * float(m[0, 1] + m[1, 0]), float(m[1, 1]))


def rotation(e: EigenPair2) -> np.ndarray:
    c, s = math.cos(e.angle), math.sin(e.angle)
    return np.array([[c, -s], [s, c]])


def _recombine(g1: float, g2: float, angle: float) -> SymMat2:
    """O diag(g1, g2) O^T on floats, as apply_scalar assembles it."""
    return SymMat2(*recombine_fields(g1, g2, math.cos(angle), math.sin(angle)))


def reconstruct(e: EigenPair2) -> SymMat2:
    return _recombine(e.lam1, e.lam2, e.angle)


def mat_log(p: SymMat2) -> SymMat2:
    e = eig(p)
    if e.lam2 <= 0.0:
        raise NotSPDError(f"matrix log needs eigenvalues > 0, got min {e.lam2}")
    return _recombine(math.log(e.lam1), math.log(e.lam2), e.angle)


def g_cutoff_scalar(s3: float, s: float) -> float:
    """log above the cutoff, its tangent line below (C^1 continuation)."""
    if s >= s3:
        return math.log(s)
    return s / s3 + math.log(s3) - 1.0


def g_cutoff_log(s3: float, p: SymMat2) -> SymMat2:
    if s3 <= 0.0:
        raise ValueError("cutoff level must be positive")
    return apply_scalar(lambda s: g_cutoff_scalar(s3, s), p)


def inv_chi(s3: float, p: SymMat2) -> SymMat2:
    """Inverse of the cutoff matrix; identical to lifting G' = 1/chi."""
    if s3 <= 0.0:
        raise ValueError("cutoff level must be positive")
    return apply_scalar(lambda s: 1.0 / chi_scalar(s3, s), p)


def trace_derivative_check(g, g_prime, path, dt: float) -> float:
    """Centered-difference residual of d tr g(P) = g'(P):dP along a path."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    worst = 0.0
    for i in range(1, len(path) - 1):
        d_tr = (
            apply_scalar(g, path[i + 1]).trace()
            - apply_scalar(g, path[i - 1]).trace()
        ) / (2.0 * dt)
        dp = sym_scale(path[i + 1].sub(path[i - 1]), 1.0 / (2.0 * dt))
        worst = max(worst, abs(d_tr - apply_scalar(g_prime, path[i]).inner(dp)))
    return worst


positive = st.floats(min_value=1e-3, max_value=1e3)
entry = st.floats(min_value=-50.0, max_value=50.0)


def spd_from(lam1, lam2, phi):
    c, s = math.cos(phi), math.sin(phi)
    return SymMat2(
        lam1 * c * c + lam2 * s * s,
        (lam1 - lam2) * c * s,
        lam1 * s * s + lam2 * c * c,
    )


spd_matrices = st.builds(
    spd_from,
    positive,
    positive,
    st.floats(min_value=0.0, max_value=math.pi),
)
sym_matrices = st.builds(sym, entry, entry, entry)


class TestEig:
    def test_identity_tie_break(self):
        e = eig(identity())
        assert (e.lam1, e.lam2) == (1.0, 1.0)
        assert e.angle == 0.0

    def test_diagonal(self):
        e = eig(sym(5, 0, 2))
        assert (e.lam1, e.lam2) == (5.0, 2.0)
        assert e.angle == 0.0

    def test_off_diagonal_frozen(self):
        e = eig(sym(2, 1, 2))
        assert e.lam1 == pytest.approx(EIG_211_LAM[0], abs=1e-14)
        assert e.lam2 == pytest.approx(EIG_211_LAM[1], abs=1e-14)
        vec1 = rotation(e)[:, 0]
        assert vec1[0] == pytest.approx(EIG_211_VEC1[0], abs=1e-14)
        assert vec1[1] == pytest.approx(EIG_211_VEC1[1], abs=1e-14)

    @seed(20260817)
    @settings(max_examples=300, deadline=None)
    @given(sym_matrices)
    def test_reconstruction_and_orthogonality(self, p):
        e = eig(p)
        assert e.lam1 >= e.lam2
        o = rotation(e)
        assert np.allclose(o @ o.T, np.eye(2), atol=1e-12)
        err = np.linalg.norm(to_array(reconstruct(e)) - to_array(p))
        assert err <= RECON_TOL * (1.0 + np.linalg.norm(to_array(p)))

    @seed(20260817)
    @settings(max_examples=200, deadline=None)
    @given(sym_matrices)
    def test_matches_numpy_route(self, p):
        lam_np, _ = oracles.eig_np(to_array(p))
        e = eig(p)
        scale = 1.0 + abs(lam_np[0]) + abs(lam_np[1])
        assert abs(e.lam1 - lam_np[0]) <= 1e-12 * scale
        assert abs(e.lam2 - lam_np[1]) <= 1e-12 * scale


class TestApplyScalar:
    def test_identity_function(self):
        p = sym(2, 1, 2)
        q = apply_scalar(lambda s: s, p)
        assert np.allclose(to_array(q), to_array(p), atol=1e-14)

    def test_square_on_diagonal(self):
        q = apply_scalar(lambda s: s * s, sym(2, 0, 3))
        assert np.allclose(to_array(q), np.diag([4.0, 9.0]), atol=1e-14)

    def test_exp_log_round_trip(self):
        p = sym(2, 1, 2)
        q = apply_scalar(math.log, apply_scalar(math.exp, p))
        assert np.allclose(to_array(q), to_array(p), atol=1e-12)

    @seed(20260817)
    @settings(max_examples=200, deadline=None)
    @given(spd_matrices, st.floats(min_value=0.0, max_value=math.pi))
    def test_commutes_with_conjugation(self, p, phi):
        c, s = math.cos(phi), math.sin(phi)
        o = np.array([[c, -s], [s, c]])
        rotated = from_array(o @ to_array(p) @ o.T)
        lhs = to_array(apply_scalar(math.log, rotated))
        rhs = o @ to_array(apply_scalar(math.log, p)) @ o.T
        assert np.allclose(lhs, rhs, atol=1e-12 * (1.0 + np.abs(rhs).max()))


class TestMatLog:
    def test_identity(self):
        assert np.allclose(to_array(mat_log(identity())), 0.0)
        assert tr_log(identity()) == 0.0

    def test_diag_e_1(self):
        q = mat_log(sym(math.e, 0, 1))
        assert np.allclose(to_array(q), np.diag([1.0, 0.0]), atol=1e-15)
        assert tr_log(sym(math.e, 0, 1)) == pytest.approx(1.0, abs=1e-15)

    def test_frozen_tr_log(self):
        assert tr_log(sym(2, 1, 2)) == pytest.approx(TR_LOG_211, abs=1e-13)

    def test_rejects_singular_and_negative(self):
        with pytest.raises(NotSPDError):
            mat_log(sym(1, 0, 0))
        with pytest.raises(NotSPDError):
            tr_log(sym(1, 0, -1))

    @seed(20260817)
    @settings(max_examples=300, deadline=None)
    @given(spd_matrices)
    def test_tr_log_equals_log_det(self, p):
        got = tr_log(p)
        want = math.log(p.det())
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))

    @seed(20260817)
    @settings(max_examples=100, deadline=None)
    @given(spd_matrices)
    def test_matches_scipy_logm(self, p):
        ours = to_array(mat_log(p))
        ref = oracles.logm_np(to_array(p))
        assert np.allclose(ours, ref, atol=1e-10 * (1.0 + np.abs(ref).max()))


class TestCutoffs:
    def test_chi_max_rule(self):
        q = chi_cutoff(0.5, sym(2, 0, 0.1))
        assert np.allclose(to_array(q), np.diag([2.0, 0.5]), atol=1e-15)

    def test_chi_zero_matrix(self):
        q = chi_cutoff(0.5, sym(0, 0, 0))
        assert np.allclose(to_array(q), 0.5 * np.eye(2), atol=1e-15)

    def test_chi_inactive_above(self):
        p = sym(2, 1, 2)
        assert np.allclose(to_array(chi_cutoff(0.5, p)), to_array(p), atol=1e-14)

    def test_g_identity_is_zero(self):
        assert np.allclose(to_array(g_cutoff_log(0.5, identity())), 0.0)

    def test_g_below_cutoff_frozen(self):
        assert g_cutoff_scalar(0.5, 0.0) == pytest.approx(G_AT_ZERO_HALF, abs=1e-15)

    def test_inv_chi_frozen(self):
        q = inv_chi(0.5, sym(2, 0, 0.1))
        assert np.allclose(to_array(q), np.diag([0.5, 2.0]), atol=1e-14)

    def test_g_is_c1_at_cutoff(self):
        s3 = 0.7
        h = 1e-7
        below = (g_cutoff_scalar(s3, s3) - g_cutoff_scalar(s3, s3 - h)) / h
        above = (g_cutoff_scalar(s3, s3 + h) - g_cutoff_scalar(s3, s3)) / h
        assert below == pytest.approx(above, abs=1e-6)

    @seed(20260817)
    @settings(max_examples=300, deadline=None)
    @given(sym_matrices, st.floats(min_value=0.05, max_value=10.0))
    def test_chi_floor_and_inverse(self, p, s3):
        q = chi_cutoff(s3, p)
        lam_min = eig(q).lam2
        assert lam_min >= s3 - 1e-12 * (1.0 + s3)
        prod = to_array(q) @ to_array(inv_chi(s3, p))
        # condition number of chi(P) stays below ~2000 on this strategy,
        # so the 1e-12 identity tolerance is expressible in doubles
        assert np.allclose(prod, np.eye(2), atol=1e-12)

    @seed(20260817)
    @settings(max_examples=200, deadline=None)
    @given(sym_matrices, st.floats(min_value=1e-6, max_value=10.0))
    def test_chi_inverse_ill_conditioned(self, p, s3):
        q = chi_cutoff(s3, p)
        prod = to_array(q) @ to_array(inv_chi(s3, p))
        cond = eig(q).lam1 / s3
        assert np.allclose(prod, np.eye(2), atol=1e-12 * (1.0 + cond))

    @seed(20260817)
    @settings(max_examples=200, deadline=None)
    @given(spd_matrices)
    def test_inactive_cutoff_reduces_to_log(self, p):
        s3 = 0.5 * eig(p).lam2
        got = to_array(g_cutoff_log(s3, p))
        want = to_array(mat_log(p))
        assert np.allclose(got, want, atol=1e-12 * (1.0 + np.abs(want).max()))
        assert np.allclose(to_array(chi_cutoff(s3, p)), to_array(p), atol=1e-12)

    @seed(20260817)
    @settings(max_examples=200, deadline=None)
    @given(sym_matrices, st.floats(min_value=1e-2, max_value=5.0))
    def test_chi_norm_bound(self, p, s3):
        lam1 = eig(p).lam1
        cut1 = eig(chi_cutoff(s3, p)).lam1
        assert cut1 <= s3 + abs(lam1) + 1e-12


class TestScalarLogIneq:
    def test_equality_at_a_eq_b(self):
        r = scalar_log_ineq(3.0, 3.0)
        assert r.lhs == 0.0 and r.rhs == 0.0 and r.holds

    def test_frozen_2_1(self):
        r = scalar_log_ineq(2.0, 1.0)
        assert r.lhs == pytest.approx(SCALAR_INEQ_21[0], abs=1e-15)
        assert r.rhs == pytest.approx(SCALAR_INEQ_21[1], abs=1e-15)
        assert r.holds

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            scalar_log_ineq(-1.0, 2.0)
        with pytest.raises(ValueError):
            scalar_log_ineq(1.0, 0.0)

    @seed(20260817)
    @settings(max_examples=500, deadline=None)
    @given(positive, positive)
    def test_universal(self, a, b):
        assert scalar_log_ineq(a, b).holds


class TestMatrixLogDiffIneq:
    def test_equal_matrices(self):
        p = sym(2, 1, 2)
        r = log_diff(p, p)
        assert r.lhs == 0.0 and abs(r.rhs) < 1e-15 and r.holds

    def test_frozen_2i_i(self):
        r = log_diff(sym(2, 0, 2), identity())
        assert r.lhs == pytest.approx(MATRIX_INEQ_2I_I[0], abs=1e-12)
        assert r.rhs == pytest.approx(MATRIX_INEQ_2I_I[1], abs=1e-15)
        assert r.holds

    def test_rejects_non_spd(self):
        with pytest.raises(NotSPDError):
            log_diff(sym(1, 0, -1), identity())

    @seed(20260817)
    @settings(max_examples=500, deadline=None)
    @given(spd_matrices, spd_matrices)
    def test_universal(self, a, b):
        assert log_diff(a, b).holds


class TestConvexityChain:
    def test_equal_matrices_collapse(self):
        p = sym(2, 1, 2)
        r = chain(math.log, lambda s: 1.0 / s, "concave", p, p)
        assert r.left == pytest.approx(r.mid, abs=1e-14)
        assert r.mid == pytest.approx(r.right, abs=1e-14)
        assert r.holds

    def test_frozen_g_cutoff_chain(self):
        r = chain(
            lambda s: g_cutoff_scalar(0.5, s),
            lambda s: 1.0 / max(0.5, s),
            "concave",
            sym(2, 0, 2),
            identity(),
        )
        assert r.left == pytest.approx(CHAIN_G_HALF_2I_I[0], abs=1e-14)
        assert r.mid == pytest.approx(CHAIN_G_HALF_2I_I[1], abs=1e-14)
        assert r.right == pytest.approx(CHAIN_G_HALF_2I_I[2], abs=1e-14)
        assert r.holds

    def test_rejects_bad_tag(self):
        with pytest.raises(ValueError):
            chain(math.log, lambda s: 1.0 / s, "linear", identity(), identity())

    @seed(20260817)
    @settings(max_examples=300, deadline=None)
    @given(sym_matrices, sym_matrices)
    def test_square_convex_reversed_chain(self, a, b):
        r = chain(lambda s: s * s, lambda s: 2.0 * s, "convex", a, b)
        assert r.holds

    @seed(20260817)
    @settings(max_examples=300, deadline=None)
    @given(spd_matrices, spd_matrices, st.floats(min_value=1e-2, max_value=2.0))
    def test_g_cutoff_concave_chain(self, a, b, s3):
        r = chain(
            lambda s: g_cutoff_scalar(s3, s),
            lambda s: 1.0 / max(s3, s),
            "concave",
            a,
            b,
        )
        assert r.holds


class TestOneDecompositionPerMatrix:
    """The checkers, given one decomposition per matrix, match the per-call
    forms of tests/oracles.py bit for bit, exceptions included."""

    CHAINS = (
        (math.log, lambda s: 1.0 / s, "concave"),
        (lambda s: s * s, lambda s: 2.0 * s, "convex"),
        (lambda s: g_cutoff_scalar(0.5, s), lambda s: 1.0 / max(0.5, s), "concave"),
    )
    EDGE = (identity(), sym(2, 0, 2), sym(2, 0, 3), sym(3, 0, 2), sym(2, 1, 2),
            sym(1e-3, 0, 1e3), sym(1, 1e-17, 1), sym(1, 0, -1), sym(0, 0, 0),
            sym(-2, 1, -3), sym(1e300, 0, 1e-300))

    @staticmethod
    def _outcome(fn, *args):
        try:
            return repr(fn(*args))
        except (ArithmeticError, ValueError) as err:
            return f"{type(err).__name__}: {err}"

    def _check(self, a, b):
        ea, eb = eig(a), eig(b)
        assert (self._outcome(matrix_log_diff_ineq, a, b, ea, eb)
                == self._outcome(oracles.matrix_log_diff_ineq_per_call, a, b))
        for g, g_prime, kind in self.CHAINS:
            assert (self._outcome(convexity_trace_ineq, g, g_prime, kind, a, b, ea, eb)
                    == self._outcome(oracles.convexity_trace_ineq_per_call,
                                     g, g_prime, kind, a, b))

    def test_edge_pairs(self):
        for a, b in itertools.product(self.EDGE, repeat=2):
            self._check(a, b)

    def test_verify_draws(self):
        rng = np.random.default_rng(20260817)
        for _ in range(2000):
            self._check(from_array(oracles.random_spd(rng)), from_array(oracles.random_spd(rng)))

    @seed(20260817)
    @settings(max_examples=300, deadline=None)
    @given(sym_matrices, sym_matrices)
    def test_symmetric_pairs(self, a, b):
        self._check(a, b)

    def test_lift_is_apply_scalar(self):
        p = sym(2, 1, 2)
        assert repr(lift(math.exp, eig(p))) == repr(apply_scalar(math.exp, p))
        assert eig(p).tr_log() == tr_log(p)


class TestPathChecks:
    def test_jacobi_constant_path(self):
        path = [sym(2, 1, 2)] * 5
        assert jacobi_residual(path, 1e-3) == 0.0

    def test_jacobi_exponential_path(self):
        dt = 1e-3
        path = [sym(math.exp(i * dt), 0, math.exp(i * dt)) for i in range(51)]
        assert jacobi_residual(path, dt) <= 1e-6

    def test_jacobi_second_order(self):
        def make(dt):
            return [
                sym(2 + math.sin(i * dt), 0.3, 2 + 0.5 * math.cos(i * dt))
                for i in range(int(0.5 / dt) + 1)
            ]

        coarse = jacobi_residual(make(2e-3), 2e-3)
        fine = jacobi_residual(make(1e-3), 1e-3)
        assert coarse / fine == pytest.approx(4.0, rel=0.25)

    def test_jacobi_rejects_non_spd_sample(self):
        with pytest.raises(NotSPDError):
            jacobi_residual([identity(), sym(1, 0, -1)], 1e-3)

    def test_trace_derivative_constant(self):
        path = [sym(2, 1, 2)] * 5
        res = trace_derivative_check(lambda s: s * s, lambda s: 2 * s, path, 1e-3)
        assert res == 0.0

    def test_trace_derivative_square_frozen(self):
        dt = 1e-3
        path = [sym(1 + i * dt, 0, 2 * (1 + i * dt)) for i in range(51)]
        res = trace_derivative_check(lambda s: s * s, lambda s: 2 * s, path, dt)
        assert res <= 1e-8

    def test_trace_derivative_matches_jacobi_for_log(self):
        dt = 1e-3
        path = [
            sym(2 + math.sin(i * dt), 0.3, 2 + 0.5 * math.cos(i * dt))
            for i in range(101)
        ]
        s3 = 0.1  # below every eigenvalue on this path: G reduces to log
        res_g = trace_derivative_check(
            lambda s: g_cutoff_scalar(s3, s), lambda s: 1.0 / max(s3, s), path, dt
        )
        res_j = jacobi_residual(path, dt)
        assert res_g == pytest.approx(res_j, abs=1e-10)


class TestEntropyDistance:
    @seed(20260817)
    @settings(max_examples=300, deadline=None)
    @given(spd_matrices, st.floats(min_value=1e-3, max_value=10.0))
    def test_trace_minus_log_lower_bound(self, p, alpha):
        value = p.trace() - alpha * tr_log(p) + DIM * (alpha * math.log(alpha) - alpha)
        assert value >= -1e-10 * (1.0 + abs(value))


class TestVectorizedPath:
    @seed(20260817)
    @settings(max_examples=100, deadline=None)
    @given(sym_matrices)
    def test_eig_fields_matches_scalar(self, p):
        xx, xy, yy = np.array([p.xx]), np.array([p.xy]), np.array([p.yy])
        lam1, lam2 = eig_fields(xx, xy, yy)
        c, s = rotation_fields(xx, xy, yy, lam1, lam2)
        e = eig(p)
        assert lam1[0] == pytest.approx(e.lam1, abs=1e-13)
        assert lam2[0] == pytest.approx(e.lam2, abs=1e-13)
        assert c[0] == pytest.approx(math.cos(e.angle), abs=1e-13)
        assert abs(s[0]) == pytest.approx(abs(math.sin(e.angle)), abs=1e-13)

    def test_apply_scalar_fields_round_trip(self):
        rng = np.random.default_rng(7)
        xx = rng.uniform(1.0, 3.0, size=(4, 5))
        yy = rng.uniform(1.0, 3.0, size=(4, 5))
        xy = rng.uniform(-0.4, 0.4, size=(4, 5))
        lx, lxy, ly = apply_scalar_fields(np.log, xx, xy, yy)
        ex, exy, ey = apply_scalar_fields(np.exp, lx, lxy, ly)
        assert np.allclose(ex, xx, atol=1e-12)
        assert np.allclose(exy, xy, atol=1e-12)
        assert np.allclose(ey, yy, atol=1e-12)

    def test_min_eig_fields(self):
        xx = np.array([2.0, 1.0])
        xy = np.array([1.0, 0.0])
        yy = np.array([2.0, -1.0])
        got = eig_fields(xx, xy, yy)[1]
        assert got[0] == pytest.approx(1.0, abs=1e-14)
        assert got[1] == pytest.approx(-1.0, abs=1e-14)


# Every value below in every (xx, xy, yy) slot: the zero matrix, exact
# ties, negative means, signed zeros, underflow, overflow, NaN and inf.
_EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, 2.0, -3.0, 0.5, 1e-300, 1e200, -1e200,
                np.nan, np.inf, -np.inf)


def _edge_components():
    cells = np.array(list(itertools.product(_EDGE_VALUES, repeat=3)))
    return cells[:, 0].copy(), cells[:, 1].copy(), cells[:, 2].copy()


def _random_components(rng, shape):
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(3,) + shape)
    xx, xy, yy = scale * rng.standard_normal((3,) + shape)
    # a share of the cells as exact ties and diagonal matrices
    tie = rng.random(shape) < 0.1
    yy[tie] = xx[tie]
    xy[tie | (rng.random(shape) < 0.1)] = 0.0
    return xx, xy, yy


class TestEigFieldsBitwise:
    """The masked-divide eigenvalues and the split-off rotation reproduce
    the nested np.where decomposition bit for bit, warning-free."""

    @staticmethod
    def _check(xx, xy, yy):
        with np.errstate(all="ignore"):
            ref = oracles.eig_fields_np(xx, xy, yy)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            lam1, lam2 = eig_fields(xx, xy, yy)
            c, s = rotation_fields(xx, xy, yy, lam1, lam2)
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        for got, want in zip((lam1, lam2, c, s), ref):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_edge_cells(self):
        self._check(*_edge_components())

    @pytest.mark.parametrize("shape", [(1,), (7,), (16, 9), (64, 64)])
    def test_random_arrays(self, shape):
        rng = np.random.default_rng(sum(shape))
        self._check(*_random_components(rng, shape))

    def test_fortran_and_strided_inputs(self):
        rng = np.random.default_rng(11)
        xx, xy, yy = _random_components(rng, (12, 10))
        self._check(*(np.asfortranarray(a) for a in (xx, xy, yy)))
        self._check(*(a[::2, 1::3] for a in (xx, xy, yy)))

    def test_inputs_untouched(self):
        xx, xy, yy = _edge_components()
        before = [a.tobytes() for a in (xx, xy, yy)]
        lam1, lam2 = eig_fields(xx, xy, yy)
        rotation_fields(xx, xy, yy, lam1, lam2)
        assert [a.tobytes() for a in (xx, xy, yy)] == before

    def test_apply_scalar_fields_is_eig_rotation_recombine(self):
        rng = np.random.default_rng(5)
        xx, xy, yy = _random_components(rng, (9, 8))
        g = lambda lam: np.maximum(lam, 0.25)  # noqa: E731
        with np.errstate(all="ignore"):
            lam1, lam2, c, s = oracles.eig_fields_np(xx, xy, yy)
            want = recombine_fields(g(lam1), g(lam2), c, s)
        got = apply_scalar_fields(g, xx, xy, yy)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        # the solver's eigenvalue cutoff chi is this lift of g, bit for bit
        (chi1, chi2), cut = cutoff_fields(xx, xy, yy, 0.25)
        assert [chi1.tobytes(), chi2.tobytes()] == [g(lam1).tobytes(), g(lam2).tobytes()]
        assert [a.tobytes() for a in cut] == [a.tobytes() for a in want]
