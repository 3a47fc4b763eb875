"""Matrix-calculus unit tests: frozen reference values plus property sweeps."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import oracles
from oracles import (EigenPair2, apply_scalar, apply_scalar_fields, chi_cutoff, chi_scalar,
                     eig, jacobi_residual, lift, sym_scale, tr_log)
from oldroyd2d import symcalc
from oldroyd2d.symcalc import (
    DIM,
    NotSPDError,
    SymMat2,
    convexity_trace_ineq,
    cutoff_fields,
    decompose,
    eig_fields,
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


def fields(*mats: SymMat2) -> SymMat2:
    """The float matrices as one SymMat2 of entry arrays, one element per matrix."""
    return SymMat2(*(np.array([getattr(p, name) for p in mats]) for name in ("xx", "xy", "yy")))


def single(res):
    """The only sample of a checker result, one numpy scalar per field."""
    assert all(np.shape(v) == (1,) for v in res)
    return type(res)(*(v[0] for v in res))


def log_diff(a, b):
    """matrix_log_diff_ineq on one float pair, each matrix decomposed once."""
    A, B = fields(a), fields(b)
    return single(matrix_log_diff_ineq(A, B, decompose(A), decompose(B)))


def chain(g, g_prime, kind, a, b):
    """convexity_trace_ineq on one float pair, each matrix decomposed once."""
    A, B = fields(a), fields(b)
    return single(convexity_trace_ineq(g, g_prime, kind, A, B, decompose(A), decompose(B)))


def eig_single(p: SymMat2):
    """(lam1, lam2, cos, sin) of one float matrix from eig_fields and rotation_fields."""
    return tuple(float(v[0]) for v in decompose(fields(p)))


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


def g_cutoff_fields(s3: float, s: np.ndarray) -> np.ndarray:
    """g_cutoff_scalar elementwise on an array."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s >= s3, np.log(s), s / s3 + math.log(s3) - 1.0)


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
    """eig_fields and rotation_fields, one matrix at a time."""

    def test_identity_tie_break(self):
        lam1, lam2, c, s = eig_single(identity())
        assert (lam1, lam2) == (1.0, 1.0)
        assert (c, s) == (1.0, 0.0)

    def test_diagonal(self):
        lam1, lam2, c, s = eig_single(sym(5, 0, 2))
        assert (lam1, lam2) == (5.0, 2.0)
        assert (c, s) == (1.0, 0.0)

    def test_off_diagonal_frozen(self):
        lam1, lam2, c, s = eig_single(sym(2, 1, 2))
        assert lam1 == pytest.approx(EIG_211_LAM[0], abs=1e-14)
        assert lam2 == pytest.approx(EIG_211_LAM[1], abs=1e-14)
        assert c == pytest.approx(EIG_211_VEC1[0], abs=1e-14)
        assert s == pytest.approx(EIG_211_VEC1[1], abs=1e-14)

    @seed(20260817)
    @settings(max_examples=300, deadline=None)
    @given(sym_matrices)
    def test_reconstruction_and_orthogonality(self, p):
        lam1, lam2, c, s = eig_single(p)
        assert lam1 >= lam2
        o = np.array([[c, -s], [s, c]])
        assert np.allclose(o @ o.T, np.eye(2), atol=1e-12)
        err = np.linalg.norm(to_array(SymMat2(*recombine_fields(lam1, lam2, c, s))) - to_array(p))
        assert err <= RECON_TOL * (1.0 + np.linalg.norm(to_array(p)))

    @seed(20260817)
    @settings(max_examples=200, deadline=None)
    @given(sym_matrices)
    def test_matches_numpy_route(self, p):
        lam_np, _ = oracles.eig_np(to_array(p))
        lam1, lam2, _, _ = eig_single(p)
        scale = 1.0 + abs(lam_np[0]) + abs(lam_np[1])
        assert abs(lam1 - lam_np[0]) <= 1e-12 * scale
        assert abs(lam2 - lam_np[1]) <= 1e-12 * scale

    def test_scalar_reference_eig(self):
        # the float twin in tests/oracles.py that the scalar references rest on
        e = eig(sym(2, 1, 2))
        assert (e.lam1, e.lam2) == pytest.approx(EIG_211_LAM, abs=1e-14)
        assert rotation(e)[:, 0] == pytest.approx(EIG_211_VEC1, abs=1e-14)
        assert (eig(identity()).angle, eig(sym(5, 0, 2)).angle) == (0.0, 0.0)


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

    def test_rejects_nan_naming_the_first_bad_sample(self):
        with pytest.raises(ValueError, match=r"\(sample 0\)"):
            scalar_log_ineq(math.nan, 1.0)
        a = np.array([1.0, 2.0, 0.0, math.nan])
        with pytest.raises(ValueError, match=r"\(sample 2\)"):
            scalar_log_ineq(a, np.ones(4))
        with pytest.raises(ValueError, match=r"\(sample 1\)"):
            scalar_log_ineq(np.ones(4), np.array([1.0, math.nan, -1.0, 1.0]))

    @seed(20260817)
    @settings(max_examples=500, deadline=None)
    @given(positive, positive)
    def test_universal(self, a, b):
        assert scalar_log_ineq(a, b).holds
        assert single(scalar_log_ineq(np.array([a]), np.array([b]))).holds


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

    def test_rejects_nan_naming_the_first_bad_sample(self):
        with pytest.raises(NotSPDError, match=r"\(sample 0\)"):
            log_diff(SymMat2(math.nan, 0.0, 1.0), identity())
        a = fields(identity(), sym(2, 1, 2), sym(1, 0, 1), sym(1, 0, math.nan))
        b = fields(identity(), identity(), sym(0, 0, 1), identity())
        with pytest.raises(NotSPDError, match=r"\(sample 2\)"):
            matrix_log_diff_ineq(a, b, decompose(a), decompose(b))
        with pytest.raises(NotSPDError, match=r"\(sample 3\)"):
            matrix_log_diff_ineq(b, a, decompose(a), decompose(a))

    @seed(20260817)
    @settings(max_examples=500, deadline=None)
    @given(spd_matrices, spd_matrices)
    def test_universal(self, a, b):
        assert log_diff(a, b).holds


class TestConvexityChain:
    def test_equal_matrices_collapse(self):
        p = sym(2, 1, 2)
        r = chain(np.log, lambda s: 1.0 / s, "concave", p, p)
        assert r.left == pytest.approx(r.mid, abs=1e-14)
        assert r.mid == pytest.approx(r.right, abs=1e-14)
        assert r.holds

    def test_frozen_g_cutoff_chain(self):
        r = chain(
            lambda s: g_cutoff_fields(0.5, s),
            lambda s: 1.0 / np.maximum(0.5, s),
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
            chain(np.log, lambda s: 1.0 / s, "linear", identity(), identity())

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
            lambda s: g_cutoff_fields(s3, s),
            lambda s: 1.0 / np.maximum(s3, s),
            "concave",
            a,
            b,
        )
        assert r.holds


def outcome(fn, *args):
    """A checker's result as its type and each field's dtype, shape and bytes, or its error."""
    try:
        res = fn(*args)
    except (ArithmeticError, ValueError) as err:
        return f"{type(err).__name__}: {err}"
    return type(res).__name__, [(np.asarray(v).dtype, np.shape(v), np.asarray(v).tobytes())
                                for v in res]


class TestOneDecompositionPerMatrix:
    """The checkers, given one decomposition per matrix, match the per-call
    array forms of tests/oracles.py bit for bit, exceptions included."""

    CHAINS = (
        (np.log, lambda s: 1.0 / s, "concave"),
        (lambda s: s * s, lambda s: 2.0 * s, "convex"),
        (lambda s: g_cutoff_fields(0.5, s), lambda s: 1.0 / np.maximum(0.5, s), "concave"),
    )
    EDGE = (identity(), sym(2, 0, 2), sym(2, 0, 3), sym(3, 0, 2), sym(2, 1, 2),
            sym(1e-3, 0, 1e3), sym(1, 1e-17, 1), sym(1, 0, -1), sym(0, 0, 0),
            sym(-2, 1, -3), sym(1e300, 0, 1e-300))

    def _check(self, a: SymMat2, b: SymMat2):
        """a and b hold entry arrays of one shape; edge pairs log negatives and multiply inf."""
        with np.errstate(all="ignore"):
            self._compare(a, b)

    def _compare(self, a: SymMat2, b: SymMat2):
        ea, eb = decompose(a), decompose(b)
        assert (outcome(matrix_log_diff_ineq, a, b, ea, eb)
                == outcome(oracles.matrix_log_diff_ineq_fields_per_call, a, b))
        for g, g_prime, kind in self.CHAINS:
            assert (outcome(convexity_trace_ineq, g, g_prime, kind, a, b, ea, eb)
                    == outcome(oracles.convexity_trace_ineq_fields_per_call,
                               g, g_prime, kind, a, b))

    def test_edge_pairs(self):
        pairs = list(itertools.product(self.EDGE, repeat=2))
        for a, b in pairs:
            self._check(fields(a), fields(b))
        # all pairs at once: the error names the first non-SPD sample
        self._check(fields(*(a for a, _ in pairs)), fields(*(b for _, b in pairs)))

    def test_verify_draws(self):
        rng = np.random.default_rng(20260817)
        mats = [from_array(oracles.random_spd(rng)) for _ in range(4000)]
        self._check(fields(*mats[0::2]), fields(*mats[1::2]))

    @seed(20260817)
    @settings(max_examples=300, deadline=None)
    @given(sym_matrices, sym_matrices)
    def test_symmetric_pairs(self, a, b):
        self._check(fields(a), fields(b))

    def test_lift_is_apply_scalar(self):
        p = sym(2, 1, 2)
        assert repr(lift(math.exp, eig(p))) == repr(apply_scalar(math.exp, p))
        assert eig(p).tr_log() == tr_log(p)
        P = fields(p, sym(1, 0, 2))
        got, want = symcalc._lift(np.exp, decompose(P)), oracles.apply_scalar_mat(np.exp, P)
        assert ([v.tobytes() for v in (got.xx, got.xy, got.yy)]
                == [v.tobytes() for v in (want.xx, want.xy, want.yy)])


# The array checkers against the scalar references on the matrix suite's
# draws: the same float matrices, decomposed by eig_fields / rotation_fields
# or by the float eig, with numpy's SIMD log, arctan2 and cos or libm's.
# The decompositions agree to EIG_ULPS ulps (of each eigenvalue, and of 1
# for cos and sin).  The checkers' inner products and trace differences
# cancel, which amplifies that to CHECKER_ULPS ulps of each checker's own
# scale 1 + |lhs| + |rhs| (1 + |left| + |mid| + |right| for the chains); the
# largest seen on these draws is 1024.  CHECKER_ULPS stays below 1% of the
# matrix checks' 1e-10 slack, and every verdict must agree.
EIG_ULPS = 4
CHECKER_ULPS = 4096


def _suite_like_pairs(n: int, seed_: int):
    """n scalar pairs and n pairs of float SPD matrices drawn as the matrix suite draws them."""
    rng = np.random.default_rng(seed_)
    u = rng.uniform(-3.0, 3.0, size=(n, 6))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=(n, 2))
    lam = (10.0 ** u[:, 2:]).tolist()
    mats_a = [spd_from(x, y, phi) for (x, y, _, _), phi in zip(lam, ang[:, 0].tolist())]
    mats_b = [spd_from(x, y, phi) for (_, _, x, y), phi in zip(lam, ang[:, 1].tolist())]
    return 10.0 ** u[:, 0], 10.0 ** u[:, 1], mats_a, mats_b


def _within_ulps(got, want, scale, ulps):
    assert np.all(np.abs(got - want) <= ulps * np.spacing(scale))


class TestArrayMatchesScalarReference:
    @pytest.mark.parametrize("seed_", [20260817, 7])
    def test_suite_draws(self, seed_):
        a, b, mats_a, mats_b = _suite_like_pairs(2000, seed_)
        r = scalar_log_ineq(a, b)
        ref = [oracles.scalar_log_ineq_math(x, y) for x, y in zip(a.tolist(), b.tolist())]
        scale = 1.0 + np.abs(r.lhs) + np.abs(r.rhs)
        for got, name in zip(r[:2], ("lhs", "rhs")):
            _within_ulps(got, np.array([getattr(x, name) for x in ref]), scale, EIG_ULPS)
        assert r.holds.tolist() == [x.holds for x in ref]

        A, B = fields(*mats_a), fields(*mats_b)
        eA, eB = decompose(A), decompose(B)
        want = [eig(x) for x in mats_a]
        lam1, lam2 = np.array([e.lam1 for e in want]), np.array([e.lam2 for e in want])
        _within_ulps(eA[0], lam1, lam1, EIG_ULPS)
        _within_ulps(eA[1], lam2, lam2, EIG_ULPS)
        _within_ulps(eA[2], np.array([math.cos(e.angle) for e in want]), 1.0, EIG_ULPS)
        _within_ulps(eA[3], np.array([math.sin(e.angle) for e in want]), 1.0, EIG_ULPS)

        r = matrix_log_diff_ineq(A, B, eA, eB)
        ref = [oracles.matrix_log_diff_ineq_per_call(x, y) for x, y in zip(mats_a, mats_b)]
        scale = 1.0 + np.abs(r.lhs) + np.abs(r.rhs)
        for got, name in zip(r[:2], ("lhs", "rhs")):
            _within_ulps(got, np.array([getattr(x, name) for x in ref]), scale, CHECKER_ULPS)
        assert r.holds.tolist() == [x.holds for x in ref]

        for g, g_prime, g_math, kind in (
                (np.log, lambda s: 1.0 / s, math.log, "concave"),
                (lambda s: s * s, lambda s: 2.0 * s, lambda s: s * s, "convex")):
            ch = convexity_trace_ineq(g, g_prime, kind, A, B, eA, eB)
            ref = [oracles.convexity_trace_ineq_per_call(g_math, g_prime, kind, x, y)
                   for x, y in zip(mats_a, mats_b)]
            scale = 1.0 + np.abs(ch.left) + np.abs(ch.mid) + np.abs(ch.right)
            for got, name in zip(ch[:3], ("left", "mid", "right")):
                _within_ulps(got, np.array([getattr(x, name) for x in ref]), scale, CHECKER_ULPS)
            assert ch.holds.tolist() == [x.holds for x in ref]

        tl = np.log(eA[0]) + np.log(eA[1])
        _within_ulps(tl, np.array([tr_log(x) for x in mats_a]), 1.0 + np.abs(tl), EIG_ULPS)


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

    def test_symmat2_methods_work_entrywise(self):
        p = SymMat2(np.array([1.0, 2.0, 3.0]), np.array([0.0, -0.5, 1e-3]),
                    np.array([1.0, 4.0, -2.0]))
        q = sym(0.5, 0.25, 2.0)
        for i in range(3):
            pi = p.sample(i)
            assert p.trace()[i] == pi.trace() and p.det()[i] == pi.det()
            assert p.inner(q)[i] == pi.inner(q) and p.sub(q).sample(i) == pi.sub(q)
            assert p.frobenius()[i] == pi.frobenius() == math.sqrt(pi.inner(pi))

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
