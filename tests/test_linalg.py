import gc
import hashlib
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from phaseflow import app, linalg, momentum
from phaseflow.coupling import Discretization, initial_state
from phaseflow.errors import IterativeFailure, SolverError
from phaseflow.fem import ScalarSpace
from phaseflow.linalg import FactorizationCache, bicgstab, solve_linear
from phaseflow.mesh import build_structured_mesh
from phaseflow.momentum import PIN

from oracles import RecordingCache, Saddle, schur_solve


def laplacian_1d(n):
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return sp.csr_array(sp.diags_array([off, main, off], offsets=[-1, 0, 1]))


def direct(A, b):
    """A solve through a fresh cache: one factorization in SuperLU's order."""
    return FactorizationCache(None).solve(A, b, tol=1e-13, x0=None)


def jacobi(A):
    inv_diag = 1.0 / A.diagonal()
    return lambda v: inv_diag * v


def test_direct_identity():
    A = sp.eye_array(5, format="csr")
    b = np.arange(5.0)
    np.testing.assert_allclose(direct(A, b), b)


def test_direct_diagonal():
    A = sp.csr_array(np.array([[2.0, 0.0], [0.0, 4.0]]))
    np.testing.assert_allclose(direct(A, np.array([2.0, 4.0])), [1.0, 1.0])


def test_direct_random_spd_residual():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((50, 50))
    A = sp.csr_array(M @ M.T + 50 * np.eye(50))
    b = rng.standard_normal(50)
    x = direct(A, b)
    resid = np.abs(A @ x - b).max()
    bound = 1e-10 * (abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
    assert resid <= bound


def test_direct_singular_raises():
    A = sp.csr_array(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SolverError):
        direct(A, np.array([1.0, 1.0]))


def test_direct_nan_raises():
    A = sp.csr_array(np.array([[1.0, np.nan], [0.0, 2.0]]))
    with pytest.raises(SolverError):
        direct(A, np.array([1.0, 1.0]))


def test_bicgstab_zero_rhs_zero_iterations():
    # b = 0 returns the zero vector whatever the start
    A = laplacian_1d(10)
    for x0 in (None, np.ones(10), np.full(10, np.nan)):
        x, it = bicgstab(A, np.zeros(10), tol=1e-12, maxit=1000, M=jacobi(A), x0=x0)
        assert it == 0
        np.testing.assert_array_equal(x, 0.0)


def test_bicgstab_identity_one_iteration():
    A = sp.eye_array(7, format="csr")
    b = np.linspace(1, 2, 7)
    x, it = bicgstab(A, b, tol=1e-12, maxit=1000, M=lambda v: v, x0=None)
    assert it == 1
    np.testing.assert_allclose(x, b, atol=1e-12)


def test_bicgstab_matches_direct_on_laplacian():
    A = laplacian_1d(100)
    b = np.ones(100)
    x, _ = bicgstab(A, b, tol=1e-12, maxit=500, M=jacobi(A), x0=None)
    xd = direct(A, b)
    assert np.abs(A @ x - b).max() <= 1e-12 * np.linalg.norm(b) * 10
    np.testing.assert_allclose(x, xd, atol=1e-7)


def test_bicgstab_started_from_the_solution_returns_it_after_zero_iterations():
    A = laplacian_1d(60)
    b = np.linspace(1.0, 2.0, 60)
    exact = direct(A, b)
    x, it = bicgstab(A, b, tol=1e-10, maxit=500, M=jacobi(A), x0=exact)
    assert it == 0
    np.testing.assert_array_equal(x, exact)


def test_bicgstab_start_near_the_solution_takes_fewer_iterations():
    # preconditioned by the factors of a nearby matrix, as in a cache
    A = laplacian_1d(100)
    b = np.ones(100)
    M = FactorizationCache(None).refresh(A + 0.01 * sp.eye_array(100, format="csr")).solve
    near = direct(A, b) * (1.0 + 1e-8 * np.sin(np.arange(100)))
    _, cold = bicgstab(A, b, tol=1e-12, maxit=500, M=M, x0=None)
    x, warm = bicgstab(A, b, tol=1e-12, maxit=500, M=M, x0=near)
    assert warm < cold
    assert np.linalg.norm(A @ x - b) <= 10 * 1e-12 * np.linalg.norm(b)


def test_solve_linear_zero_start_is_bitwise_the_earlier_iteration():
    # the P1 mass solve at the commit before start vectors existed, whose
    # BiCGstab always began at x = 0 with r = b: sha256 of its solution bytes
    ss = ScalarSpace(build_structured_mesh((-1, 1, -1, 1), 6))
    x, y = ss.mesh.vertices.T
    sol = solve_linear(ss.mass, ss.lumped * np.cos(3.0 * x) * (1.0 + y), tol=1e-13)
    assert hashlib.sha256(sol.tobytes()).hexdigest() == \
        "460c3782c5095008ad60b5d8e6b4d17d50741998004f851dbe1569c606c87ca3"


def test_bicgstab_maxit_raises():
    A = laplacian_1d(200)
    with pytest.raises(IterativeFailure):
        bicgstab(A, np.ones(200), tol=1e-14, maxit=2, M=jacobi(A), x0=None)


def test_bicgstab_rejects_bad_tol():
    A = laplacian_1d(4)
    with pytest.raises(ValueError):
        bicgstab(A, np.ones(4), tol=0.0, maxit=1000, M=jacobi(A), x0=None)


def test_solve_linear_falls_back(monkeypatch):
    # tiny maxit forces the fallback path; result still accurate
    monkeypatch.setattr(linalg, "LINEAR_MAXIT", 1)
    monkeypatch.setattr(FactorizationCache, "MAXIT", 1)
    A = laplacian_1d(50)
    b = np.ones(50)
    x = solve_linear(A, b, tol=1e-14)
    assert np.abs(A @ x - b).max() < 1e-10
    # a cache whose preconditioned iteration cannot finish in one step
    # refactorizes, with the same accuracy
    cache = FactorizationCache(None)
    stale = cache.refresh(2.0 * A + sp.eye_array(50, format="csr"))
    x = cache.solve(A, b, tol=1e-14, x0=None)
    assert cache.lu is not stale
    assert np.abs(A @ x - b).max() < 1e-10


def test_warm_cache_non_finite_rhs_raises():
    A = laplacian_1d(20)
    cache = FactorizationCache(None)
    cache.solve(A, np.ones(20), tol=1e-12, x0=None)
    assert cache.lu is not None
    b = np.ones(20)
    b[3] = np.nan
    with pytest.raises(SolverError, match="non-finite right-hand side entry at index 3"):
        cache.solve(A, b, tol=1e-12, x0=None)


def test_fresh_cache_names_a_non_finite_rhs_of_a_regular_matrix():
    A = laplacian_1d(20)
    b = np.ones(20)
    b[7] = np.inf
    with pytest.raises(SolverError, match="non-finite right-hand side entry at index 7") as info:
        FactorizationCache(None).solve(A, b, tol=1e-12, x0=None)
    assert "singular" not in str(info.value)


def test_initial_mu_of_a_nan_phase_names_the_rhs():
    params = momentum.PhysParams()
    disc = Discretization(build_structured_mesh((0, 1, 0, 1), 4), params)
    with pytest.raises(SolverError, match="non-finite right-hand side") as info:
        initial_state(disc, params, lambda p: np.where(p[:, 0] > 0.5, np.nan, 0.0))
    assert "singular" not in str(info.value)


def test_cached_result_missing_the_residual_bound_refactorizes(monkeypatch):
    import phaseflow.linalg as linalg

    A = laplacian_1d(30)
    b = np.linspace(1.0, 2.0, 30)
    cache = FactorizationCache(None)
    cache.solve(A, b, tol=1e-12, x0=None)
    warm = cache.lu
    # an iteration that reports convergence with a wrong answer
    monkeypatch.setattr(linalg, "bicgstab", lambda *args, **kw: (np.zeros(30), 1))
    x = cache.solve(A, b, tol=1e-12, x0=None)
    assert cache.lu is not warm
    assert np.linalg.norm(A @ x - b) <= 1e-11 * np.linalg.norm(b)


def synthetic_saddle(n_v=24, n_p=7, seed=11, with_c=False):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n_v, n_v))
    G = sp.csr_array(M @ M.T + n_v * np.eye(n_v))
    R = rng.standard_normal((n_p, n_v))
    R -= R.mean(axis=0, keepdims=True)  # column sums zero: constants in the left kernel
    B = sp.csr_array(R)
    C = None
    if with_c:
        S = rng.standard_normal((n_p, n_p - 1))
        S -= S.mean(axis=0, keepdims=True)
        C = sp.csr_array(S @ S.T)
    f = rng.standard_normal(n_v)
    return Saddle(G=G, rhs_v=f, B=B, mask=np.zeros(n_v, dtype=bool), C=C)


def test_saddle_zero_rhs():
    sys = synthetic_saddle()
    sys.rhs_v = np.zeros_like(sys.rhs_v)
    v, p = sys.solve(1e-10, FactorizationCache(None))
    np.testing.assert_allclose(v, 0.0, atol=1e-12)
    np.testing.assert_allclose(p, 0.0, atol=1e-12)


@pytest.mark.parametrize("with_c", [False, True])
def test_saddle_direct_constraints(with_c):
    sys = synthetic_saddle(with_c=with_c)
    v, p = sys.solve(1e-9, FactorizationCache(None))
    div = sys.B @ v - (sys.C @ p if sys.C is not None else 0.0)
    assert np.abs(div).max() <= 1e-9
    assert p[PIN] == 0.0
    mom = sys.G @ v + sys.B.T @ p - sys.rhs_v
    assert np.abs(mom).max() <= 1e-9 * (1.0 + np.abs(sys.rhs_v).max())


def test_saddle_direct_vs_schur():
    sys = synthetic_saddle()
    v1, p1 = sys.solve(1e-10, FactorizationCache(None))
    v2, p2 = schur_solve(sys, tol=1e-10)
    assert np.abs(v1 - v2).max() < 1e-8
    assert np.abs(p1 - p2).max() < 1e-8


@pytest.mark.parametrize("with_c", [False, True])
def test_saddle_pinned_direct_matches_schur(with_c):
    sys = synthetic_saddle(with_c=with_c, seed=5)
    v1, p1 = sys.solve(1e-10, FactorizationCache(None))
    v2, p2 = schur_solve(sys, tol=1e-10)
    assert np.abs(v1 - v2).max() < 1e-8
    assert np.abs(p1 - p2).max() < 1e-8


def test_saddle_monolithic_pins_one_pressure_dof():
    sys = synthetic_saddle(with_c=True)
    K, rhs = sys.monolithic()
    K = K.toarray()
    n_v, n_p = sys.n_v, sys.n_p
    assert K.shape == (n_v + n_p, n_v + n_p)
    assert PIN == 0  # the slices below skip the first pressure dof
    unit = np.zeros(n_v + n_p)
    unit[n_v] = 1.0
    np.testing.assert_array_equal(K[n_v], unit)
    np.testing.assert_array_equal(K[:, n_v], unit)
    np.testing.assert_array_equal(rhs[n_v:], 0.0)
    np.testing.assert_array_equal(K[n_v + 1:, :n_v], sys.B.toarray()[1:])
    np.testing.assert_array_equal(K[n_v + 1:, n_v + 1:], -sys.C.toarray()[1:, 1:])


def test_saddle_divergence_with_constants_outside_its_left_kernel_fails_the_check():
    # B^T 1 != 0 breaks the identity that makes the pinned row hold, so
    # only the check over every pressure row can see the violation
    sys = synthetic_saddle()
    B = sys.B.toarray()
    B[1, 5] += 1.0
    sys.B = sp.csr_array(B)
    with pytest.raises(SolverError, match="divergence residual"):
        sys.solve(1e-9, FactorizationCache(None))


@pytest.mark.parametrize("bad", [np.array([[1.0, 2.0], [2.0, 4.0]]),
                                 np.array([[1.0, np.nan], [0.0, 2.0]])],
                         ids=["singular", "nan"])
def test_factorization_refresh_raises_solver_error(bad):
    cache = FactorizationCache(None)
    cache.refresh(sp.csr_array(np.eye(2)))
    with pytest.raises(SolverError, match="factorization failed"):
        cache.refresh(sp.csr_array(bad))
    assert cache.lu is None


def warm_cache(sys):
    cache = FactorizationCache(None)
    sys.solve(1e-9, cache)
    assert cache.lu is not None
    return cache


@pytest.mark.parametrize("corrupt", ["singular", "nan"])
def test_cached_saddle_solve_bad_matrix_raises(corrupt):
    sys = synthetic_saddle()
    cache = warm_cache(sys)
    G = sys.G.toarray()
    if corrupt == "singular":
        G[:] = 0.0  # K then has rank at most 2 n_p < n_v + n_p
    else:
        G[3, 3] = np.nan
    sys.G = sp.csr_array(G)
    with pytest.raises(SolverError):
        sys.solve(1e-9, cache)


def test_cached_saddle_solve_non_finite_solution_raises():
    # the matrix factorizes; a NaN datum makes every solution entry NaN,
    # which no residual comparison can flag
    sys = synthetic_saddle()
    cache = warm_cache(sys)
    sys.rhs_v = sys.rhs_v.copy()
    sys.rhs_v[0] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        sys.solve(1e-9, cache)


def test_cached_saddle_solve_matches_direct():
    sys = synthetic_saddle(with_c=True)
    cache = warm_cache(sys)
    sys.G = sys.G + sp.eye_array(sys.n_v, format="csr")  # a nearby matrix
    v1, p1 = sys.solve(1e-10, cache)
    v2, p2 = sys.solve(1e-10, FactorizationCache(None))
    assert np.abs(v1 - v2).max() < 1e-10
    assert np.abs(p1 - p2).max() < 1e-10


@pytest.mark.parametrize("with_c", [False, True])
def test_saddle_guess_pressure_is_shifted_to_the_pin(monkeypatch, with_c):
    # a pressure guess off by a constant is as good as the pinned one: the
    # pin row alone would otherwise carry a residual of that constant
    sys = synthetic_saddle(with_c=with_c)
    cache = warm_cache(sys)
    sys.G = sys.G + 0.1 * sp.eye_array(sys.n_v, format="csr")  # a nearby matrix
    v, p = sys.solve(1e-9, cache)
    iterations = []
    plain = linalg.bicgstab

    def recording(*args, **kw):
        x, it = plain(*args, **kw)
        iterations.append(it)
        return x, it

    monkeypatch.setattr(linalg, "bicgstab", recording)
    v2, p2 = momentum.solve_saddle(sys.G, sys.rhs_v, sys.B, sys.mask, sys.C, tol=1e-9,
                                   cache=cache, guess=(v, p + 1e3))
    assert iterations == [0]
    assert p2[PIN] == 0.0
    np.testing.assert_allclose(v2, v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(p2, p, rtol=0, atol=1e-9)


@pytest.mark.parametrize("start", ["nan", "wild"])
def test_cache_solve_from_a_bad_start_meets_the_contract(start):
    sys = synthetic_saddle(with_c=True)
    cache = warm_cache(sys)
    sys.G = sys.G + 0.1 * sp.eye_array(sys.n_v, format="csr")
    K, b = sys.monolithic()
    x0 = np.full(b.shape, np.nan) if start == "nan" \
        else 1e12 * np.random.default_rng(1).standard_normal(b.shape)
    tol = momentum.SADDLE_TOL
    x = cache.solve(K, b, tol=tol, x0=x0)
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(K @ x - b) <= 10.0 * tol * np.linalg.norm(b)


# ------------------------------------------------------ factorization order

@pytest.mark.parametrize("with_c", [False, True])
def test_saddle_solve_in_a_permuted_order_matches_the_natural_order(with_c):
    sys = synthetic_saddle(with_c=with_c)
    v1, p1 = sys.solve(1e-10, FactorizationCache(None))
    order = np.random.default_rng(2).permutation(sys.n_v + sys.n_p)
    cache = FactorizationCache(order)
    v2, p2 = sys.solve(1e-10, cache)
    assert cache.lu.order is order
    assert np.abs(v1 - v2).max() < 1e-10 and np.abs(p1 - p2).max() < 1e-10
    # the permuted factors precondition the iteration on a nearby matrix
    warm = cache.lu
    sys.G = sys.G + sp.eye_array(sys.n_v, format="csr")
    v3, p3 = sys.solve(1e-10, cache)
    assert cache.lu is warm
    v4, p4 = sys.solve(1e-10, FactorizationCache(None))
    assert np.abs(v3 - v4).max() < 1e-10 and np.abs(p3 - p4).max() < 1e-10


def test_replaced_factorization_is_freed_without_a_collection():
    K, _ = synthetic_saddle().monolithic()
    cache = FactorizationCache(np.arange(K.shape[0])[::-1].copy())
    gc.disable()
    try:
        replaced = weakref.ref(cache.refresh(K))
        cache.refresh(K)
        assert replaced() is None
    finally:
        gc.enable()


def test_refresh_returns_free_heap_pages_after_freeing_the_replaced_factorization(monkeypatch):
    K, _ = synthetic_saddle().monolithic()
    cache = FactorizationCache(np.arange(K.shape[0])[::-1].copy())
    replaced = weakref.ref(cache.refresh(K))
    alive_at_trim = []
    monkeypatch.setattr(linalg, "_malloc_trim", lambda pad: alive_at_trim.append(replaced() is not None))
    cache.refresh(K)
    assert alive_at_trim == [False]


def first_saddle(name):
    """The constrained monolithic matrix of the first momentum solve of a
    preset at its default level, and the mesh's saddle order."""
    rc = app.run_config(app.preset(name))
    disc = Discretization(build_structured_mesh(rc.domain, rc.base_level), rc.params)
    state = initial_state(disc, rc.params, rc.phi0)
    step = momentum.MomentumStep(disc.vspace, disc.sspace, rc.params, disc.B,
                                 state.phi, state.v, 1e-3, 0.0)
    order = momentum.saddle_order(disc.vspace)
    cache = RecordingCache(order)
    momentum.solve_momentum(step, state.phi, state.mu, cache, (state.v, state.p))
    return cache.solved[0][0], order


@pytest.mark.parametrize("name", ["ellipse", "rayleigh-taylor"])
def test_saddle_order_fills_less_than_superlu_own_order(name):
    # level-8 Taylor-Hood on the ellipse square and P1/P1 on the 1 x 4
    # Rayleigh-Taylor strip; the counts are deterministic (216,613 against
    # 265,224 and 273,314 against 409,510)
    K, order = first_saddle(name)
    nested = FactorizationCache(order).refresh(K).nnz
    natural = FactorizationCache(None).refresh(K).nnz
    assert nested < 0.85 * natural
