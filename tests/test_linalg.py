import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from phaseflow import app, linalg, momentum
from phaseflow.coupling import Discretization, initial_state
from phaseflow.errors import IterativeFailure, SolverError
from phaseflow.linalg import (
    PIN,
    FactorizationCache,
    PinnedDivergence,
    SaddleSystem,
    bicgstab,
    direct_solve,
    solve_linear,
    solve_saddle,
)
from phaseflow.mesh import build_structured_mesh

from oracles import schur_solve


def laplacian_1d(n):
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    return sp.csr_array(sp.diags_array([off, main, off], offsets=[-1, 0, 1]))


def test_direct_identity():
    A = sp.eye_array(5, format="csr")
    b = np.arange(5.0)
    np.testing.assert_allclose(direct_solve(A, b), b)


def test_direct_diagonal():
    A = sp.csr_array(np.array([[2.0, 0.0], [0.0, 4.0]]))
    np.testing.assert_allclose(direct_solve(A, np.array([2.0, 4.0])), [1.0, 1.0])


def test_direct_random_spd_residual():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((50, 50))
    A = sp.csr_array(M @ M.T + 50 * np.eye(50))
    b = rng.standard_normal(50)
    x = direct_solve(A, b)
    resid = np.abs(A @ x - b).max()
    bound = 1e-10 * (abs(A).sum(axis=1).max() * np.abs(x).max() + np.abs(b).max())
    assert resid <= bound


def test_direct_singular_raises():
    A = sp.csr_array(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SolverError):
        direct_solve(A, np.array([1.0, 1.0]))


def test_bicgstab_zero_rhs_zero_iterations():
    A = laplacian_1d(10)
    x, it = bicgstab(A, np.zeros(10), tol=1e-12)
    assert it == 0
    np.testing.assert_allclose(x, 0.0)


def test_bicgstab_identity_one_iteration():
    A = sp.eye_array(7, format="csr")
    b = np.linspace(1, 2, 7)
    x, it = bicgstab(A, b, tol=1e-12)
    assert it == 1
    np.testing.assert_allclose(x, b, atol=1e-12)


def test_bicgstab_matches_direct_on_laplacian():
    A = laplacian_1d(100)
    b = np.ones(100)
    x, _ = bicgstab(A, b, tol=1e-12, maxit=500)
    xd = direct_solve(A, b)
    assert np.abs(A @ x - b).max() <= 1e-12 * np.linalg.norm(b) * 10
    np.testing.assert_allclose(x, xd, atol=1e-7)


def test_bicgstab_maxit_raises():
    A = laplacian_1d(200)
    with pytest.raises(IterativeFailure):
        bicgstab(A, np.ones(200), tol=1e-14, maxit=2)


def test_bicgstab_rejects_bad_tol():
    with pytest.raises(ValueError):
        bicgstab(laplacian_1d(4), np.ones(4), tol=0.0)


def test_solve_linear_falls_back():
    # tiny maxit forces the fallback path; result still accurate
    A = laplacian_1d(50)
    b = np.ones(50)
    x = solve_linear(A, b, tol=1e-14, maxit=1)
    assert np.abs(A @ x - b).max() < 1e-10
    # a cache whose preconditioned iteration cannot finish in one step
    # refactorizes, with the same accuracy
    cache = FactorizationCache(maxit=1)
    stale = cache.refresh(2.0 * A + sp.eye_array(50, format="csr"), None)
    x = cache.solve(A, b, tol=1e-14, order=None)
    assert cache.lu is not stale
    assert np.abs(A @ x - b).max() < 1e-10


def test_warm_cache_non_finite_rhs_raises():
    A = laplacian_1d(20)
    cache = FactorizationCache()
    cache.solve(A, np.ones(20), tol=1e-12, order=None)
    assert cache.lu is not None
    b = np.ones(20)
    b[3] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        cache.solve(A, b, tol=1e-12, order=None)


def test_cached_result_missing_the_residual_bound_refactorizes(monkeypatch):
    import phaseflow.linalg as linalg

    A = laplacian_1d(30)
    b = np.linspace(1.0, 2.0, 30)
    cache = FactorizationCache()
    cache.solve(A, b, tol=1e-12, order=None)
    warm = cache.lu
    # an iteration that reports convergence with a wrong answer
    monkeypatch.setattr(linalg, "bicgstab", lambda *args, **kw: (np.zeros(30), 1))
    x = cache.solve(A, b, tol=1e-12, order=None)
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
    return SaddleSystem(G=G, divergence=PinnedDivergence(B, None), C=C, rhs_v=f)


def test_saddle_zero_rhs():
    sys = synthetic_saddle()
    sys.rhs_v = np.zeros_like(sys.rhs_v)
    v, p = solve_saddle(sys, tol=1e-10)
    np.testing.assert_allclose(v, 0.0, atol=1e-12)
    np.testing.assert_allclose(p, 0.0, atol=1e-12)


@pytest.mark.parametrize("with_c", [False, True])
def test_saddle_direct_constraints(with_c):
    sys = synthetic_saddle(with_c=with_c)
    v, p = solve_saddle(sys, tol=1e-9)
    div = sys.divergence.B @ v - (sys.C @ p if sys.C is not None else 0.0)
    assert np.abs(div).max() <= 1e-9
    assert p[PIN] == 0.0
    mom = sys.G @ v + sys.divergence.B.T @ p - sys.rhs_v
    assert np.abs(mom).max() <= 1e-9 * (1.0 + np.abs(sys.rhs_v).max())


def test_saddle_direct_vs_schur():
    sys = synthetic_saddle()
    v1, p1 = solve_saddle(sys, tol=1e-10)
    v2, p2 = schur_solve(sys, tol=1e-10)
    assert np.abs(v1 - v2).max() < 1e-8
    assert np.abs(p1 - p2).max() < 1e-8


@pytest.mark.parametrize("with_c", [False, True])
def test_saddle_pinned_direct_matches_schur(with_c):
    sys = synthetic_saddle(with_c=with_c, seed=5)
    v1, p1 = solve_saddle(sys, tol=1e-10)
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
    np.testing.assert_array_equal(K[n_v + 1:, :n_v], sys.divergence.B.toarray()[1:])
    np.testing.assert_array_equal(K[n_v + 1:, n_v + 1:], -sys.C.toarray()[1:, 1:])


def test_saddle_divergence_with_constants_outside_its_left_kernel_fails_the_check():
    # B^T 1 != 0 breaks the identity that makes the pinned row hold, so
    # only the check over every pressure row can see the violation
    sys = synthetic_saddle()
    B = sys.divergence.B.toarray()
    B[1, 5] += 1.0
    sys.divergence = PinnedDivergence(sp.csr_array(B), None)
    with pytest.raises(SolverError, match="divergence residual"):
        solve_saddle(sys, tol=1e-9)


@pytest.mark.parametrize("bad", [np.array([[1.0, 2.0], [2.0, 4.0]]),
                                 np.array([[1.0, np.nan], [0.0, 2.0]])],
                         ids=["singular", "nan"])
def test_factorization_refresh_raises_solver_error(bad):
    cache = FactorizationCache()
    cache.refresh(sp.csr_array(np.eye(2)), None)
    with pytest.raises(SolverError, match="factorization failed"):
        cache.refresh(sp.csr_array(bad), None)
    assert cache.lu is None


def warm_cache(sys):
    cache = FactorizationCache()
    solve_saddle(sys, tol=1e-9, cache=cache)
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
        solve_saddle(sys, tol=1e-9, cache=cache)


def test_cached_saddle_solve_non_finite_solution_raises():
    # the matrix factorizes; a NaN datum makes every solution entry NaN,
    # which no residual comparison can flag
    sys = synthetic_saddle()
    cache = warm_cache(sys)
    sys.rhs_v = sys.rhs_v.copy()
    sys.rhs_v[0] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        solve_saddle(sys, tol=1e-9, cache=cache)


def test_cached_saddle_solve_matches_direct():
    sys = synthetic_saddle(with_c=True)
    cache = warm_cache(sys)
    sys.G = sys.G + sp.eye_array(sys.n_v, format="csr")  # a nearby matrix
    v1, p1 = solve_saddle(sys, tol=1e-10, cache=cache)
    v2, p2 = solve_saddle(sys, tol=1e-10)
    assert np.abs(v1 - v2).max() < 1e-10
    assert np.abs(p1 - p2).max() < 1e-10


# ------------------------------------------------------ factorization order

@pytest.mark.parametrize("with_c", [False, True])
def test_saddle_solve_in_a_permuted_order_matches_the_natural_order(with_c):
    sys = synthetic_saddle(with_c=with_c)
    v1, p1 = solve_saddle(sys, tol=1e-10)
    order = np.random.default_rng(2).permutation(sys.n_v + sys.n_p)
    sys.divergence = PinnedDivergence(sys.divergence.B, order)
    cache = FactorizationCache()
    v2, p2 = solve_saddle(sys, tol=1e-10, cache=cache)
    assert cache.lu.order is order
    assert np.abs(v1 - v2).max() < 1e-10 and np.abs(p1 - p2).max() < 1e-10
    # the permuted factors precondition the iteration on a nearby matrix
    warm = cache.lu
    sys.G = sys.G + sp.eye_array(sys.n_v, format="csr")
    v3, p3 = solve_saddle(sys, tol=1e-10, cache=cache)
    assert cache.lu is warm
    sys.divergence = PinnedDivergence(sys.divergence.B, None)
    v4, p4 = solve_saddle(sys, tol=1e-10)
    assert np.abs(v3 - v4).max() < 1e-10 and np.abs(p3 - p4).max() < 1e-10


def test_same_size_solve_in_another_order_refactorizes():
    # the order stands for the mesh: after an adaptation that keeps the dof
    # count, the old mesh's factors must not precondition the new system
    sys = synthetic_saddle(with_c=True)
    n = sys.n_v + sys.n_p
    cache = FactorizationCache()
    sys.divergence = PinnedDivergence(sys.divergence.B, np.arange(n))
    solve_saddle(sys, tol=1e-10, cache=cache)
    first = cache.lu
    solve_saddle(sys, tol=1e-10, cache=cache)
    assert cache.lu is first
    sys.divergence = PinnedDivergence(sys.divergence.B, np.arange(n)[::-1].copy())
    solve_saddle(sys, tol=1e-10, cache=cache)
    assert cache.lu is not first and cache.lu.order is sys.divergence.order
    second = cache.lu
    sys.divergence = PinnedDivergence(sys.divergence.B, None)
    solve_saddle(sys, tol=1e-10, cache=cache)
    assert cache.lu is not second and cache.order is None


def test_replaced_factorization_is_freed_without_a_collection():
    K, _ = synthetic_saddle().monolithic()
    order = np.arange(K.shape[0])[::-1].copy()
    cache = FactorizationCache()
    gc.disable()
    try:
        replaced = weakref.ref(cache.refresh(K, order))
        cache.refresh(K, order)
        assert replaced() is None
    finally:
        gc.enable()


def test_refresh_returns_free_heap_pages_after_freeing_the_replaced_factorization(monkeypatch):
    K, _ = synthetic_saddle().monolithic()
    order = np.arange(K.shape[0])[::-1].copy()
    cache = FactorizationCache()
    replaced = weakref.ref(cache.refresh(K, order))
    alive_at_trim = []
    monkeypatch.setattr(linalg, "_malloc_trim", lambda pad: alive_at_trim.append(replaced() is not None))
    cache.refresh(K, order)
    assert alive_at_trim == [False]


def first_saddle(monkeypatch, name):
    """The pinned monolithic matrix of the first momentum solve of a preset
    at its default level, and the order its divergence carries."""
    seen = []
    solve = momentum.solve_saddle
    monkeypatch.setattr(momentum, "solve_saddle",
                        lambda system, **kw: seen.append(system) or solve(system, **kw))
    rc = app.run_config(app.preset(name))
    disc = Discretization(build_structured_mesh(rc.domain, rc.base_level), rc.params)
    state = initial_state(disc, rc.params, rc.phi0)
    step = momentum.MomentumStep(disc.vspace, disc.sspace, rc.params, disc.divergence,
                                 state.phi, state.v, 1e-3, 0.0)
    momentum.solve_momentum(step, state.phi, state.mu, FactorizationCache())
    return seen[0].monolithic()[0], disc.divergence.order


@pytest.mark.parametrize("name", ["ellipse", "rayleigh-taylor"])
def test_saddle_order_fills_less_than_superlu_own_order(monkeypatch, name):
    # level-8 Taylor-Hood on the ellipse square and P1/P1 on the 1 x 4
    # Rayleigh-Taylor strip; the counts are deterministic (216,613 against
    # 265,224 and 273,314 against 409,510)
    K, order = first_saddle(monkeypatch, name)
    nested = FactorizationCache().refresh(K, order).nnz
    natural = FactorizationCache().refresh(K, None).nnz
    assert nested < 0.85 * natural
