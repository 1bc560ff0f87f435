"""Sparse linear solvers for the time stepper.

Every LU-backed solve, ``direct_solve`` included, goes through
``FactorizationCache.solve`` and meets its one contract.  Saddle-point
systems (momentum) are factorized as the square indefinite block matrix,
made nonsingular by pinning one pressure dof to zero; ``solve_saddle``
returns that pinned pressure, and the caller fixes the free constant (the
momentum solve re-centers to zero weighted mean with the pressure space's
lumped weights).  The pin keeps the matrix as sparse as its blocks, where a
constraint row for the mean would couple every pressure dof.

The saddle matrix is factorized in the fill-reducing order its
``PinnedDivergence`` carries, one per mesh (the velocity space's nested
dissection), with SuperLU told to keep it: no column reordering, and a
diagonal pivot kept unless it is ten times smaller than the largest entry
of its column.  Full partial pivoting would swap rows away from the order.
Every other matrix, the phase-field Newton systems included, is factorized
in SuperLU's own column order.  Only the well-conditioned P1 mass matrix
goes through Jacobi-preconditioned BiCGstab (``solve_linear``).
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import IterativeFailure, SolverError

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # not glibc: the heap keeps its free pages
    _malloc_trim = None
else:  # glibc's int malloc_trim(size_t pad) hands the heap's free pages back
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int


def direct_solve(A: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """Sparse LU solve through a fresh ``FactorizationCache``.

    Guarantees a finite x with ||Ax - b||_inf <= 1e-10 (||A||_inf ||x||_inf +
    ||b||_inf) or raises SolverError; singular factorizations report the pivot.
    """
    A = sp.csc_matrix(A)
    b = np.asarray(b, dtype=float)
    if A.shape[0] != A.shape[1] or A.shape[0] != b.shape[0]:
        raise ValueError("direct_solve needs a square system")
    return FactorizationCache().solve(A, b, tol=1e-13, order=None)


def _check_direct(A: sp.spmatrix, x: np.ndarray, b: np.ndarray) -> None:
    """The contract of a direct solve: a finite x with a relative residual
    of at most 1e-10, else SolverError."""
    if not np.all(np.isfinite(x)):
        bad = int(np.nonzero(~np.isfinite(x))[0][0])
        raise SolverError(f"singular matrix: non-finite solution entry at index {bad}")
    resid = np.abs(A @ x - b).max()
    scale = _inf_norm(A) * np.abs(x).max() + np.abs(b).max()
    if resid > 1e-10 * max(scale, 1e-300):
        raise SolverError(f"direct solve residual {resid:.3e} exceeds bound {1e-10 * scale:.3e}")


def _inf_norm(A: sp.spmatrix) -> float:
    return float(abs(A).sum(axis=1).max()) if A.nnz else 0.0


def bicgstab(A: sp.spmatrix, b: np.ndarray, tol: float = 1e-10, maxit: int = 1000,
             M=None) -> tuple[np.ndarray, int]:
    """Preconditioned BiCGstab on a sparse matrix A.

    ``M``, when given, is a callable applying the preconditioner (overriding
    the diagonal scaling of A).  Returns (x, iterations).  Converged
    when ||r|| <= tol * ||b|| (or ||r|| below an absolute floor for b = 0).
    Breakdown or exceeding maxit raises IterativeFailure so callers can fall
    back to a factorization.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    diag = A.diagonal()
    if M is not None:
        apply_m = M
    elif np.all(np.abs(diag) > 0):
        inv_diag = 1.0 / diag
        apply_m = lambda v: inv_diag * v
    else:
        apply_m = lambda v: v

    bnorm = np.linalg.norm(b)
    target = tol * bnorm if bnorm > 0 else 0.0
    x = np.zeros(n)
    r = b.copy()
    if np.linalg.norm(r) <= target:
        return x, 0
    r_hat = r.copy()
    rho_old = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    for it in range(1, maxit + 1):
        rho = float(r_hat @ r)
        if abs(rho) < 1e-300:
            raise IterativeFailure(f"BiCGstab breakdown (rho ~ 0) at iteration {it}")
        beta = (rho / rho_old) * (alpha / omega)
        p = r + beta * (p - omega * v)
        p_hat = apply_m(p)
        v = A @ p_hat
        denom = float(r_hat @ v)
        if abs(denom) < 1e-300:
            raise IterativeFailure(f"BiCGstab breakdown (r_hat . v ~ 0) at iteration {it}")
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= target:
            x = x + alpha * p_hat
            return x, it
        s_hat = apply_m(s)
        t = A @ s_hat
        tt = float(t @ t)
        if tt < 1e-300:
            raise IterativeFailure(f"BiCGstab breakdown (t = 0) at iteration {it}")
        omega = float(t @ s) / tt
        if abs(omega) < 1e-300:
            raise IterativeFailure(f"BiCGstab breakdown (omega ~ 0) at iteration {it}")
        x = x + alpha * p_hat + omega * s_hat
        r = s - omega * t
        if np.linalg.norm(r) <= target:
            return x, it
        rho_old = rho
    raise IterativeFailure(f"BiCGstab did not converge in {maxit} iterations")


class PermutedLU:
    """The LU factors of A[order][:, order], applied as the inverse of A."""

    # a plain module-level class in no reference cycle: a replaced
    # factorization is freed when the cache drops it, not at the next
    # cyclic garbage collection
    __slots__ = ("lu", "order", "__weakref__")

    def __init__(self, lu: spla.SuperLU, order: np.ndarray):
        self.lu = lu
        self.order = order

    @property
    def nnz(self) -> int:
        return self.lu.nnz

    @property
    def shape(self) -> tuple[int, int]:
        return self.lu.shape

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order])
        return x


class FactorizationCache:
    """The LU-backed solve: one LU factorization preconditions BiCGstab
    solves with nearby matrices (successive inner iterations and time steps).
    ``solve`` accepts that result only when its true residual ||Ax - b||_2 is
    at most 10 tol ||b||_2.  Otherwise A is refactorized and solved with one
    defect-correction pass, and the result must be finite with
    ||Ax - b||_inf <= 1e-10 (||A||_inf ||x||_inf + ||b||_inf), else
    SolverError.  A factorization that needed more than ``REFRESH_AFTER``
    iterations is dropped, so the next call refactorizes.

    SuperLU sizes its factor storage from a fill estimate and writes only
    the part the fill needs.  The C heap keeps a replaced factorization's
    storage resident, and where the next one lands in it would decide the
    process's peak memory, so ``refresh`` returns the free heap pages to the
    system before it factorizes.

    A factorization belongs to the ``order`` it was computed in: a solve
    with another order object, such as the order of another mesh with the
    same dof count, refactorizes.  ``order`` None means SuperLU's own
    ordering."""

    REFRESH_AFTER = 5

    def __init__(self, maxit: int = 40):
        self.lu = None
        self.order = None
        self.maxit = maxit

    def refresh(self, A: sp.spmatrix, order: np.ndarray | None):
        """Factorize A, in SuperLU's own column order with partial pivoting
        when ``order`` is None, else as A[order][:, order] in exactly that
        order with threshold pivoting; a singular or NaN matrix raises
        SolverError and leaves the cache empty."""
        self.lu = None  # free the old factors before the new ones are built
        if _malloc_trim is not None:
            _malloc_trim(0)
        self.order = order
        try:
            if order is None:
                self.lu = spla.splu(sp.csc_matrix(A))
            else:
                lu = spla.splu(sp.csc_matrix(sp.csr_array(A)[order][:, order]),
                               permc_spec="NATURAL", diag_pivot_thresh=0.1,
                               options=dict(SymmetricMode=True))
                self.lu = PermutedLU(lu, order)
        except RuntimeError as exc:  # SuperLU reports singularity here
            raise SolverError(f"sparse factorization failed: {exc}") from exc
        return self.lu

    def solve(self, A: sp.spmatrix, b: np.ndarray, tol: float,
              order: np.ndarray | None) -> np.ndarray:
        if self.lu is not None and self.order is order and self.lu.shape == A.shape:
            try:
                x, its = bicgstab(A, b, tol=tol, maxit=self.maxit, M=self.lu.solve)
            except IterativeFailure:
                pass
            else:
                if its > self.REFRESH_AFTER:
                    self.lu = None  # stale preconditioner, refactor on the next call
                # the recursive residual can drift from the true one; NaN fails too
                if np.linalg.norm(A @ x - b) <= 10.0 * tol * np.linalg.norm(b):
                    return x
        lu = self.refresh(A, order)
        x = lu.solve(b)
        # one defect-correction pass guards against a marginal pivot
        r = b - A @ x
        if np.linalg.norm(r) > tol * np.linalg.norm(b):
            x = x + lu.solve(r)
        _check_direct(A, x, b)
        return x


def solve_linear(A: sp.spmatrix, b: np.ndarray, tol: float = 1e-12,
                 maxit: int = 200) -> np.ndarray:
    """Jacobi-preconditioned BiCGstab with a direct fallback, the path of the
    P1 mass matrix: well conditioned, it converges in a few iterations,
    several times faster than a factorization."""
    try:
        x, _ = bicgstab(A, b, tol=tol, maxit=maxit)
        return x
    except IterativeFailure:
        return direct_solve(A, b)


# the pressure dof the monolithic saddle solve fixes to zero
PIN = 0


class PinnedDivergence:
    """The divergence B of a saddle system together with the off-diagonal
    blocks of its monolithic matrix: B with the row of pressure dof ``PIN``
    zeroed, and its transpose; and ``order``, the permutation of the
    monolithic dofs [velocity; pressure] its matrices are factorized in
    (None: SuperLU's own).  They depend on the mesh only, so a caller that
    solves many systems with the same B builds them once and hands them to
    each ``SaddleSystem``."""

    def __init__(self, B: sp.spmatrix, order: np.ndarray | None):
        self.B = B
        self.order = order
        # CSR throughout lets sp.bmat stack the blocks without sorting
        coo = sp.coo_array(B)
        keep = coo.row != PIN
        self.pinned = sp.csr_array((coo.data[keep], (coo.row[keep], coo.col[keep])),
                                   shape=B.shape)
        self.pinned_T = self.pinned.T.tocsr()


@dataclass
class SaddleSystem:
    """Assembled saddle-point blocks:

        [ G   B^T ] [v]   [f]
        [ B   -C  ] [p] = [0]

    with B = ``divergence.B`` the gradient-form coupling (one row per
    pressure dof) and C an optional pressure stabilization (None for inf-sup
    stable pairs).

    The pressure is defined up to constants only: B^T 1 = 0, since B pairs
    each velocity basis function with the gradients of the P1 pressure basis
    functions, which sum to the gradient of 1, and C 1 = 0, since the
    stabilization vanishes on elementwise constants.  ``monolithic``
    therefore fixes one pressure dof to zero, which changes neither the
    velocity nor the pressure up to that constant: with C symmetric, the
    dropped divergence row is minus the sum of the others, so it holds
    whenever the others do, and ``solve_saddle`` checks every row afterwards.
    """

    G: sp.spmatrix
    divergence: PinnedDivergence
    C: sp.spmatrix | None
    rhs_v: np.ndarray

    @property
    def n_v(self) -> int:
        return self.G.shape[0]

    @property
    def n_p(self) -> int:
        return self.divergence.B.shape[0]

    def monolithic(self) -> tuple[sp.csr_array, np.ndarray]:
        """The square matrix and right-hand side with the pressure dof
        ``PIN`` fixed: its row of B and its row and column of C are zeroed,
        with 1 on the diagonal; every pressure row of the right-hand side
        is 0."""
        rows, cols, vals = np.array([PIN]), np.array([PIN]), np.array([1.0])
        if self.C is not None:
            C = sp.coo_array(self.C)
            keep = (C.row != PIN) & (C.col != PIN)
            rows = np.concatenate([C.row[keep], rows])
            cols = np.concatenate([C.col[keep], cols])
            vals = np.concatenate([-C.data[keep], vals])
        Cblk = sp.csr_array((vals, (rows, cols)), shape=(self.n_p, self.n_p))
        div = self.divergence
        K = sp.bmat([[sp.csr_array(self.G), div.pinned_T], [div.pinned, Cblk]], format="csr")
        return K, np.concatenate([self.rhs_v, np.zeros(self.n_p)])


def solve_saddle(system: SaddleSystem, tol: float,
                 cache: FactorizationCache | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Solve the saddle-point problem; returns (velocity, pressure) with the
    pressure dof ``PIN`` at 0.

    The monolithic matrix goes through ``FactorizationCache.solve`` in the
    divergence's order (a given cache carries its factorization over to the
    next, nearby matrix in the same order).  A failed solve, or a divergence
    residual above ``tol`` on any pressure row, the pinned one included,
    raises SolverError.
    """
    n_v = system.n_v
    K, rhs = system.monolithic()
    sol = (cache or FactorizationCache()).solve(K, rhs, tol=1e-13,
                                                order=system.divergence.order)
    v, p = sol[:n_v], sol[n_v:]
    div_res = np.abs(system.divergence.B @ v - (system.C @ p if system.C is not None else 0.0)).max()
    if not div_res <= tol:
        raise SolverError(f"divergence residual {div_res:.3e} exceeds tol {tol:.1e}")
    return v, p
