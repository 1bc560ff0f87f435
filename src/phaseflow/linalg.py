"""Sparse linear solvers for the time stepper.

Every LU-backed solve goes through ``FactorizationCache.solve`` and meets
its one contract.  A cache serves one kind of matrix on one mesh, so its
factors only ever precondition the system they were computed for; the
mesh's ``coupling.Discretization`` owns its caches and frees them with the
mesh.  A cache built with a fill-reducing order of its own (the momentum
saddle's, one per mesh) tells SuperLU to keep it: no column reordering, and
a diagonal pivot kept unless it is ten times smaller than the largest entry
of its column.  Full partial pivoting would swap rows away from the order.
A cache built with ``order`` None, the phase-field Newton systems', uses
SuperLU's own column order.  Only the initial chemical potential's P1 mass
matrix goes through Jacobi-preconditioned BiCGstab (``solve_linear``): it
converges in a few iterations, cheaper than any factorization.
"""

from __future__ import annotations

import ctypes

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


def _check_direct(A: sp.spmatrix, x: np.ndarray, b: np.ndarray) -> None:
    """The contract of a direct solve: a finite x with a relative residual
    of at most 1e-10, else SolverError.  A non-finite b, which makes x
    non-finite whatever A is, is named before x."""
    for vec, what in ((b, "non-finite right-hand side"),
                      (x, "singular matrix: non-finite solution")):
        if not np.all(np.isfinite(vec)):
            raise SolverError(f"{what} entry at index {int(np.flatnonzero(~np.isfinite(vec))[0])}")
    resid = np.abs(A @ x - b).max()
    scale = _inf_norm(A) * np.abs(x).max() + np.abs(b).max()
    if resid > 1e-10 * max(scale, 1e-300):
        raise SolverError(f"direct solve residual {resid:.3e} exceeds bound {1e-10 * scale:.3e}")


def _inf_norm(A: sp.spmatrix) -> float:
    return float(abs(A).sum(axis=1).max()) if A.nnz else 0.0


def bicgstab(A: sp.spmatrix, b: np.ndarray, tol: float, maxit: int,
             M, x0: np.ndarray | None) -> tuple[np.ndarray, int]:
    """BiCGstab on a sparse matrix A, preconditioned by the callable ``M``,
    started from ``x0`` (None: from zero).

    Returns (x, iterations).  Converged when ||b - A x|| <= tol * ||b||, so a
    start vector that already meets that returns after 0 iterations.  For
    b = 0 the answer is the zero vector, returned after 0 iterations
    whatever ``x0`` is.  Breakdown, a non-finite residual or exceeding maxit
    raises IterativeFailure so callers can fall back to a factorization.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    n = b.shape[0]

    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros(n), 0
    target = tol * bnorm
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.asarray(x0, dtype=float)
        r = b - A @ x
    rnorm = np.linalg.norm(r)
    if rnorm <= target:
        return x, 0
    if not np.isfinite(rnorm):
        raise IterativeFailure("BiCGstab start residual is not finite")
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
        p_hat = M(p)
        v = A @ p_hat
        denom = float(r_hat @ v)
        if abs(denom) < 1e-300:
            raise IterativeFailure(f"BiCGstab breakdown (r_hat . v ~ 0) at iteration {it}")
        alpha = rho / denom
        s = r - alpha * v
        if np.linalg.norm(s) <= target:
            x = x + alpha * p_hat
            return x, it
        s_hat = M(s)
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

    def solve(self, b: np.ndarray) -> np.ndarray:
        x = np.empty_like(b)
        x[self.order] = self.lu.solve(b[self.order])
        return x


class FactorizationCache:
    """The LU-backed solve of one kind of matrix on one mesh: one LU
    factorization preconditions BiCGstab solves with nearby matrices
    (successive inner iterations and time steps).  ``solve`` starts that
    BiCGstab from the caller's ``x0`` (None: from zero); the cache keeps no
    start vector of its own.  It accepts the result only when its true
    residual ||Ax - b||_2 is at most 10 tol ||b||_2.  Otherwise A is
    refactorized and solved directly, without the start vector, with one
    defect-correction pass, and the result must be finite with
    ||Ax - b||_inf <= 1e-10 (||A||_inf ||x||_inf + ||b||_inf), else
    SolverError.  A factorization that needed
    more than ``REFRESH_AFTER`` iterations is dropped, so the next call
    refactorizes, and a preconditioned solve gets at most ``MAXIT``
    iterations before it falls back.

    ``order`` is fixed when the cache is built: a permutation of the dofs
    to factorize in, or None for SuperLU's own ordering.

    SuperLU sizes its factor storage from a fill estimate and writes only
    the part the fill needs.  The C heap keeps a replaced factorization's
    storage resident, and where the next one lands in it would decide the
    process's peak memory, so ``refresh`` returns the free heap pages to the
    system before it factorizes."""

    REFRESH_AFTER = 5
    MAXIT = 40

    def __init__(self, order: np.ndarray | None):
        self.order = order
        self.lu = None

    def refresh(self, A: sp.spmatrix):
        """Factorize A, in SuperLU's own column order with partial pivoting
        when ``order`` is None, else as A[order][:, order] in exactly that
        order with threshold pivoting; a singular or NaN matrix raises
        SolverError and leaves the cache empty."""
        self.lu = None  # free the old factors before the new ones are built
        if _malloc_trim is not None:
            _malloc_trim(0)
        order = self.order
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
              x0: np.ndarray | None) -> np.ndarray:
        if self.lu is not None:
            try:
                x, its = bicgstab(A, b, tol=tol, maxit=self.MAXIT, M=self.lu.solve, x0=x0)
            except IterativeFailure:
                pass
            else:
                if its > self.REFRESH_AFTER:
                    self.lu = None  # stale preconditioner, refactor on the next call
                # the recursive residual can drift from the true one; NaN fails too
                if np.linalg.norm(A @ x - b) <= 10.0 * tol * np.linalg.norm(b):
                    return x
        lu = self.refresh(A)
        x = lu.solve(b)
        # one defect-correction pass guards against a marginal pivot
        r = b - A @ x
        if np.linalg.norm(r) > tol * np.linalg.norm(b):
            x = x + lu.solve(r)
        _check_direct(A, x, b)
        return x


# iteration budget of ``solve_linear`` before its direct fallback
LINEAR_MAXIT = 200


def solve_linear(A: sp.spmatrix, b: np.ndarray, tol: float) -> np.ndarray:
    """Jacobi-preconditioned BiCGstab with a direct fallback, the path of the
    initial chemical potential's P1 mass matrix: well conditioned, it
    converges in a few iterations, faster than a factorization."""
    inv_diag = 1.0 / A.diagonal()
    try:
        x, _ = bicgstab(A, b, tol=tol, maxit=LINEAR_MAXIT, M=lambda v: inv_diag * v,
                        x0=None)
        return x
    except IterativeFailure:
        return FactorizationCache(None).solve(A, b, tol, x0=None)
