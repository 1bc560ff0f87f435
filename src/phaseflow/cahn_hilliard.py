"""Phase-field transport and diffusion.

The convective part runs as an explicit finite-volume step on the Voronoi
dual grid (first-order upwind or second-order limited reconstruction with the
Engquist-Osher flux, which reduces to upwinding for this flux linear in the
transported quantity).  The diffusive part is an implicit two-field solve for
(phi, mu) with the convex part of the double-well treated implicitly and the
concave part explicitly, the combination that makes the interfacial-energy
telescoping a one-sided inequality.  The potential terms are mass-lumped.
The Newton Jacobian is written into the scalar space's fixed
``pair_pattern`` once per solve; each iteration rewrites only the diagonal
of its lower left block.
The well and the derivatives of its two parts are module functions; sigma,
delta and the mobility come from ``PhysParams`` alone.  The interfacial
energy itself is evaluated only by the audit, ``energy.step_inequality_check``.

A coupled variant including the finite-element convection term is provided
for the monolithic mode, whose converged splitting limit satisfies the fully
implicit discretization exactly; that is the configuration the energy auditor
certifies step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import CflError, SolverError
from .fem import QUAD_DEG4, ScalarSpace, VelocitySpace
from .linalg import FactorizationCache
from .mesh import DualGrid
from .momentum import PhysParams

# largest transport CFL number an explicit step accepts
CFL_LIMIT = 0.9
# Newton iteration budget of the implicit phase solve, and the floor of the
# relative tolerance of its linear solves: each Newton correction is solved
# to max(LIN_TOL, 0.1 newton_tol / ||F||_2), F the Newton residual
NEWTON_MAXIT = 30
LIN_TOL = 1e-12


def well(phi):
    """Quartic double well F(phi) = (phi^2 - 1)^2 / 4, split into the convex
    F+ = (phi^4 + 1)/4, whose slope the phase solve takes implicitly, and the
    concave F- = -phi^2/2, taken explicitly.  With sigma and delta of
    ``PhysParams`` the interfacial energy density is
    sigma * (delta/2 |grad phi|^2 + F(phi)/delta).  The functions below are
    F', F+', F-' and F+''."""
    return 0.25 * (phi**2 - 1.0) ** 2


def well_prime(phi):
    return phi**3 - phi


def well_plus_prime(phi):
    return phi**3


def well_minus_prime(phi):
    return -phi


def well_plus_second(phi):
    return 3.0 * phi**2


# ---------------------------------------------------------------------------
# finite-volume transport on the dual grid


def engquist_osher_flux(u_n, phi_left, phi_right, face_measure):
    """Monotone upwind face flux |Gamma| (u_n^+ phi_L + u_n^- phi_R).

    Antisymmetric under (u_n, L, R) -> (-u_n, R, L) and consistent:
    phi_L = phi_R = phi gives |Gamma| u_n phi.
    """
    u_n = np.asarray(u_n, dtype=float)
    return face_measure * (np.maximum(u_n, 0.0) * phi_left + np.minimum(u_n, 0.0) * phi_right)


def _minmod(a, b):
    out = np.where(np.abs(a) < np.abs(b), a, b)
    return np.where(a * b <= 0.0, 0.0, out)


def minmod_reconstruct(phi_bar: np.ndarray, dual: DualGrid, verts: np.ndarray):
    """Limited linear reconstruction: per-cell least-squares gradient over the
    face neighbors, with each increment toward a face midpoint limited by
    minmod against the jump across that face.  Returns per-face traces
    (left = cell face_cells[:,0] side, right = other side), each guaranteed to
    lie between the two adjacent cell values."""
    i = dual.face_cells[:, 0]
    j = dual.face_cells[:, 1]
    d = verts[j] - verts[i]
    dphi = phi_bar[j] - phi_bar[i]

    n = len(phi_bar)
    # accumulate 2x2 normal equations per cell (both orientations of each face)
    a11 = np.zeros(n)
    a12 = np.zeros(n)
    a22 = np.zeros(n)
    b1 = np.zeros(n)
    b2 = np.zeros(n)
    for cells, dd, df in ((i, d, dphi), (j, -d, -dphi)):
        np.add.at(a11, cells, dd[:, 0] ** 2)
        np.add.at(a12, cells, dd[:, 0] * dd[:, 1])
        np.add.at(a22, cells, dd[:, 1] ** 2)
        np.add.at(b1, cells, dd[:, 0] * df)
        np.add.at(b2, cells, dd[:, 1] * df)
    det = a11 * a22 - a12**2
    safe = np.abs(det) > 1e-300
    gx = np.where(safe, (a22 * b1 - a12 * b2) / np.where(safe, det, 1.0), 0.0)
    gy = np.where(safe, (a11 * b2 - a12 * b1) / np.where(safe, det, 1.0), 0.0)

    mid = dual.face_midpoints
    inc_l = gx[i] * (mid[:, 0] - verts[i, 0]) + gy[i] * (mid[:, 1] - verts[i, 1])
    inc_r = gx[j] * (mid[:, 0] - verts[j, 0]) + gy[j] * (mid[:, 1] - verts[j, 1])
    trace_l = phi_bar[i] + _minmod(inc_l, dphi)
    trace_r = phi_bar[j] + _minmod(inc_r, -dphi)
    return trace_l, trace_r


def face_normal_velocities(v_dofs: np.ndarray, vspace: VelocitySpace,
                           dual: DualGrid) -> np.ndarray:
    """One-point quadrature of <nu, v> at the dual-face midpoints."""
    vec = vspace.eval_at_bary(v_dofs, dual.face_tri, dual.face_bary)
    return (vec * dual.face_normals).sum(axis=1)


def fv_transport_step(phi_bar: np.ndarray, dual: DualGrid, tau: float, order: int,
                      u_n: np.ndarray, verts: np.ndarray,
                      cell_measures: np.ndarray) -> np.ndarray:
    """One explicit conservative transport step on the dual cells.

    ``u_n`` holds the normal velocities at the face midpoints, oriented from
    face_cells[:,0] to face_cells[:,1]; the domain boundary is a no-flux
    boundary.  Mass sum(measure_i phi_i) is conserved to roundoff because each
    face flux enters both cells with opposite sign.  ``verts`` are the cell
    centers the order-2 reconstruction reads.  The split driver passes the P1
    vertex measures as ``cell_measures`` rather than the geometric dual
    volumes, so that the transport stage conserves exactly the mass
    functional the implicit diffusive stage conserves (the two coincide away
    from boundaries and grading transitions).

    The CFL check compares each face flux against the adjacent cells' volume
    share per face: tau |u_n| |Gamma| <= CFL_LIMIT * measure / degree.
    Summed over a cell's faces this caps the total outflow coefficient at
    CFL_LIMIT, so the first-order update is a convex combination whenever the
    face fluxes are discretely divergence free.  Violations raise CflError
    and the driver retries with a smaller increment.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    i = dual.face_cells[:, 0]
    j = dual.face_cells[:, 1]
    vol_i = cell_measures[i]
    vol_j = cell_measures[j]
    degree = np.bincount(dual.face_cells.ravel(), minlength=len(phi_bar))
    share = np.minimum(vol_i / degree[i], vol_j / degree[j])
    cfl = tau * np.abs(u_n) * dual.face_measures / share
    worst = cfl.max() if cfl.size else 0.0
    if worst > CFL_LIMIT:
        raise CflError(f"transport CFL {worst:.3f} exceeds {CFL_LIMIT}")

    if order == 1:
        trace_l = phi_bar[i]
        trace_r = phi_bar[j]
    else:
        trace_l, trace_r = minmod_reconstruct(phi_bar, dual, verts)

    flux = engquist_osher_flux(u_n, trace_l, trace_r, dual.face_measures)
    out = phi_bar.copy()
    np.subtract.at(out, i, tau * flux / vol_i)
    np.add.at(out, j, tau * flux / vol_j)
    return out


# ---------------------------------------------------------------------------
# implicit diffusive / monolithic solve


@dataclass
class ChReport:
    newton_iterations: int


def fe_convection_matrix(space: ScalarSpace, v_dofs: np.ndarray,
                         vspace: VelocitySpace) -> sp.csr_array:
    """Matrix of the trilinear form int <v, grad phi> psi_i over the P1
    unknowns phi (exact quadrature), in ``space.pattern``."""
    w = vspace.shape_table[2]
    v_qp = vspace.velocity_at_qp(v_dofs)
    # the test functions are the P1 hats, the barycentric coordinates at the
    # points, and grad phi_j is constant per element:
    # ke[i, j] = sum_d (sum_q w lambda_i v_d) d_d phi_j
    moments = QUAD_DEG4.points.T @ (w[:, :, None] * v_qp)
    ke = moments @ space.mesh.barycentric_gradients.transpose(0, 2, 1)
    return space.pattern.assemble(ke)


def ch_diffusive_solve(phi_source: np.ndarray, phi_old: np.ndarray, tau: float,
                       params: PhysParams, space: ScalarSpace,
                       newton_tol: float, conv_matrix: sp.csr_array | None,
                       phi_guess: np.ndarray, mu_guess: np.ndarray,
                       lin_cache: FactorizationCache) -> tuple[np.ndarray, np.ndarray, ChReport]:
    """Implicit solve of the diffusive phase-field system

        M (phi - phi_source) + tau Cv phi + tau mobility K mu = 0
        M mu = sigma delta K phi + (sigma/delta) lump(F+'(phi) + F-'(phi_old))

    by Newton's method on the coupled (phi, mu) unknowns, with up to ten
    damped halvings per step when the residual does not decrease.  sigma,
    delta and the mobility are those of ``params``; M, K and the lumped
    weights are the operators ``space`` owns.  With
    ``conv_matrix`` (monolithic mode) the convection enters implicitly; with
    None the transported field is passed as ``phi_source``.  Testing the
    first equation with 1 shows the mean of phi is conserved up to the linear
    solver residual.  Newton starts from (``phi_guess``, ``mu_guess``), its
    first correction settling the mu row, which is linear in mu; its systems
    go through ``lin_cache``.  Each correction is solved to the relative
    residual max(LIN_TOL, 0.1 newton_tol / ||F||_2) for the Newton residual
    F: a linear residual of at most 0.1 newton_tol in the 2-norm, and so in
    the max-norm Newton's own test reads, is all the next test can use.  A
    residual that does not reach ``newton_tol``, NaN included, raises
    SolverError.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    n = space.n_dofs
    M, K, c = space.mass, space.stiffness, space.lumped

    if conv_matrix is not None and conv_matrix.nnz != M.nnz:
        raise ValueError("conv_matrix is not in the pattern of the scalar space")
    sig, dlt, mobility = params.sigma, params.delta, params.mobility
    a_phi = M if conv_matrix is None else space.pattern.matrix(M.data + tau * conv_matrix.data)
    kmu = (tau * mobility) * K
    f_minus_lump = (sig / dlt) * c * well_minus_prime(phi_old)
    rhs1 = M @ phi_source

    # the Jacobian's fixed part in its pattern; each iteration changes only
    # the diagonal of its lower left block
    pattern, maps = space.pair_pattern
    jac = np.empty(pattern.nnz)
    blocks = (a_phi.data, kmu.data, -(sig * dlt) * K.data, M.data)
    for slots, block in zip((slots for row in maps for slots in row), blocks):
        jac[slots] = block
    well_diag = maps[1][0][space.pattern.diagonal]
    jac_well = jac[well_diag]

    phi, mu = phi_guess, mu_guess

    def residual(p, m):
        r1 = a_phi @ p + kmu @ m - rhs1
        r2 = M @ m - sig * dlt * (K @ p) - (sig / dlt) * c * well_plus_prime(p) - f_minus_lump
        return r1, r2

    r1, r2 = residual(phi, mu)
    res = max(np.abs(r1).max(), np.abs(r2).max())

    it = 0
    while not res <= newton_tol and it < NEWTON_MAXIT:
        it += 1
        jac[well_diag] = jac_well - (sig / dlt) * c * well_plus_second(phi)
        F = np.concatenate([r1, r2])
        tol = max(LIN_TOL, 0.1 * newton_tol / np.linalg.norm(F))
        delta = lin_cache.solve(pattern.matrix(jac.copy()), -F, tol=tol, x0=None)
        dphi, dmu = delta[:n], delta[n:]
        step = 1.0
        for _ in range(10):
            p_try = phi + step * dphi
            m_try = mu + step * dmu
            r1t, r2t = residual(p_try, m_try)
            res_t = max(np.abs(r1t).max(), np.abs(r2t).max())
            if res_t < res or res_t <= newton_tol:
                break
            step *= 0.5
        phi, mu, r1, r2, res = p_try, m_try, r1t, r2t, res_t

    if not res <= newton_tol:
        raise SolverError(f"phase-field Newton stalled at residual {res:.3e} "
                          f"after {it} iterations")
    return phi, mu, ChReport(newton_iterations=it)
