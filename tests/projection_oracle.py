"""Reference time stepper with explicit L2-projection coupling terms.

This is the formulation whose energy stability is proved directly: the
density-exchange coupling enters the momentum equation through L2 projections
of interpolated velocity products instead of the folded-in form the
production stepper uses.  The two formulations are algebraically equivalent
at the coupled fixed point, so this module serves purely as a correctness
oracle: its iterates must match the production stepper's to solver tolerance.
The projection terms fill the system matrix densely, which is why it is only
run on small meshes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from phaseflow.cahn_hilliard import ch_diffusive_solve, fe_convection_matrix
from phaseflow.coupling import Discretization, SplitTolerances, State
from phaseflow.errors import StepRejected
from phaseflow.fem import QUAD_DEG4, ScalarSpace
from phaseflow.linalg import FactorizationCache
from phaseflow.momentum import (
    MomentumStep,
    PhysParams,
    assemble_Nb,
    assemble_rhs_K,
    assemble_time_terms,
    compute_flux_j,
    density_from_phase,
    solve_saddle,
)

from oracles import Saddle, midpoint_refine


class ProjectionWorkspace:
    """Factorized P1 mass matrix and the projections of the velocity-node
    hat functions, precomputed once per mesh.

    For a nodal velocity basis, interpolating <v, w_i> on the velocity node
    mesh gives V_i times the hat function of node(i) there, so the projection
    of every coupling term is a column of P = M^-1 * (cross mass), with the
    cross mass between coarse P1 hats and velocity-node-mesh hats.
    """

    def __init__(self, disc: Discretization):
        self.disc = disc
        mass = sp.csc_matrix(disc.sspace.mass)
        self.mass_lu = spla.splu(mass)
        vs = disc.vspace
        if vs.degree == 2:
            half = midpoint_refine(disc.mesh)
            m_half = ScalarSpace(half).mass.toarray()
            # prolongation: coarse hat values at the fine nodes
            n_c, n_f = disc.mesh.n_vertices, half.n_vertices
            P = np.zeros((n_f, n_c))
            P[np.arange(n_c), np.arange(n_c)] = 1.0
            e = disc.mesh.edges
            P[n_c + np.arange(e.shape[0]), e[:, 0]] = 0.5
            P[n_c + np.arange(e.shape[0]), e[:, 1]] = 0.5
            cross = P.T @ m_half
        else:
            cross = disc.sspace.mass.toarray()
        # projected hats, one column per velocity node
        self.projected_hats = self.mass_lu.solve(cross)

    def l2_project(self, rhs_moments: np.ndarray) -> np.ndarray:
        """P1 field x with mass_matrix @ x = rhs_moments, i.e. the orthogonal
        L2 projection of the function whose moments against the P1 basis are
        given."""
        return self.mass_lu.solve(rhs_moments)


def l2_project(disc: Discretization, f) -> np.ndarray:
    """Orthogonal L2 projection of a pointwise-evaluable function onto P1."""
    mesh = disc.mesh
    lam = QUAD_DEG4.points
    w = (2.0 * mesh.areas)[:, None] * QUAD_DEG4.weights[None, :]
    pts = np.einsum("qk,mkd->mqd", lam, mesh.vertices[mesh.triangles])
    fv = f(pts.reshape(-1, 2)).reshape(pts.shape[0], pts.shape[1])
    moments = np.zeros(mesh.n_vertices)
    ke = np.einsum("mq,mq,qi->mi", w, fv, lam)
    np.add.at(moments, mesh.triangles.ravel(), ke.ravel())
    return spla.splu(sp.csc_matrix(disc.sspace.mass)).solve(moments)


def _projection_coupling(ws: ProjectionWorkspace, params: PhysParams,
                         phi_new: np.ndarray, v_old: np.ndarray,
                         j_elem: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrix S and vector r of the two projection terms:

        S[i, j] = 1/2 int <w_j, grad phi> q_i      (enters the matrix, minus)
        r[i]    = 1/2 int <j, grad q_i>            (moves to the right side)

    with q_i = projection(drho/dphi * interp(<v_old, w_i>)) = slope * V_i *
    projected_hat(node(i)).
    """
    disc = ws.disc
    vs = disc.vspace
    mesh = disc.mesh
    slope = params.density_slope
    n = vs.n_nodes

    # T[l, j] = int psi_l <w_j, grad phi_new>, assembled exactly
    vals, _, w = vs.shape_table
    lam = QUAD_DEG4.points
    gphi = np.einsum("mk,mkd->md", phi_new[mesh.triangles], mesh.barycentric_gradients)
    T = np.zeros((mesh.n_vertices, vs.n_dofs))
    nodes = vs.tri_nodes
    tri = mesh.triangles
    for a in range(2):
        ke = np.einsum("mq,qi,m,qj->mij", w, lam, gphi[:, a], vals)
        np.add.at(T, (np.repeat(tri, nodes.shape[1], axis=1).ravel(),
                      np.tile(a * n + nodes, (1, 3)).ravel()), ke.ravel())

    # d[l] = int <j, grad psi_l> (j constant per element)
    d = np.zeros(mesh.n_vertices)
    ke = np.einsum("m,md,mkd->mk", mesh.areas, j_elem, mesh.barycentric_gradients)
    np.add.at(d, tri.ravel(), ke.ravel())

    # Q[i, l] = slope * V_i * projected_hat[l, node(i)]
    node_of_dof = np.concatenate([np.arange(n), np.arange(n)])
    Q = slope * v_old[:, None] * ws.projected_hats[:, node_of_dof].T
    S = 0.5 * Q @ T
    r = 0.5 * Q @ d
    return S, r


def projection_momentum_solve(ws: ProjectionWorkspace, step: MomentumStep,
                              phi_new: np.ndarray,
                              mu_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Momentum solve of the projection formulation (dense coupling rows):
    the viscous and convection blocks are the step's, the projection terms
    are assembled here."""
    disc = ws.disc
    vs = disc.vspace
    params, v_old = step.params, step.v_old
    rho_new = density_from_phase(phi_new, params)
    j_elem = compute_flux_j(mu_new, params.mobility, disc.sspace)

    mat_t = sp.diags_array(assemble_time_terms(vs, step.rho_old, rho_new, v_old, step.tau)[0],
                           format="csr")
    S, r = _projection_coupling(ws, params, phi_new, v_old, j_elem)
    G = mat_t + vs.pattern.matrix(step.old_terms) \
        + assemble_Nb(vs, j_elem, params) \
        - sp.csr_array(S)
    # the time term tested against w keeps the averaged mass on v_old here
    rhs = mat_t @ v_old - r + assemble_rhs_K(vs, disc.sspace, mu_new, phi_new, params, step.t)
    # the projection terms fill the velocity block densely, so the mesh's
    # sparse factorization order has nothing to save; the oracle keeps
    # SuperLU's own order with partial pivoting, the rounding its fixed
    # point converges under (in the nested order the increments of the
    # fifth A3 step stall near 2e-10, above eps_v = 1e-10)
    # the saddle plan is built on G's own, dense, velocity pattern
    plan = Saddle(G, rhs, disc.B, vs.dirichlet_mask, None).plan()
    v, p = solve_saddle(plan, G, rhs, None, tol=1e-10, cache=FactorizationCache(None),
                        guess=(np.zeros(G.shape[0]), np.zeros(disc.B.shape[0])))
    w = disc.sspace.lumped
    return v, p - (w @ p) / w.sum()


def projection_reference_step(state: State, tau: float, params: PhysParams,
                              tols: SplitTolerances | None = None,
                              ws: ProjectionWorkspace | None = None,
                              newton_tol: float = 1e-13) -> State:
    """One step of the projection formulation, iterated to the coupled fixed
    point with the monolithic implicit convection (oracle use only)."""
    if params.elements != "th":
        raise ValueError("the reference stepper uses the inf-sup stable pair")
    if tols is None:
        tols = SplitTolerances(eps_v=1e-10, eps_phi=1e-10, max_inner=400)
    disc = state.disc
    if ws is None:
        ws = ProjectionWorkspace(disc)
    phi_k, v_k = state.phi, state.v
    step = MomentumStep(disc.vspace, disc.sspace, params, disc.saddle,
                        phi_k, v_k, tau, state.t)

    def ch_solve(v_dofs, phi_guess, mu_guess):
        conv = fe_convection_matrix(disc.sspace, v_dofs, disc.vspace)
        phi_new, mu_new, _ = ch_diffusive_solve(
            phi_k, phi_k, tau, params, disc.sspace,
            newton_tol=newton_tol, conv_matrix=conv, phi_guess=phi_guess,
            mu_guess=mu_guess, lin_cache=FactorizationCache(None))
        return phi_new, mu_new

    phi_i, mu_i = ch_solve(v_k, phi_k, state.mu)
    v_prev = v_k
    for _ in range(tols.max_inner):
        v_i, p_i = projection_momentum_solve(ws, step, phi_i, mu_i)
        phi_next, mu_next = ch_solve(v_i, phi_i, mu_i)
        dv = float(np.abs(v_i - v_prev).max())
        dphi = float(np.abs(phi_next - phi_i).max())
        phi_i, mu_i, v_prev = phi_next, mu_next, v_i
        if dv <= tols.eps_v and dphi <= tols.eps_phi:
            return State(t=state.t + tau, phi=phi_i, mu=mu_i, v=v_i, p=p_i, disc=disc)
    raise StepRejected("reference fixed point did not converge")
