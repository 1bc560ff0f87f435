"""Momentum step: the linear saddle-point solve for velocity and pressure.

The convective operators are skew-symmetrized on their element matrices
before the one scatter, so they are exactly antisymmetric matrices and
contribute nothing to the discrete kinetic energy balance; together with the
time-averaged lumped mass this is the mechanism that makes the time
discretization energy stable.  The diffusive mass flux of the phase field
enters the momentum equation through a second skew operator weighted by the
slope (rho2 - rho1)/2 of the affine density law, ``PhysParams.density_slope``;
the model switch turns exactly that coupling off (the simplified model
follows the classical volume-averaged formulation without the flux term).

The saddle-point system of velocity and pressure is this module's alone:
``saddle_order`` fixes the dof order it is factorized in, once per mesh,
and ``solve_saddle`` stacks its monolithic matrix, fixes its constrained
dofs and solves it; ``linalg`` supplies the generic sparse solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import SolverError
from .fem import (
    ScalarSpace,
    VelocitySpace,
    assemble,
    element_chunks,
    nested_dissection,
)
from .linalg import FactorizationCache


@dataclass(frozen=True)
class ForceSpec:
    """External volume force density.

    kind 'constant': k0 everywhere; 'weighted': rho(phi) * k0 (gravitational
    acceleration k0); 'rotating': k0 rotated counterclockwise by
    2 pi rotations_per_unit * t, uniform in space; 'rotating-weighted': the
    rotating vector scaled by rho(phi); 'none': zero.
    """

    kind: str = "none"
    k0: tuple[float, float] = (0.0, 0.0)
    rotations_per_unit: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "constant", "weighted", "rotating", "rotating-weighted"):
            raise ValueError(f"unknown force kind {self.kind!r}")

    def vector_at(self, t: float) -> np.ndarray:
        k = np.array(self.k0, dtype=float)
        if self.kind in ("rotating", "rotating-weighted"):
            theta = 2.0 * np.pi * self.rotations_per_unit * t
            c, s = np.cos(theta), np.sin(theta)
            k = np.array([c * k[0] - s * k[1], s * k[0] + c * k[1]])
        return k

    @property
    def density_weighted(self) -> bool:
        return self.kind in ("weighted", "rotating-weighted")


@dataclass(frozen=True)
class PhysParams:
    """Physical and discretization parameters of the two-phase model."""

    rho1: float = 0.001
    rho2: float = 0.019
    eta1: float = 0.01
    eta2: float = 0.01
    sigma: float = 1.0
    delta: float = 0.05
    mobility: float = 0.005
    force: ForceSpec = field(default_factory=ForceSpec)
    model: str = "agg"          # 'agg': with flux coupling; 'dss': without
    elements: str = "th"        # 'th': P2/P1 Taylor-Hood; 'p1p1': stabilized P1/P1
    bc: str = "noslip"

    def __post_init__(self):
        if self.rho1 <= 0 or self.rho2 <= 0:
            raise ValueError("specific densities must be positive")
        if self.eta1 <= 0 or self.eta2 <= 0:
            raise ValueError("viscosities must be positive")
        if self.mobility < 0:
            raise ValueError("mobility must be nonnegative")
        if self.delta <= 0 or self.sigma <= 0:
            raise ValueError("sigma and delta must be positive")
        if self.model not in ("agg", "dss"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.elements not in ("th", "p1p1"):
            raise ValueError(f"unknown element pair {self.elements!r}")

    @property
    def velocity_degree(self) -> int:
        return 2 if self.elements == "th" else 1

    @property
    def density_slope(self) -> float:
        """d rho / d phi of the affine density law."""
        return 0.5 * (self.rho2 - self.rho1)


def density_from_phase(phi: np.ndarray, params: PhysParams) -> np.ndarray:
    """Affine mixture density (rho2 + rho1)/2 + (rho2 - rho1)/2 * phi, nodal."""
    return 0.5 * (params.rho2 + params.rho1) + params.density_slope * np.asarray(phi)


def viscosity_from_phase(phi: np.ndarray, params: PhysParams) -> np.ndarray:
    """Affine viscosity interpolation, mirroring the density law."""
    return 0.5 * (params.eta2 + params.eta1) + 0.5 * (params.eta2 - params.eta1) * np.asarray(phi)


def compute_flux_j(mu_new: np.ndarray, mobility: float, space: ScalarSpace) -> np.ndarray:
    """Elementwise-constant diffusive mass flux -M grad(mu), shape (m, 2)."""
    return -mobility * space.element_gradients(mu_new)


# ---------------------------------------------------------------------------
# operator assembly on the velocity space


def _assemble_blocks(vspace: VelocitySpace, blocks) -> sp.csr_array:
    """Assemble a vector-valued operator from per-element (nloc x nloc)
    component blocks: blocks[(a, b)] has shape (m, nloc, nloc)."""
    nodes = vspace.tri_nodes
    n = vspace.n_nodes
    rows = np.concatenate([a * n + nodes for a, _ in blocks])
    cols = np.concatenate([b * n + nodes for _, b in blocks])
    return assemble(rows, cols, np.concatenate(list(blocks.values())),
                    (vspace.n_dofs, vspace.n_dofs))


def _skew_blocks(vspace: VelocitySpace, ke: np.ndarray) -> sp.csr_array:
    """Assemble the skew parts 0.5 (ke - ke^T) of per-element (nloc x nloc)
    matrices on both diagonal component blocks.  Two distinct nodes share at
    most two elements, so entry (J, I) sums exactly the negated terms of
    entry (I, J) and the result is exactly antisymmetric."""
    skew = 0.5 * (ke - ke.transpose(0, 2, 1))
    return _assemble_blocks(vspace, {(0, 0): skew, (1, 1): skew})


def assemble_Na(vspace: VelocitySpace, rho_old: np.ndarray, v_old: np.ndarray) -> sp.csr_array:
    """Skew-symmetrized density-weighted convection: the skew part of
    C[(a,i),(b,j)] = delta_ab int rho_old shape_i (v_old . grad shape_j)."""
    vals, grads, w = vspace.shape_table
    rho_qp = vspace.p1_at_qp(rho_old)
    v_qp = vspace.velocity_at_qp(v_old)

    def kernel(span):
        dgrad = np.einsum("mqd,mqnd->mqn", v_qp[span], grads[span])
        return np.einsum("mq,mq,qi,mqj->mij", w[span], rho_qp[span], vals, dgrad)

    return _skew_blocks(vspace, np.concatenate(element_chunks(kernel, vspace.mesh.n_triangles)))


def assemble_Nb(vspace: VelocitySpace, j_elem: np.ndarray, params: PhysParams) -> sp.csr_array:
    """Skew coupling of the elementwise-constant diffusive mass flux j into
    the momentum equation, the skew part of
    delta_ab density_slope int shape_i (j . grad shape_j).  Identically zero
    in the simplified ('dss') model."""
    if params.model == "dss":
        n = vspace.n_dofs
        return sp.csr_array((n, n))
    ke = params.density_slope * np.einsum("md,mdij->mij", j_elem, vspace.flux_moments)
    return _skew_blocks(vspace, ke)


def assemble_viscous(vspace: VelocitySpace, eta_old: np.ndarray) -> sp.csr_array:
    """int 2 eta D(u) : D(w) with the symmetrized gradient; symmetric positive
    semidefinite, kernel = rigid motions before boundary conditions."""
    eta_old = np.asarray(eta_old, dtype=float)
    if eta_old.min() <= 0:
        raise ValueError("viscosity must be positive")
    _, grads, w = vspace.shape_table
    wq = w * vspace.p1_at_qp(eta_old)

    # 2 D(w_i^a) : D(w_j^b) = delta_ab grad_i . grad_j + d_b shape_i d_a shape_j
    def kernel(span):
        gdot = np.einsum("mq,mqid,mqjd->mij", wq[span], grads[span], grads[span])
        out = {}
        for a in range(2):
            for b in range(2):
                ke = np.einsum("mq,mqi,mqj->mij", wq[span],
                               grads[span, :, :, b], grads[span, :, :, a])
                if a == b:
                    ke = ke + gdot
                out[(a, b)] = ke
        return out

    parts = element_chunks(kernel, vspace.mesh.n_triangles)
    blocks = {key: np.concatenate([p[key] for p in parts], axis=0)
              for key in parts[0]}
    return _assemble_blocks(vspace, blocks)


def assemble_divergence(vspace: VelocitySpace, pspace: ScalarSpace) -> sp.csr_array:
    """B[l, (a, j)] = int shape_j^a d_a psi_l, the gradient-form coupling
    between velocity and the P1 pressure (rows sum to zero per column)."""
    vals, _, w = vspace.shape_table
    gp1 = pspace.mesh.barycentric_gradients
    tri = pspace.mesh.triangles
    nodes = vspace.tri_nodes
    ke = np.concatenate([np.einsum("mq,ml,qj->mlj", w, gp1[:, :, a], vals) for a in range(2)])
    return assemble(np.concatenate([tri, tri]),
                    np.concatenate([nodes, vspace.n_nodes + nodes]), ke,
                    (pspace.n_dofs, vspace.n_dofs))


def assemble_stabilization(pspace: ScalarSpace, eta_old: np.ndarray) -> sp.csr_array:
    """Pressure-projection stabilization for the equal-order pair:
    C_ij = int (1/eta) (psi_i - Pi0 psi_i)(psi_j - Pi0 psi_j) with Pi0 the
    elementwise mean; kernel = elementwise-constant pressures."""
    mesh = pspace.mesh
    eta_bar = np.asarray(eta_old, dtype=float)[mesh.triangles].mean(axis=1)
    # int (psi_i - 1/3)(psi_j - 1/3) = |K| [ (1 + delta_ij)/12 - 1/9 ]
    local = np.full((3, 3), 1.0 / 12.0 - 1.0 / 9.0)
    np.fill_diagonal(local, 1.0 / 6.0 - 1.0 / 9.0)
    ke = (mesh.areas / eta_bar)[:, None, None] * local[None, :, :]
    return assemble(mesh.triangles, mesh.triangles, ke, (pspace.n_dofs, pspace.n_dofs))


def assemble_rhs_K(vspace: VelocitySpace, pspace: ScalarSpace, mu_new: np.ndarray,
                   phi_new: np.ndarray, params: PhysParams, t: float) -> np.ndarray:
    """Momentum right-hand side: int mu <grad phi, w_i> plus the external
    force work int <k(t), w_i> (with the density weight when configured)."""
    vals, _, w = vspace.shape_table
    nodes = vspace.tri_nodes
    n = vspace.n_nodes
    out = np.zeros(vspace.n_dofs)

    mu_qp = vspace.p1_at_qp(mu_new)
    gphi = pspace.element_gradients(phi_new)
    force = params.force.vector_at(t)
    if params.force.kind == "none":
        fx_qp = fy_qp = None
    elif params.force.density_weighted:
        rho = density_from_phase(phi_new, params)
        rho_qp = vspace.p1_at_qp(rho)
        fx_qp = rho_qp * force[0]
        fy_qp = rho_qp * force[1]
    else:
        shape = mu_qp.shape
        fx_qp = np.full(shape, force[0])
        fy_qp = np.full(shape, force[1])

    for a in range(2):
        integrand = mu_qp * gphi[:, None, a]
        if fx_qp is not None:
            integrand = integrand + (fx_qp if a == 0 else fy_qp)
        ke = np.einsum("mq,qi->mi", w * integrand, vals)
        np.add.at(out, a * n + nodes, ke)
    return out


def assemble_external_force(vspace: VelocitySpace, pspace: ScalarSpace,
                            phi_new: np.ndarray, params: PhysParams, t: float) -> np.ndarray:
    """Only the external-force part of the right-hand side (used by the
    energy auditor so the work term matches the solve exactly): with mu = 0
    the capillary term adds only zeros."""
    return assemble_rhs_K(vspace, pspace, np.zeros(pspace.n_dofs), phi_new, params, t)


def assemble_time_terms(vspace: VelocitySpace, rho_old: np.ndarray, rho_new: np.ndarray,
                        v_old: np.ndarray, tau: float) -> tuple[sp.csr_array, np.ndarray]:
    """Time discretization of the inertia with averaged lumped mass:
    matrix (M(rho_old) + M(rho_new)) / (2 tau), right-hand side
    M(rho_old) v_old / tau (the density-exchange term is already folded in)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    d_old = vspace.lumping @ rho_old
    d_new = vspace.lumping @ rho_new
    diag = np.concatenate([d_old + d_new, d_old + d_new]) / (2.0 * tau)
    mat = sp.csr_array(sp.diags_array(diag))
    rhs = np.concatenate([d_old, d_old]) / tau * v_old
    return mat, rhs


def apply_velocity_dirichlet(A: sp.csr_array, mask: np.ndarray) -> sp.csr_array:
    """Fix the dofs of ``mask`` to zero: zero their rows and columns and put
    ones on the diagonal."""
    A = sp.csr_array(A, copy=True)
    A.sum_duplicates()
    keep = ~mask
    A.data *= np.repeat(keep, np.diff(A.indptr)) & keep[A.indices]
    A.eliminate_zeros()
    return A + sp.diags_array(mask.astype(float), format="csr")


# the pressure dof the monolithic saddle solve fixes to zero
PIN = 0

# relative residual the monolithic saddle solve is iterated to: successive
# splitting iterates differ far more than that, and the divergence it leaves
# stays well inside the 1e-9 check of ``solve_momentum``
SADDLE_TOL = 1e-10


def saddle_order(vspace: VelocitySpace) -> np.ndarray:
    """The fill-reducing order of the monolithic saddle matrix's dofs
    [v_x; v_y; p]; depends on the mesh only.

    It is the nested-dissection order of the velocity nodes
    (``fem.nested_dissection``), each node expanded to its dofs v_x, v_y
    and, when the node is a vertex and so carries a P1 pressure dof, p, so
    that the dofs of one node are contiguous."""
    nodes = nested_dissection(vspace.nodes, vspace.tri_nodes)
    n = vspace.n_nodes
    dofs = np.column_stack([nodes, n + nodes, 2 * n + nodes])
    keep = np.ones(dofs.shape, dtype=bool)
    keep[:, 2] = nodes < vspace.mesh.n_vertices
    return dofs[keep]


def solve_saddle(G: sp.spmatrix, rhs_v: np.ndarray, B: sp.csr_array, mask: np.ndarray,
                 C: sp.spmatrix | None, tol: float, cache: FactorizationCache,
                 guess: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Solve the saddle-point problem

        [ G   B^T ] [v]   [rhs_v]
        [ B   -C  ] [p] = [  0  ]

    with B the gradient-form coupling (one row per pressure dof) and C an
    optional pressure stabilization (None for inf-sup stable pairs), the
    velocity dofs of ``mask`` fixed to zero; returns (velocity, pressure)
    with the pressure dof ``PIN`` at 0.

    The pressure is defined up to constants only: B^T 1 = 0, since B pairs
    each velocity basis function with the gradients of the P1 pressure basis
    functions, which sum to the gradient of 1, and C 1 = 0, since the
    stabilization vanishes on elementwise constants.  So the pressure dof
    ``PIN`` is fixed to zero like the masked velocity dofs: one
    ``apply_velocity_dirichlet`` on the stacked monolithic matrix zeroes the
    rows and columns of all of them, with 1 on the diagonal, and the
    right-hand side is zeroed on the same dofs.  The pin changes neither the
    velocity nor the pressure up to that constant: with C symmetric, the
    dropped divergence row is minus the sum of the others, so it holds
    whenever the others do.  It holds only through that identity, so the
    divergence is still checked on every pressure row afterwards.  The pin
    keeps the matrix as sparse as its blocks, where a constraint row for the
    mean would couple every pressure dof.

    The matrix goes through ``cache.solve`` to the relative residual
    ``SADDLE_TOL``, which factorizes it in the cache's order (the mesh's
    saddle cache is built with ``saddle_order``) and carries its
    factorization over to the next, nearby matrix.  Its iteration starts
    from ``guess``, a (velocity, pressure) pair whose pressure is first
    shifted to 0 at ``PIN``: a pressure of any other normalization would
    leave a residual on the pin row.
    A failed solve, or a divergence residual above ``tol`` on any pressure
    row, the pinned one included, raises SolverError.
    """
    n_v, n_p = G.shape[0], B.shape[0]
    # CSR throughout lets sp.bmat stack the blocks without sorting
    lower = sp.csr_array((n_p, n_p)) if C is None else -sp.csr_array(C)
    K = sp.bmat([[sp.csr_array(G), B.T.tocsr()], [B, lower]], format="csr")
    K = apply_velocity_dirichlet(K, np.concatenate([mask, np.arange(n_p) == PIN]))
    rhs = np.concatenate([np.where(mask, 0.0, rhs_v), np.zeros(n_p)])
    x0 = np.concatenate([guess[0], guess[1] - guess[1][PIN]])
    sol = cache.solve(K, rhs, tol=SADDLE_TOL, x0=x0)
    v, p = sol[:n_v], sol[n_v:]
    div_res = np.abs(B @ v - (C @ p if C is not None else 0.0)).max()
    if not div_res <= tol:
        raise SolverError(f"divergence residual {div_res:.3e} exceeds tol {tol:.1e}")
    return v, p


class MomentumStep:
    """The old time level of one step and the momentum operators built from
    it: the viscous block, the skew convection and, for the equal-order
    pair, the pressure stabilization.  They stay fixed across the splitting
    iterations of the step, so they are assembled once, here; ``B`` is the
    mesh's divergence block, unconstrained."""

    def __init__(self, vspace: VelocitySpace, pspace: ScalarSpace, params: PhysParams,
                 B: sp.csr_array, phi_old: np.ndarray, v_old: np.ndarray,
                 tau: float, t: float):
        self.vspace = vspace
        self.pspace = pspace
        self.params = params
        self.B = B
        self.v_old = v_old
        self.tau = tau
        self.t = t
        self.rho_old = density_from_phase(phi_old, params)
        eta_old = viscosity_from_phase(phi_old, params)
        self.viscous = assemble_viscous(vspace, eta_old)
        self.convective = assemble_Na(vspace, self.rho_old, v_old)
        self.stabilization = assemble_stabilization(pspace, eta_old) \
            if params.elements == "p1p1" else None


def solve_momentum(step: MomentumStep, phi_new: np.ndarray, mu_new: np.ndarray,
                   cache: FactorizationCache,
                   guess: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Assemble and solve the momentum saddle-point system of one splitting
    iteration: the terms of the new phase and chemical potential join the
    step's fixed operators, ``cache`` carries the saddle factorization over
    from the previous solve, and the solve starts from ``guess``, a nearby
    (velocity, pressure) such as the previous iterate.  The pressure is
    returned with zero mean under the lumped weights of the pressure
    space."""
    vspace, pspace, params = step.vspace, step.pspace, step.params
    rho_new = density_from_phase(phi_new, params)
    j_elem = compute_flux_j(mu_new, params.mobility, pspace)

    mat_t, rhs_t = assemble_time_terms(vspace, step.rho_old, rho_new, step.v_old, step.tau)
    G = mat_t + step.viscous + step.convective \
        + assemble_Nb(vspace, j_elem, params)
    rhs = rhs_t + assemble_rhs_K(vspace, pspace, mu_new, phi_new, params, step.t)
    v, p = solve_saddle(G, rhs, step.B, vspace.dirichlet_mask, step.stabilization, tol=1e-9,
                        cache=cache, guess=guess)
    w = pspace.lumped
    return v, p - (w @ p) / w.sum()
