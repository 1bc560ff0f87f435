"""Finite element spaces on triangulations: continuous P1 scalars, P2 or P1
vector velocity spaces with Dirichlet handling, exact quadrature, and the
assembly kernels shared by the solvers.

Every operator here is built from the element areas and barycentric
gradients the ``Mesh`` computes once and owns.  A ``ScalarSpace`` owns its
constant operators: the consistent mass matrix, the unit-coefficient
stiffness matrix and the lumped weights are assembled once per space, on
first use, so the Cahn-Hilliard solve and the energy audit read the same
matrices.  ``ScalarSpace.element_gradients`` is the one elementwise
gradient of a P1 field.  Every sparse finite element matrix is built by
``assemble``, the one scatter of element matrices into CSR.

A ``VelocitySpace`` owns the fixed per-mesh data of the momentum operators;
P1 and P2 differ only in their node table and ``REFERENCE_ELEMENTS`` entry.
``lumping`` maps a P1 weight on the primal mesh to the diagonal of the
weighted lumped velocity mass: entry (i, j) integrates the hat of velocity
node i on the node mesh (the primal mesh, or for P2 its midpoint refinement)
times the primal hat of vertex j.  Per element K that is |K| times a fixed
matrix: the P1 mass (1 + delta) / 12, or for P2, both factors being linear
on the four children of K, 1/16 on lambda_i and 1/96 on the others in the
row of vertex i, 1/24 on lambda_k and 5/48 on the others in the row of the
midpoint opposite vertex k.  Lumping makes the velocity mass diagonal and
is what lets the kinetic-energy telescoping of the stable time
discretization hold to machine precision.  ``flux_moments`` holds the
per-element integrals of shape_i * d_d shape_j, from which a convection
operator with an elementwise-constant direction is one contraction.

``nested_dissection`` is a fill-reducing order of the nodes of a mesh
(after George, SIAM J. Numer. Anal. 10, 1973); the momentum solve expands
it to the dofs of its saddle matrix.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import GeometryError
from .mesh import Mesh, barycentric_coordinates, locate_points


def assembly_threads() -> int:
    """Degree of assembly parallelism, from PHASEFLOW_THREADS (default and
    upper bound: the core count)."""
    cores = os.cpu_count() or 1
    try:
        n = int(os.environ.get("PHASEFLOW_THREADS", ""))
    except ValueError:
        n = 0
    return cores if n < 1 else min(n, cores)


# element_chunks splits a mesh across threads from twice this many elements
MIN_CHUNK = 20000


def element_chunks(kernel, n_elements: int) -> list:
    """Evaluate ``kernel(slice)`` over the element range, split across the
    configured assembly threads for large meshes.  Chunks are returned in
    element order and each element's local arithmetic is unchanged, so the
    result is bitwise independent of the thread count."""
    threads = assembly_threads()
    if threads <= 1 or n_elements < 2 * MIN_CHUNK:
        return [kernel(slice(0, n_elements))]
    bounds = np.linspace(0, n_elements, threads + 1).astype(int)
    spans = [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(kernel, spans))


@dataclass(frozen=True)
class Quadrature:
    """Symmetric rule on the reference triangle, exact to ``degree``.
    ``points`` are barycentric, ``weights`` sum to the reference area 1/2."""

    points: np.ndarray
    weights: np.ndarray
    degree: int


def _dunavant_degree4() -> Quadrature:
    a1, w1 = 0.445948490915965, 0.223381589678011
    a2, w2 = 0.091576213509771, 0.109951743655322
    pts = []
    wts = []
    for a, w in ((a1, w1), (a2, w2)):
        b = 1.0 - 2.0 * a
        pts += [(b, a, a), (a, b, a), (a, a, b)]
        wts += [w, w, w]
    return Quadrature(np.array(pts), 0.5 * np.array(wts), degree=4)


QUAD_DEG4 = _dunavant_degree4()


def p2_shape_values(lam: np.ndarray) -> np.ndarray:
    """Quadratic shape functions at barycentric points (q, 3) -> (q, 6).
    Nodes: 3 vertices, then 3 edge midpoints with edge k opposite vertex k."""
    l0, l1, l2 = lam[:, 0], lam[:, 1], lam[:, 2]
    return np.column_stack([
        l0 * (2 * l0 - 1),
        l1 * (2 * l1 - 1),
        l2 * (2 * l2 - 1),
        4 * l1 * l2,
        4 * l2 * l0,
        4 * l0 * l1,
    ])


def p2_shape_barygrad(lam: np.ndarray) -> np.ndarray:
    """Derivatives of the P2 shapes w.r.t. the barycentric coordinates,
    shape (q, 6, 3); physical gradients follow by chaining with grad(lambda)."""
    q = lam.shape[0]
    g = np.zeros((q, 6, 3))
    for k in range(3):
        g[:, k, k] = 4 * lam[:, k] - 1
    # edge node k couples the two barycentric coords other than k
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        g[:, 3 + k, i] = 4 * lam[:, j]
        g[:, 3 + k, j] = 4 * lam[:, i]
    return g


# lumping element matrices (see the module docstring)
P1_MASS = (1.0 + np.eye(3)) / 12.0
P2_LUMPING = np.vstack([(1.0 + 5.0 * np.eye(3)) / 96.0, (5.0 - 3.0 * np.eye(3)) / 48.0])
# the four children of an element's midpoint refinement, as columns of its P2
# node table: the corners at vertices 0, 1, 2, then the center
P2_CHILDREN = ((0, 5, 4), (5, 1, 3), (4, 3, 2), (3, 4, 5))


class ReferenceElement(NamedTuple):
    """Velocity shapes of one degree: values (q, nloc) and barycentric gradients
    (q, nloc, 3) at barycentric points (q, 3); the (nloc, 3) lumping matrix."""

    values: Callable[[np.ndarray], np.ndarray]
    barygrad: Callable[[np.ndarray], np.ndarray]
    lumping: np.ndarray


REFERENCE_ELEMENTS = {
    # P1: the shapes are the barycentric coordinates, their gradient table I
    1: ReferenceElement(np.copy, lambda lam: np.broadcast_to(np.eye(3), (len(lam), 3, 3)), P1_MASS),
    2: ReferenceElement(p2_shape_values, p2_shape_barygrad, P2_LUMPING),
}


@dataclass(frozen=True)
class ScalarSpace:
    """Continuous piecewise linears; one dof per mesh vertex."""

    mesh: Mesh

    @property
    def n_dofs(self) -> int:
        return self.mesh.n_vertices

    @cached_property
    def mass(self) -> sp.csr_array:
        """Consistent mass matrix."""
        return assemble_p1_mass(self)

    @cached_property
    def stiffness(self) -> sp.csr_array:
        """Stiffness matrix with unit coefficient."""
        return assemble_stiffness(self)

    @cached_property
    def lumped(self) -> np.ndarray:
        """Lumped mass weights (integrals of the hat functions)."""
        return lumped_p1_weights(self.mesh)

    def element_gradients(self, f: np.ndarray) -> np.ndarray:
        """The constant gradient of the P1 field ``f`` on each element, (m, 2)."""
        return np.einsum("mk,mkd->md", f[self.mesh.triangles], self.mesh.barycentric_gradients)


class VelocitySpace:
    """Vector-valued continuous elements of degree 1 or 2 with component-major
    dof layout: dof(comp, node) = comp * n_nodes + node.

    ``bc`` selects which dofs carry essential conditions: 'noslip' pins both
    components of every boundary node, 'freeslip' pins only the component
    normal to the rectangle side (both at corners).
    """

    def __init__(self, mesh: Mesh, degree: int, bc: str):
        if degree not in REFERENCE_ELEMENTS:
            raise ValueError("velocity degree must be 1 or 2")
        if bc not in ("noslip", "freeslip"):
            raise ValueError(f"unknown boundary condition {bc!r}")
        self.mesh = mesh
        self.degree = degree
        self.reference = REFERENCE_ELEMENTS[degree]
        self.bc = bc
        if degree == 2:
            self.nodes = np.concatenate([mesh.vertices, mesh.edge_midpoints()], axis=0)
            self.tri_nodes = np.column_stack([mesh.triangles, mesh.n_vertices + mesh.tri_edges])
        else:
            self.nodes = mesh.vertices
            self.tri_nodes = mesh.triangles
        self.n_nodes = self.nodes.shape[0]
        self.n_dofs = 2 * self.n_nodes
        self._boundary_node_mask = self._compute_boundary_nodes()
        self.dirichlet_mask = self._compute_dirichlet()

    def _compute_boundary_nodes(self) -> np.ndarray:
        mask = np.zeros(self.n_nodes, dtype=bool)
        mesh = self.mesh
        bedges = mesh.boundary_edges
        mask[mesh.edges[bedges].ravel()] = True
        if self.degree == 2:
            mask[mesh.n_vertices + bedges] = True
        return mask

    def _compute_dirichlet(self) -> np.ndarray:
        mask = np.zeros(self.n_dofs, dtype=bool)
        bnodes = np.nonzero(self._boundary_node_mask)[0]
        if self.bc == "noslip":
            mask[bnodes] = True
            mask[self.n_nodes + bnodes] = True
            return mask
        x0, x1, y0, y1 = self.mesh.domain
        pts = self.nodes[bnodes]
        tol = 1e-12 * max(x1 - x0, y1 - y0)
        on_x = (np.abs(pts[:, 0] - x0) < tol) | (np.abs(pts[:, 0] - x1) < tol)
        on_y = (np.abs(pts[:, 1] - y0) < tol) | (np.abs(pts[:, 1] - y1) < tol)
        mask[bnodes[on_x]] = True
        mask[self.n_nodes + bnodes[on_y]] = True
        return mask

    # -- fixed per-mesh operators -----------------------------------------

    @cached_property
    def lumping(self) -> sp.csr_array:
        """(n_nodes, n_vertices) matrix taking a P1 weight on the primal mesh
        to the weighted lumped mass per scalar velocity node: |K| times the
        reference lumping matrix per element (for P1, the P1 mass itself)."""
        ke = self.mesh.areas[:, None, None] * self.reference.lumping[None, :, :]
        return assemble(self.tri_nodes, self.mesh.triangles, ke,
                        (self.n_nodes, self.mesh.n_vertices))

    @cached_property
    def flux_moments(self) -> np.ndarray:
        """Per-element integrals of shape_i * d_d shape_j, (m, 2, nloc, nloc),
        exact: the integrand's degree is at most 3."""
        vals, grads, w = self.shape_table
        return np.einsum("mq,qi,mqjd->mdij", w, vals, grads)

    # -- evaluation ------------------------------------------------------

    @cached_property
    def shape_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-element shape values and physical gradients at the points of
        ``QUAD_DEG4``: values (q, nloc), grads (m, q, nloc, 2), scaled
        weights (m, q)."""
        lam = QUAD_DEG4.points
        vals = self.reference.values(lam)
        # physical grad: sum_k dN/dlam_k * grad(lam_k)
        grads = np.einsum("qnk,mkd->mqnd", self.reference.barygrad(lam),
                          self.mesh.barycentric_gradients)
        w = (2.0 * self.mesh.areas)[:, None] * QUAD_DEG4.weights[None, :]
        return vals, grads, w

    def p1_at_qp(self, nodal: np.ndarray) -> np.ndarray:
        """A P1 field on the primal mesh at the quadrature points, (m, q)."""
        return np.einsum("mk,qk->mq", nodal[self.mesh.triangles], QUAD_DEG4.points)

    def velocity_at_qp(self, v_dofs: np.ndarray) -> np.ndarray:
        """Velocity vectors at the quadrature points, (m, q, 2)."""
        vals = self.shape_table[0]
        nodes = self.tri_nodes
        vx = np.einsum("mn,qn->mq", v_dofs[nodes], vals)
        vy = np.einsum("mn,qn->mq", v_dofs[self.n_nodes + nodes], vals)
        return np.stack([vx, vy], axis=-1)

    def eval_at_bary(self, dofs: np.ndarray, tri_ids: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """Velocity vectors at barycentric points lam (k, 3) in tri_ids (k,)."""
        shape = self.reference.values(lam)
        nodes = self.tri_nodes[tri_ids]
        ux = (dofs[nodes] * shape).sum(axis=1)
        uy = (dofs[self.n_nodes + nodes] * shape).sum(axis=1)
        return np.column_stack([ux, uy])

    def component_gradients_at_barycenter(self, dofs: np.ndarray) -> np.ndarray:
        """(m, 2, 2) array: [element, component, d/dx d/dy], P2 evaluated at
        the barycenter, exact for P1."""
        bg = self.reference.barygrad(np.full((1, 3), 1.0 / 3.0))[0]  # (nloc, 3)
        gphys = np.einsum("nk,mkd->mnd", bg, self.mesh.barycentric_gradients)  # (m, nloc, 2)
        nodes = self.tri_nodes
        gx = np.einsum("mn,mnd->md", dofs[nodes], gphys)
        gy = np.einsum("mn,mnd->md", dofs[self.n_nodes + nodes], gphys)
        return np.stack([gx, gy], axis=1)


# nested dissection stops splitting a part with at most this many free nodes
DISSECTION_LEAF = 8


def nested_dissection(points: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """A nested-dissection order of the nodes ``points`` (n, 2) of a mesh
    whose element ``e`` couples the nodes ``elements[e]``.

    Recursive geometric bisection: a part's elements are split at the median
    of their largest node coordinate along the part's longer extent, so the
    cut follows a row of nodes; the nodes that elements of both halves touch
    form the separator, which is ordered after both halves.  A part with at
    most ``DISSECTION_LEAF`` nodes not yet ordered, or whose elements all
    share one key, keeps its nodes in index order.  Deterministic: the
    result depends on the geometry and the numbering alone."""
    placed = np.zeros(len(points), dtype=bool)
    touched = np.zeros((2, len(points)), dtype=bool)
    out = []

    def dissect(part: np.ndarray) -> None:
        elems = elements[part]
        nodes = np.unique(elems)
        nodes = nodes[~placed[nodes]]
        if len(nodes) > DISSECTION_LEAF:
            axis = int(np.argmax(np.ptp(points[nodes], axis=0)))
            key = points[elems, axis].max(axis=1)
            median = np.median(key)
            left = key <= median
            if left.all():
                left = key < median
            if left.any():
                touched[0, elems[left]] = True
                touched[1, elems[~left]] = True
                separator = nodes[touched[0, nodes] & touched[1, nodes]]
                touched[:, elems] = False
                placed[separator] = True
                dissect(part[left])
                dissect(part[~left])
                out.append(separator)
                return
        placed[nodes] = True
        out.append(nodes)

    dissect(np.arange(len(elements)))
    return np.concatenate(out)


def assemble(row_dofs: np.ndarray, col_dofs: np.ndarray, ke: np.ndarray,
             shape: tuple[int, int]) -> sp.csr_array:
    """Scatter element matrices ``ke`` (m, a, b) into a CSR matrix: entry
    (i, j) of element k adds to (row_dofs[k, i], col_dofs[k, j]).  Duplicates
    are summed in element order, so stacking the component blocks of a
    vector operator along the element axis fixes its summation order."""
    rows = np.repeat(row_dofs, col_dofs.shape[1], axis=1)
    cols = np.tile(col_dofs, (1, row_dofs.shape[1]))
    return sp.csr_array(sp.coo_array((ke.ravel(), (rows.ravel(), cols.ravel())), shape=shape))


# ---------------------------------------------------------------------------
# evaluation


def _eval_p1(mesh: Mesh, dofs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    tri = locate_points(mesh, pts)
    lam = barycentric_coordinates(mesh, pts, tri)
    return (dofs[mesh.triangles[tri]] * lam).sum(axis=1)


def p1_at_p2_nodes(mesh: Mesh, vals: np.ndarray) -> np.ndarray:
    """Exact values of a P1 field at the quadratic node set (vertices then
    edge midpoints)."""
    e = mesh.edges
    return np.concatenate([vals, 0.5 * (vals[e[:, 0]] + vals[e[:, 1]])])


# ---------------------------------------------------------------------------
# scalar assembly


def assemble_stiffness(space: ScalarSpace) -> sp.csr_array:
    """P1 stiffness with unit coefficient, integrated exactly."""
    mesh = space.mesh
    g = mesh.barycentric_gradients
    ke = np.einsum("m,mid,mjd->mij", mesh.areas, g, g)
    return assemble(mesh.triangles, mesh.triangles, ke, (space.n_dofs, space.n_dofs))


def assemble_p1_mass(space: ScalarSpace) -> sp.csr_array:
    """Consistent P1 mass matrix (|K|/6 diagonal, |K|/12 off-diagonal)."""
    mesh = space.mesh
    ke = mesh.areas[:, None, None] * P1_MASS[None, :, :]
    return assemble(mesh.triangles, mesh.triangles, ke, (space.n_dofs, space.n_dofs))


def lumped_p1_weights(mesh: Mesh) -> np.ndarray:
    """Integrals of the P1 hat functions (row sums of the mass matrix)."""
    w = np.zeros(mesh.n_vertices)
    np.add.at(w, mesh.triangles.ravel(), np.repeat(mesh.areas / 3.0, 3))
    return w


# ---------------------------------------------------------------------------
# gradients and norms


def element_gradient_magnitudes(space: ScalarSpace, dofs: np.ndarray) -> np.ndarray:
    """|grad f| per element of a P1 field, exact."""
    vec = space.element_gradients(dofs)
    return np.sqrt((vec**2).sum(axis=1))


def l2_distance(coarse_mesh: Mesh, coarse_vals: np.ndarray,
                ref_mesh: Mesh, ref_vals: np.ndarray) -> float:
    """L2 distance between a P1 field and a reference P1 field on a finer
    nested mesh, via exact prolongation and exact quadrature on the reference
    mesh.  Raises GeometryError when the meshes are not nested."""
    if not _is_nested(coarse_mesh, ref_mesh):
        raise GeometryError("meshes are not nested; cannot form the L2 comparison")
    prolonged = _eval_p1(coarse_mesh, coarse_vals, ref_mesh.vertices)
    err = prolonged - ref_vals
    M = ScalarSpace(ref_mesh).mass
    return float(np.sqrt(max(err @ (M @ err), 0.0)))


def _is_nested(coarse: Mesh, fine: Mesh) -> bool:
    if coarse.domain != fine.domain or coarse.n_vertices > fine.n_vertices:
        return False
    fine_set = {tuple(np.round(v, 10)) for v in fine.vertices}
    return all(tuple(np.round(v, 10)) in fine_set for v in coarse.vertices)
