"""Independent helpers used only by the test suite.

The integration helpers deliberately avoid the package's own quadrature
tables: integrals are computed with a tensorized Gauss-Legendre rule mapped
onto each triangle via the Duffy transform, exact for polynomial integrands
up to degree ~13.  ``interpolate_nodal`` samples a callable at the nodes of
a space.  ``dual_cell_volumes``, ``dual_face_endpoints`` and
``boundary_vertex_mask`` give the geometry of a mesh and its Voronoi dual
that the package does not store; ``element_geometry`` recomputes, element
by element, the areas and barycentric gradients a mesh does store.
``midpoint_refine`` builds the red refinement of a mesh, and ``validate``
asserts a mesh's structural invariants.  ``kinetic_energy``,
``interfacial_energy`` and ``total_energy`` evaluate the discrete energies
from a space's operators, independently of the package's audit but in its
operation order, so the two agree bit for bit.  ``schur_solve`` solves a
saddle system without the package's Krylov and factorization-cache code.
``Saddle`` holds the blocks of one saddle system for the tests,
``pinned_monolithic`` stacks its constrained monolithic matrix block by
block, and ``RecordingCache`` keeps the matrices a solve hands its
factorization cache.
``write_vtk_per_value`` is the legacy-VTK writer formatting one value at a
time, the byte reference for ``app.write_vtk``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from phaseflow.errors import GeometryError
from phaseflow.fem import P2_CHILDREN, ScalarSpace, p1_at_p2_nodes
from phaseflow.linalg import FactorizationCache
from phaseflow.mesh import Mesh, circumcenters
from phaseflow.momentum import PIN, apply_velocity_dirichlet, density_from_phase, solve_saddle


def duffy_rule(n=8):
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    U, V = np.meshgrid(x, x, indexing="ij")
    WU, WV = np.meshgrid(w, w, indexing="ij")
    xs = U.ravel()
    ys = (V * (1.0 - U)).ravel()
    ws = (WU * WV * (1.0 - U)).ravel()
    return xs, ys, ws  # reference triangle (0,0),(1,0),(0,1); sum(ws) = 1/2


def integrate_on_triangle(f, tri_coords, n=8):
    """Integral of f(points (k,2)) over one triangle."""
    xs, ys, ws = duffy_rule(n)
    a, b, c = np.asarray(tri_coords, dtype=float)
    pts = a[None, :] + np.outer(xs, b - a) + np.outer(ys, c - a)
    det = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    return det * float(np.dot(ws, f(pts)))


def integrate_on_mesh(f, mesh, n=8):
    total = 0.0
    for t in range(mesh.n_triangles):
        total += integrate_on_triangle(f, mesh.vertices[mesh.triangles[t]], n=n)
    return total


def interpolate_nodal(f, space):
    """Nodal values of a vectorized callable (points (k, 2) -> values) on a
    scalar space, (n,), or on a velocity space, (2 * n_nodes,) component-major
    from (n_nodes, 2) values."""
    if isinstance(space, ScalarSpace):
        return np.asarray(f(space.mesh.vertices), dtype=float)
    vals = np.asarray(f(space.nodes), dtype=float)
    assert vals.shape == (space.n_nodes, 2), "vector interpolant must return (n, 2) values"
    return np.concatenate([vals[:, 0], vals[:, 1]])


def _cross(u, w):
    return u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]


def dual_cell_volumes(mesh):
    """Geometric volumes of the Voronoi dual cells, one per vertex: the sum
    of the kites [x_i, mid(i, a), cc, mid(i, b)] over the triangles at x_i."""
    p = mesh.vertices[mesh.triangles]
    cc = circumcenters(mesh)
    volumes = np.zeros(mesh.n_vertices)
    for k in range(3):
        xi = p[:, k]
        ma = 0.5 * (xi + p[:, (k + 1) % 3])
        mb = 0.5 * (xi + p[:, (k + 2) % 3])
        area = 0.5 * np.abs(_cross(ma - xi, cc - xi) + _cross(cc - xi, mb - xi))
        np.add.at(volumes, mesh.triangles[:, k], area)
    return volumes


def dual_face_endpoints(mesh, dual):
    """(faces, 2, 2) end points of the faces of ``dual``, in its face order:
    the circumcenters of the two triangles at an interior edge, or the
    circumcenter and the edge midpoint at a boundary edge."""
    cc = circumcenters(mesh)
    tris = mesh.edge_tris
    interior = tris[:, 1] >= 0
    end0 = cc[tris[:, 0]]
    end1 = np.where(interior[:, None], cc[np.where(interior, tris[:, 1], 0)],
                    mesh.edge_midpoints())
    # the dual keeps the edges whose face does not degenerate to a point
    face_of_edge = {tuple(e): k for k, e in enumerate(mesh.edges)}
    edge = np.array([face_of_edge[tuple(c)] for c in dual.face_cells])
    return np.stack([end0[edge], end1[edge]], axis=1)


def element_geometry(mesh):
    """Areas (m,) and barycentric gradients (m, 3, 2), one element at a time:
    grad lambda_k = (-dy, dx) / det for the edge (dx, dy) opposite vertex k,
    det twice the signed area."""
    areas = np.empty(mesh.n_triangles)
    grads = np.empty((mesh.n_triangles, 3, 2))
    for t, (a, b, c) in enumerate(mesh.vertices[mesh.triangles]):
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        areas[t] = 0.5 * abs(det)
        for k, (dx, dy) in enumerate((c - b, a - c, b - a)):
            grads[t, k] = (-dy / det, dx / det)
    return areas, grads


def midpoint_refine(mesh):
    """Red refinement: every triangle is split into four using the edge
    midpoints.  The vertex list of the result is [old vertices; edge midpoints
    in edge order], the quadratic (P2) node layout of the input mesh; the
    triangles are every element's corner children at its vertices a, b, c,
    then its center children."""
    nv = mesh.n_vertices
    verts = np.concatenate([mesh.vertices, mesh.edge_midpoints()], axis=0)
    a, b, c = mesh.triangles.T
    # midpoint of local edge k, opposite vertex k
    m0, m1, m2 = (nv + mesh.tri_edges).T
    # children keep the right-isosceles family: corner children have their
    # right angle at the adjacent leg midpoint, the center child at the
    # hypotenuse midpoint m2, the midpoint of edge (a, b)
    tris = np.concatenate([np.column_stack(child) for child in
                           ((a, m2, m1), (m2, b, m0), (m1, m0, c), (m0, m1, m2))])
    return Mesh(verts, tris, np.zeros(len(tris), dtype=np.int64),
                base_level=mesh.base_level + 2, domain=mesh.domain)


def validate(mesh, tol=1e-12):
    """Raise GeometryError unless every triangle is positively oriented and
    non-obtuse, and every single-sided edge lies on the domain boundary (a
    hanging node would leave one inside)."""
    p = mesh.vertices[mesh.triangles]
    if not np.all(_cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]) > 0):
        raise GeometryError("triangle with non-positive orientation or zero area")
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        w = p[:, (k + 2) % 3] - p[:, k]
        if np.any((u * w).sum(axis=1) < -tol):
            raise GeometryError("obtuse triangle detected")
    mids = mesh.edge_midpoints()[mesh.boundary_edges]
    x0, x1, y0, y1 = mesh.domain
    on_bnd = ((np.abs(mids[:, 0] - x0) < tol) | (np.abs(mids[:, 0] - x1) < tol)
              | (np.abs(mids[:, 1] - y0) < tol) | (np.abs(mids[:, 1] - y1) < tol))
    if not np.all(on_bnd):
        raise GeometryError("hanging node: single-sided edge away from the boundary")


def boundary_vertex_mask(mesh):
    mask = np.zeros(mesh.n_vertices, dtype=bool)
    mask[mesh.edges[mesh.boundary_edges].ravel()] = True
    return mask


def p1_interpolant(mesh, vals):
    """Pointwise evaluator of the P1 interpolant (slow, test use only)."""
    from phaseflow.mesh import barycentric_coordinates, locate_points

    def f(pts):
        tri = locate_points(mesh, pts, tol=1e-9)
        lam = barycentric_coordinates(mesh, pts, tri)
        return (vals[mesh.triangles[tri]] * lam).sum(axis=1)

    return f


def kinetic_energy(vspace, phi, v, params):
    """Half the density-weighted lumped velocity square, the discrete kinetic
    energy the stability estimate controls."""
    d = vspace.lumping @ density_from_phase(phi, params)
    n = vspace.n_nodes
    return 0.5 * float(d @ (v[:n] ** 2 + v[n:] ** 2))


def interfacial_energy(space, phi, params):
    """sigma (delta/2 |grad phi|^2 + 1/delta * lumped F(phi)) over the domain,
    F(phi) = (phi^2 - 1)^2 / 4 the quartic well."""
    grad = 0.5 * params.delta * float(phi @ (space.stiffness @ phi))
    well = float(space.lumped @ (0.25 * (phi**2 - 1.0) ** 2)) / params.delta
    return params.sigma * (grad + well)


@dataclass(frozen=True)
class Energy:
    e_kin: float
    e_int: float

    @property
    def e_total(self):
        return self.e_kin + self.e_int


def total_energy(sspace, vspace, phi, v, params):
    return Energy(kinetic_energy(vspace, phi, v, params),
                  interfacial_energy(sspace, phi, params))


@dataclass
class Saddle:
    """The blocks ``momentum.solve_saddle`` reads, in its argument order:
    G and rhs_v unconstrained, ``mask`` the velocity dofs it fixes."""

    G: sp.csr_array
    rhs_v: np.ndarray
    B: sp.csr_array
    mask: np.ndarray
    C: sp.csr_array | None

    @property
    def n_v(self) -> int:
        return self.G.shape[0]

    @property
    def n_p(self) -> int:
        return self.B.shape[0]

    def solve(self, tol, cache):
        return solve_saddle(self.G, self.rhs_v, self.B, self.mask, self.C, tol=tol, cache=cache,
                            guess=(np.zeros(self.n_v), np.zeros(self.n_p)))

    def monolithic(self):
        """The constrained monolithic matrix and right-hand side
        ``solve_saddle`` hands its factorization cache."""
        cache = RecordingCache(None)
        self.solve(1e-9, cache)
        return cache.solved[0]


def pinned_monolithic(system):
    """The constrained monolithic matrix of a ``Saddle`` built block by
    block, the reference for ``solve_saddle``'s one-mask construction: G
    constrained by ``apply_velocity_dirichlet``; B with the columns of the
    masked velocity dofs zeroed and its row ``PIN`` dropped, and that
    block's transpose; -C with its row and column ``PIN`` dropped and 1 at
    (PIN, PIN)."""
    B = sp.csr_array(system.B, copy=True)
    B.data *= ~system.mask[B.indices]
    B.eliminate_zeros()
    coo = sp.coo_array(B)
    keep = coo.row != PIN
    pinned = sp.csr_array((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=B.shape)
    rows, cols, vals = np.array([PIN]), np.array([PIN]), np.array([1.0])
    if system.C is not None:
        coo = sp.coo_array(system.C)
        keep = (coo.row != PIN) & (coo.col != PIN)
        rows = np.concatenate([coo.row[keep], rows])
        cols = np.concatenate([coo.col[keep], cols])
        vals = np.concatenate([-coo.data[keep], vals])
    lower = sp.csr_array((vals, (rows, cols)), shape=(system.n_p, system.n_p))
    G = apply_velocity_dirichlet(system.G, system.mask)
    return sp.bmat([[G, pinned.T.tocsr()], [pinned, lower]], format="csr")


class RecordingCache(FactorizationCache):
    """A factorization cache that keeps every (matrix, right-hand side) it
    is asked to solve, such as the monolithic saddle matrix."""

    def __init__(self, order):
        super().__init__(order)
        self.solved = []

    def solve(self, A, b, tol, x0):
        self.solved.append((A, b))
        return super().solve(A, b, tol, x0)


def schur_solve(system, tol):
    """(v, p) of a ``Saddle`` through its pressure Schur complement
    B G^-1 B^T + C, iterated with SciPy's BiCGstab: the independent
    cross-check of ``momentum.solve_saddle``.  The Schur operator
    annihilates constant pressures (B^T 1 = 0, C 1 = 0), so the iteration
    runs orthogonal to them; p is then shifted to p[PIN] = 0, the
    normalization ``solve_saddle`` returns.  The masked velocity dofs are
    fixed to zero here, through a diagonal keep-mask D: G becomes
    D G D + (I - D), B becomes B D, and rhs_v is zeroed on the mask."""
    keep = sp.diags_array((~system.mask).astype(float))
    fixed = sp.diags_array(system.mask.astype(float))
    G = sp.csc_matrix(keep @ system.G @ keep + fixed)
    B = sp.csr_matrix(system.B @ keep)
    f = np.where(system.mask, 0.0, system.rhs_v)
    lu = spla.splu(G)
    e = np.full(system.n_p, 1.0 / np.sqrt(system.n_p))

    def project(q):
        return q - (e @ q) * e

    def schur_mv(q):
        q = project(q)
        y = B @ lu.solve(B.T @ q)
        if system.C is not None:
            y = y + system.C @ q
        return project(y)

    rhs = project(B @ lu.solve(f))
    op = spla.LinearOperator((system.n_p, system.n_p), matvec=schur_mv)
    p, info = spla.bicgstab(op, rhs, rtol=min(tol * 1e-3, 1e-12), atol=0.0,
                            maxiter=40 * system.n_p)
    assert info == 0, f"Schur BiCGstab did not converge (info {info})"
    v = lu.solve(f - B.T @ p)
    return v, p - p[PIN]


def write_vtk_per_value(state, path, quadratic):
    """``app.write_vtk``'s snapshot, each number formatted on its own by
    ``f"{float(x):.17g}"``."""
    def fmt(x):
        return f"{float(x):.17g}"

    disc = state.disc
    mesh = disc.mesh
    n = disc.vspace.n_nodes
    if quadratic and disc.vspace.degree == 2:
        points = disc.vspace.nodes
        tris = np.concatenate([disc.vspace.tri_nodes[:, child] for child in P2_CHILDREN])
        phi, mu, p = (p1_at_p2_nodes(mesh, f) for f in (state.phi, state.mu, state.p))
        vel = np.column_stack([state.v[:n], state.v[n:]])
    else:
        points = mesh.vertices
        tris = mesh.triangles
        phi, mu, p = state.phi, state.mu, state.p
        nv = mesh.n_vertices
        vel = np.column_stack([state.v[:n][:nv], state.v[n:][:nv]])

    lines = [
        "# vtk DataFile Version 3.0",
        f"phaseflow state t={fmt(state.t)}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(points)} double",
    ]
    for x, y in points:
        lines.append(f"{fmt(x)} {fmt(y)} 0")
    lines.append(f"CELLS {len(tris)} {4 * len(tris)}")
    for a, b, c in tris:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {len(tris)}")
    lines.extend(["5"] * len(tris))
    lines.append(f"POINT_DATA {len(points)}")
    for name, vals in (("phi", phi), ("mu", mu), ("p", p)):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(fmt(v) for v in vals)
    lines.append("VECTORS velocity double")
    for vx, vy in vel:
        lines.append(f"{fmt(vx)} {fmt(vy)} 0")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
