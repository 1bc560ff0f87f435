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
``Saddle`` holds the blocks of one saddle system for the tests and
``monolithic_reference`` builds the constrained monolithic matrix of a
momentum solve from its operators' element matrices, dense and entry by
entry, the bit-for-bit reference for the fixed-pattern assembly.
``RecordingCache`` keeps the matrices and tolerances a solve hands its
factorization cache.
``write_vtk_per_value`` is the legacy-VTK writer formatting one value at a
time, the byte reference for ``app.write_vtk``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from phaseflow.errors import GeometryError
from phaseflow.fem import P2_CHILDREN, Pattern, ScalarSpace, p1_at_p2_nodes
from phaseflow.linalg import FactorizationCache
from phaseflow.mesh import Mesh, circumcenters
from phaseflow.momentum import (
    PIN,
    SaddlePlan,
    assemble_time_terms,
    compute_flux_j,
    convection_elements,
    density_from_phase,
    divergence_elements,
    flux_elements,
    solve_saddle,
    stabilization_elements,
    viscosity_from_phase,
    viscous_elements,
)


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


def assert_same_csr(a, b):
    """a and b store the same CSR arrays bit for bit."""
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def pattern_of(A):
    """The ``fem.Pattern`` of a canonical CSR matrix (None for None)."""
    if A is None:
        return None
    return Pattern(A.indptr.astype(np.int32), A.indices.astype(np.int32), A.shape, None)


@dataclass
class Saddle:
    """The blocks of one saddle system: G and rhs_v unconstrained, ``mask``
    the velocity dofs ``momentum.solve_saddle`` fixes.  ``solve`` hands them
    to it through a ``SaddlePlan`` built on the patterns of G and C, which
    for a system of a mesh are the plan's own."""

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

    def plan(self):
        return SaddlePlan(pattern_of(self.G), self.B, pattern_of(self.C), self.mask)

    def solve(self, tol, cache):
        return solve_saddle(self.plan(), self.G, self.rhs_v, self.C, tol=tol, cache=cache,
                            guess=(np.zeros(self.n_v), np.zeros(self.n_p)))

    def monolithic(self):
        """The constrained monolithic matrix and right-hand side
        ``solve_saddle`` hands its factorization cache."""
        cache = RecordingCache(None)
        self.solve(1e-9, cache)
        return cache.solved[0]


def _accumulate(shape, rows, cols, ke):
    """Element matrices ``ke`` summed into a dense (values, coupled) pair,
    entry by entry in element order: (values[r, c], True) where some
    element couples (r, c)."""
    r = np.broadcast_to(rows[:, :, None], ke.shape).ravel()
    c = np.broadcast_to(cols[:, None, :], ke.shape).ravel()
    values = np.zeros(shape)
    np.add.at(values, (r, c), ke.ravel())
    coupled = np.zeros(shape, dtype=bool)
    coupled[r, c] = True
    return values, coupled


def monolithic_reference(vs, ss, params, phi_old, v_old, phi_new, mu_new, tau):
    """The constrained monolithic saddle matrix of one ``solve_momentum``,
    built from the element matrices of its operators without the package's
    patterns: each operator summed entry by entry in element order, G as
    ((viscous + convective) + flux coupling) + time terms (the last on the
    diagonal), B and B^T, and -C for P1/P1; the rows and columns of the
    Dirichlet dofs and of ``PIN`` cleared with 1 on the diagonal.  Its
    pattern is every entry some element couples (for Taylor-Hood, the
    pressure block only at (PIN, PIN)), less the constrained ones off the
    diagonal; explicit zeros stay."""
    n, n_v, n_p = vs.n_nodes, vs.n_dofs, ss.n_dofs
    nodes = vs.tri_nodes
    vdofs = np.concatenate([nodes, n + nodes], axis=1)
    both = np.concatenate([nodes, n + nodes])
    tri = ss.mesh.triangles
    rho_old, eta_old = density_from_phase(phi_old, params), viscosity_from_phase(phi_old, params)
    rho_new = density_from_phase(phi_new, params)

    def skew(ke):
        s = 0.5 * (ke - ke.transpose(0, 2, 1))
        return _accumulate((n_v, n_v), both, both, np.concatenate([s, s]))[0]

    viscous, coupled = _accumulate((n_v, n_v), vdofs, vdofs, viscous_elements(vs, eta_old))
    G = viscous + skew(convection_elements(vs, rho_old, v_old))
    if params.model == "agg":
        j = compute_flux_j(mu_new, params.mobility, ss)
        G = G + skew(flux_elements(vs, j, params))
    G[np.diag_indices(n_v)] += assemble_time_terms(vs, rho_old, rho_new, v_old, tau)[0]
    B, b_coupled = _accumulate((n_p, n_v), tri, vdofs, divergence_elements(vs, ss))
    if params.elements == "p1p1":
        C, c_coupled = _accumulate((n_p, n_p), tri, tri, stabilization_elements(ss, eta_old))
    else:
        C, c_coupled = np.zeros((n_p, n_p)), np.zeros((n_p, n_p), dtype=bool)
        c_coupled[PIN, PIN] = True
    K = np.block([[G, B.T], [B, -C]])
    S = np.block([[coupled, b_coupled.T], [b_coupled, c_coupled]])
    fixed = np.concatenate([vs.dirichlet_mask, np.arange(n_p) == PIN])
    K[fixed, :] = 0.0
    K[:, fixed] = 0.0
    S[fixed, :] = False
    S[:, fixed] = False
    K[fixed, fixed] = 1.0
    S[fixed, fixed] = True
    rows, cols = np.nonzero(S)
    indptr = np.zeros(len(K) + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=len(K)), out=indptr[1:])
    return sp.csr_array((K[rows, cols], cols.astype(np.int32), indptr), shape=K.shape)


class RecordingCache(FactorizationCache):
    """A factorization cache that keeps every (matrix, right-hand side) it
    is asked to solve, such as the monolithic saddle matrix, in ``solved``
    and the relative tolerance of each solve in ``tols``."""

    def __init__(self, order):
        super().__init__(order)
        self.solved = []
        self.tols = []

    def solve(self, A, b, tol, x0):
        self.solved.append((A, b))
        self.tols.append(tol)
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
