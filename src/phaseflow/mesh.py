"""Conforming simplicial triangulations of rectangles and their Voronoi duals.

The meshes produced here stay inside the right-isosceles family: the base grid
splits squares along one diagonal, and refinement is newest-vertex bisection
(the refinement edge of every triangle is its hypotenuse).  All elements are
therefore non-obtuse, which keeps the distance-based dual grid well defined:
circumcenters never leave their element and every dual face is the true
perpendicular bisector segment of a primal edge.

Triangles are stored as vertex triples ``(a, b, peak)`` with positive
orientation; the refinement edge is ``(a, b)`` and ``peak`` is the newest
vertex.  Bisection of ``(a, b, peak)`` at ``m = (a + b) / 2`` produces the
children ``(peak, a, m)`` and ``(b, peak, m)``.

``refine_and_coarsen`` works on the mesh's edge arrays.  It marks the
refinement edge of every refine-marked element as cut and closes that set:
an element with any cut edge also cuts its refinement edge.  Each cut edge
gets one midpoint, and two rounds of bisection finish the conforming mesh,
since after the second round every refinement edge is a new edge.  Siblings
are written as adjacent pairs and unsplit elements keep their relative
order, so coarsening finds the two children of one bisection as neighbours
in the element list.  ``refine_and_coarsen`` also records the old elements
each new one lies in; ``locate_in_source`` evaluates that.

A ``Mesh`` owns its element geometry: ``areas`` and
``barycentric_gradients`` are computed once, on first use, and every finite
element operator reads them there.  The ``DualGrid`` keeps each face
midpoint's element and barycentric coordinates, so the transport evaluates
the velocity there without locating the point again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GeometryError

REFINE = 1
KEEP = 0
COARSEN = -1

_DEG_TOL = 1e-12


@dataclass(frozen=True)
class Mesh:
    """Immutable conforming triangulation with bisection metadata.

    vertices      (n, 2) coordinates
    triangles     (m, 3) vertex indices, peak (newest vertex) last,
                  refinement edge = (t[0], t[1]), positively oriented
    generation    (m,) bisection generation counter
    base_level    refinement level of the generation-0 elements; the level of
                  an element is base_level + generation
    domain        (x0, x1, y0, y1) bounding rectangle
    """

    vertices: np.ndarray
    triangles: np.ndarray
    generation: np.ndarray
    base_level: int
    domain: tuple[float, float, float, float]
    # derived connectivity, filled in __post_init__
    edges: np.ndarray = field(init=False, repr=False)
    tri_edges: np.ndarray = field(init=False, repr=False)
    edge_tris: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        verts = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        tris = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        gen = np.ascontiguousarray(np.asarray(self.generation, dtype=np.int64))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)
        object.__setattr__(self, "generation", gen)
        edges, tri_edges, edge_tris = _build_connectivity(tris, verts.shape[0])
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "tri_edges", tri_edges)
        object.__setattr__(self, "edge_tris", edge_tris)

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def boundary_edges(self) -> np.ndarray:
        """Edge ids lying on the domain boundary (exactly one incident element)."""
        return np.nonzero(self.edge_tris[:, 1] < 0)[0]

    @cached_property
    def areas(self) -> np.ndarray:
        """Element areas, (m,)."""
        p = self.vertices[self.triangles]
        return 0.5 * np.abs(_cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]))

    @cached_property
    def barycentric_gradients(self) -> np.ndarray:
        """Constant gradients of the barycentric coordinates per element,
        (m, 3, 2): grad lambda_k is the opposite edge turned by 90 degrees,
        over twice the signed area."""
        p = self.vertices[self.triangles]
        det = _cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        g = np.empty((self.n_triangles, 3, 2))
        for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            e = p[:, j] - p[:, i]
            g[:, k, 0] = -e[:, 1] / det
            g[:, k, 1] = e[:, 0] / det
        return g

    def min_edge_length(self) -> float:
        ev = self.vertices[self.edges[:, 1]] - self.vertices[self.edges[:, 0]]
        return float(np.sqrt((ev**2).sum(axis=1)).min())

    def edge_midpoints(self) -> np.ndarray:
        return 0.5 * (self.vertices[self.edges[:, 0]] + self.vertices[self.edges[:, 1]])


def _cross(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]


def _build_connectivity(tris: np.ndarray, n_vertices: int):
    """Unique edges in lexicographic order of their sorted vertex pairs, the
    three edges of each triangle, and the one or two triangles of each edge
    (-1 when absent).  An edge with more than two triangles raises
    GeometryError."""
    m = tris.shape[0]
    # local edge k is opposite local vertex k
    e0 = tris[:, [1, 2]]
    e1 = tris[:, [2, 0]]
    e2 = tris[:, [0, 1]]
    all_edges = np.concatenate([e0, e1, e2], axis=0)
    all_edges = np.sort(all_edges, axis=1)
    # one int64 key per sorted pair orders like the pair itself
    keys, inverse = np.unique(all_edges[:, 0] * n_vertices + all_edges[:, 1],
                              return_inverse=True)
    edges = np.column_stack([keys // n_vertices, keys % n_vertices])
    tri_edges = inverse.reshape(3, m).T.copy()
    counts = np.bincount(inverse, minlength=edges.shape[0])
    if counts.max() > 2:
        raise GeometryError(f"non-manifold mesh: edge {edges[counts.argmax()].tolist()} "
                            f"shared by {counts.max()} triangles")
    # incidences grouped by edge, in local-edge-then-triangle order
    tri_of_entry = np.tile(np.arange(m), 3)[np.argsort(inverse, kind="stable")]
    starts = np.cumsum(counts) - counts
    edge_tris = np.full((edges.shape[0], 2), -1, dtype=np.int64)
    edge_tris[:, 0] = tri_of_entry[starts]
    shared = counts == 2
    edge_tris[shared, 1] = tri_of_entry[starts[shared] + 1]
    return edges, tri_edges, edge_tris


def grid_shape(domain: tuple[float, float, float, float], level: int) -> tuple[int, int]:
    """Square cells (across, up) of the uniform grid at ``level``.

    ``level`` must be an even integer >= 2; the cell side is
    h = width * 2**(-level/2), and the rectangle height must be a whole
    positive multiple of h, else GeometryError.
    """
    if level < 2 or level % 2 != 0:
        raise ValueError(f"level must be an even integer >= 2, got {level}")
    x0, x1, y0, y1 = (float(v) for v in domain)
    width, height = x1 - x0, y1 - y0
    if width <= 0 or height <= 0:
        raise ValueError("degenerate rectangle")
    h = width * 2.0 ** (-level / 2)
    nx = round(width / h)
    ny_f = height / h
    ny = round(ny_f)
    if ny < 1 or abs(ny_f - ny) > 1e-9:
        raise GeometryError(f"rectangle height {height} is not a multiple of h={h}")
    return nx, ny


def build_structured_mesh(domain: tuple[float, float, float, float], level: int) -> Mesh:
    """Uniform right-isosceles triangulation of an axis-aligned rectangle
    into the ``grid_shape`` cells of ``level``.  Every square cell is split
    along the diagonal from its lower-left to its upper-right corner, so
    uniform refinements of different levels are nested triangulations.
    """
    nx, ny = grid_shape(domain, level)
    x0, x1, y0, y1 = (float(v) for v in domain)

    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    I, J = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    I, J = I.ravel(), J.ravel()
    ll = vid(I, J)
    lr = vid(I + 1, J)
    ul = vid(I, J + 1)
    ur = vid(I + 1, J + 1)
    # diagonal ll-ur is the refinement edge (hypotenuse) of both triangles
    lower = np.column_stack([ur, ll, lr])
    upper = np.column_stack([ll, ur, ul])
    triangles = np.concatenate([lower, upper], axis=0)
    generation = np.zeros(triangles.shape[0], dtype=np.int64)
    return Mesh(vertices, triangles, generation, base_level=level, domain=(x0, x1, y0, y1))


def refine_and_coarsen(mesh: Mesh, marks: np.ndarray) -> tuple[Mesh, np.ndarray]:
    """Newest-vertex bisection of refine-marked elements and the cut-edge
    closure that keeps the mesh conforming, then one generation of coarsening
    where every child of a bisection is coarsen-marked and the patch can be
    merged conformingly.

    Coarsen requests that cannot be honored are dropped silently.  Returns the
    new mesh and, per new element, two old elements it lies in: the halves
    it merges, else the old element it is or was cut from, twice.
    """
    marks = np.asarray(marks)
    n = mesh.n_triangles
    if marks.shape[0] != n:
        raise ValueError("marks must have one entry per triangle")
    tri_edges = mesh.tri_edges

    # ---- refinement: an element with a cut edge also cuts its refinement edge
    cut = np.zeros(mesh.n_edges, dtype=bool)
    cut[tri_edges[marks == REFINE, 2]] = True
    while True:
        closure = tri_edges[cut[tri_edges].any(axis=1), 2]
        if cut[closure].all():
            break
        cut[closure] = True
    midpoint = mesh.n_vertices + np.cumsum(cut) - 1  # read only at cut edges
    vertices = np.concatenate([mesh.vertices, mesh.edge_midpoints()[cut]])

    # round 1 splits the elements whose refinement edge is cut; the children's
    # refinement edges are the parent's local edges 1 and 0, old edges, and
    # round 2 splits the children where those are cut.  Grandchildren have
    # new refinement edges, which nothing cuts.
    split = cut[tri_edges[:, 2]]
    ids = np.arange(n)
    tris, gens, source = _bisect(mesh.triangles, mesh.generation, np.column_stack([ids, ids]),
                                 split, midpoint[tri_edges[split, 2]])
    old = ids[~split]  # the unsplit old elements, in order at the front from here on
    child_edges = tri_edges[split][:, [1, 0]].ravel()
    tris, gens, source = _bisect(tris, gens, source,
                                 np.concatenate([np.zeros(old.size, dtype=bool), cut[child_edges]]),
                                 midpoint[child_edges[cut[child_edges]]])

    # ---- coarsening: remove peaks whose whole star is coarsen-marked ----
    # A removable vertex p is the peak of every triangle containing it, its
    # star consists of sibling pairs (one on the boundary, two in the
    # interior) of one generation, and all of them are old coarsen-marked
    # elements.  Siblings are written back to back as (c, a, m), (b, c, m) and
    # every pass keeps the relative order of unsplit elements, so a sibling
    # pair is two adjacent old elements.
    cand = old[(marks[old] == COARSEN) & (mesh.generation[old] >= 1)]
    peak = mesh.triangles[cand, 2]
    size = np.bincount(peak, minlength=vertices.shape[0])
    star = np.bincount(tris.ravel(), minlength=vertices.shape[0])
    whole = (size == star) & ((size == 2) | (size == 4))
    cand = cand[whole[peak]]
    cand = cand[np.argsort(mesh.triangles[cand, 2], kind="stable")]
    # every star left has an even size, so consecutive entries pair up in it
    t1, t2 = cand[0::2], cand[1::2]
    p, gen = mesh.triangles[t1, 2], mesh.generation[t1]
    bad = (t2 != t1 + 1) | (mesh.triangles[t1, 0] != mesh.triangles[t2, 1]) \
        | (mesh.generation[t2] != gen)
    bad[1:] |= (p[1:] == p[:-1]) & (gen[1:] != gen[:-1])  # the two pairs of an interior star
    stays = np.zeros(vertices.shape[0], dtype=bool)
    stays[p[bad]] = True
    t1, t2 = t1[~stays[p]], t2[~stays[p]]
    merged = np.zeros(n, dtype=bool)
    merged[t1] = merged[t2] = True
    keep = np.concatenate([~merged[old], np.ones(tris.shape[0] - old.size, dtype=bool)])
    tri1 = mesh.triangles[t1]
    tris = np.concatenate([tris[keep],
                           np.column_stack([tri1[:, 1], mesh.triangles[t2, 0], tri1[:, 0]])])
    gens = np.concatenate([gens[keep], mesh.generation[t1] - 1])
    source = np.concatenate([source[keep], np.column_stack([t1, t2])])

    # vertices no element uses (the removed peaks) are dropped
    used = np.bincount(tris.ravel(), minlength=vertices.shape[0]) > 0
    renum = np.cumsum(used) - 1
    out = Mesh(vertices[used], renum[tris], gens, base_level=mesh.base_level, domain=mesh.domain)
    return out, source


def _bisect(tris: np.ndarray, gens: np.ndarray, source: np.ndarray, split: np.ndarray,
            midpoints: np.ndarray):
    """Replace each ``split`` element (a, b, c) by its children (c, a, m) and
    (b, c, m), written as an adjacent pair after the unsplit elements."""
    a, b, c = tris[split].T
    children = np.stack([np.column_stack([c, a, midpoints]),
                         np.column_stack([b, c, midpoints])], axis=1).reshape(-1, 3)
    return (np.concatenate([tris[~split], children]),
            np.concatenate([gens[~split], np.repeat(gens[split] + 1, 2)]),
            np.concatenate([source[~split], np.repeat(source[split], 2, axis=0)]))


@dataclass(frozen=True)
class DualGrid:
    """Voronoi dual of a non-obtuse triangulation, clipped to the domain.

    Faces are the perpendicular bisector segments between adjacent vertices;
    ``face_cells[f] = (i, j)`` with unit normal ``face_normals[f]`` pointing
    from cell i to cell j.  Degenerate faces (coincident circumcenters across
    a shared hypotenuse) are omitted.  The cells are the mesh's vertices;
    the transport weighs them with the P1 vertex measures, so their
    geometric volumes are not stored.  Each face midpoint lies in the
    element ``face_tri``, at the barycentric coordinates ``face_bary``, where
    the transport evaluates the velocity.
    """

    face_cells: np.ndarray
    face_normals: np.ndarray
    face_measures: np.ndarray
    face_midpoints: np.ndarray
    face_tri: np.ndarray
    face_bary: np.ndarray


def circumcenters(mesh: Mesh) -> np.ndarray:
    p = mesh.vertices[mesh.triangles]
    a, b, c = p[:, 0], p[:, 1], p[:, 2]
    ab = b - a
    ac = c - a
    d = 2.0 * _cross(ab, ac)
    ab2 = (ab**2).sum(axis=1)
    ac2 = (ac**2).sum(axis=1)
    ux = (ac[:, 1] * ab2 - ab[:, 1] * ac2) / d
    uy = (ab[:, 0] * ac2 - ac[:, 0] * ab2) / d
    return a + np.column_stack([ux, uy])


def build_dual_grid(mesh: Mesh) -> DualGrid:
    """Construct the vertex-centered Voronoi dual.  Raises GeometryError on
    obtuse elements (their circumcenter leaves the element and the bisector
    construction below would produce negative cell parts)."""
    p = mesh.vertices[mesh.triangles]
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        w = p[:, (k + 2) % 3] - p[:, k]
        if np.any((u * w).sum(axis=1) < -_DEG_TOL):
            raise GeometryError("obtuse triangle: Voronoi dual face would degenerate")

    cc = circumcenters(mesh)
    verts = mesh.vertices
    edges = mesh.edges
    edge_tris = mesh.edge_tris
    emid = mesh.edge_midpoints()

    interior = edge_tris[:, 1] >= 0
    # face endpoints: circumcenter-to-circumcenter, or circumcenter-to-edge-midpoint
    end0 = cc[edge_tris[:, 0]]
    end1 = np.where(interior[:, None], cc[np.where(interior, edge_tris[:, 1], 0)], emid)
    seg = end1 - end0
    measures = np.sqrt((seg**2).sum(axis=1))
    elen = np.sqrt(((verts[edges[:, 1]] - verts[edges[:, 0]]) ** 2).sum(axis=1))
    keep = measures > 1e-12 * elen

    i_idx = edges[keep, 0]
    j_idx = edges[keep, 1]
    dvec = verts[j_idx] - verts[i_idx]
    normals = dvec / np.sqrt((dvec**2).sum(axis=1))[:, None]
    midpoints = 0.5 * (end0[keep] + end1[keep])

    # containing triangle for the face midpoint (velocity evaluation point)
    t0 = edge_tris[keep, 0]
    t1 = edge_tris[keep, 1]
    face_tri = t0.copy()
    lam = barycentric_coordinates(mesh, midpoints, t0)
    outside = lam.min(axis=1) < -1e-10
    swap = outside & (t1 >= 0)
    face_tri[swap] = t1[swap]
    lam[swap] = barycentric_coordinates(mesh, midpoints[swap], face_tri[swap])

    return DualGrid(
        face_cells=np.column_stack([i_idx, j_idx]),
        face_normals=normals,
        face_measures=measures[keep],
        face_midpoints=midpoints,
        face_tri=face_tri,
        face_bary=lam,
    )


def barycentric_coordinates(mesh: Mesh, points: np.ndarray, tri_ids: np.ndarray) -> np.ndarray:
    """Barycentric coordinates of ``points[k]`` in triangle ``tri_ids[k]``."""
    t = mesh.triangles[tri_ids]
    a = mesh.vertices[t[:, 0]]
    b = mesh.vertices[t[:, 1]]
    c = mesh.vertices[t[:, 2]]
    det = _cross(b - a, c - a)
    l1 = _cross(points - a, c - a) / det
    l2 = _cross(b - a, points - a) / det
    l0 = 1.0 - l1 - l2
    return np.column_stack([l0, l1, l2])


def locate_in_source(mesh: Mesh, source: np.ndarray, points: np.ndarray,
                     elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Old element and barycentric coordinates of the points of a mesh that
    ``refine_and_coarsen`` made from ``mesh``.  Each point is looked up in the
    sources of one element of the table ``elements`` that lists it; a point in
    neither source raises GeometryError."""
    owner = np.empty(points.shape[0], dtype=np.int64)
    owner[elements] = np.arange(elements.shape[0])[:, None]
    tri = source[owner, 0]
    lam = barycentric_coordinates(mesh, points, tri)
    second = lam.min(axis=1) < -1e-9
    tri[second] = source[owner[second], 1]
    lam[second] = barycentric_coordinates(mesh, points[second], tri[second])
    outside = lam.min(axis=1) < -1e-9
    if outside.any():
        raise GeometryError(f"point {points[outside][0]} lies in none of its source elements")
    return tri, lam


def locate_points(mesh: Mesh, points: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Containing triangle for each query point via a uniform bucket grid.
    Points outside the mesh raise GeometryError."""
    points = np.atleast_2d(points)
    x0, x1, y0, y1 = mesh.domain
    nb = max(1, int(np.sqrt(mesh.n_triangles)))
    bx = (x1 - x0) / nb
    by = (y1 - y0) / nb
    buckets: dict[tuple[int, int], list[int]] = {}
    p = mesh.vertices[mesh.triangles]
    lo = p.min(axis=1)
    hi = p.max(axis=1)
    for t in range(mesh.n_triangles):
        i0 = int((lo[t, 0] - x0) / bx)
        i1 = int((hi[t, 0] - x0) / bx)
        j0 = int((lo[t, 1] - y0) / by)
        j1 = int((hi[t, 1] - y0) / by)
        for i in range(max(i0, 0), min(i1, nb - 1) + 1):
            for j in range(max(j0, 0), min(j1, nb - 1) + 1):
                buckets.setdefault((i, j), []).append(t)
    out = np.empty(points.shape[0], dtype=np.int64)
    for k, pt in enumerate(points):
        i = min(max(int((pt[0] - x0) / bx), 0), nb - 1)
        j = min(max(int((pt[1] - y0) / by), 0), nb - 1)
        found = -1
        for t in buckets.get((i, j), ()):
            lam = barycentric_coordinates(mesh, pt[None, :], np.array([t]))[0]
            if lam.min() >= -tol:
                found = t
                break
        if found < 0:
            raise GeometryError(f"point {pt} not located in the mesh")
        out[k] = found
    return out
