import hashlib

import numpy as np
import pytest

from phaseflow.errors import GeometryError
from phaseflow.fem import VelocitySpace
from phaseflow.mesh import (
    COARSEN,
    KEEP,
    REFINE,
    Mesh,
    barycentric_coordinates,
    build_dual_grid,
    build_structured_mesh,
    grid_shape,
    locate_in_source,
    locate_points,
    refine_and_coarsen,
)

from oracles import (boundary_vertex_mask, dual_cell_volumes, element_geometry, midpoint_refine,
                     validate)


def crisscross_square():
    """Unit square split into 4 right triangles by a center vertex."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 0.5]])
    # peak (right angle) at the center for all four
    tris = np.array([[0, 1, 4], [1, 2, 4], [2, 3, 4], [3, 0, 4]])
    return Mesh(verts, tris, np.ones(4, dtype=int), base_level=3, domain=(0, 1, 0, 1))


def transfer_p1(old, new, source, f):
    """P1 field on ``old`` evaluated at the vertices of ``new`` through the
    source map of the adaptation that made ``new``."""
    tri, lam = locate_in_source(old, source, new.vertices, new.triangles)
    return (f[old.triangles[tri]] * lam).sum(axis=1)


def test_structured_level2_unit_square():
    m = build_structured_mesh((0.0, 1.0, 0.0, 1.0), 2)
    assert m.n_triangles == 8
    assert m.n_vertices == 9
    assert m.min_edge_length() == pytest.approx(0.5)
    validate(m)


@pytest.mark.parametrize("level,h", [(10, 0.0625), (12, 0.03125)])
def test_structured_level_to_h(level, h):
    m = build_structured_mesh((-1.0, 1.0, -1.0, 1.0), level)
    assert m.min_edge_length() == pytest.approx(h, rel=1e-14)


def test_structured_rejects_bad_level():
    with pytest.raises(ValueError):
        build_structured_mesh((0, 1, 0, 1), 3)
    with pytest.raises(ValueError):
        build_structured_mesh((0, 1, 0, 1), -2)


def test_structured_rectangle():
    m = build_structured_mesh((0.0, 1.0, 0.0, 2.0), 2)
    assert m.n_triangles == 16
    assert m.areas.sum() == pytest.approx(2.0, abs=1e-14)
    validate(m)


@pytest.mark.parametrize("domain,level,shape", [((0, 1, 0, 2), 2, (2, 4)),
                                                 ((-1, 1, -1, 0.5), 4, (4, 3))])
def test_grid_shape_counts_the_mesh_cells(domain, level, shape):
    assert grid_shape(domain, level) == shape
    assert build_structured_mesh(domain, level).n_triangles == 2 * shape[0] * shape[1]


@pytest.mark.parametrize("domain,level", [((-1, 1, -1, 0.7), 4), ((-1, 1, -1, 0.5), 2),
                                          ((0, 1, 0, 1e-12), 2)])
def test_grid_shape_rejects_a_height_the_cells_cannot_tile(domain, level):
    with pytest.raises(GeometryError):
        grid_shape(domain, level)
    with pytest.raises(GeometryError):
        build_structured_mesh(domain, level)


def test_no_marks_identity():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    out, source = refine_and_coarsen(m, np.full(m.n_triangles, KEEP))
    assert out.n_triangles == m.n_triangles
    assert out.n_vertices == m.n_vertices
    np.testing.assert_allclose(out.vertices, m.vertices)
    f = np.arange(m.n_vertices, dtype=float)
    np.testing.assert_allclose(transfer_p1(m, out, source, f), f)


def test_refine_single_interior_triangle_stays_conforming():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    marks = np.full(m.n_triangles, KEEP)
    # pick a triangle whose vertices are all interior
    interior = ~boundary_vertex_mask(m)
    for t in range(m.n_triangles):
        if interior[m.triangles[t]].all():
            marks[t] = REFINE
            break
    out, _ = refine_and_coarsen(m, marks)
    validate(out)
    assert out.n_triangles > m.n_triangles


def test_refine_all_doubles_and_two_sweeps_halve_h():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    h0 = m.min_edge_length()
    m1, _ = refine_and_coarsen(m, np.full(m.n_triangles, REFINE))
    assert m1.n_triangles == 2 * m.n_triangles
    validate(m1)
    m2, _ = refine_and_coarsen(m1, np.full(m1.n_triangles, REFINE))
    assert m2.n_triangles == 4 * m.n_triangles
    validate(m2)
    assert m2.min_edge_length() == pytest.approx(h0 / 2, rel=1e-14)


def test_refine_then_coarsen_round_trip():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    m1, _ = refine_and_coarsen(m, np.full(m.n_triangles, REFINE))
    m2, source2 = refine_and_coarsen(m1, np.full(m1.n_triangles, COARSEN))
    assert m2.n_triangles == m.n_triangles
    assert m2.n_vertices == m.n_vertices
    assert sorted(map(tuple, m2.vertices.tolist())) == sorted(map(tuple, m.vertices.tolist()))
    validate(m2)
    # restriction keeps surviving nodal values
    f1 = m1.vertices[:, 0] + 2.0 * m1.vertices[:, 1]
    f2 = transfer_p1(m1, m2, source2, f1)
    np.testing.assert_allclose(f2, m2.vertices[:, 0] + 2.0 * m2.vertices[:, 1])


def test_refinement_transfer_is_linear_interpolation():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    marks = np.full(m.n_triangles, REFINE)
    out, source = refine_and_coarsen(m, marks)
    f = 3.0 * m.vertices[:, 0] - m.vertices[:, 1] + 0.5
    fn = transfer_p1(m, out, source, f)
    np.testing.assert_allclose(fn, 3.0 * out.vertices[:, 0] - out.vertices[:, 1] + 0.5, atol=1e-14)


def test_coarsen_that_violates_conformity_is_dropped():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    m1, _ = refine_and_coarsen(m, np.full(m.n_triangles, REFINE))
    # coarsen only half of the children: any star not fully marked stays
    marks = np.full(m1.n_triangles, KEEP)
    marks[: m1.n_triangles // 4] = COARSEN
    out, _ = refine_and_coarsen(m1, marks)
    validate(out)
    assert out.n_triangles >= m.n_triangles


def test_mesh_stays_non_obtuse_under_random_marks():
    rng = np.random.default_rng(7)
    m = build_structured_mesh((0, 1, 0, 1), 4)
    for _ in range(6):
        marks = rng.choice([REFINE, KEEP, COARSEN], size=m.n_triangles, p=[0.2, 0.5, 0.3])
        m, _ = refine_and_coarsen(m, marks)
        validate(m)


def scaled(points):
    """Coordinates on the 2**-12 grid as exact integers (the vertices of
    these meshes are dyadic)."""
    s = points * 2.0**12
    assert np.array_equal(s, np.round(s))
    return s.astype(np.int64)


def geometric_marks(rng, mesh, p):
    """Random marks dealt to the elements in the order of their integer-scaled
    barycenters, so that an element's mark does not depend on its index."""
    key = scaled(mesh.vertices)[mesh.triangles].sum(axis=1)
    marks = np.empty(mesh.n_triangles, dtype=np.int64)
    marks[np.lexsort((key[:, 1], key[:, 0]))] = rng.choice([REFINE, KEEP, COARSEN],
                                                          size=mesh.n_triangles, p=p)
    return marks


def adaptation_sequence():
    """(old mesh, new mesh, source map) of six random refine/coarsen passes
    from level 4, every other one mostly coarsening so that elements merge,
    and of a full refinement and full coarsening of level 2."""
    rng = np.random.default_rng(7)
    passes = []
    m = build_structured_mesh((0, 1, 0, 1), 4)
    for k in range(6):
        p = [0.3, 0.5, 0.2] if k % 2 == 0 else [0.05, 0.15, 0.8]
        new, source = refine_and_coarsen(m, geometric_marks(rng, m, p))
        passes.append((m, new, source))
        m = new
    m = build_structured_mesh((0, 1, 0, 1), 2)
    for mark in (REFINE, COARSEN):
        new, source = refine_and_coarsen(m, np.full(m.n_triangles, mark))
        passes.append((m, new, source))
        m = new
    return passes


def test_source_map_matches_point_search():
    rng = np.random.default_rng(5)

    def searched(old, pts):
        tri = locate_points(old, pts, tol=1e-9)
        return tri, barycentric_coordinates(old, pts, tri)

    merged = 0
    for old, new, source in adaptation_sequence():
        merged += int((source[:, 0] != source[:, 1]).sum())
        f = np.sin(3.0 * old.vertices[:, 0]) + old.vertices[:, 1] ** 2
        tri, lam = locate_in_source(old, source, new.vertices, new.triangles)
        assert lam.min() >= -1e-9
        t_pt, lam_pt = searched(old, new.vertices)
        np.testing.assert_allclose((f[old.triangles[tri]] * lam).sum(axis=1),
                                   (f[old.triangles[t_pt]] * lam_pt).sum(axis=1),
                                   rtol=0, atol=1e-14)
        for degree in (1, 2):
            vs_old = VelocitySpace(old, degree=degree, bc="noslip")
            vs_new = VelocitySpace(new, degree=degree, bc="noslip")
            v = rng.standard_normal(vs_old.n_dofs)
            tri, lam = locate_in_source(old, source, vs_new.nodes, vs_new.tri_nodes)
            assert lam.min() >= -1e-9
            np.testing.assert_allclose(vs_old.eval_at_bary(v, tri, lam),
                                       vs_old.eval_at_bary(v, *searched(old, vs_new.nodes)),
                                       rtol=0, atol=1e-14)
    assert merged == 8 + 30  # the full coarsening's and the random passes' merges


def pass_digest(old, new, source):
    """Digest of one adaptation that ignores vertex and element order: the
    sorted rows of each new element's integer vertex coordinates in
    (a, b, peak) order, its generation and its source elements' coordinates."""
    rows = np.column_stack([scaled(new.vertices)[new.triangles].reshape(-1, 6), new.generation,
                            scaled(old.vertices)[old.triangles[source]].reshape(-1, 12)])
    rows = rows[np.lexsort(rows.T[::-1])]
    return hashlib.sha256(rows.tobytes()).hexdigest()[:16]


# pass_digest of each adaptation_sequence pass, recorded with an independent
# per-element (dict and closure stack) implementation of the same adaptation
RECORDED = ["28008b3f79ca2eb7", "8d36ce94639305b3", "6980fb1d1e1a0a82", "b8fc06dee849a8e0",
            "e414ca8edf3e2213", "f32753f4c8d1f9c3", "3a82300b6df9b981", "b1c37709c48a1136"]


def test_adaptation_sequence_gives_the_recorded_meshes():
    digests = [pass_digest(*adaptation) for adaptation in adaptation_sequence()]
    assert digests == RECORDED


def test_full_coarsening_uses_second_sources():
    old, new, source = adaptation_sequence()[-1]
    assert new.n_triangles == 8 and (source[:, 0] != source[:, 1]).all()
    # each merged element has a vertex that lies only in its second half
    uses_second = 0
    for t in range(new.n_triangles):
        tri, _ = locate_in_source(old, source[[t]], new.vertices[new.triangles[t]],
                                  np.array([[0, 1, 2]]))
        uses_second += int((tri == source[t, 1]).any())
    assert uses_second == 8
    wrong = source.copy()
    wrong[:, 1] = wrong[:, 0]
    with pytest.raises(GeometryError):
        locate_in_source(old, wrong, new.vertices, new.triangles)


def test_dual_partition_of_domain():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    vols = dual_cell_volumes(m)
    assert vols.sum() == pytest.approx(1.0, abs=1e-12)
    assert (vols > 0).all()


def test_dual_interior_closedness():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    d = build_dual_grid(m)
    n = m.n_vertices
    acc = np.zeros((n, 2))
    for f in range(len(d.face_measures)):
        i, j = d.face_cells[f]
        acc[i] += d.face_measures[f] * d.face_normals[f]
        acc[j] -= d.face_measures[f] * d.face_normals[f]
    # each boundary edge hands half of its outward normal integral to each
    # end cell
    for e in m.boundary_edges:
        va, vb = m.edges[e]
        evec = m.vertices[vb] - m.vertices[va]
        nrm = np.array([evec[1], -evec[0]])
        third = [v for v in m.triangles[m.edge_tris[e, 0]] if v not in (va, vb)][0]
        if nrm @ (m.vertices[third] - m.vertices[va]) > 0:
            nrm = -nrm
        acc[[va, vb]] += 0.5 * nrm
    assert np.abs(acc).max() < 1e-12


def test_dual_antisymmetry_data():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    d = build_dual_grid(m)
    # normals are stored once per face, oriented i -> j; unit length
    lens = np.sqrt((d.face_normals**2).sum(axis=1))
    np.testing.assert_allclose(lens, 1.0, atol=1e-14)
    assert (d.face_measures > 0).all()
    # normal parallel to the vertex offset and perpendicular to the face
    verts = m.vertices
    dv = verts[d.face_cells[:, 1]] - verts[d.face_cells[:, 0]]
    dv /= np.sqrt((dv**2).sum(axis=1))[:, None]
    np.testing.assert_allclose(np.abs((dv * d.face_normals).sum(axis=1)), 1.0, atol=1e-12)


def test_dual_crisscross_hand_values():
    m = crisscross_square()
    validate(m)
    d = build_dual_grid(m)
    vols = dual_cell_volumes(m)
    np.testing.assert_allclose(vols[:4], 0.125, atol=1e-14)
    assert vols[4] == pytest.approx(0.5, abs=1e-14)
    # four corner-center faces of length sqrt(1/2)
    assert len(d.face_measures) == 4
    np.testing.assert_allclose(d.face_measures, np.sqrt(0.5), atol=1e-14)


def test_dual_rejects_obtuse():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.9, 0.1], [0.5, -1.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3]])
    m = Mesh(verts, tris, np.zeros(2, dtype=int), base_level=2, domain=(0, 1, -1, 0.1))
    with pytest.raises(GeometryError):
        build_dual_grid(m)


def test_midpoint_refine_counts():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[2, 0, 1], [0, 2, 3]])
    m = Mesh(verts, tris, np.zeros(2, dtype=int), base_level=2, domain=(0, 1, 0, 1))
    r = midpoint_refine(m)
    assert r.n_triangles == 8
    assert r.n_vertices == m.n_vertices + m.n_edges
    validate(r)


def test_midpoint_refine_matches_structured_vertex_set():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    r = midpoint_refine(m)
    direct = build_structured_mesh((0, 1, 0, 1), 6)
    got = sorted(map(tuple, np.round(r.vertices, 12).tolist()))
    want = sorted(map(tuple, np.round(direct.vertices, 12).tolist()))
    assert got == want


def test_midpoint_refine_contains_p2_nodes_and_keeps_area():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    r = midpoint_refine(m)
    p2_nodes = np.concatenate([m.vertices, m.edge_midpoints()], axis=0)
    np.testing.assert_allclose(r.vertices, p2_nodes, atol=1e-14)
    assert r.areas.sum() == pytest.approx(m.areas.sum(), abs=1e-12)


def geometry_meshes():
    """A structured square, the Rayleigh-Taylor rectangle and a bisected mesh."""
    rng = np.random.default_rng(5)
    m = build_structured_mesh((0, 1, 0, 1), 4)
    for _ in range(4):
        marks = rng.choice([REFINE, KEEP, COARSEN], size=m.n_triangles, p=[0.3, 0.4, 0.3])
        m, _ = refine_and_coarsen(m, marks)
    return [build_structured_mesh((0, 1, 0, 1), 6), build_structured_mesh((0, 1, 0, 4), 8), m]


@pytest.mark.parametrize("mesh", geometry_meshes(), ids=["square", "rt", "bisected"])
def test_mesh_geometry_matches_elementwise_oracle_bitwise(mesh):
    areas, grads = element_geometry(mesh)
    assert mesh.areas.tobytes() == areas.tobytes()
    assert mesh.barycentric_gradients.tobytes() == grads.tobytes()
    # computed once: a second read returns the same array
    assert mesh.areas is mesh.areas
    assert mesh.barycentric_gradients is mesh.barycentric_gradients


def two_right_triangles():
    """The edge (0, 1) is the hypotenuse of the first triangle and a leg of
    the second, and it is the first triangle's local edge 0, so the dual face
    midpoint lies in the second of the edge's triangles."""
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, -0.5], [0.0, 1.0]])
    tris = np.array([[2, 1, 0], [0, 1, 3]])
    return Mesh(verts, tris, np.zeros(2, dtype=int), base_level=2, domain=(0, 1, -0.5, 1))


@pytest.mark.parametrize("mesh", geometry_meshes() + [two_right_triangles()],
                         ids=["square", "rt", "bisected", "swapped"])
def test_dual_face_coordinates_match_a_fresh_computation_bitwise(mesh):
    d = build_dual_grid(mesh)
    fresh = barycentric_coordinates(mesh, d.face_midpoints, d.face_tri)
    assert d.face_bary.tobytes() == fresh.tobytes()
    assert (fresh.min(axis=1) >= -1e-10).all()


def test_dual_face_midpoint_moves_to_the_second_triangle():
    m = two_right_triangles()
    d = build_dual_grid(m)
    edge = m.edges.tolist().index([0, 1])
    assert m.edge_tris[edge].tolist() == [0, 1]
    face = d.face_cells.tolist().index([0, 1])
    assert d.face_tri[face] == 1
    np.testing.assert_allclose(d.face_midpoints[face], [0.5, 0.25], atol=1e-15)


def test_non_manifold_mesh_raises_geometry_error():
    # three triangles on the edge (0, 1)
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    with pytest.raises(GeometryError, match=r"edge \[0, 1\] shared by 3 triangles"):
        Mesh(verts, tris, np.zeros(3, dtype=int), base_level=2, domain=(0, 1, -1, 2))


def looped_connectivity(tris):
    """Edges, triangle edges and edge triangles, with the incidences filled
    in by one loop over the edges."""
    m = tris.shape[0]
    all_edges = np.sort(np.concatenate([tris[:, [1, 2]], tris[:, [2, 0]], tris[:, [0, 1]]]),
                        axis=1)
    edges, inverse = np.unique(all_edges, axis=0, return_inverse=True)
    edge_tris = np.full((edges.shape[0], 2), -1, dtype=np.int64)
    entry_tri = np.tile(np.arange(m), 3)
    for e in range(edges.shape[0]):
        inc = entry_tri[inverse == e]
        edge_tris[e, :len(inc)] = inc
    return edges, inverse.reshape(3, m).T, edge_tris


def test_connectivity_matches_a_looped_reference():
    rng = np.random.default_rng(11)
    meshes = [build_structured_mesh((0, 1, 0, 1), level) for level in (2, 6)]
    meshes.append(midpoint_refine(meshes[0]))
    m = build_structured_mesh((0, 1, 0, 1), 4)
    for _ in range(3):
        marks = rng.choice([REFINE, KEEP, COARSEN], size=m.n_triangles, p=[0.3, 0.4, 0.3])
        m, _ = refine_and_coarsen(m, marks)
        meshes.append(m)
    for mesh in meshes:
        edges, tri_edges, edge_tris = looped_connectivity(mesh.triangles)
        np.testing.assert_array_equal(mesh.edges, edges)
        np.testing.assert_array_equal(mesh.tri_edges, tri_edges)
        np.testing.assert_array_equal(mesh.edge_tris, edge_tris)
