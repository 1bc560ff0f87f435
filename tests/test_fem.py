import math
import numpy as np
import pytest

from phaseflow.errors import GeometryError
from phaseflow.fem import (
    QUAD_DEG4,
    ScalarSpace,
    VelocitySpace,
    assemble,
    assemble_p1_mass,
    assemble_stiffness,
    assembly_threads,
    element_gradient_magnitudes,
    interpolate_nodal,
    l2_distance,
    lumped_p1_weights,
    nested_dissection,
    p1_at_p2_nodes,
    p2_shape_values,
)
from phaseflow.mesh import REFINE, Mesh, build_structured_mesh, refine_and_coarsen

from oracles import integrate_on_mesh, integrate_on_triangle, p1_interpolant


def reference_triangle_mesh():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[1, 2, 0]])  # hypotenuse (1,2), right angle at 0
    return Mesh(verts, tris, np.zeros(1, dtype=int), base_level=2, domain=(0, 1, 0, 1))


# ---------------------------------------------------------------- quadrature

def test_quadrature_invariants():
    assert (QUAD_DEG4.weights > 0).all()
    assert QUAD_DEG4.weights.sum() == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("i,j", [(i, j) for i in range(5) for j in range(5 - i)])
def test_quadrature_exactness_degree4(i, j):
    # reference triangle via barycentric points: x = lam1, y = lam2
    lam = QUAD_DEG4.points
    val = float(np.dot(QUAD_DEG4.weights, lam[:, 1] ** i * lam[:, 2] ** j))
    exact = math.factorial(i) * math.factorial(j) / math.factorial(i + j + 2)
    assert val == pytest.approx(exact, rel=1e-13)


# ------------------------------------------------------------- interpolation

def test_interpolate_constant():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    out = interpolate_nodal(lambda p: np.ones(len(p)), ScalarSpace(m))
    np.testing.assert_allclose(out, 1.0)


def test_interpolate_reproduces_linears():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    f = lambda p: 2.0 * p[:, 0] - 3.0 * p[:, 1] + 0.25
    out = interpolate_nodal(f, ScalarSpace(m))
    np.testing.assert_allclose(out, f(m.vertices), atol=1e-14)
    # and the interpolant equals f everywhere, checked via L2 against itself
    err2 = integrate_on_mesh(lambda p: (f(p) - f(p)) ** 2, m)
    assert err2 == pytest.approx(0.0, abs=1e-15)


def test_interpolation_error_decays_quadratically():
    f = lambda p: p[:, 0] ** 2
    errs = []
    for level in (4, 6, 8):
        m = build_structured_mesh((0, 1, 0, 1), level)
        vals = interpolate_nodal(f, ScalarSpace(m))
        np.testing.assert_allclose(vals, m.vertices[:, 0] ** 2, atol=1e-14)
        from oracles import p1_interpolant

        interp = p1_interpolant(m, vals)
        err2 = integrate_on_mesh(lambda p: (interp(p) - f(p)) ** 2, m)
        errs.append(np.sqrt(err2))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_p2_interpolation_reproduces_p2():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    vs = VelocitySpace(m, degree=2)
    f = lambda p: np.column_stack([p[:, 0] ** 2 + p[:, 1], p[:, 0] * p[:, 1]])
    dofs = interpolate_nodal(f, vs)
    # check midside evaluation reproduces the quadratic exactly
    lam = np.array([[0.3, 0.3, 0.4], [0.1, 0.6, 0.3]])
    tri = np.array([0, 1])
    got = vs.eval_at_bary(dofs, tri, lam)
    pts = np.einsum("kj,kjd->kd", lam, m.vertices[m.triangles[tri]])
    np.testing.assert_allclose(got, f(pts), atol=1e-13)


# ------------------------------------------------------------- lumped mass

def test_lumped_mass_reference_triangle_p1():
    m = reference_triangle_mesh()
    vs = VelocitySpace(m, degree=1)
    d = vs.lumping @ np.ones(3)
    np.testing.assert_allclose(d, 0.5 / 3.0, atol=1e-15)


def test_lumped_mass_scales_linearly():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    vs = VelocitySpace(m, degree=2)
    d1 = vs.lumping @ np.ones(m.n_vertices)
    rho = 0.017
    d2 = vs.lumping @ np.full(m.n_vertices, rho)
    np.testing.assert_allclose(d2, rho * d1, rtol=1e-14)


@pytest.mark.parametrize("degree", [1, 2])
def test_lumped_mass_row_sums_equal_weight_integral(degree):
    m = build_structured_mesh((0, 1, 0, 1), 4)
    vs = VelocitySpace(m, degree=degree)
    w = 1.0 + 0.5 * m.vertices[:, 0] - 0.25 * m.vertices[:, 1]
    d = vs.lumping @ w
    exact = integrate_on_mesh(lambda p: 1.0 + 0.5 * p[:, 0] - 0.25 * p[:, 1], m)
    assert d.shape == (vs.n_nodes,)
    assert (d > 0).all()
    assert d.sum() == pytest.approx(exact, rel=1e-13)


def locally_refined_mesh():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    marks = np.zeros(m.n_triangles, dtype=int)
    marks[m.triangles.min(axis=1) % 3 == 0] = REFINE
    out, _ = refine_and_coarsen(m, marks)
    return out


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("refined", [False, True])
def test_lumping_matches_per_element_integrals(degree, refined):
    # integrals of w * hat_i over the velocity node mesh, element by element,
    # with w evaluated pointwise on the primal mesh
    m = locally_refined_mesh() if refined else build_structured_mesh((0, 1, 0, 1), 4)
    vs = VelocitySpace(m, degree=degree)
    rng = np.random.default_rng(11)
    w = 0.5 + rng.uniform(0, 1, m.n_vertices)
    w_at = p1_interpolant(m, w)
    node_mesh = vs.half_mesh if degree == 2 else m
    assert node_mesh.n_vertices == vs.n_nodes
    ref = np.zeros(vs.n_nodes)
    for tri in node_mesh.triangles:
        corners = node_mesh.vertices[tri]
        T = np.column_stack([corners[1] - corners[0], corners[2] - corners[0]])
        for k in range(3):
            def f(p, k=k):
                ab = np.linalg.solve(T, (p - corners[0]).T).T
                lam = np.column_stack([1.0 - ab.sum(axis=1), ab])
                return w_at(p) * lam[:, k]
            ref[tri[k]] += integrate_on_triangle(f, corners, n=4)
    d = vs.lumping @ w
    np.testing.assert_allclose(d, ref, rtol=1e-13, atol=0.0)


# ---------------------------------------------------------------- stiffness

def test_stiffness_zero_coefficient():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    K = assemble_stiffness(ScalarSpace(m), 0.0)
    assert abs(K).sum() == 0.0


def test_stiffness_kernel_constants():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    K = assemble_stiffness(ScalarSpace(m), 1.0)
    c = np.full(m.n_vertices, 3.7)
    assert np.abs(K @ c).max() < 1e-13


def test_stiffness_energy_of_linear():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    K = assemble_stiffness(ScalarSpace(m), 1.0)
    v = m.vertices[:, 0]
    assert v @ (K @ v) == pytest.approx(1.0, rel=1e-13)


def test_stiffness_rejects_negative_coefficient():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    with pytest.raises(ValueError):
        assemble_stiffness(ScalarSpace(m), -1.0)
    bad = -np.ones(m.n_vertices)
    with pytest.raises(ValueError):
        assemble_stiffness(ScalarSpace(m), bad)


def test_stiffness_spsd_and_symmetric():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    coeff = 1.0 + m.vertices[:, 0]
    K = assemble_stiffness(ScalarSpace(m), coeff)
    asym = abs(K - K.T)
    assert asym.max() if asym.nnz else 0.0 == 0.0
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(m.n_vertices)
        assert x @ (K @ x) >= -1e-12


# ------------------------------------------------------------------ L2 tools

def test_l2_distance_identical_fields():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    f = m.vertices[:, 0] ** 2
    assert l2_distance(m, f, m, f) == 0.0


def test_l2_distance_constants():
    coarse = build_structured_mesh((-1, 1, -1, 1), 2)
    fine = build_structured_mesh((-1, 1, -1, 1), 4)
    one = np.ones(coarse.n_vertices)
    zero = np.zeros(fine.n_vertices)
    assert l2_distance(coarse, one, fine, zero) == pytest.approx(2.0, rel=1e-13)


def test_l2_distance_rejects_non_nested():
    a = build_structured_mesh((0, 1, 0, 1), 2)
    b = build_structured_mesh((0, 2, 0, 2), 2)
    with pytest.raises(GeometryError):
        l2_distance(a, np.zeros(a.n_vertices), b, np.zeros(b.n_vertices))


def test_l2_distance_exact_for_nested_linear():
    coarse = build_structured_mesh((0, 1, 0, 1), 2)
    fine = build_structured_mesh((0, 1, 0, 1), 6)
    fc = 1.0 + coarse.vertices[:, 0]
    ff = np.zeros(fine.n_vertices)
    exact = np.sqrt(integrate_on_mesh(lambda p: (1.0 + p[:, 0]) ** 2, fine))
    assert l2_distance(coarse, fc, fine, ff) == pytest.approx(exact, rel=1e-12)


# ----------------------------------------------------------------- gradients

def test_gradient_magnitudes_constant_field():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    g = element_gradient_magnitudes(ScalarSpace(m), np.full(m.n_vertices, 2.0))
    np.testing.assert_allclose(g, 0.0, atol=1e-14)


def test_gradient_magnitudes_linear_field():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    g = element_gradient_magnitudes(ScalarSpace(m), m.vertices[:, 0])
    np.testing.assert_allclose(g, 1.0, atol=1e-13)


def test_gradient_magnitudes_p2_quadratic():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    vs = VelocitySpace(m, degree=2)
    f = lambda p: np.column_stack([p[:, 0] ** 2, np.zeros(len(p))])
    dofs = interpolate_nodal(f, vs)
    grads = vs.component_gradients_at_barycenter(dofs)
    g = np.sqrt((grads[:, 0, :] ** 2).sum(axis=1))
    bary = m.vertices[m.triangles].mean(axis=1)
    np.testing.assert_allclose(g, 2.0 * np.abs(bary[:, 0]), atol=1e-12)


# --------------------------------------------------------------- dirichlet

def test_noslip_pins_all_boundary_dofs():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    vs = VelocitySpace(m, degree=2, bc="noslip")
    mask = vs.dirichlet_mask
    bnodes = np.nonzero(vs._boundary_node_mask)[0]
    assert mask[bnodes].all() and mask[vs.n_nodes + bnodes].all()


def test_freeslip_pins_normal_components_only():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    vs = VelocitySpace(m, degree=2, bc="freeslip")
    mask = vs.dirichlet_mask
    for n in range(vs.n_nodes):
        x, y = vs.nodes[n]
        on_x = x in (0.0, 1.0)
        on_y = y in (0.0, 1.0)
        assert mask[n] == on_x
        assert mask[vs.n_nodes + n] == on_y


# --------------------------------------------------------------- saddle order

@pytest.mark.parametrize("refined", [False, True], ids=["structured", "adapted"])
@pytest.mark.parametrize("bc", ["noslip", "freeslip"])
@pytest.mark.parametrize("degree", [1, 2])
def test_saddle_order_permutes_the_saddle_dofs_node_by_node(degree, bc, refined):
    m = locally_refined_mesh() if refined else build_structured_mesh((0, 1, 0, 2), 4)
    vs = VelocitySpace(m, degree=degree, bc=bc)
    order = vs.saddle_order
    n, nv = vs.n_nodes, m.n_vertices
    np.testing.assert_array_equal(np.sort(order), np.arange(2 * n + nv))
    # one contiguous run per node: v_x = i, v_y = n + i, then p = 2 n + i at a vertex
    node = np.where(order < 2 * n, order % n, order - 2 * n)
    runs = np.split(order, np.flatnonzero(np.diff(node)) + 1)
    assert len(runs) == n
    for run in runs:
        i = run[0]
        expected = [i, n + i, 2 * n + i] if i < nv else [i, n + i]
        np.testing.assert_array_equal(run, expected)


def test_saddle_order_is_cached_and_deterministic():
    m = locally_refined_mesh()
    vs = VelocitySpace(m, degree=2)
    assert vs.saddle_order is vs.saddle_order
    np.testing.assert_array_equal(vs.saddle_order, VelocitySpace(m, degree=2).saddle_order)


def test_nested_dissection_orders_a_separator_after_both_halves():
    # a 4 x 4 grid of squares: the first cut is the middle node column
    # x = 0.5, ordered last, after the nodes left of it and then those right
    m = build_structured_mesh((0, 1, 0, 1), 4)
    order = nested_dissection(m.vertices, m.triangles)
    np.testing.assert_array_equal(np.sort(order), np.arange(m.n_vertices))
    last = order[-5:]
    np.testing.assert_allclose(m.vertices[last, 0], 0.5)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    left = m.vertices[:, 0] < 0.5
    right = m.vertices[:, 0] > 0.5
    assert rank[left].max() < rank[right].min()


def test_p1_at_p2_nodes_exact():
    m = build_structured_mesh((0, 1, 0, 1), 2)
    vals = 3.0 * m.vertices[:, 0] - m.vertices[:, 1]
    vs = VelocitySpace(m, degree=2)
    ext = p1_at_p2_nodes(m, vals)
    np.testing.assert_allclose(ext, 3.0 * vs.nodes[:, 0] - vs.nodes[:, 1], atol=1e-14)


def test_p2_shapes_partition_of_unity():
    lam = QUAD_DEG4.points
    s = p2_shape_values(lam)
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-14)


def test_consistent_mass_total():
    m = build_structured_mesh((0, 1, 0, 1), 4)
    M = assemble_p1_mass(ScalarSpace(m))
    one = np.ones(m.n_vertices)
    assert one @ (M @ one) == pytest.approx(1.0, rel=1e-14)
    np.testing.assert_allclose(lumped_p1_weights(m), np.asarray(M.sum(axis=1)).ravel(), atol=1e-15)


def test_scalar_space_owns_its_operators():
    m = build_structured_mesh((0, 1, 0, 2), 4)
    space = ScalarSpace(m)
    assert space.mass is space.mass and space.stiffness is space.stiffness
    assert space.lumped is space.lumped
    for owned, fresh in ((space.mass, assemble_p1_mass(ScalarSpace(m))),
                         (space.stiffness, assemble_stiffness(ScalarSpace(m), 1.0))):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(owned, name), getattr(fresh, name))
    assert np.array_equal(space.lumped, lumped_p1_weights(m))


def test_assemble_scatters_element_matrices():
    # integer entries make the dense reference exact in any summation order
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 5, size=(7, 2))
    cols = rng.integers(0, 4, size=(7, 3))
    ke = rng.integers(-9, 10, size=(7, 2, 3)).astype(float)
    dense = np.zeros((5, 4))
    for k in range(7):
        for i in range(2):
            for j in range(3):
                dense[rows[k, i], cols[k, j]] += ke[k, i, j]
    A = assemble(rows, cols, ke, (5, 4))
    assert A.format == "csr" and A.shape == (5, 4)
    assert np.array_equal(A.toarray(), dense)


@pytest.mark.parametrize("raw,expected", [("", 3), ("0", 3), ("junk", 3), ("2", 2),
                                          ("3", 3), ("1000000", 3)])
def test_assembly_threads_capped_at_core_count(monkeypatch, raw, expected):
    # reads the setting only; no thread is started
    import phaseflow.fem as fem

    monkeypatch.setenv("PHASEFLOW_THREADS", raw)
    monkeypatch.setattr(fem.os, "cpu_count", lambda: 3)
    assert assembly_threads() == expected
