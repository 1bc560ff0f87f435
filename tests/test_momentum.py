import numpy as np
import pytest

from phaseflow.fem import ScalarSpace, VelocitySpace
from phaseflow.linalg import FactorizationCache
from phaseflow.mesh import build_structured_mesh
from phaseflow.momentum import (
    PIN,
    ForceSpec,
    MomentumStep,
    PhysParams,
    apply_velocity_dirichlet,
    assemble_divergence,
    assemble_Na,
    assemble_Nb,
    assemble_rhs_K,
    assemble_stabilization,
    assemble_time_terms,
    assemble_viscous,
    compute_flux_j,
    density_from_phase,
    saddle_order,
    solve_momentum,
    viscosity_from_phase,
)

from oracles import Saddle, duffy_rule, interpolate_nodal, pinned_monolithic, schur_solve


PAPER_DENSITIES = dict(rho1=0.001, rho2=0.019)


def setup(level=2, domain=(0, 1, 0, 1), degree=2, bc="noslip"):
    mesh = build_structured_mesh(domain, level)
    return mesh, ScalarSpace(mesh), VelocitySpace(mesh, degree=degree, bc=bc)


def momentum_solve(vs, ss, params, phi_old, phi_new, mu_new, v_old, tau, t):
    """One momentum solve from a fresh step and factorization cache."""
    step = MomentumStep(vs, ss, params, assemble_divergence(vs, ss), phi_old, v_old, tau, t)
    return solve_momentum(step, phi_new, mu_new, FactorizationCache(saddle_order(vs)),
                          (v_old, np.zeros(ss.n_dofs)))


# ------------------------------------------------------------- material laws

def test_density_endpoints():
    p = PhysParams(**PAPER_DENSITIES)
    assert density_from_phase(np.array([-1.0]), p)[0] == pytest.approx(0.001)
    assert density_from_phase(np.array([1.0]), p)[0] == pytest.approx(0.019)
    assert density_from_phase(np.array([0.0]), p)[0] == pytest.approx(0.010)
    assert p.density_slope == pytest.approx(0.009)


def test_viscosity_affine():
    p = PhysParams(eta1=0.001, eta2=0.1)
    assert viscosity_from_phase(np.array([-1.0]), p)[0] == pytest.approx(0.001)
    assert viscosity_from_phase(np.array([1.0]), p)[0] == pytest.approx(0.1)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysParams(rho1=-1.0)
    with pytest.raises(ValueError):
        PhysParams(eta1=0.0)
    with pytest.raises(ValueError):
        PhysParams(model="xxx")
    with pytest.raises(ValueError):
        ForceSpec(kind="bogus")


# ------------------------------------------------------------------- flux j

def test_flux_j_constant_mu_zero():
    mesh, ss, _ = setup()
    j = compute_flux_j(np.full(ss.n_dofs, 3.0), 0.5, ss)
    np.testing.assert_allclose(j, 0.0, atol=1e-14)


def test_flux_j_zero_mobility():
    mesh, ss, _ = setup()
    j = compute_flux_j(mesh.vertices[:, 0], 0.0, ss)
    np.testing.assert_allclose(j, 0.0)


def test_flux_j_linear_mu():
    mesh, ss, _ = setup()
    j = compute_flux_j(mesh.vertices[:, 0], 0.5, ss)
    np.testing.assert_allclose(j[:, 0], -0.5, atol=1e-14)
    np.testing.assert_allclose(j[:, 1], 0.0, atol=1e-14)


# ---------------------------------------------------------- skew convection

def test_Na_zero_velocity():
    mesh, ss, vs = setup()
    N = assemble_Na(vs, np.ones(ss.n_dofs), np.zeros(vs.n_dofs))
    assert abs(N).sum() == 0.0


def test_Na_exact_skew_and_annihilation():
    mesh, ss, vs = setup(level=4)
    rng = np.random.default_rng(3)
    rho = 0.5 + rng.uniform(0, 1, ss.n_dofs)
    v = rng.standard_normal(vs.n_dofs)
    N = assemble_Na(vs, rho, v)
    S = N + N.T
    assert (abs(S).max() if S.nnz else 0.0) == 0.0
    for _ in range(5):
        w = rng.standard_normal(vs.n_dofs)
        w /= np.linalg.norm(w)
        assert abs(w @ (N @ w)) < 1e-14


def dense_skew_convection_oracle(mesh, vs, rho_nodal, v_dofs, weight_nodal=None):
    """Dense assembly of the skew convection with independent quadrature and
    an independent quadratic shape implementation."""
    xs, ys, ws = duffy_rule(6)
    lam = np.column_stack([1 - xs - ys, xs, ys])

    def shapes(l):
        l0, l1, l2 = l[:, 0], l[:, 1], l[:, 2]
        return np.column_stack([
            l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
            4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1,
        ])

    n = vs.n_nodes
    C = np.zeros((2 * n, 2 * n))
    w_nodal = rho_nodal if weight_nodal is None else weight_nodal
    for t in range(mesh.n_triangles):
        tri = mesh.triangles[t]
        coords = mesh.vertices[tri]
        a, b, c = coords
        det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        area2 = abs(det)
        gl = np.zeros((3, 2))
        for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
            e = coords[j] - coords[i]
            gl[k] = np.array([-e[1], e[0]]) / det
        sv = shapes(lam)
        # P2 gradients at quad points
        gq = np.zeros((len(xs), 6, 2))
        for q in range(len(xs)):
            l = lam[q]
            for k in range(3):
                gq[q, k] = (4 * l[k] - 1) * gl[k]
            for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
                gq[q, 3 + k] = 4 * (l[i] * gl[j] + l[j] * gl[i])
        nodes = vs.tri_nodes[t]
        wq = w_nodal[tri] @ lam.T
        vx = sv @ v_dofs[nodes]
        vy = sv @ v_dofs[n + nodes]
        for q in range(len(xs)):
            dirg = vx[q] * gq[q, :, 0] + vy[q] * gq[q, :, 1]
            block = np.outer(sv[q], dirg) * (ws[q] * area2 * wq[q])
            for aa in range(2):
                C[np.ix_(aa * n + nodes, aa * n + nodes)] += block
    return 0.5 * (C - C.T)


def test_Na_entry_against_quadrature_oracle():
    mesh, ss, vs = setup(level=2)
    # linear velocity: P2 interpolation exact, integrand degree 4
    v = interpolate_nodal(lambda p: np.column_stack([p[:, 0] + 2 * p[:, 1], 1.0 - p[:, 0]]), vs)
    rho = np.ones(ss.n_dofs)
    N = assemble_Na(vs, rho, v).toarray()
    Nref = dense_skew_convection_oracle(mesh, vs, rho, v)
    np.testing.assert_allclose(N, Nref, atol=1e-13)


def test_Nb_zero_flux_and_matched_densities():
    mesh, ss, vs = setup()
    n_elem = mesh.n_triangles
    Z = assemble_Nb(vs, np.zeros((n_elem, 2)), PhysParams(**PAPER_DENSITIES))
    assert abs(Z).sum() == 0.0
    rng = np.random.default_rng(2)
    j = rng.standard_normal((n_elem, 2))
    matched = PhysParams(rho1=0.01, rho2=0.01)
    assert matched.density_slope == 0.0
    Z2 = assemble_Nb(vs, j, matched)
    assert abs(Z2).sum() == 0.0


def test_Nb_skew_and_dss_empty():
    mesh, ss, vs = setup(level=4)
    rng = np.random.default_rng(5)
    j = rng.standard_normal((mesh.n_triangles, 2))
    N = assemble_Nb(vs, j, PhysParams(**PAPER_DENSITIES, model="agg"))
    S = N + N.T
    assert (abs(S).max() if S.nnz else 0.0) == 0.0
    w = rng.standard_normal(vs.n_dofs)
    w /= np.linalg.norm(w)
    assert abs(w @ (N @ w)) < 1e-14
    D = assemble_Nb(vs, j, PhysParams(**PAPER_DENSITIES, model="dss"))
    assert D.nnz == 0


def test_Nb_entry_against_quadrature_oracle():
    # a linear mu makes j constant, so it is exactly a constant velocity
    mesh, ss, vs = setup(level=2)
    params = PhysParams(**PAPER_DENSITIES)
    j = compute_flux_j(0.3 * mesh.vertices[:, 0] - 0.7 * mesh.vertices[:, 1], 0.5, ss)
    jx, jy = j[0]
    assert np.abs(j - j[0]).max() <= 1e-15
    j_dofs = interpolate_nodal(lambda p: np.column_stack([np.full(len(p), jx),
                                                          np.full(len(p), jy)]), vs)
    N = assemble_Nb(vs, j, params).toarray()
    Nref = dense_skew_convection_oracle(mesh, vs, np.ones(ss.n_dofs), j_dofs,
                                        weight_nodal=np.full(ss.n_dofs, params.density_slope))
    assert np.abs(Nref).max() > 1e-6
    np.testing.assert_allclose(N, Nref, rtol=0.0, atol=1e-13 * np.abs(Nref).max())


# ----------------------------------------------------------------- viscous

def test_viscous_rigid_rotation_kernel():
    mesh, ss, vs = setup(level=4)
    A = assemble_viscous(vs, np.full(ss.n_dofs, 0.01))
    w = interpolate_nodal(lambda p: np.column_stack([-p[:, 1], p[:, 0]]), vs)
    assert np.abs(A @ w).max() < 1e-14


def test_viscous_linear_in_eta():
    mesh, ss, vs = setup()
    eta = 0.3 + 0.1 * mesh.vertices[:, 0]
    A1 = assemble_viscous(vs, eta)
    A2 = assemble_viscous(vs, 2.0 * eta)
    diff = abs(A2 - 2.0 * A1)
    assert (diff.max() if diff.nnz else 0.0) < 1e-14


def test_viscous_energy_manufactured():
    mesh, ss, vs = setup(level=4)
    eta = np.full(ss.n_dofs, 1.0)
    A = assemble_viscous(vs, eta)
    v = interpolate_nodal(lambda p: np.column_stack([p[:, 1] ** 2, np.zeros(len(p))]), vs)
    # D(v) = [[0, y], [y, 0]], 2 int |D|^2 = 4/3 on the unit square
    assert v @ (A @ v) == pytest.approx(4.0 / 3.0, rel=1e-12)


def test_viscous_rejects_nonpositive():
    mesh, ss, vs = setup()
    with pytest.raises(ValueError):
        assemble_viscous(vs, np.zeros(ss.n_dofs))


# ------------------------------------------------------------------ forces

def test_rotating_force_quarter_turn():
    f = ForceSpec(kind="rotating", k0=(0.0, 100.0), rotations_per_unit=5.0)
    k = f.vector_at(0.05)  # angle pi/2
    np.testing.assert_allclose(k, [-100.0, 0.0], atol=1e-12)


def test_rhs_constant_mu_factors():
    mesh, ss, vs = setup(level=4)
    p = PhysParams()
    phi = np.tanh((mesh.vertices[:, 0] - 0.5) / 0.2)
    c = 2.7
    k1 = assemble_rhs_K(vs, ss, np.full(ss.n_dofs, c), phi, p, 0.0)
    k2 = assemble_rhs_K(vs, ss, np.full(ss.n_dofs, 1.0), phi, p, 0.0)
    np.testing.assert_allclose(k1, c * k2, atol=1e-12)


def test_rhs_constant_phase_no_surface_tension():
    mesh, ss, vs = setup(level=4)
    p = PhysParams()
    mu = np.sin(mesh.vertices[:, 0])
    k = assemble_rhs_K(vs, ss, mu, np.full(ss.n_dofs, 0.5), p, 0.0)
    np.testing.assert_allclose(k, 0.0, atol=1e-13)


def test_rhs_rotating_equals_equivalent_constant():
    mesh, ss, vs = setup(level=2)
    phi = np.zeros(ss.n_dofs)
    mu = np.zeros(ss.n_dofs)
    pr = PhysParams(force=ForceSpec(kind="rotating", k0=(0.0, 100.0), rotations_per_unit=5.0))
    pc = PhysParams(force=ForceSpec(kind="constant", k0=(-100.0, 0.0)))
    kr = assemble_rhs_K(vs, ss, mu, phi, pr, 0.05)
    kc = assemble_rhs_K(vs, ss, mu, phi, pc, 0.0)
    np.testing.assert_allclose(kr, kc, atol=1e-10)


# -------------------------------------------------------------- time terms

def test_time_terms_constant_density():
    mesh, ss, vs = setup()
    tau = 0.01
    rho = np.full(ss.n_dofs, 0.4)
    mat, rhs = assemble_time_terms(vs, rho, rho, np.zeros(vs.n_dofs), tau)
    d = vs.lumping @ np.ones(ss.n_dofs)
    diff = abs(mat.toarray() - np.diag(0.4 / tau * np.concatenate([d, d])))
    assert diff.max() < 1e-12
    np.testing.assert_allclose(rhs, 0.0)


def test_time_terms_identity_of_rewriting():
    mesh, ss, vs = setup(level=4)
    rng = np.random.default_rng(8)
    tau = 0.05
    rho_o = 0.5 + rng.uniform(0, 1, ss.n_dofs)
    rho_n = 0.5 + rng.uniform(0, 1, ss.n_dofs)
    v_o = rng.standard_normal(vs.n_dofs)
    mat, rhs = assemble_time_terms(vs, rho_o, rho_n, v_o, tau)
    d_o = vs.lumping @ rho_o
    d_n = vs.lumping @ rho_n
    lhs = mat @ v_o - rhs
    want = np.concatenate([d_n - d_o, d_n - d_o]) * v_o / (2.0 * tau)
    np.testing.assert_allclose(lhs, want, atol=1e-12)


# ----------------------------------------------------------- stabilization

def test_stabilization_kernel_elementwise_constant():
    mesh, ss, vs = setup(level=4, degree=1)
    C = assemble_stabilization(ss, np.ones(ss.n_dofs))
    p = np.full(ss.n_dofs, 1.234)
    assert np.abs(C @ p).max() < 1e-15


def test_stabilization_symmetric_nonneg_diag():
    mesh, ss, vs = setup(level=4, degree=1)
    eta = 0.5 + 0.2 * mesh.vertices[:, 1]
    C = assemble_stabilization(ss, eta)
    diff = abs(C - C.T)
    assert (diff.max() if diff.nnz else 0.0) == 0.0
    assert (C.diagonal() >= 0).all()


def test_stabilization_reference_triangle_entry():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[1, 2, 0]])
    from phaseflow.mesh import Mesh

    mesh = Mesh(verts, tris, np.zeros(1, dtype=int), base_level=2, domain=(0, 1, 0, 1))
    ss = ScalarSpace(mesh)
    C = assemble_stabilization(ss, np.ones(3)).toarray()
    # psi = x is the hat at vertex (1,0): int (x - 1/3)^2 = |K|/18 = 1/36
    xs, ys, ws = duffy_rule(6)
    hand = float(np.dot(ws, (xs - 1.0 / 3.0) ** 2))
    assert C[1, 1] == pytest.approx(hand, rel=1e-12)
    assert C[1, 1] == pytest.approx(1.0 / 36.0, rel=1e-12)


# ------------------------------------------------------------- full solves

def test_momentum_trivial_equilibrium():
    mesh, ss, vs = setup(level=2)
    p = PhysParams()
    phi = np.ones(ss.n_dofs)
    v, pr = momentum_solve(vs, ss, p, phi, phi, np.zeros(ss.n_dofs),
                           np.zeros(vs.n_dofs), tau=1e-2, t=0.0)
    np.testing.assert_allclose(v, 0.0, atol=1e-12)
    np.testing.assert_allclose(pr, 0.0, atol=1e-10)


def test_momentum_agg_dss_coincide_for_matched_densities():
    mesh, ss, vs = setup(level=2)
    phi_o = np.tanh((mesh.vertices[:, 0] - 0.4) / 0.2)
    phi_n = np.tanh((mesh.vertices[:, 0] - 0.45) / 0.2)
    mu = np.cos(mesh.vertices[:, 1])
    v_o = np.zeros(vs.n_dofs)
    outs = {}
    for model in ("agg", "dss"):
        p = PhysParams(rho1=0.01, rho2=0.01, mobility=0.5, model=model,
                       force=ForceSpec(kind="weighted", k0=(0.0, -100.0)))
        outs[model] = momentum_solve(vs, ss, p, phi_o, phi_n, mu, v_o, tau=1e-3, t=0.0)
    assert np.abs(outs["agg"][0] - outs["dss"][0]).max() < 1e-12
    assert np.abs(outs["agg"][1] - outs["dss"][1]).max() < 1e-12


def test_momentum_hydrostatic_balance_taylor_hood():
    mesh, ss, vs = setup(level=4)
    p = PhysParams(force=ForceSpec(kind="constant", k0=(0.0, -1.0e4)))
    phi = np.ones(ss.n_dofs)
    v, pr = momentum_solve(vs, ss, p, phi, phi, np.zeros(ss.n_dofs),
                           np.zeros(vs.n_dofs), tau=1e-3, t=0.0)
    assert np.abs(v).max() <= 1e-8
    # pressure gradient balances the force
    grad = np.polyfit(mesh.vertices[:, 1], pr, 1)[0]
    assert grad == pytest.approx(-1.0e4, rel=1e-6)


def test_momentum_hydrostatic_p1p1_consistency_error_decays():
    # the pressure-projection stabilization commits an O(h^2) consistency
    # error against linear pressures; check the spurious velocity shrinks
    vmax = {}
    for level in (4, 8):
        mesh, ss, vs = setup(level=level, degree=1)
        p = PhysParams(eta1=1.0, eta2=1.0, elements="p1p1",
                       force=ForceSpec(kind="constant", k0=(0.0, -1.0)))
        phi = np.ones(ss.n_dofs)
        v, _ = momentum_solve(vs, ss, p, phi, phi, np.zeros(ss.n_dofs),
                              np.zeros(vs.n_dofs), tau=1e-3, t=0.0)
        vmax[level] = np.abs(v).max()
    assert vmax[8] < vmax[4] / 4.0


def test_stokes_divergence_and_crosscheck():
    mesh, ss, vs = setup(level=4)
    eta = np.ones(ss.n_dofs)
    G = assemble_viscous(vs, eta)
    B = assemble_divergence(vs, ss)
    mask = vs.dirichlet_mask
    import scipy.sparse as sp

    keep = sp.csr_array(sp.diags_array((~mask).astype(float)))
    Bc = sp.csr_array(B @ keep)
    phi = np.tanh((mesh.vertices[:, 1] - 0.5) / 0.2)
    p = PhysParams(force=ForceSpec(kind="weighted", k0=(-5.0, -10.0)))
    f = assemble_rhs_K(vs, ss, np.zeros(ss.n_dofs), phi, p, 0.0)
    sys = Saddle(G=G, rhs_v=f, B=B, mask=mask, C=None)
    v1, p1 = sys.solve(1e-9, FactorizationCache(saddle_order(vs)))
    assert np.abs(Bc @ v1).max() <= 1e-9
    v2, p2 = schur_solve(sys, tol=1e-9)
    assert np.abs(v1 - v2).max() < 1e-8
    assert np.abs(p1 - p2).max() < 1e-8


def test_assembly_chunking_is_bitwise_stable(monkeypatch):
    # force the threaded path on a small mesh and compare against one chunk
    mesh, ss, vs = setup(level=4)
    rng = np.random.default_rng(13)
    eta = 0.5 + rng.uniform(0, 1, ss.n_dofs)
    rho = 0.5 + rng.uniform(0, 1, ss.n_dofs)
    v = rng.standard_normal(vs.n_dofs)
    A1 = assemble_viscous(vs, eta).toarray()
    N1 = assemble_Na(vs, rho, v).toarray()
    import phaseflow.fem as fem

    monkeypatch.setattr(fem, "assembly_threads", lambda: 4)
    monkeypatch.setattr(fem, "MIN_CHUNK", 1)
    A2 = assemble_viscous(vs, eta).toarray()
    N2 = assemble_Na(vs, rho, v).toarray()
    assert np.array_equal(A1, A2)
    assert np.array_equal(N1, N2)


def test_apply_velocity_dirichlet_matches_dense():
    rng = np.random.default_rng(4)
    n = 12
    dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
    dense[2, 2] = 0.0  # a constrained row without a stored diagonal
    dense[4, 6] = 0.0  # stored below as two duplicates
    mask = np.zeros(n, dtype=bool)
    mask[[0, 2, 7, 11]] = True
    import scipy.sparse as sp

    coo = sp.coo_array(dense)
    # a non-canonical CSR as unsummed assembly leaves it: descending columns
    # within each row, a duplicate pair and an explicit zero
    rows = np.concatenate([coo.row, [4, 4], [5]])
    cols = np.concatenate([coo.col, [6, 6], [3]])
    vals = np.concatenate([coo.data, [0.25, 0.25], [0.0]])
    order = np.lexsort((-cols, rows))
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))
    A = sp.csr_array((vals[order], cols[order], indptr), shape=(n, n))
    assert not A.has_canonical_format
    out = apply_velocity_dirichlet(A, mask)
    ref = dense.copy()
    ref[4, 6] = 0.5
    ref[mask, :] = 0.0
    ref[:, mask] = 0.0
    ref[mask, mask] = 1.0
    np.testing.assert_array_equal(out.toarray(), ref)
    assert out.has_sorted_indices and np.all(out.data != 0.0)


def assert_same_csr(a, b):
    """a and b store the same CSR arrays bit for bit."""
    assert a.shape == b.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_apply_velocity_dirichlet_is_idempotent():
    # a G its caller already constrained reaches the saddle matrix unchanged
    mesh, ss, vs = setup(level=4, bc="freeslip")
    once = apply_velocity_dirichlet(assemble_viscous(vs, 0.5 + mesh.vertices[:, 0]),
                                    vs.dirichlet_mask)
    assert_same_csr(apply_velocity_dirichlet(once, vs.dirichlet_mask), once)


def captured_systems(monkeypatch, level, elements, bc):
    """The saddle systems of two real momentum solves on the unit square (a
    layered phase under weighted gravity with a swirling old velocity),
    the (v, p) each momentum solve returned, and the pressure and velocity
    spaces."""
    import phaseflow.momentum as momentum

    seen = []
    solve = momentum.solve_saddle

    def record(*blocks, **kw):
        seen.append(Saddle(*blocks))
        return solve(*blocks, **kw)

    monkeypatch.setattr(momentum, "solve_saddle", record)
    degree = 2 if elements == "th" else 1
    mesh, ss, vs = setup(level=level, degree=degree, bc=bc)
    params = PhysParams(eta1=0.01, eta2=0.05, elements=elements, bc=bc,
                        force=ForceSpec(kind="weighted", k0=(0.0, -10.0)))
    x, y = mesh.vertices[:, 0], mesh.vertices[:, 1]
    phi_old = np.tanh((y - 0.5 - 0.05 * np.sin(2 * np.pi * x)) / 0.05)
    phi_new = np.tanh((y - 0.49 - 0.05 * np.sin(2 * np.pi * x)) / 0.05)
    mu = 3.0 * np.cos(np.pi * x) * phi_new
    swirl = interpolate_nodal(
        lambda p: np.column_stack([np.sin(np.pi * p[:, 0]) ** 2 * np.sin(2 * np.pi * p[:, 1]),
                                   -np.sin(2 * np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1]) ** 2]),
        vs)
    v_old = np.where(vs.dirichlet_mask, 0.0, swirl)
    solved = [momentum_solve(vs, ss, params, phi_old, phi_new, mu, v_old, tau=tau, t=0.0)
              for tau in (1e-3, 1e-2)]
    return seen, solved, ss, vs


PAIRS = [("th", "noslip"), ("th", "freeslip"), ("p1p1", "noslip")]


@pytest.mark.parametrize("elements,bc", PAIRS)
def test_pinned_direct_solve_matches_schur_level6(monkeypatch, elements, bc):
    systems, solved, ss, vs = captured_systems(monkeypatch, 6, elements, bc)
    for system, (v, p) in zip(systems, solved):
        v1, p1 = system.solve(1e-9, FactorizationCache(saddle_order(vs)))
        v2, p2 = schur_solve(system, tol=1e-9)
        assert p1[PIN] == 0.0 and p2[PIN] == 0.0
        assert np.abs(v1 - v2).max() <= 1e-9 * np.abs(v1).max()
        assert np.abs(p1 - p2).max() <= 1e-9 * np.abs(p1).max()
        # the momentum solve returns that solution with zero lumped pressure mean
        w = ss.lumped
        assert np.array_equal(v, v1)
        assert np.ptp(p - p1) <= 1e-12 * np.abs(p1).max()
        assert abs(w @ p) <= 1e-12 * (w @ np.abs(p))


@pytest.mark.parametrize("elements,bc", PAIRS)
def test_monolithic_matrix_equals_the_pinned_block_construction(monkeypatch, elements, bc):
    # one mask over the stacked matrix fixes exactly the entries the
    # block-by-block construction drops: Dirichlet columns of B, the pinned
    # row of B and the pinned row and column of C
    systems = captured_systems(monkeypatch, 4, elements, bc)[0]
    assert (systems[0].C is not None) == (elements == "p1p1")
    for system in systems:
        K, rhs = system.monolithic()
        assert_same_csr(K, pinned_monolithic(system))
        np.testing.assert_array_equal(rhs[:system.n_v], np.where(system.mask, 0.0, system.rhs_v))
        np.testing.assert_array_equal(rhs[system.n_v:], 0.0)


@pytest.mark.parametrize("bc", ["noslip", "freeslip"])
def test_divergence_annihilates_constant_pressures(bc):
    # B^T 1 = 0 is what makes the pinned pressure dof exact
    mesh, ss, vs = setup(level=6, bc=bc)
    B = assemble_divergence(vs, ss)
    colsum = np.abs(B.T @ np.ones(ss.n_dofs)).max()
    assert colsum <= 1e-13 * abs(B).sum(axis=1).max()
    C = assemble_stabilization(ss, 0.5 + mesh.vertices[:, 0])
    assert np.abs(C @ np.ones(ss.n_dofs)).max() <= 1e-13 * abs(C).sum(axis=1).max()


@pytest.mark.parametrize("elements,bc", PAIRS)
def test_monolithic_matrix_has_no_dense_row(monkeypatch, elements, bc):
    counts = {}
    for level in (4, 6):
        K, _ = captured_systems(monkeypatch, level, elements, bc)[0][0].monolithic()
        K = K.tocsr()
        counts[level] = (int(np.diff(K.indptr).max()), int(np.diff(K.tocsc().indptr).max()))
    assert counts[4] == counts[6]
