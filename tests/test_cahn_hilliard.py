import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaseflow import linalg
from phaseflow.cahn_hilliard import (
    ChReport,
    ch_diffusive_solve,
    engquist_osher_flux,
    face_normal_velocities,
    fe_convection_matrix,
    fv_transport_step,
    minmod_reconstruct,
    well,
    well_minus_prime,
    well_plus_prime,
    well_plus_second,
    well_prime,
)
from phaseflow.errors import CflError, SolverError
from phaseflow.fem import ScalarSpace, VelocitySpace, lumped_p1_weights
from phaseflow.linalg import FactorizationCache
from phaseflow.mesh import build_dual_grid, build_structured_mesh
from phaseflow.momentum import PhysParams

from oracles import (boundary_vertex_mask, dual_cell_volumes, dual_face_endpoints,
                     integrate_on_mesh, interfacial_energy, interpolate_nodal)

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


# ----------------------------------------------------------------- potential

def test_double_well_minima():
    for phi in (1.0, -1.0):
        assert well(phi) == 0.0 and well_prime(phi) == 0.0


def test_double_well_saddle():
    assert well(0.0) == 0.25 and well_plus_prime(0.0) == 0.0 and well_minus_prime(0.0) == 0.0


def test_double_well_at_two():
    assert well_plus_prime(2.0) == 8.0 and well_minus_prime(2.0) == -2.0
    assert well_prime(2.0) == 6.0


@given(finite)
def test_split_reconstructs_potential(phi):
    assert well_prime(phi) == well_plus_prime(phi) + well_minus_prime(phi)
    assert np.isclose(well(phi), (phi**4 + 1) / 4 - phi**2 / 2, rtol=1e-12, atol=1e-12)


@given(finite, finite)
def test_convex_part_monotone(a, b):
    lo, hi = min(a, b), max(a, b)
    assert well_plus_prime(hi) >= well_plus_prime(lo)
    assert well_plus_second(a) >= 0.0
    # concave part: second derivative is -1 everywhere


def test_double_well_rejects_bad_params():
    # the potential's sigma and delta are carried by PhysParams
    with pytest.raises(ValueError):
        PhysParams(sigma=0.0)
    with pytest.raises(ValueError):
        PhysParams(delta=-0.1)


# ----------------------------------------------------------------- face flux

def test_flux_upwind_selection():
    assert engquist_osher_flux(2.0, 1.0, -1.0, 0.5) == 1.0


def test_flux_zero_velocity():
    assert engquist_osher_flux(0.0, 3.0, -7.0, 1.0) == 0.0


def test_flux_consistency_value():
    assert engquist_osher_flux(-4.0, 0.3, 0.3, 0.25) == pytest.approx(-0.3)


@settings(max_examples=300)
@given(finite, finite, finite, st.floats(min_value=1e-3, max_value=10))
def test_flux_antisymmetry_exact(u, a, b, gamma):
    assert engquist_osher_flux(u, a, b, gamma) == -engquist_osher_flux(-u, b, a, gamma)


@settings(max_examples=200)
@given(finite, finite, st.floats(min_value=1e-3, max_value=10))
def test_flux_consistency_exact(u, phi, gamma):
    assert engquist_osher_flux(u, phi, phi, gamma) == gamma * (u * phi)


@settings(max_examples=200)
@given(finite, finite, finite, finite, st.floats(min_value=1e-3, max_value=10))
def test_flux_lipschitz(u, a1, a2, b, gamma):
    f1 = engquist_osher_flux(u, a1, b, gamma)
    f2 = engquist_osher_flux(u, a2, b, gamma)
    assert abs(f1 - f2) <= gamma * abs(u) * abs(a1 - a2) + 1e-12 * max(abs(f1), abs(f2), 1.0)


# ------------------------------------------------------------ reconstruction

def setup_dual(level=4, domain=(0, 1, 0, 1)):
    mesh = build_structured_mesh(domain, level)
    return mesh, build_dual_grid(mesh)


def test_reconstruct_constant():
    mesh, dual = setup_dual()
    phi = np.full(mesh.n_vertices, 0.7)
    tl, tr = minmod_reconstruct(phi, dual, mesh.vertices)
    np.testing.assert_allclose(tl, 0.7, atol=1e-14)
    np.testing.assert_allclose(tr, 0.7, atol=1e-14)


def test_reconstruct_linear_interior_exact():
    mesh, dual = setup_dual()
    lin = lambda p: 0.3 * p[:, 0] - 1.2 * p[:, 1]
    phi = lin(mesh.vertices)
    tl, tr = minmod_reconstruct(phi, dual, mesh.vertices)
    bmask = boundary_vertex_mask(mesh)
    interior_face = ~(bmask[dual.face_cells[:, 0]] | bmask[dual.face_cells[:, 1]])
    exact = lin(dual.face_midpoints)
    np.testing.assert_allclose(tl[interior_face], exact[interior_face], atol=1e-12)
    np.testing.assert_allclose(tr[interior_face], exact[interior_face], atol=1e-12)


def test_reconstruct_step_no_overshoot():
    mesh, dual = setup_dual(level=6)
    phi = np.where(mesh.vertices[:, 0] < 0.5, 1.0, -1.0)
    tl, tr = minmod_reconstruct(phi, dual, mesh.vertices)
    assert tl.max() <= 1.0 + 1e-14 and tl.min() >= -1.0 - 1e-14
    assert tr.max() <= 1.0 + 1e-14 and tr.min() >= -1.0 - 1e-14
    # traces stay between the adjacent cell values
    lo = np.minimum(phi[dual.face_cells[:, 0]], phi[dual.face_cells[:, 1]])
    hi = np.maximum(phi[dual.face_cells[:, 0]], phi[dual.face_cells[:, 1]])
    assert (tl >= lo - 1e-14).all() and (tl <= hi + 1e-14).all()
    assert (tr >= lo - 1e-14).all() and (tr <= hi + 1e-14).all()


# ------------------------------------------------------------------ transport

def stream_function_fluxes(mesh, dual, rng):
    """Exactly divergence-free face velocities: exact flux differences of a
    random smooth stream function vanishing on the boundary.  The per-cell
    flux sums telescope to zero, so the first-order update is a convex
    combination under the CFL bound."""
    x0, x1, y0, y1 = mesh.domain
    coef = rng.standard_normal(4)

    def psi(p):
        bubble = (p[:, 0] - x0) * (x1 - p[:, 0]) * (p[:, 1] - y0) * (y1 - p[:, 1])
        g = (coef[0] + coef[1] * p[:, 0] + coef[2] * p[:, 1]
             + coef[3] * np.sin(3.0 * p[:, 0] + 2.0 * p[:, 1]))
        return bubble * g

    ends = dual_face_endpoints(mesh, dual)
    e1, e2 = ends[:, 0], ends[:, 1]
    t = e2 - e1
    nu = dual.face_normals
    orient = np.where(nu[:, 0] * t[:, 1] - nu[:, 1] * t[:, 0] > 0, 1.0, -1.0)
    return orient * (psi(e2) - psi(e1)) / dual.face_measures


def test_transport_zero_velocity_identity():
    mesh, dual = setup_dual()
    vols = dual_cell_volumes(mesh)
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(mesh.n_vertices)
    u_n = np.zeros(len(dual.face_measures))
    out = fv_transport_step(phi, dual, 0.01, 1, u_n, mesh.vertices, vols)
    np.testing.assert_array_equal(out, phi)


def test_transport_constant_state_constant_velocity_interior():
    mesh, dual = setup_dual()
    vols = dual_cell_volumes(mesh)
    vs = VelocitySpace(mesh, degree=2, bc="freeslip")
    v = interpolate_nodal(lambda p: np.column_stack([np.full(len(p), 2.0), np.full(len(p), -1.0)]), vs)
    u_n = face_normal_velocities(v, vs, dual)
    phi = np.full(mesh.n_vertices, 0.4)
    tau = 1e-3
    out = fv_transport_step(phi, dual, tau, 1, u_n, mesh.vertices, vols)
    interior = ~boundary_vertex_mask(mesh)
    np.testing.assert_allclose(out[interior], 0.4, atol=1e-13)


def test_transport_conserves_mass():
    mesh, dual = setup_dual(level=6)
    vols = dual_cell_volumes(mesh)
    rng = np.random.default_rng(5)
    phi = rng.uniform(-1, 1, mesh.n_vertices)
    u_n = stream_function_fluxes(mesh, dual, rng)
    tau = 0.4 * (vols.min() / (np.abs(u_n) * dual.face_measures).max())
    for order in (1, 2):
        out = fv_transport_step(phi, dual, tau, order, u_n, verts=mesh.vertices,
                                cell_measures=vols)
        m0 = vols @ phi
        m1 = vols @ out
        assert abs(m1 - m0) <= 1e-13 * np.abs(phi).max() * vols.sum()


def cfl_timestep(dual, vols, u_n, limit=0.85):
    degree = np.bincount(dual.face_cells.ravel(), minlength=len(vols))
    share = np.minimum(vols[dual.face_cells[:, 0]] / degree[dual.face_cells[:, 0]],
                       vols[dual.face_cells[:, 1]] / degree[dual.face_cells[:, 1]])
    return limit * (share / np.maximum(np.abs(u_n) * dual.face_measures, 1e-300)).min()


def test_transport_order1_maximum_principle():
    mesh, dual = setup_dual(level=6)
    vols = dual_cell_volumes(mesh)
    rng = np.random.default_rng(42)
    for _ in range(20):
        phi = rng.uniform(-2, 2, mesh.n_vertices)
        u_n = stream_function_fluxes(mesh, dual, rng)
        tau = cfl_timestep(dual, vols, u_n)
        out = fv_transport_step(phi, dual, tau, 1, u_n, mesh.vertices, vols)
        assert out.min() >= phi.min() - 1e-12
        assert out.max() <= phi.max() + 1e-12


def test_transport_cfl_violation_raises():
    mesh, dual = setup_dual()
    vols = dual_cell_volumes(mesh)
    phi = np.zeros(mesh.n_vertices)
    u_n = np.ones(len(dual.face_measures))
    with pytest.raises(CflError):
        fv_transport_step(phi, dual, 1e3, 1, u_n, mesh.vertices, vols)


def test_transport_second_order_beats_first_on_rotation():
    mesh = build_structured_mesh((-1, 1, -1, 1), 8)
    dual = build_dual_grid(mesh)
    vols = dual_cell_volumes(mesh)
    vs = VelocitySpace(mesh, degree=2, bc="freeslip")
    v = interpolate_nodal(lambda p: np.column_stack([-p[:, 1], p[:, 0]]), vs)
    u_n = face_normal_velocities(v, vs, dual)
    bump = lambda p: np.exp(-20.0 * ((p[:, 0] - 0.3) ** 2 + p[:, 1] ** 2))
    phi0 = bump(mesh.vertices)
    T = 2.0 * np.pi
    tau = cfl_timestep(dual, vols, u_n, limit=0.8)
    steps = int(np.ceil(T / tau))
    tau = T / steps
    errs = {}
    for order in (1, 2):
        phi = phi0.copy()
        for _ in range(steps):
            phi = fv_transport_step(phi, dual, tau, order, u_n, verts=mesh.vertices,
                                    cell_measures=vols)
        w = lumped_p1_weights(mesh)
        errs[order] = np.sqrt(w @ (phi - phi0) ** 2)
    assert errs[2] < errs[1]


# ----------------------------------------------------------- diffusive solve

def defaults(phi_old):
    """The Newton settings of a standalone diffusive solve: the run's
    default tolerance, no convection, a start at (phi_old, 0), a fresh
    cache."""
    return dict(newton_tol=1e-12, conv_matrix=None, phi_guess=phi_old,
                mu_guess=np.zeros_like(phi_old), lin_cache=FactorizationCache(None))


def test_diffusive_pure_phase_stationary():
    mesh = build_structured_mesh((0, 1, 0, 1), 4)
    space = ScalarSpace(mesh)
    one = np.ones(space.n_dofs)
    params = PhysParams(sigma=1.0, delta=0.1, mobility=0.1)
    phi, mu, rep = ch_diffusive_solve(one, one, tau=1e-2, params=params, space=space,
                                      **defaults(one))
    np.testing.assert_allclose(phi, 1.0, atol=1e-11)
    np.testing.assert_allclose(mu, 0.0, atol=1e-10)


def test_diffusive_zero_mobility_keeps_source():
    mesh = build_structured_mesh((0, 1, 0, 1), 4)
    space = ScalarSpace(mesh)
    rng = np.random.default_rng(1)
    src = np.clip(rng.normal(0, 0.5, space.n_dofs), -1, 1)
    old = np.zeros(space.n_dofs)
    params = PhysParams(sigma=1.0, delta=1.0, mobility=0.0)
    phi, mu, _ = ch_diffusive_solve(src, old, tau=1e-2, params=params, space=space,
                                    **defaults(old))
    np.testing.assert_allclose(phi, src, atol=1e-11)


def test_diffusive_nan_source_raises():
    # a NaN residual fails every comparison, so it must not read as converged
    mesh = build_structured_mesh((0, 1, 0, 1), 4)
    space = ScalarSpace(mesh)
    src = np.zeros(space.n_dofs)
    src[5] = np.nan
    with pytest.raises(SolverError):
        ch_diffusive_solve(src, np.zeros(space.n_dofs), tau=1e-2,
                           params=PhysParams(sigma=1.0, delta=1.0, mobility=0.1),
                           space=space, **defaults(np.zeros(space.n_dofs)))


def test_diffusive_interfacial_energy_decreases():
    mesh = build_structured_mesh((0, 1, 0, 1), 6)
    space = ScalarSpace(mesh)
    params = PhysParams(sigma=1.0, delta=1.0, mobility=0.1)
    phi0 = np.tanh((mesh.vertices[:, 0] - 0.5) / (np.sqrt(2.0) * 0.15))
    e0 = interfacial_energy(space, phi0, params)
    phi1, _, _ = ch_diffusive_solve(phi0, phi0, tau=1e-3, params=params, space=space,
                                    **defaults(phi0))
    e1 = interfacial_energy(space, phi1, params)
    assert e1 <= e0 + 1e-12
    assert e1 < e0  # strictly dissipative away from equilibrium


def test_diffusive_conserves_mass():
    mesh = build_structured_mesh((0, 1, 0, 1), 6)
    space = ScalarSpace(mesh)
    params = PhysParams(sigma=1.0, delta=0.2, mobility=0.5)
    phi0 = np.tanh((mesh.vertices[:, 0] - 0.4) / (np.sqrt(2.0) * 0.2))
    phi1, _, rep = ch_diffusive_solve(phi0, phi0, tau=5e-3, params=params, space=space,
                                      **defaults(phi0))
    assert abs(space.lumped @ phi1 - space.lumped @ phi0) < 1e-11
    # a returned solve reached newton_tol; one that did not raised SolverError
    assert isinstance(rep, ChReport) and rep.newton_iterations >= 1


def test_diffusive_krylov_solves_are_all_newton_solves(monkeypatch):
    # every BiCGstab under the solve is the phase cache's preconditioned
    # Newton correction on the 2n x 2n (phi, mu) system; none is on the
    # n x n mass matrix
    mesh = build_structured_mesh((0, 1, 0, 1), 6)
    space = ScalarSpace(mesh)
    params = PhysParams(sigma=1.0, delta=0.2, mobility=0.5)
    phi0 = np.tanh((mesh.vertices[:, 0] - 0.4) / (np.sqrt(2.0) * 0.2))
    shapes = []
    solve = linalg.bicgstab

    def recording(A, b, tol, maxit, M, x0):
        shapes.append(A.shape)
        return solve(A, b, tol, maxit, M, x0)

    monkeypatch.setattr(linalg, "bicgstab", recording)
    _, _, rep = ch_diffusive_solve(phi0, phi0, tau=5e-3, params=params, space=space,
                                   **defaults(phi0))
    n = space.n_dofs
    assert rep.newton_iterations >= 2 and shapes  # a warm cache runs BiCGstab
    assert shapes == [(2 * n, 2 * n)] * len(shapes)


def test_diffusive_solve_started_at_its_solution_takes_no_newton_step():
    mesh = build_structured_mesh((0, 1, 0, 1), 6)
    space = ScalarSpace(mesh)
    params = PhysParams(sigma=1.0, delta=0.2, mobility=0.5)
    phi0 = np.tanh((mesh.vertices[:, 0] - 0.4) / (np.sqrt(2.0) * 0.2))
    phi1, mu1, _ = ch_diffusive_solve(phi0, phi0, tau=5e-3, params=params, space=space,
                                      **defaults(phi0))
    start = dict(defaults(phi0), phi_guess=phi1, mu_guess=mu1)
    phi2, mu2, rep = ch_diffusive_solve(phi0, phi0, tau=5e-3, params=params, space=space,
                                        **start)
    assert rep.newton_iterations == 0
    np.testing.assert_array_equal(phi2, phi1)
    np.testing.assert_array_equal(mu2, mu1)


# ---------------------------------------------------------------- convection

def test_convection_zero_velocity():
    mesh = build_structured_mesh((0, 1, 0, 1), 4)
    space = ScalarSpace(mesh)
    vs = VelocitySpace(mesh, degree=2, bc="noslip")
    v = np.zeros(vs.n_dofs)
    phi = np.random.default_rng(2).standard_normal(space.n_dofs)
    out = fe_convection_matrix(space, v, vs) @ phi
    np.testing.assert_allclose(out, 0.0, atol=1e-15)


def test_convection_constant_phase():
    mesh = build_structured_mesh((0, 1, 0, 1), 4)
    space = ScalarSpace(mesh)
    vs = VelocitySpace(mesh, degree=2, bc="noslip")
    v = interpolate_nodal(lambda p: np.column_stack([p[:, 1] ** 2, p[:, 0]]), vs)
    out = fe_convection_matrix(space, v, vs) @ np.full(space.n_dofs, 2.5)
    np.testing.assert_allclose(out, 0.0, atol=1e-13)


def test_convection_partition_of_unity_total():
    mesh = build_structured_mesh((0, 1, 0, 1), 4)
    space = ScalarSpace(mesh)
    vs = VelocitySpace(mesh, degree=2, bc="noslip")
    vf = lambda p: np.column_stack([1.0 + p[:, 1] ** 2, p[:, 0] - 0.3])
    v = interpolate_nodal(vf, vs)
    phi = mesh.vertices[:, 0] * 2.0 - mesh.vertices[:, 1]
    out = fe_convection_matrix(space, v, vs) @ phi
    # sum over all P1 tests = int <v, grad phi>, grad phi = (2, -1)
    oracle = integrate_on_mesh(lambda p: 2.0 * (1.0 + p[:, 1] ** 2) - (p[:, 0] - 0.3), mesh)
    assert out.sum() == pytest.approx(oracle, rel=1e-12)
