import numpy as np
import pytest

from phaseflow.coupling import (Discretization, SplitTolerances, initial_state,
                                splitting_step)
from phaseflow.energy import step_inequality_check
from phaseflow.mesh import build_structured_mesh
from phaseflow.momentum import PhysParams

from oracles import total_energy
from projection_oracle import l2_project, projection_reference_step


def ellipse_phi0(p):
    d = 1.0 - np.sqrt((p[:, 0] / 0.87) ** 2 + (p[:, 1] / 0.29) ** 2)
    return np.tanh(d / (np.sqrt(2.0) * 0.1))


def make(level=4):
    params = PhysParams(rho1=0.001, rho2=0.019, eta1=0.01, eta2=0.01,
                        sigma=1.0, delta=0.1, mobility=0.5)
    mesh = build_structured_mesh((-1, 1, -1, 1), level)
    disc = Discretization(mesh, params)
    return disc, params


def test_l2_project_reproduces_p1():
    disc, _ = make()
    target = 1.5 * disc.mesh.vertices[:, 0] - disc.mesh.vertices[:, 1] + 0.3
    got = l2_project(disc, lambda p: 1.5 * p[:, 0] - p[:, 1] + 0.3)
    np.testing.assert_allclose(got, target, atol=1e-12)


def test_l2_project_constant():
    disc, _ = make()
    got = l2_project(disc, lambda p: np.full(len(p), 0.75))
    np.testing.assert_allclose(got, 0.75, atol=1e-13)


def test_l2_project_moment_property():
    disc, _ = make()
    f = lambda p: p[:, 0] ** 2
    x = l2_project(disc, f)
    # int (P f) psi_l = int f psi_l for every P1 basis function
    from oracles import integrate_on_mesh
    from oracles import p1_interpolant

    interp = p1_interpolant(disc.mesh, x)
    for l in [0, 7, disc.mesh.n_vertices // 2]:
        hat = np.zeros(disc.mesh.n_vertices)
        hat[l] = 1.0
        hat_f = p1_interpolant(disc.mesh, hat)
        lhs = integrate_on_mesh(lambda p: interp(p) * hat_f(p), disc.mesh)
        rhs = integrate_on_mesh(lambda p: f(p) * hat_f(p), disc.mesh)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def test_reference_step_quiescent_fixed_point():
    disc, params = make()
    state = initial_state(disc, params, lambda p: np.ones(len(p)))
    new = projection_reference_step(state, 1e-3, params)
    np.testing.assert_allclose(new.phi, state.phi, atol=1e-10)
    np.testing.assert_allclose(new.v, 0.0, atol=1e-10)


def test_reference_step_satisfies_energy_inequality():
    disc, params = make()
    state = initial_state(disc, params, ellipse_phi0)
    tau = 5e-4
    new = projection_reference_step(state, tau, params)
    report, _ = step_inequality_check(disc.sspace, disc.vspace, params,
                                      state.phi, state.v, new.phi, new.mu, new.v,
                                      tau, state.t, tol=1e-8)
    assert report.passed
    e0 = total_energy(disc.sspace, disc.vspace, state.phi, state.v, params).e_total
    e1 = total_energy(disc.sspace, disc.vspace, new.phi, new.v, params).e_total
    assert e1 <= e0


def test_reference_matches_production_stepper():
    # algebraic equivalence of the two formulations at the coupled fixed point
    disc, params = make()
    state = initial_state(disc, params, ellipse_phi0)
    tau = 5e-4
    tols = SplitTolerances(eps_v=1e-10, eps_phi=1e-10, max_inner=400)
    ref = projection_reference_step(state, tau, params, tols=tols, newton_tol=1e-13)
    prod, _ = splitting_step(state, tau, params, tols, convection="fe", newton_tol=1e-13)
    for f in ("phi", "mu", "v", "p"):
        assert np.abs(getattr(ref, f) - getattr(prod, f)).max() < 1e-8, f
