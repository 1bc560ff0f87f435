from dataclasses import replace

import numpy as np
import pytest

import phaseflow.fem as fem
from phaseflow.app import preset, run_config
from phaseflow.coupling import Discretization, run
from phaseflow.energy import step_inequality_check
from phaseflow.mesh import build_structured_mesh
from phaseflow.momentum import PhysParams

from oracles import interfacial_energy, interpolate_nodal, kinetic_energy, total_energy


def make_disc(level=4, domain=(-1, 1, -1, 1), **kw):
    params = PhysParams(**kw)
    mesh = build_structured_mesh(domain, level)
    return Discretization(mesh, params), params


def test_total_energy_pure_phase_at_rest():
    disc, params = make_disc(sigma=1.0, delta=1.0)
    phi = np.ones(disc.sspace.n_dofs)
    v = np.zeros(disc.vspace.n_dofs)
    e = total_energy(disc.sspace, disc.vspace, phi, v, params)
    assert e.e_total == pytest.approx(0.0, abs=1e-14)


def test_total_energy_mixed_state_well_value():
    disc, params = make_disc(sigma=1.0, delta=1.0)
    phi = np.zeros(disc.sspace.n_dofs)
    v = np.zeros(disc.vspace.n_dofs)
    e = total_energy(disc.sspace, disc.vspace, phi, v, params)
    # F(0) = 1/4 over area 4
    assert e.e_int == pytest.approx(1.0, rel=1e-13)
    assert e.e_kin == 0.0


def test_kinetic_energy_constant_velocity():
    disc, params = make_disc(rho1=0.01, rho2=0.01)
    phi = np.zeros(disc.sspace.n_dofs)
    v = interpolate_nodal(lambda p: np.column_stack([np.ones(len(p)), np.zeros(len(p))]),
                          disc.vspace)
    # 0.5 * 0.01 * |v|^2 * area(4)
    assert kinetic_energy(disc.vspace, phi, v, params) == pytest.approx(0.02, rel=1e-13)


def test_inequality_stationary_pure_phase():
    disc, params = make_disc(sigma=1.0, delta=0.1)
    phi = np.ones(disc.sspace.n_dofs)
    v = np.zeros(disc.vspace.n_dofs)
    mu = np.zeros(disc.sspace.n_dofs)
    report, bd = step_inequality_check(disc.sspace, disc.vspace, params,
                                       phi, v, phi, mu, v, tau=1e-3, t_old=0.0, tol=1e-8)
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.passed
    assert bd.d_visc == 0.0 and bd.d_mob == 0.0


@pytest.fixture
def stiffness_calls(monkeypatch):
    calls = []
    assemble_stiffness = fem.assemble_stiffness

    def counted(space):
        calls.append(space)
        return assemble_stiffness(space)

    monkeypatch.setattr(fem, "assemble_stiffness", counted)
    return calls


def test_interfacial_energy_assembles_the_stiffness_once(stiffness_calls):
    disc, params = make_disc(sigma=1.0, delta=0.1)
    x = disc.mesh.vertices[:, 0]
    e1 = interfacial_energy(disc.sspace, np.tanh(x / 0.1), params)
    e2 = interfacial_energy(disc.sspace, np.tanh(x / 0.2), params)
    assert e1 != e2
    assert len(stiffness_calls) == 1 and stiffness_calls[0] is disc.sspace


def test_audit_uses_the_space_operators(stiffness_calls):
    disc, params = make_disc(sigma=1.0, delta=0.1)
    x = disc.mesh.vertices[:, 0]
    phi_old, phi_new = np.tanh(x / 0.1), np.tanh((x - 0.01) / 0.1)
    v = np.zeros(disc.vspace.n_dofs)
    mu = np.cos(x)
    for tau in (1e-3, 1e-2):
        step_inequality_check(disc.sspace, disc.vspace, params, phi_old, v, phi_new, mu, v,
                              tau=tau, t_old=0.0, tol=1e-8)
    assert len(stiffness_calls) == 1 and stiffness_calls[0] is disc.sspace
    assert disc.lumped is disc.sspace.lumped


@pytest.mark.parametrize("elements,convection", [("th", "fe"), ("p1p1", "fv")])
def test_audit_energies_equal_the_oracle_bitwise(elements, convection):
    cfg = preset("ellipse")
    cfg.discretization_level = 4
    cfg.discretization_elements = elements
    cfg.discretization_convection = convection
    states = []
    hook = lambda state, step_index: step_index >= 0 and states.append(state)
    rc = replace(run_config(cfg), max_steps=3, snapshot_every=1, snapshot_hook=hook)
    out = run(rc)
    assert len(out.records) == 3
    for r, old, new in zip(out.records, states, states[1:]):
        ss, vs = old.disc.sspace, old.disc.vspace
        e_old = total_energy(ss, vs, old.phi, old.v, rc.params)
        e_new = total_energy(ss, vs, new.phi, new.v, rc.params)
        e = r.energy
        assert (e.e_kin, e.e_int, e.e_total) == (e_new.e_kin, e_new.e_int, e_new.e_total)
        assert r.report.tolerance == rc.audit_tol * (
            1.0 + abs(r.report.rhs) + e_old.e_total / r.tau)
    # the later steps start from a moving fluid
    assert states[1].v.any()
