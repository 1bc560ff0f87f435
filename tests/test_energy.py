import numpy as np
import pytest

import phaseflow.fem as fem
from phaseflow.cahn_hilliard import DoubleWell, interfacial_energy
from phaseflow.coupling import Discretization
from phaseflow.energy import (
    kinetic_energy,
    step_inequality_check,
    total_energy,
)
from phaseflow.mesh import build_structured_mesh
from phaseflow.momentum import PhysParams

from oracles import interpolate_nodal


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
    dw = DoubleWell(sigma=1.0, delta=0.1)
    e1 = interfacial_energy(disc.sspace, np.tanh(x / 0.1), dw)
    e2 = interfacial_energy(disc.sspace, np.tanh(x / 0.2), dw)
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

