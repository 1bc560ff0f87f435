import numpy as np
import pytest

import phaseflow.fem as fem
from phaseflow.cahn_hilliard import DoubleWell, interfacial_energy
from phaseflow.coupling import Discretization
from phaseflow.energy import (
    EnergyBreakdown,
    global_energy_ledger,
    kinetic_energy,
    step_inequality_check,
    total_energy,
)
from phaseflow.fem import interpolate_nodal
from phaseflow.mesh import build_structured_mesh
from phaseflow.momentum import PhysParams


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
                                       phi, v, phi, mu, v, tau=1e-3, t_old=0.0)
    assert report.lhs == 0.0 and report.rhs == 0.0 and report.passed
    assert bd.d_visc == 0.0 and bd.d_mob == 0.0


@pytest.fixture
def stiffness_calls(monkeypatch):
    calls = []
    assemble_stiffness = fem.assemble_stiffness

    def counted(space, coeff):
        calls.append(coeff)
        return assemble_stiffness(space, coeff)

    monkeypatch.setattr(fem, "assemble_stiffness", counted)
    return calls


def test_interfacial_energy_assembles_the_stiffness_once(stiffness_calls):
    disc, params = make_disc(sigma=1.0, delta=0.1)
    x = disc.mesh.vertices[:, 0]
    dw = DoubleWell(sigma=1.0, delta=0.1)
    e1 = interfacial_energy(disc.sspace, np.tanh(x / 0.1), dw)
    e2 = interfacial_energy(disc.sspace, np.tanh(x / 0.2), dw)
    assert e1 != e2
    assert stiffness_calls == [1.0]


def test_audit_uses_the_space_operators(stiffness_calls):
    disc, params = make_disc(sigma=1.0, delta=0.1)
    x = disc.mesh.vertices[:, 0]
    phi_old, phi_new = np.tanh(x / 0.1), np.tanh((x - 0.01) / 0.1)
    v = np.zeros(disc.vspace.n_dofs)
    mu = np.cos(x)
    for tau in (1e-3, 1e-2):
        step_inequality_check(disc.sspace, disc.vspace, params, phi_old, v, phi_new, mu, v,
                              tau=tau, t_old=0.0)
    assert stiffness_calls == [1.0]
    assert disc.lumped is disc.sspace.lumped


def test_ledger_single_step_matches_inequality():
    bd = EnergyBreakdown(e_kin=1.0, e_int=2.0, d_visc=0.5, d_mob=0.1,
                         w_ext=0.0, numdiss_v=0.05, numdiss_phi=0.02)
    # E drops by more than the dissipation charges: inequality holds
    ok, worst = global_energy_ledger([3.2, 3.0], [1e-2], [bd])
    assert ok and worst <= 0.0
    # E grows without work: must fail
    ok2, worst2 = global_energy_ledger([3.0, 3.2], [1e-2], [bd])
    assert not ok2 and worst2 > 0.0


def test_ledger_allows_energy_growth_under_work():
    bd = EnergyBreakdown(e_kin=1.0, e_int=2.0, d_visc=0.0, d_mob=0.0,
                         w_ext=50.0, numdiss_v=0.0, numdiss_phi=0.0)
    ok, _ = global_energy_ledger([3.0, 3.2], [1e-2], [bd])
    assert ok


def test_ledger_checks_all_pairs():
    # step 1 dissipates a lot, step 2 grows: pairwise (1, 2) must fail even
    # though (0, 2) passes
    bd0 = EnergyBreakdown(e_kin=0, e_int=0, d_visc=100.0, w_ext=0.0)
    bd1 = EnergyBreakdown(e_kin=0, e_int=0, d_visc=0.0, w_ext=0.0)
    ok, _ = global_energy_ledger([10.0, 5.0, 6.0], [1e-2, 1e-2], [bd0, bd1])
    assert not ok
