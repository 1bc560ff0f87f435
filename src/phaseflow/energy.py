"""Discrete energy bookkeeping and the step-by-step stability audit.

The audited inequality bounds the change of total energy (lumped kinetic plus
interfacial) by the work of external forces, with the viscous and mobility
dissipation and two numerical-dissipation terms on the paying side.  For the
monolithic converged mode on a fixed mesh it holds to solver precision; for
the splitting with finite-volume transport it is monitored, not guaranteed.
All terms are assembled with exactly the operators the solvers use, so the
audit checks the algebraic identity rather than a re-discretization of it:
the stiffness matrix and lumped weights are the ones the scalar space owns,
which the Cahn-Hilliard solve reads too, and the lumped velocity mass comes
from the velocity space's ``lumping``, which the momentum solve reads too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cahn_hilliard import DoubleWell, interfacial_energy
from .fem import ScalarSpace, VelocitySpace
from .momentum import PhysParams, assemble_external_force, assemble_viscous, \
    density_from_phase, viscosity_from_phase


@dataclass(frozen=True)
class EnergyBreakdown:
    e_kin: float
    e_int: float
    d_visc: float = 0.0
    d_mob: float = 0.0
    w_ext: float = 0.0
    numdiss_v: float = 0.0
    numdiss_phi: float = 0.0

    @property
    def e_total(self) -> float:
        return self.e_kin + self.e_int


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def kinetic_energy(vspace: VelocitySpace, phi: np.ndarray, v: np.ndarray,
                   params: PhysParams) -> float:
    """Half the density-weighted lumped velocity square, the discrete kinetic
    energy the stability estimate controls."""
    rho = density_from_phase(phi, params)
    d = vspace.lumping @ rho
    n = vspace.n_nodes
    return 0.5 * float(d @ (v[:n] ** 2 + v[n:] ** 2))


def total_energy(sspace: ScalarSpace, vspace: VelocitySpace, phi: np.ndarray,
                 v: np.ndarray, params: PhysParams) -> EnergyBreakdown:
    dw = DoubleWell(sigma=params.sigma, delta=params.delta)
    e_int = interfacial_energy(sspace, phi, dw)
    return EnergyBreakdown(e_kin=kinetic_energy(vspace, phi, v, params), e_int=e_int)


def step_inequality_check(sspace: ScalarSpace, vspace: VelocitySpace, params: PhysParams,
                          phi_old: np.ndarray, v_old: np.ndarray,
                          phi_new: np.ndarray, mu_new: np.ndarray, v_new: np.ndarray,
                          tau: float, t_old: float, tol: float,
                          viscous=None) -> tuple[InequalityReport, EnergyBreakdown]:
    """Audit one accepted step against the discrete energy inequality.

    Returns the report and the step's energy breakdown (new-state energies
    with the step's dissipation and work terms attached).  The pass threshold
    scales with 1 + |rhs| + E_old / tau because the inequality's terms carry
    a 1/tau factor, so cancellation noise grows at that scale for small
    increments.  The stiffness matrix and lumped weights are those of
    ``sspace``, the operators the phase-field solve used.  ``viscous`` is the
    viscous matrix of ``phi_old`` when the stepper already assembled it; by
    default it is assembled here.
    """
    dw = DoubleWell(sigma=params.sigma, delta=params.delta)
    K, c = sspace.stiffness, sspace.lumped
    n = vspace.n_nodes

    rho_old = density_from_phase(phi_old, params)
    rho_new = density_from_phase(phi_new, params)
    d_old = vspace.lumping @ rho_old
    d_new = vspace.lumping @ rho_new

    def kin(diag, vec):
        return float(diag @ (vec[:n] ** 2 + vec[n:] ** 2))

    dv = v_new - v_old
    kin_terms = (kin(d_new, v_new) - kin(d_old, v_old) + kin(d_old, dv)) / (2.0 * tau)
    numdiss_v = 0.5 * kin(d_old, dv)

    sig, dlt = params.sigma, params.delta
    g_new = float(phi_new @ (K @ phi_new))
    g_old = float(phi_old @ (K @ phi_old))
    dphi = phi_new - phi_old
    g_diff = float(dphi @ (K @ dphi))
    grad_terms = sig * dlt * (g_new - g_old + g_diff) / (2.0 * tau)
    numdiss_phi = 0.5 * sig * dlt * g_diff

    well_terms = (sig / dlt) * float(c @ (dw.f(phi_new) - dw.f(phi_old))) / tau

    d_mob = params.mobility * float(mu_new @ (K @ mu_new))
    A = assemble_viscous(vspace, viscosity_from_phase(phi_old, params)) \
        if viscous is None else viscous
    d_visc = float(v_new @ (A @ v_new))

    f_ext = assemble_external_force(vspace, sspace, phi_new, params, t_old)
    w_ext = float(f_ext @ v_new)

    lhs = kin_terms + grad_terms + well_terms + d_mob + d_visc
    rhs = w_ext
    e_old = total_energy(sspace, vspace, phi_old, v_old, params)
    tolerance = tol * (1.0 + abs(rhs) + e_old.e_total / tau)
    report = InequalityReport(lhs=lhs, rhs=rhs, residual=lhs - rhs, tolerance=tolerance)

    e_new = total_energy(sspace, vspace, phi_new, v_new, params)
    breakdown = EnergyBreakdown(e_kin=e_new.e_kin, e_int=e_new.e_int,
                                d_visc=d_visc, d_mob=d_mob, w_ext=w_ext,
                                numdiss_v=numdiss_v, numdiss_phi=numdiss_phi)
    return report, breakdown

