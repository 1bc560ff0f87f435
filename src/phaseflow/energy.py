"""The step-by-step stability audit of the discrete energy inequality.

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
The audit is the package's only evaluation of an energy: the old level's
energy, which scales the pass threshold, and the new level's, which the run
records, are formed from the same products as the inequality's terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cahn_hilliard import well
from .fem import ScalarSpace, VelocitySpace
from .momentum import PhysParams, assemble_external_force, assemble_viscous, \
    density_from_phase, viscosity_from_phase


@dataclass(frozen=True)
class EnergyBreakdown:
    e_kin: float
    e_int: float
    d_visc: float
    d_mob: float
    w_ext: float

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
    K, c = sspace.stiffness, sspace.lumped
    n = vspace.n_nodes

    rho_old = density_from_phase(phi_old, params)
    rho_new = density_from_phase(phi_new, params)
    d_old = vspace.lumping @ rho_old
    d_new = vspace.lumping @ rho_new

    def kin(diag, vec):
        return float(diag @ (vec[:n] ** 2 + vec[n:] ** 2))

    k_old, k_new = kin(d_old, v_old), kin(d_new, v_new)
    dv = v_new - v_old
    kin_terms = (k_new - k_old + kin(d_old, dv)) / (2.0 * tau)

    sig, dlt = params.sigma, params.delta
    g_new = float(phi_new @ (K @ phi_new))
    g_old = float(phi_old @ (K @ phi_old))
    dphi = phi_new - phi_old
    g_diff = float(dphi @ (K @ dphi))
    grad_terms = sig * dlt * (g_new - g_old + g_diff) / (2.0 * tau)

    f_old, f_new = well(phi_old), well(phi_new)
    well_terms = (sig / dlt) * float(c @ (f_new - f_old)) / tau

    def e_int(g, f):
        return sig * (0.5 * dlt * g + float(c @ f) / dlt)

    d_mob = params.mobility * float(mu_new @ (K @ mu_new))
    A = assemble_viscous(vspace, viscosity_from_phase(phi_old, params)) \
        if viscous is None else viscous
    d_visc = float(v_new @ (A @ v_new))

    f_ext = assemble_external_force(vspace, sspace, phi_new, params, t_old)
    w_ext = float(f_ext @ v_new)

    lhs = kin_terms + grad_terms + well_terms + d_mob + d_visc
    rhs = w_ext
    e_old = 0.5 * k_old + e_int(g_old, f_old)
    tolerance = tol * (1.0 + abs(rhs) + e_old / tau)
    report = InequalityReport(lhs=lhs, rhs=rhs, residual=lhs - rhs, tolerance=tolerance)
    breakdown = EnergyBreakdown(e_kin=0.5 * k_new, e_int=e_int(g_new, f_new),
                                d_visc=d_visc, d_mob=d_mob, w_ext=w_ext)
    return report, breakdown
