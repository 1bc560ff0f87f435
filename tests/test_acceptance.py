"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria cover the energy-stability audit with its negative control (A1),
mass conservation in both convection modes (A2), the equivalence of the
projection-based and production formulations (A3), the convergence study
(A4), flux and transport properties (A5), exact skew symmetry of the
convective operators (A6), the divergence constraint and hydrostatic balance
(A7), the model-variant switch (A8), the time-increment rule (A9), and the
qualitative scenario demos (A10).
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import replace

from phaseflow.app import initial_phase, phys_params, preset, run_config, run_eoc
from phaseflow.cahn_hilliard import engquist_osher_flux, fv_transport_step
from phaseflow.coupling import (
    Discretization,
    SplitTolerances,
    TimestepConfig,
    compute_timestep,
    initial_state,
    run,
    splitting_step,
)
from phaseflow.energy import step_inequality_check
from phaseflow.errors import CflError
from phaseflow.mesh import build_dual_grid, build_structured_mesh
from phaseflow.momentum import (
    ForceSpec,
    PhysParams,
    assemble_Na,
    assemble_Nb,
    assemble_external_force,
    compute_flux_j,
)

from oracles import (boundary_vertex_mask, dual_cell_volumes, dual_face_endpoints,
                     interpolate_nodal, total_energy)
from projection_oracle import ProjectionWorkspace, projection_reference_step


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{criterion}] {status} {detail}".rstrip())
    assert ok, f"{criterion} failed: {detail}"


def ellipse_cfg(level, convection, elements="th", eps=1e-6, max_inner=50):
    cfg = preset("ellipse")
    cfg.discretization_level = level
    cfg.discretization_convection = convection
    cfg.discretization_elements = elements
    cfg.solver_eps_v = eps
    cfg.solver_eps_phi = eps
    cfg.solver_max_inner = max_inner
    cfg.scenario_tmax = 10.0  # step budget, not the horizon, ends the runs
    return cfg


def run_with_states(rc):
    """``run(rc)``'s result with ``states``, every accepted time level from
    the initial one on, as the snapshot hook sees them."""
    states = []
    hook = lambda state, step_index: step_index >= 0 and states.append(state)
    out = run(replace(rc, snapshot_every=1, snapshot_hook=hook))
    return SimpleNamespace(**vars(out), states=states)


@pytest.fixture(scope="module")
def ellipse_fe_run():
    cfg = ellipse_cfg(6, "fe", eps=1e-11, max_inner=300)
    rc = replace(run_config(cfg), max_steps=50, audit_tol=1e-8)
    return run_with_states(rc)


@pytest.fixture(scope="module")
def ellipse_fv_run():
    cfg = ellipse_cfg(6, "fv", eps=1e-8, max_inner=100)
    rc = replace(run_config(cfg), max_steps=50)
    return run_with_states(rc)


# --------------------------------------------------------------------- A1

def test_a1_energy_inequality_and_negative_control(ellipse_fe_run):
    out = ellipse_fe_run
    all_pass = all(r.report.passed for r in out.records)
    energies = [r.energy.e_total for r in out.records]
    monotone = all(energies[k + 1] <= energies[k] + 1e-14 for k in range(len(energies) - 1))
    worst = max(r.report.residual for r in out.records)

    report("A1 (inequality + monotonicity)",
           len(out.records) == 50 and all_pass and monotone,
           f"50 monolithic steps, worst residual {worst:.2e}")


def test_a1_negative_control(ellipse_fe_run):
    """A velocity corruption that provably breaks the inequality is flagged.

    The audited left-hand side is

        lhs = (E_new - E_old)/tau + (numdiss_v + numdiss_phi)/tau + D_visc + D_mob

    and all four extra terms are nonnegative: the lumped mass diagonals are
    positive and the stiffness and viscous matrices are positive
    semidefinite.  Hence every audit satisfies

        lhs - rhs >= (E_new - E_old)/tau - W_ext,

    and a new state whose energy exceeds the old energy plus the external
    work by more than the tolerance must fail, whatever the auditor's slack.

    The converse does not hold.  The convex-concave splitting of the double
    well leaves a nonnegative remainder on the paying side that the audit
    does not itemize, so the honest residual sits strictly below zero and a
    corruption is detectable only if it injects more energy than that slack.
    On this free-retraction trajectory a fixed factor 2 on v^{k+1} never
    does: with tolerance 0 the smallest flagged factor (bisection, steps
    counted from 0) lies between 2.12 (step 16) and 3.78 (step 7), and with
    the 1e-8 tolerance it reaches 1.95e3 at step 49, as E_kin decays to about
    1e-15 while the tolerance stays near 1e-6.  The factor-2 count is
    therefore reported as information only.

    Each step k instead gets its own factor c_k >= 1, derived from the
    oracles' total_energy and assemble_external_force alone (never from the
    auditor's code), so that with v = c_k v^{k+1}

        c_k^2 E_kin,new - c_k tau W_ext = E_old - E_int,new + 4 tau tol(c_k),

    where tol(c) is the documented audit threshold of the corrupted report,
    affine in c.  This puts the energy increase at twice the margin the
    premise below asserts, so rounding in the root cannot erase it.  The
    corrupted audit must then fail at every step.
    """
    out = ellipse_fe_run
    params = phys_params(ellipse_cfg(6, "fe"))
    audit_tol = 1e-8
    flagged, premise_ok = 0, 0
    factors = []
    factor2_failures = 0
    closest2 = -np.inf
    for k, r in enumerate(out.records):
        old, new = out.states[k], out.states[k + 1]
        ss, vs, tau = old.disc.sspace, old.disc.vspace, r.tau
        e_old = total_energy(ss, vs, old.phi, old.v, params).e_total
        e_new = total_energy(ss, vs, new.phi, new.v, params)
        w_ext = float(assemble_external_force(vs, ss, new.phi, params, old.t) @ new.v)
        # audit threshold of the corrupted report, tol * (1 + |c W_ext| + E_old/tau)
        t0 = audit_tol * (1.0 + e_old / tau)
        t1 = audit_tol * abs(w_ext)
        # a c^2 - b c - q = 0, larger root
        a = e_new.e_kin
        b = tau * (w_ext + 4.0 * t1)
        q = e_old - e_new.e_int + 4.0 * tau * t0
        assert a > 0.0 and b * b + 4.0 * a * q > 0.0, f"step {k}: no real corruption factor"
        c_k = max(1.0, (b + np.sqrt(b * b + 4.0 * a * q)) / (2.0 * a))
        factors.append(c_k)

        bad_v = c_k * new.v
        bad, _ = step_inequality_check(ss, vs, params, old.phi, old.v, new.phi, new.mu,
                                       bad_v, tau, old.t, tol=audit_tol)
        e_bad = total_energy(ss, vs, new.phi, bad_v, params).e_total
        violation = (e_bad - e_old) / tau - c_k * w_ext
        premise_ok += violation > 2.0 * bad.tolerance
        flagged += not bad.passed

        bad2, _ = step_inequality_check(ss, vs, params, old.phi, old.v, new.phi, new.mu,
                                        2.0 * new.v, tau, old.t, tol=audit_tol)
        factor2_failures += not bad2.passed
        closest2 = max(closest2, bad2.residual - bad2.tolerance)

    n = len(out.records)
    report("A1 (negative control)", n == 50 and premise_ok == n and flagged == n,
           f"corrupted audits failing: {flagged}/{n} with per-step factors "
           f"{min(factors):.3g}..{max(factors):.3g} (premise held at {premise_ok}/{n}); "
           f"factor 2 (information): {factor2_failures}/{n} failing, closest margin "
           f"to failure {closest2:.2e}")


# --------------------------------------------------------------------- A2

def test_a2_mass_conservation_both_modes(ellipse_fe_run, ellipse_fv_run):
    area = 4.0
    drifts = []
    for out in (ellipse_fe_run, ellipse_fv_run):
        m0 = float(out.states[0].disc.lumped @ out.states[0].phi)
        drifts.append(max(abs(r.mass_phi - m0) for r in out.records))
    ok = all(d <= 1e-10 * area for d in drifts)
    report("A2", ok, f"max drift fe={drifts[0]:.2e}, fv={drifts[1]:.2e} "
                     f"(bound {1e-10 * area:.1e})")


# --------------------------------------------------------------------- A3

def test_a3_scheme_equivalence():
    cfg = ellipse_cfg(4, "fe")
    params = phys_params(cfg)
    mesh = build_structured_mesh((-1, 1, -1, 1), 4)
    disc = Discretization(mesh, params)
    phi0 = initial_phase(cfg)
    ref = initial_state(disc, params, phi0)
    prod = ref
    ws = ProjectionWorkspace(disc)
    tols = SplitTolerances(eps_v=1e-10, eps_phi=1e-10, max_inner=400)
    worst = 0.0
    for _ in range(5):
        tau = compute_timestep(prod, TimestepConfig())
        ref = projection_reference_step(ref, tau, params, tols=tols, ws=ws,
                                        newton_tol=1e-13)
        prod, _ = splitting_step(prod, tau, params, tols, convection="fe",
                                 newton_tol=1e-13)
        for f in ("phi", "mu", "v", "p"):
            worst = max(worst, float(np.abs(getattr(ref, f) - getattr(prod, f)).max()))
    report("A3", worst <= 1e-7, f"max dof discrepancy over 5 steps: {worst:.2e}")


def test_a3_steps_take_fewer_inner_iterations_than_plain_iteration():
    # A3's production steps: 307 inner iterations (60, 66, 63, 60, 58) with
    # plain iteration and momentum solves started from zero at a 1e-13
    # saddle tolerance; 98 (21, 20, 20, 19, 18) with Anderson mixing and
    # warm-started solves at SADDLE_TOL.  Warm starts without the mixing
    # take 275, so the bound below needs the mixing
    cfg = ellipse_cfg(4, "fe")
    params = phys_params(cfg)
    state = initial_state(Discretization(build_structured_mesh((-1, 1, -1, 1), 4), params),
                          params, initial_phase(cfg))
    tols = SplitTolerances(eps_v=1e-10, eps_phi=1e-10, max_inner=400)
    inner = 0
    for _ in range(5):
        tau = compute_timestep(state, TimestepConfig())
        state, diags = splitting_step(state, tau, params, tols, convection="fe",
                                      newton_tol=1e-13)
        inner += diags.inner_iterations
    assert inner < 307 // 2


# --------------------------------------------------------------------- A4

@pytest.mark.slow
def test_a4_experimental_order_of_convergence():
    cfg = preset("ellipse")
    cfg.discretization_elements = "p1p1"
    cfg.scenario_tmax = 0.4
    rows = run_eoc(cfg, [6, 8, 10])
    errs = [r[2] for r in rows]
    ratios = [errs[k] / errs[k + 1] for k in range(len(errs) - 1)]
    ok = all(r >= 3.0 for r in ratios)
    detail = ", ".join(f"L{lvl}: {err:.4e}" for lvl, _, err in rows)
    report("A4", ok, f"{detail}; ratios {ratios[0]:.2f}, {ratios[1]:.2f} (need >= 3)")


# --------------------------------------------------------------------- A5

def smooth_stream_fluxes(mesh, dual, rng):
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


def test_a5_flux_properties():
    rng = np.random.default_rng(2024)
    n = 10_000
    u = rng.uniform(-50, 50, n)
    a = rng.uniform(-5, 5, n)
    b = rng.uniform(-5, 5, n)
    g = rng.uniform(1e-3, 10, n)
    anti_exact = np.array_equal(engquist_osher_flux(u, a, b, g),
                                -engquist_osher_flux(-u, b, a, g))
    cons_exact = np.array_equal(engquist_osher_flux(u, a, a, g), g * (u * a))

    mesh = build_structured_mesh((0, 1, 0, 1), 6)
    dual = build_dual_grid(mesh)
    volumes = dual_cell_volumes(mesh)
    h = mesh.min_edge_length()
    maxp_ok = True
    for _ in range(20):
        phi = rng.uniform(-2, 2, mesh.n_vertices)
        u_n = smooth_stream_fluxes(mesh, dual, rng)
        # time-increment rule with the face speeds as the estimator
        tau = 0.9 * h / min(max(float(np.abs(u_n).max()), 10.0), 1e5)
        for _ in range(8):  # driver behavior: halve on CFL rejection
            try:
                out = fv_transport_step(phi, dual, tau, 1, u_n, verts=mesh.vertices,
                                        cell_measures=volumes)
                break
            except CflError:
                tau *= 0.5
        else:
            maxp_ok = False
            break
        if out.min() < phi.min() - 1e-12 or out.max() > phi.max() + 1e-12:
            maxp_ok = False
            break

    # constant state, constant velocity: interior cells unchanged
    from phaseflow.fem import VelocitySpace

    vs = VelocitySpace(mesh, degree=2, bc="freeslip")
    v = interpolate_nodal(lambda p: np.column_stack([np.full(len(p), 2.0),
                                                     np.full(len(p), -1.5)]), vs)
    from phaseflow.cahn_hilliard import face_normal_velocities

    u_c = face_normal_velocities(v, vs, dual)
    const = np.full(mesh.n_vertices, 0.3)
    out_c = fv_transport_step(const, dual, 1e-3, 1, u_c, verts=mesh.vertices,
                              cell_measures=volumes)
    interior = ~boundary_vertex_mask(mesh)
    const_ok = np.abs(out_c[interior] - 0.3).max() <= 1e-13

    report("A5", anti_exact and cons_exact and maxp_ok and const_ok,
           f"antisymmetry exact={anti_exact}, consistency exact={cons_exact}, "
           f"max principle={maxp_ok}, constant state={const_ok}")


# --------------------------------------------------------------------- A6

def test_a6_skew_symmetry():
    params = PhysParams()
    mesh = build_structured_mesh((-1, 1, -1, 1), 4)
    disc = Discretization(mesh, params)
    vs, ss = disc.vspace, disc.sspace
    rng = np.random.default_rng(7)
    worst_sym = 0.0
    worst_quad = 0.0
    for _ in range(100):
        rho = 0.1 + rng.uniform(0, 1, ss.n_dofs)
        v = rng.standard_normal(vs.n_dofs)
        j = rng.standard_normal((mesh.n_triangles, 2))
        Na = assemble_Na(vs, rho, v)
        Nb = assemble_Nb(vs, j, params)
        for N in (Na, Nb):
            S = N + N.T
            worst_sym = max(worst_sym, float(abs(S).max()) if S.nnz else 0.0)
        w = rng.standard_normal(vs.n_dofs)
        w /= np.linalg.norm(w)
        worst_quad = max(worst_quad, abs(float(w @ ((Na + Nb) @ w))))
    report("A6", worst_sym == 0.0 and worst_quad <= 1e-14,
           f"||N + N^T||_max = {worst_sym}, |w (Na+Nb) w| <= {worst_quad:.2e}")


# --------------------------------------------------------------------- A7

def test_a7_divergence_and_hydrostatics(ellipse_fe_run, ellipse_fv_run):
    worst_div = 0.0
    for out in (ellipse_fe_run, ellipse_fv_run):
        for st in out.states[1:]:
            div = float(np.abs(st.disc.B @ st.v).max())
            worst_div = max(worst_div, div)

    params = PhysParams(force=ForceSpec(kind="constant", k0=(0.0, -1.0e4)))
    mesh = build_structured_mesh((0, 1, 0, 1), 4)
    disc = Discretization(mesh, params)
    state = initial_state(disc, params, lambda p: np.ones(len(p)))
    worst_v = 0.0
    for _ in range(10):
        state, _ = splitting_step(state, 1e-3, params, SplitTolerances(), convection="fe",
                                  newton_tol=1e-12)
        worst_v = max(worst_v, float(np.abs(state.v).max()))
    report("A7", worst_div <= 1e-9 and worst_v <= 1e-8,
           f"max ||Bv||_inf = {worst_div:.2e}, hydrostatic max |v| = {worst_v:.2e}")


# --------------------------------------------------------------------- A8

def test_a8_model_variants():
    outs = {}
    for model in ("agg", "dss"):
        cfg = ellipse_cfg(4, "fv", eps=1e-9, max_inner=100)
        cfg.physics_rho1 = 0.01
        cfg.physics_rho2 = 0.01
        cfg.physics_model = model
        rc = replace(run_config(cfg), max_steps=10)
        outs[model] = run_with_states(rc)
    worst = 0.0
    for sa, sd in zip(outs["agg"].states, outs["dss"].states):
        for f in ("phi", "mu", "v", "p"):
            worst = max(worst, float(np.abs(getattr(sa, f) - getattr(sd, f)).max()))

    # zero mobility makes the flux coupling contribute exactly nothing
    params = PhysParams(mobility=0.0)
    mesh = build_structured_mesh((-1, 1, -1, 1), 4)
    disc = Discretization(mesh, params)
    rng = np.random.default_rng(3)
    mu = rng.standard_normal(disc.sspace.n_dofs)
    j = compute_flux_j(mu, params.mobility, disc.sspace)
    Nb = assemble_Nb(disc.vspace, j, params)
    nb_zero = float(abs(Nb).sum()) == 0.0
    report("A8", worst <= 1e-10 and nb_zero,
           f"matched-density agg/dss max deviation {worst:.2e} over 10 steps; "
           f"M=0 flux coupling identically zero: {nb_zero}")


# --------------------------------------------------------------------- A9

def test_a9_timestep_rule():
    params = PhysParams()
    mesh = build_structured_mesh((0, 1, 0, 1), 8)  # h = 0.0625
    disc = Discretization(mesh, params)
    cfg = TimestepConfig()
    checks = []
    for slope, expected in ((100.0, 5.625e-4),
                            (3.0, 0.9 * 0.0625 / 10.0),
                            (1e9, 0.9 * 0.0625 / 1e5)):
        from phaseflow.coupling import State

        n = disc.sspace.n_dofs
        st = State(t=0.0, phi=np.zeros(n), mu=slope * mesh.vertices[:, 0],
                   v=np.zeros(disc.vspace.n_dofs), p=np.zeros(n), disc=disc)
        tau = compute_timestep(st, cfg)
        checks.append(abs(tau - expected) <= 1e-12 * expected)
    report("A9", all(checks), f"clamp arithmetic at estimators 100, 3, 1e9: {checks}")


# --------------------------------------------------------------------- A10

@pytest.mark.slow
def test_a10_qualitative_demos(tmp_path):
    # rising droplet: centroid of the light phase rises monotonically
    cfg = preset("rising-droplet")
    cfg.discretization_level = 6
    rc = replace(run_config(cfg), max_steps=12)
    out = run_with_states(rc)
    centroids = []
    for st in out.states:
        w = st.disc.lumped * 0.5 * (1.0 + st.phi)
        centroids.append(float(w @ st.disc.mesh.vertices[:, 1] / w.sum()))
    rising = all(centroids[k + 1] > centroids[k] - 1e-12
                 for k in range(1, len(centroids) - 1))
    total_rise = centroids[-1] - centroids[0]

    # rotating annulus completes for both model variants and emits snapshots
    vtk_ok = True
    for model in ("agg", "dss"):
        from phaseflow.app import run_scenario

        acfg = preset("rotating-annulus")
        acfg.discretization_level = 4
        acfg.scenario_tmax = 2e-3
        acfg.physics_model = model
        acfg.output_dir = str(tmp_path / f"annulus_{model}")
        acfg.output_snapshot_every = 1
        result, code = run_scenario(acfg)
        files = [f for f in os.listdir(acfg.output_dir) if f.endswith(".vtk")]
        vtk_ok &= code == 0 and len(files) >= 2 and result.state is not None

    report("A10", rising and total_rise > 0 and vtk_ok,
           f"droplet centroid rise {total_rise:.2e} (monotone: {rising}); "
           f"annulus agg/dss runs completed with snapshots: {vtk_ok}")
