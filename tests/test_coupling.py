import numpy as np
import pytest

from phaseflow import coupling, linalg
from phaseflow.coupling import (
    AdaptivityConfig,
    Discretization,
    RunConfig,
    SplitTolerances,
    State,
    TimestepConfig,
    anderson_mix,
    compute_timestep,
    initial_state,
    mark_elements,
    run,
    splitting_step,
)
from phaseflow.energy import step_inequality_check
from phaseflow.errors import CflError, RunAborted, SolverError, StepRejected
from phaseflow.mesh import COARSEN, KEEP, REFINE, build_structured_mesh, refine_and_coarsen
from phaseflow.momentum import PhysParams

from oracles import total_energy


def circle_phi0(center, radius, delta):
    def f(p):
        d = radius - np.sqrt((p[:, 0] - center[0]) ** 2 + (p[:, 1] - center[1]) ** 2)
        return np.tanh(d / (np.sqrt(2.0) * delta))
    return f


def make_state(level=8, domain=(0, 1, 0, 1), mu_field=None, **kw):
    params = PhysParams(**kw)
    mesh = build_structured_mesh(domain, level)
    disc = Discretization(mesh, params)
    n = disc.sspace.n_dofs
    mu = np.zeros(n) if mu_field is None else mu_field(mesh.vertices)
    return State(t=0.0, phi=np.zeros(n), mu=mu, v=np.zeros(disc.vspace.n_dofs),
                 p=np.zeros(n), disc=disc), params


# -------------------------------------------------------------- timestep rule

def test_timestep_plain_arithmetic():
    state, _ = make_state(level=8, mu_field=lambda p: 100.0 * p[:, 0])
    assert state.disc.mesh.min_edge_length() == pytest.approx(0.0625)
    tau = compute_timestep(state, TimestepConfig())
    assert tau == pytest.approx(5.625e-4, rel=1e-12)


def test_timestep_lower_cutoff():
    state, _ = make_state(level=8, mu_field=lambda p: 3.0 * p[:, 0])
    tau = compute_timestep(state, TimestepConfig())
    assert tau == pytest.approx(0.9 * 0.0625 / 10.0, rel=1e-12)


def test_timestep_upper_cutoff():
    state, _ = make_state(level=8, mu_field=lambda p: 1e9 * p[:, 0])
    tau = compute_timestep(state, TimestepConfig())
    assert tau == pytest.approx(0.9 * 0.0625 / 1e5, rel=1e-12)


def test_timestep_bounds_always_hold():
    rng = np.random.default_rng(0)
    state, _ = make_state(level=6, mu_field=lambda p: rng.standard_normal(len(p)))
    cfg = TimestepConfig()
    tau = compute_timestep(state, cfg)
    h = state.disc.mesh.min_edge_length()
    assert 0.9 * h / cfg.v_max <= tau <= 0.9 * h / cfg.v_min


def test_timestep_config_validation():
    with pytest.raises(ValueError):
        TimestepConfig(v_min=10.0, v_max=1.0)


# ------------------------------------------------------------------- marking

def piecewise_slope_phi(mesh):
    x = mesh.vertices[:, 0]
    return np.where(x <= 0.25, 0.0,
                    np.where(x <= 0.5, 2.0 * (x - 0.25), 0.5 + 10.0 * (x - 0.5)))


def test_marking_thresholds_and_precedence():
    state, _ = make_state(level=4)
    phi = piecewise_slope_phi(state.disc.mesh)
    state = State(t=0.0, phi=phi, mu=state.mu, v=state.v, p=state.p, disc=state.disc)
    cfg = AdaptivityConfig(enabled=True, min_level=2, max_level=8)
    marks = mark_elements(state, cfg)
    from phaseflow.fem import element_gradient_magnitudes

    g = element_gradient_magnitudes(state.disc.sspace, phi)
    # thresholds: refine above 0.9*0 + 0.1*10 = 1, coarsen at/below 0.2*10 = 2
    assert (marks[g > 2.5] == REFINE).all()          # slope-10 elements
    assert (marks[np.abs(g - 2.0) < 1e-9] == REFINE).all()   # both marks, refine wins
    assert (marks[g < 1e-9] == COARSEN).all()        # slope-0 elements


def test_marking_uniform_field_no_refine():
    state, _ = make_state(level=4)
    cfg = AdaptivityConfig(enabled=True, min_level=2, max_level=8)
    marks = mark_elements(state, cfg)  # phi, v identically zero
    assert not (marks == REFINE).any()
    assert (marks == COARSEN).all()  # degenerate m = M: coarsening allowed


def test_marking_respects_level_caps():
    state, _ = make_state(level=4)
    phi = piecewise_slope_phi(state.disc.mesh)
    state = State(t=0.0, phi=phi, mu=state.mu, v=state.v, p=state.p, disc=state.disc)
    cfg = AdaptivityConfig(enabled=True, min_level=4, max_level=4)
    marks = mark_elements(state, cfg)
    assert (marks == KEEP).all()


def test_adaptivity_config_validation():
    with pytest.raises(ValueError):
        AdaptivityConfig(c_ref_phi=0.0)
    with pytest.raises(ValueError):
        AdaptivityConfig(min_level=6, max_level=4)


# ------------------------------------------------------------ splitting step

def quiescent_params(**kw):
    base = dict(rho1=0.001, rho2=0.019, eta1=0.01, eta2=0.01, sigma=1.0,
                delta=0.1, mobility=0.5)
    base.update(kw)
    return PhysParams(**base)


def test_splitting_quiescent_pure_phase_fixed_point():
    params = quiescent_params()
    mesh = build_structured_mesh((-1, 1, -1, 1), 4)
    disc = Discretization(mesh, params)
    state = initial_state(disc, params, lambda p: np.ones(len(p)))
    new, diags = splitting_step(state, 1e-3, params, SplitTolerances(), convection="fe",
                                newton_tol=1e-12)
    assert diags.inner_iterations == 1
    np.testing.assert_allclose(new.phi, state.phi, atol=1e-10)
    np.testing.assert_allclose(new.v, 0.0, atol=1e-12)


def fixed_point_iterations(A, c, mix):
    """Iterations of x -> A x + c from x = 0 until the residual is below
    1e-10, with or without ``anderson_mix``."""
    x = np.zeros(len(c))
    g_prev = f_prev = None
    for k in range(1, 1000):
        g = A @ x + c
        f = g - x
        if np.abs(f).max() <= 1e-10:
            return k
        x = anderson_mix(g, f, g_prev, f_prev) if mix else g
        g_prev, f_prev = g, f
    raise AssertionError("no convergence")


def test_anderson_mix_beats_plain_iteration_on_a_linear_contraction():
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((20, 20)))
    A = Q @ np.diag(np.linspace(-0.5, 0.9, 20)) @ Q.T
    c = rng.standard_normal(20)
    # 203 plain iterations against 128 mixed
    assert fixed_point_iterations(A, c, mix=True) < 0.7 * fixed_point_iterations(A, c, mix=False)


def test_anderson_mix_falls_back_to_the_map_output():
    g, f = np.array([1.0, 2.0]), np.array([0.5, -0.5])
    assert anderson_mix(g, f, None, None) is g
    assert anderson_mix(g, f, np.array([3.0, 4.0]), f.copy()) is g  # df = 0
    huge = np.array([1e200, 1e200])
    with np.errstate(over="ignore"):
        assert anderson_mix(g, huge, np.zeros(2), -huge) is g  # df . df overflows
    mixed = anderson_mix(g, f, np.array([3.0, 4.0]), np.array([1.5, 0.5]))
    # df = (-1, -1), gamma = (df . f) / (df . df) = 0
    np.testing.assert_array_equal(mixed, g)
    mixed = anderson_mix(g, f, np.array([3.0, 4.0]), np.array([0.0, -2.0]))
    # df = (0.5, 1.5), gamma = -0.5 / 2.5
    np.testing.assert_allclose(mixed, g + 0.2 * (g - np.array([3.0, 4.0])))


def test_momentum_solves_start_from_the_old_level_then_the_last_iterate(monkeypatch):
    params = quiescent_params()
    disc = Discretization(build_structured_mesh((-1, 1, -1, 1), 4), params)
    state = initial_state(disc, params, circle_phi0((0, 0), 0.5, 0.1))
    guesses, outputs = [], []
    solve = coupling.solve_momentum

    def recording(step, phi, mu, cache, guess):
        guesses.append(guess)
        outputs.append(solve(step, phi, mu, cache, guess))
        return outputs[-1]

    monkeypatch.setattr(coupling, "solve_momentum", recording)
    new, diags = splitting_step(state, 1e-4, params, SplitTolerances(), convection="fe",
                                newton_tol=1e-12)
    assert diags.inner_iterations == len(guesses) > 1
    assert guesses[0][0] is state.v and guesses[0][1] is state.p
    for guess, previous in zip(guesses[1:], outputs):
        assert guess[0] is previous[0] and guess[1] is previous[1]
    assert new.v is outputs[-1][0] and new.p is outputs[-1][1]


@pytest.mark.parametrize("convection", ["fv", "fe"])
def test_phase_solves_start_from_the_old_level_then_the_loop_input(monkeypatch, convection):
    params = quiescent_params()
    disc = Discretization(build_structured_mesh((-1, 1, -1, 1), 4), params)
    state = initial_state(disc, params, circle_phi0((0, 0), 0.5, 0.1))
    starts, inputs = [], []
    ch_solve, momentum_solve = coupling.ch_diffusive_solve, coupling.solve_momentum

    def recording_ch(*args, phi_guess, mu_guess, **kw):
        starts.append((phi_guess, mu_guess))
        return ch_solve(*args, phi_guess=phi_guess, mu_guess=mu_guess, **kw)

    def recording_momentum(step, phi, mu, cache, guess):
        inputs.append((phi, mu))
        return momentum_solve(step, phi, mu, cache, guess)

    monkeypatch.setattr(coupling, "ch_diffusive_solve", recording_ch)
    monkeypatch.setattr(coupling, "solve_momentum", recording_momentum)
    _, diags = splitting_step(state, 1e-4, params, SplitTolerances(), convection=convection,
                              newton_tol=1e-12)
    assert diags.inner_iterations == len(inputs) == len(starts) - 1 > 1
    assert starts[0][0] is state.phi and starts[0][1] is state.mu
    # inner iteration i solves the phase field from the (phi_i, mu_i) the
    # momentum solve of that iteration read
    for (phi_guess, mu_guess), (phi_i, mu_i) in zip(starts[1:], inputs):
        assert phi_guess is phi_i and mu_guess is mu_i


def test_cfl_violation_of_the_first_transport_assembles_no_momentum_operator(monkeypatch):
    params = quiescent_params()
    disc = Discretization(build_structured_mesh((-1, 1, -1, 1), 4), params)
    state = initial_state(disc, params, circle_phi0((0, 0), 0.5, 0.1))
    fast = np.where(disc.vspace.dirichlet_mask, 0.0, 1e3)
    state = State(t=0.0, phi=state.phi, mu=state.mu, v=fast, p=state.p, disc=disc)
    built = []
    monkeypatch.setattr(coupling, "MomentumStep", lambda *args: built.append(args))
    with pytest.raises(CflError):
        splitting_step(state, 1e-2, params, SplitTolerances(), convection="fv",
                       newton_tol=1e-12)
    assert built == []


def test_discretization_builds_dual_grid_and_divergence_on_first_use():
    params = quiescent_params()
    disc = Discretization(build_structured_mesh((-1, 1, -1, 1), 4), params)
    assert "dual" not in vars(disc) and "B" not in vars(disc)
    state = initial_state(disc, params, circle_phi0((0, 0), 0.5, 0.1))
    splitting_step(state, 1e-4, params, SplitTolerances(), convection="fe",
                   newton_tol=1e-12)
    assert "B" in vars(disc)
    assert "dual" not in vars(disc)


def test_each_discretization_factorizes_its_own_systems(monkeypatch):
    # two meshes of one size, like an adaptation that keeps the counts: the
    # second mesh's first step must factorize, never iterate on the first
    # mesh's factors
    params = quiescent_params()
    mesh = build_structured_mesh((-1, 1, -1, 1), 4)
    first, second = Discretization(mesh, params), Discretization(mesh, params)
    assert first.total_dofs == second.total_dofs
    assert first.mesh.n_vertices == second.mesh.n_vertices
    assert first.saddle_cache is not second.saddle_cache
    assert first.phase_cache is not second.phase_cache
    phi0 = circle_phi0((0, 0), 0.5, 0.1)
    splitting_step(initial_state(first, params, phi0), 1e-4, params, SplitTolerances(),
                   convection="fe", newton_tol=1e-12)
    old_factors = (first.saddle_cache.lu, first.phase_cache.lu)
    assert None not in old_factors

    events = []
    refresh, bicgstab = linalg.FactorizationCache.refresh, linalg.bicgstab

    def recording_refresh(cache, A):
        events.append(("refresh", cache))
        return refresh(cache, A)

    def recording_bicgstab(A, b, tol, maxit, M, x0):
        events.append(("bicgstab", getattr(M, "__self__", None)))
        return bicgstab(A, b, tol, maxit, M, x0)

    monkeypatch.setattr(linalg.FactorizationCache, "refresh", recording_refresh)
    monkeypatch.setattr(linalg, "bicgstab", recording_bicgstab)
    splitting_step(initial_state(second, params, phi0), 1e-4, params, SplitTolerances(),
                   convection="fe", newton_tol=1e-12)
    refreshed = [cache for kind, cache in events if kind == "refresh"]
    assert any(c is second.saddle_cache for c in refreshed)
    assert any(c is second.phase_cache for c in refreshed)
    assert not any(c is first.saddle_cache or c is first.phase_cache for c in refreshed)
    preconditioners = [lu for kind, lu in events if kind == "bicgstab" and lu is not None]
    assert preconditioners
    assert not any(lu is old for lu in preconditioners for old in old_factors)


@pytest.mark.parametrize("convection", ["fv", "fe"])
def test_splitting_agg_dss_agree_when_decoupled(convection):
    mesh = build_structured_mesh((-1, 1, -1, 1), 4)
    outs = {}
    for model in ("agg", "dss"):
        params = quiescent_params(rho1=0.01, rho2=0.01, mobility=0.0, model=model)
        disc = Discretization(mesh, params)
        state = initial_state(disc, params, circle_phi0((0, 0), 0.5, 0.1))
        new, _ = splitting_step(state, 1e-4, params, SplitTolerances(), convection=convection,
                                newton_tol=1e-12)
        outs[model] = new
    for f in ("phi", "mu", "v", "p"):
        np.testing.assert_allclose(getattr(outs["agg"], f), getattr(outs["dss"], f),
                                   atol=1e-12)


def test_splitting_fe_converged_step_passes_energy_audit():
    # ellipse-like datum, zero force: the converged monolithic step satisfies
    # the energy inequality and dissipates total energy
    params = quiescent_params()
    mesh = build_structured_mesh((-1, 1, -1, 1), 6)
    disc = Discretization(mesh, params)

    def phi0(p):
        d = 1.0 - np.sqrt((p[:, 0] / 0.87) ** 2 + (p[:, 1] / 0.29) ** 2)
        return np.tanh(d / (np.sqrt(2.0) * 0.1))

    state = initial_state(disc, params, phi0)
    tols = SplitTolerances(eps_v=1e-11, eps_phi=1e-11, max_inner=200)
    tau = compute_timestep(state, TimestepConfig())
    e_prev = total_energy(disc.sspace, disc.vspace, state.phi, state.v, params).e_total
    for _ in range(3):
        new, _ = splitting_step(state, tau, params, tols, convection="fe",
                                newton_tol=1e-12)
        report, bd = step_inequality_check(disc.sspace, disc.vspace, params,
                                           state.phi, state.v, new.phi, new.mu, new.v,
                                           tau, state.t, tol=1e-8)
        assert report.passed, f"residual {report.residual:.3e} > {report.tolerance:.3e}"
        e_now = bd.e_kin + bd.e_int
        assert e_now <= e_prev + 1e-12
        e_prev = e_now
        state = new


def test_splitting_negative_control_detects_corruption():
    # warm up so the convexity slack of the step is small against the
    # kinetic terms, then corrupt the new velocity
    params = quiescent_params()
    mesh = build_structured_mesh((-1, 1, -1, 1), 4)
    disc = Discretization(mesh, params)
    state = initial_state(disc, params, circle_phi0((0, 0), 0.5, 0.1))
    tols = SplitTolerances(eps_v=1e-11, eps_phi=1e-11, max_inner=200)
    tau = 5e-4
    for _ in range(6):
        state, _ = splitting_step(state, tau, params, tols, convection="fe",
                                  newton_tol=1e-12)
    new, _ = splitting_step(state, tau, params, tols, convection="fe",
                            newton_tol=1e-12)
    good, _ = step_inequality_check(disc.sspace, disc.vspace, params,
                                    state.phi, state.v, new.phi, new.mu, new.v,
                                    tau, state.t, tol=1e-8)
    assert good.passed
    bad, _ = step_inequality_check(disc.sspace, disc.vspace, params,
                                   state.phi, state.v, new.phi, new.mu, 2.0 * new.v,
                                   tau, state.t, tol=1e-8)
    assert not bad.passed


# ---------------------------------------------------------------------- run

def tiny_run_config(**kw):
    params = quiescent_params()
    defaults = dict(
        params=params, domain=(-1.0, 1.0, -1.0, 1.0), base_level=4, t_end=2e-3,
        phi0=circle_phi0((0, 0), 0.5, 0.1),
        tols=SplitTolerances(eps_v=1e-8, eps_phi=1e-8, max_inner=100),
        convection="fv",
    )
    defaults.update(kw)
    return RunConfig(**defaults)


def test_run_zero_horizon_returns_initial_state():
    cfg = tiny_run_config(t_end=0.0)
    out = run(cfg)
    assert out.state.t == 0.0
    assert out.records == []


def test_run_is_deterministic():
    rows = []
    for _ in range(2):
        out = run(tiny_run_config())
        rows.append([(r.t, r.tau, r.energy.e_kin, r.energy.e_int, r.report.residual,
                      r.mass_phi) for r in out.records])
    assert rows[0] == rows[1]


def test_run_conserves_mass_on_fixed_mesh():
    states = []
    out = run(tiny_run_config(t_end=4e-3, snapshot_every=1,
                              snapshot_hook=lambda state, step_index: states.append(state)))
    m0 = states[0].disc.lumped @ states[0].phi
    area = 4.0
    for rec in out.records:
        assert abs(rec.mass_phi - m0) <= 1e-10 * area


def test_run_with_adaptivity_refines_interface():
    # max level 8 resolves the delta = 0.1 transition layer; gradient marking
    # then drives the band to the maximum level
    cfg = tiny_run_config(
        t_end=1e-3, base_level=4,
        adaptivity=AdaptivityConfig(enabled=True, min_level=2, max_level=8),
    )
    out = run(cfg)
    mesh = out.state.disc.mesh
    level = mesh.base_level + mesh.generation
    assert level.max() == 8
    # interface band elements sit at the maximum level
    phi_elem = out.state.phi[mesh.triangles]
    band = np.abs(phi_elem).min(axis=1) < 0.9
    share = (level[band] == 8).mean()
    assert share >= 0.9


def test_initial_adaptation_solves_for_mu_on_the_final_mesh_only(monkeypatch):
    # marking reads only phi and v = 0, so the intermediate meshes need no mu
    import phaseflow.coupling as coupling

    solved_on = []
    solve = coupling.consistent_chemical_potential
    monkeypatch.setattr(coupling, "consistent_chemical_potential",
                        lambda disc, phi, params: solved_on.append(disc)
                        or solve(disc, phi, params))
    out = run(tiny_run_config(t_end=0.0, adaptivity=AdaptivityConfig(enabled=True, min_level=2,
                                                                      max_level=8)))
    assert out.state.disc.mesh.generation.max() > 0  # the datum was adapted
    assert solved_on == [out.state.disc]


def test_run_moves_the_state_when_adaptation_keeps_the_counts(monkeypatch):
    # coarsening one interior star (-2 elements, -1 vertex) while refining one
    # compatible pair elsewhere (+2, +1) changes the mesh at equal counts
    import phaseflow.coupling as coupling

    adapted = []

    def equal_count_marks(state, cfg):
        mesh = state.disc.mesh
        if state.t == 0.0:  # initial adaptation: bisect every element once
            return np.full(mesh.n_triangles, REFINE if mesh.generation.max() == 0 else KEEP)
        marks = np.full(mesh.n_triangles, KEEP)
        peak = mesh.triangles[:, 2]
        marks[peak == peak[0]] = COARSEN
        far = np.linalg.norm(mesh.vertices[mesh.triangles].mean(axis=1)
                             - mesh.vertices[peak[0]], axis=1)
        far[mesh.edge_tris[mesh.tri_edges[:, 2], 1] < 0] = 0.0  # refinement edge on the boundary
        marks[np.argmax(far)] = REFINE
        new_mesh, _ = refine_and_coarsen(mesh, marks)
        assert (new_mesh.n_triangles, new_mesh.n_vertices) == (mesh.n_triangles, mesh.n_vertices)
        assert not np.array_equal(new_mesh.triangles, mesh.triangles)
        adapted.append(new_mesh)
        return marks

    monkeypatch.setattr(coupling, "mark_elements", equal_count_marks)
    cfg = tiny_run_config(t_end=1.0, max_steps=1,
                          adaptivity=AdaptivityConfig(enabled=True, min_level=2, max_level=8))
    out = run(cfg)
    assert len(adapted) == 1
    np.testing.assert_array_equal(out.state.disc.mesh.triangles, adapted[0].triangles)
    np.testing.assert_array_equal(out.state.disc.mesh.vertices, adapted[0].vertices)


@pytest.mark.parametrize("corrupt", ["singular", "nan"])
def test_splitting_rejects_step_on_failed_saddle_factorization(monkeypatch, corrupt):
    # a singular or NaN momentum matrix makes SuperLU fail; the step is
    # rejected with a typed error instead of crashing the run
    import phaseflow.momentum as momentum

    params = quiescent_params()
    mesh = build_structured_mesh((-1, 1, -1, 1), 4)
    disc = Discretization(mesh, params)
    state = initial_state(disc, params, circle_phi0((0, 0), 0.5, 0.1))
    factor = 0.0 if corrupt == "singular" else np.nan
    apply = momentum.apply_velocity_dirichlet
    monkeypatch.setattr(momentum, "apply_velocity_dirichlet",
                        lambda A, mask: factor * apply(A, mask))
    with pytest.raises(StepRejected, match="momentum solve failed"):
        splitting_step(state, 1e-3, params, SplitTolerances(), convection="fe",
                       newton_tol=1e-12)


def test_splitting_rejects_step_on_stalled_phase_solve():
    params = quiescent_params()
    mesh = build_structured_mesh((-1, 1, -1, 1), 4)
    disc = Discretization(mesh, params)
    state = initial_state(disc, params, circle_phi0((0, 0), 0.5, 0.1))
    with pytest.raises(StepRejected, match="phase-field solve failed: .*Newton stalled"):
        splitting_step(state, 1e-3, params, SplitTolerances(), convection="fe",
                       newton_tol=1e-30)


def test_run_abort_keeps_the_accepted_steps(monkeypatch):
    import phaseflow.coupling as coupling

    solve = coupling.solve_momentum

    def fail_after_first_step(*args, **kw):
        if args[0].t > 0.0:  # the time of the old level
            raise SolverError("injected failure")
        return solve(*args, **kw)

    monkeypatch.setattr(coupling, "solve_momentum", fail_after_first_step)
    cfg = tiny_run_config(t_end=1.0)
    with pytest.raises(RunAborted, match="rejected 5 times; last: momentum solve failed: "
                                         "injected failure") as info:
        run(cfg)
    assert isinstance(info.value.__cause__, StepRejected)
    assert len(info.value.result.records) == 1
    assert info.value.result.state.t == info.value.result.records[0].t


def test_audit_reuses_the_step_viscous_matrix():
    params = quiescent_params(eta1=0.01, eta2=0.05)
    mesh = build_structured_mesh((-1, 1, -1, 1), 6)
    disc = Discretization(mesh, params)
    state = initial_state(disc, params, circle_phi0((0.1, 0), 0.5, 0.1))
    new, diags = splitting_step(state, 1e-3, params, SplitTolerances(), convection="fe",
                                newton_tol=1e-12)
    assert diags.viscous is not None
    args = (disc.sspace, disc.vspace, params, state.phi, state.v,
            new.phi, new.mu, new.v, 1e-3, 0.0, 1e-8)
    reused, bd_reused = step_inequality_check(*args, viscous=diags.viscous)
    fresh, bd_fresh = step_inequality_check(*args)
    assert bd_fresh.d_visc > 0.0
    assert reused == fresh and bd_reused == bd_fresh
