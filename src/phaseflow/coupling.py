"""Outer time loop: the split solve of one step, the adaptive time-increment
rule, gradient-based mesh adaptation, and the run driver.

One step alternates between the phase-field problem (finite-volume transport
plus implicit diffusion, or a monolithic implicit convection) and the linear
momentum solve, iterated until the sup-norm increments of velocity and phase
fall below the configured tolerances.  The iteration is a fixed-point map of
the phase field and chemical potential, accelerated by depth-one Anderson
mixing (``anderson_mix``); each momentum solve starts from the previous
iterate.  The accepted state is always an unmixed map output, so in the
monolithic mode the converged limit satisfies the coupled implicit scheme
exactly, which is what the energy audit certifies.  After an adaptation
every field is evaluated in the old elements that the new mesh records as
its sources; nothing searches for points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .cahn_hilliard import (
    ch_diffusive_solve,
    face_normal_velocities,
    fe_convection_matrix,
    fv_transport_step,
    well_prime,
)
from .energy import EnergyBreakdown, InequalityReport, step_inequality_check
from .errors import AuditFailure, RunAborted, SolverError, StepRejected
from .fem import ScalarSpace, VelocitySpace, element_gradient_magnitudes
from .linalg import FactorizationCache, solve_linear
from .mesh import (
    COARSEN,
    KEEP,
    REFINE,
    Mesh,
    build_dual_grid,
    build_structured_mesh,
    locate_in_source,
    refine_and_coarsen,
)
from .momentum import (
    MomentumStep,
    PhysParams,
    assemble_divergence,
    saddle_order,
    solve_momentum,
)


@dataclass(frozen=True)
class SplitTolerances:
    eps_v: float = 1e-6
    eps_phi: float = 1e-6
    max_inner: int = 50

    def __post_init__(self):
        if self.eps_v <= 0 or self.eps_phi <= 0 or self.max_inner < 1:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class TimestepConfig:
    safety: float = 0.9
    v_min: float = 10.0
    v_max: float = 1.0e5

    def __post_init__(self):
        if not (0 < self.v_min < self.v_max):
            raise ValueError("need 0 < v_min < v_max")


@dataclass(frozen=True)
class AdaptivityConfig:
    enabled: bool = False
    c_ref_phi: float = 0.1
    c_coarse_phi: float = 0.2
    c_ref_v: float = 0.1
    c_coarse_v: float = 0.5
    min_level: int = 2
    max_level: int = 2

    def __post_init__(self):
        for c in (self.c_ref_phi, self.c_coarse_phi, self.c_ref_v, self.c_coarse_v):
            if not (0.0 < c < 1.0):
                raise ValueError("marking constants must lie in (0, 1)")
        if self.min_level > self.max_level:
            raise ValueError("min_level must not exceed max_level")


class Discretization:
    """Per-mesh bundle of the two spaces and ``lumped`` (``sspace.lumped``).
    Every per-mesh operator, the dual grid, the divergence block ``B`` and
    the factorization caches here and the spaces' own matrices, is built on
    first use.  The caches belong to this mesh alone, so a factorization
    never preconditions another mesh's system, and it is freed with the
    mesh."""

    def __init__(self, mesh: Mesh, params: PhysParams):
        self.mesh = mesh
        self.sspace = ScalarSpace(mesh)
        self.vspace = VelocitySpace(mesh, degree=params.velocity_degree, bc=params.bc)
        self.lumped = self.sspace.lumped

    @cached_property
    def dual(self):
        return build_dual_grid(self.mesh)

    @cached_property
    def B(self):
        return assemble_divergence(self.vspace, self.sspace)

    @cached_property
    def saddle_cache(self):
        """The momentum saddle's factorization, in ``saddle_order``."""
        return FactorizationCache(saddle_order(self.vspace))

    @cached_property
    def phase_cache(self):
        """The phase-field Newton systems' factorization."""
        return FactorizationCache(None)

    @property
    def total_dofs(self) -> int:
        # velocity + pressure + phase + chemical potential
        return self.vspace.n_dofs + 3 * self.sspace.n_dofs


@dataclass(frozen=True)
class State:
    """Snapshot of one accepted time level; all fields on the same mesh."""

    t: float
    phi: np.ndarray
    mu: np.ndarray
    v: np.ndarray
    p: np.ndarray
    disc: Discretization


def consistent_chemical_potential(disc: Discretization, phi: np.ndarray,
                                  params: PhysParams) -> np.ndarray:
    """mu solving the curvature equation for a given phase field (used for
    initial data, whose time stepping has not produced a mu yet)."""
    ss = disc.sspace
    sig, dlt = params.sigma, params.delta
    rhs = sig * dlt * (ss.stiffness @ phi) + (sig / dlt) * ss.lumped * well_prime(phi)
    return solve_linear(ss.mass, rhs, tol=1e-13)


def initial_state(disc: Discretization, params: PhysParams, phi0) -> State:
    phi = np.asarray(phi0(disc.mesh.vertices), dtype=float)
    mu = consistent_chemical_potential(disc, phi, params)
    return State(t=0.0, phi=phi, mu=mu, v=np.zeros(disc.vspace.n_dofs),
                 p=np.zeros(disc.sspace.n_dofs), disc=disc)


def compute_timestep(state: State, cfg: TimestepConfig) -> float:
    """Grid size over interface propagation speed, with cut-offs:
    tau = safety * h * clamp(max_K max(|grad mu|_K, |v|_K), v_min, v_max)^-1."""
    disc = state.disc
    h = disc.mesh.min_edge_length()
    gmu = element_gradient_magnitudes(disc.sspace, state.mu)
    m = disc.mesh.n_triangles
    lam = np.full((m, 3), 1.0 / 3.0)
    speed = np.sqrt((disc.vspace.eval_at_bary(state.v, np.arange(m), lam) ** 2).sum(axis=1))
    estimator = float(np.maximum(gmu, speed).max())
    clamped = min(max(estimator, cfg.v_min), cfg.v_max)
    return cfg.safety * h / clamped


def mark_elements(state: State, cfg: AdaptivityConfig) -> np.ndarray:
    """Gradient-based marking; refinement always wins over coarsening and the
    element level (base + generation) stays within [min_level, max_level]."""
    disc = state.disc
    n = disc.mesh.n_triangles
    grads = disc.vspace.component_gradients_at_barycenter(state.v)
    indicators = [
        (element_gradient_magnitudes(disc.sspace, state.phi), cfg.c_ref_phi, cfg.c_coarse_phi),
        (np.sqrt((grads[:, 0, :] ** 2).sum(axis=1)), cfg.c_ref_v, cfg.c_coarse_v),
        (np.sqrt((grads[:, 1, :] ** 2).sum(axis=1)), cfg.c_ref_v, cfg.c_coarse_v),
    ]
    refine = np.zeros(n, dtype=bool)
    coarsen = np.ones(n, dtype=bool)
    for g, c_ref, c_coarse in indicators:
        lo, hi = float(g.min()), float(g.max())
        refine |= g > (1.0 - c_ref) * lo + c_ref * hi
        # coarsening needs the consent of every indicator, else the velocity
        # controls would coarsen the fringe of the interface band
        coarsen &= g <= (1.0 - c_coarse) * lo + c_coarse * hi
    level = disc.mesh.base_level + disc.mesh.generation
    refine &= level < cfg.max_level
    coarsen &= level > cfg.min_level
    marks = np.where(refine, REFINE, np.where(coarsen, COARSEN, KEEP)).astype(np.int8)
    return marks


@dataclass
class StepDiagnostics:
    inner_iterations: int = 0
    newton_iterations: int = 0
    dv: float = np.inf
    dphi: float = np.inf
    # the viscous matrix of the step's old phase, which the audit reuses
    viscous: object = None


def anderson_mix(g: np.ndarray, f: np.ndarray, g_prev: np.ndarray | None,
                 f_prev: np.ndarray | None) -> np.ndarray:
    """The next input of a fixed-point iteration x -> g(x) by depth-one
    Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49, 2011):
    g - gamma (g - g_prev), where f = g - x is the residual of the last
    input, f_prev and g_prev those of the input before, and gamma =
    (df . f) / (df . df) with df = f - f_prev minimizes the residual of the
    mixed pair.  Plain g when there is no earlier pair (None), when df = 0,
    or when gamma is not finite."""
    if g_prev is None:
        return g
    df = f - f_prev
    dd = float(df @ df)
    if dd == 0.0:
        return g
    gamma = float(df @ f) / dd
    if not np.isfinite(gamma):
        return g
    return g - gamma * (g - g_prev)


def splitting_step(state: State, tau: float, params: PhysParams, tols: SplitTolerances,
                   convection: str, newton_tol: float) -> tuple[State, StepDiagnostics]:
    """One time step of the split scheme, its solves factorized in the
    caches of the state's mesh.  Raises StepRejected when the inner
    loop does not contract within the iteration budget or a phase-field or
    momentum solve fails (``run`` halves tau and retries), and propagates
    CFL violations of the transport stage.

    One inner iteration maps an input (phi_i, mu_i) to the momentum solve
    (v_i, p_i) it drives and the phase-field solve (phi_next, mu_next) that
    velocity drives.  The loop stops when v_i and phi_next differ from the
    previous velocity and from phi_i by at most the tolerances, and accepts
    exactly that map output.  Otherwise the next input is the output mixed
    with the previous one by ``anderson_mix``.  Each momentum solve starts
    from the previous inner iterate, the first one from the old level's
    (v, p), and each phase-field Newton from the input (phi_i, mu_i), the
    first one from the old level's (phi, mu)."""
    if convection not in ("fv", "fe"):
        raise ValueError(f"unknown convection mode {convection!r}")
    disc = state.disc
    diags = StepDiagnostics()

    phi_k = state.phi
    v_k = state.v

    def ch_solve(v_dofs: np.ndarray, phi_guess: np.ndarray, mu_guess: np.ndarray):
        if convection == "fv":
            u_n = face_normal_velocities(v_dofs, disc.vspace, disc.dual)
            phi_half = fv_transport_step(phi_k, disc.dual, tau, order=2, u_n=u_n,
                                         verts=disc.mesh.vertices,
                                         cell_measures=disc.lumped)
            conv = None
        else:
            phi_half = phi_k
            conv = fe_convection_matrix(disc.sspace, v_dofs, disc.vspace)
        try:
            phi_new, mu_new, rep = ch_diffusive_solve(
                phi_half, phi_k, tau, params, disc.sspace,
                newton_tol=newton_tol, conv_matrix=conv, phi_guess=phi_guess,
                mu_guess=mu_guess, lin_cache=disc.phase_cache)
        except SolverError as exc:
            raise StepRejected(f"phase-field solve failed: {exc}") from exc
        diags.newton_iterations += rep.newton_iterations
        return phi_new, mu_new

    # the first transport reads only v^n: a CFL violation there rejects the
    # attempt before any momentum operator is assembled
    phi_i, mu_i = ch_solve(v_k, phi_k, state.mu)
    step = MomentumStep(disc.vspace, disc.sspace, params, disc.B,
                        phi_k, v_k, tau, state.t)
    diags.viscous = step.viscous
    n = phi_i.shape[0]
    guess = (v_k, state.p)
    g_prev = f_prev = None
    for it in range(1, tols.max_inner + 1):
        diags.inner_iterations = it
        try:
            v_i, p_i = solve_momentum(step, phi_i, mu_i, disc.saddle_cache, guess)
        except SolverError as exc:
            raise StepRejected(f"momentum solve failed: {exc}") from exc
        phi_next, mu_next = ch_solve(v_i, phi_i, mu_i)
        diags.dv = float(np.abs(v_i - guess[0]).max())
        diags.dphi = float(np.abs(phi_next - phi_i).max())
        if diags.dv <= tols.eps_v and diags.dphi <= tols.eps_phi:
            new = State(t=state.t + tau, phi=phi_next, mu=mu_next, v=v_i, p=p_i, disc=disc)
            return new, diags
        g = np.concatenate([phi_next, mu_next])
        f = g - np.concatenate([phi_i, mu_i])
        x = anderson_mix(g, f, g_prev, f_prev)
        phi_i, mu_i = x[:n], x[n:]
        guess = (v_i, p_i)
        g_prev, f_prev = g, f
    raise StepRejected(
        f"inner splitting loop did not converge in {tols.max_inner} iterations "
        f"(dv={diags.dv:.3e}, dphi={diags.dphi:.3e})")


def transfer_state(state: State, new_mesh: Mesh, source, params: PhysParams) -> State:
    """Move all fields to an adapted mesh by evaluating them in the old
    elements ``source`` names: P1 fields at vertices, velocity at its nodes."""
    disc_new = Discretization(new_mesh, params)
    old = state.disc.mesh
    tri, lam = locate_in_source(old, source, new_mesh.vertices, new_mesh.triangles)
    phi, mu, p = ((f[old.triangles[tri]] * lam).sum(axis=1)
                  for f in (state.phi, state.mu, state.p))
    p = p - (disc_new.lumped @ p) / disc_new.lumped.sum()
    vs = disc_new.vspace
    tri, lam = locate_in_source(old, source, vs.nodes, vs.tri_nodes)
    vec = state.disc.vspace.eval_at_bary(state.v, tri, lam)
    v = np.concatenate([vec[:, 0], vec[:, 1]])
    v = np.where(disc_new.vspace.dirichlet_mask, 0.0, v)
    return State(t=state.t, phi=phi, mu=mu, v=v, p=p, disc=disc_new)


@dataclass
class StepRecord:
    """One accepted step, as written to the energy CSV."""

    t: float
    tau: float
    energy: EnergyBreakdown
    report: InequalityReport
    mass_phi: float
    phi_min: float
    phi_max: float
    dofs: int
    transfer_mass_drift: float = 0.0


@dataclass
class RunConfig:
    params: PhysParams
    domain: tuple[float, float, float, float]
    base_level: int
    t_end: float
    phi0: object  # vectorized callable points -> phi values
    tols: SplitTolerances = field(default_factory=SplitTolerances)
    timestep: TimestepConfig = field(default_factory=TimestepConfig)
    adaptivity: AdaptivityConfig = field(default_factory=AdaptivityConfig)
    convection: str = "fv"
    newton_tol: float = 1e-12
    audit_tol: float = 1e-8
    audit_strict: bool = False
    snapshot_every: int = 0
    snapshot_hook: object = None  # callable(state, step_index)
    max_steps: int = 10**9


@dataclass
class RunResult:
    state: State
    records: list[StepRecord]
    audit_failures: int


def _initial_adapted_state(cfg: RunConfig) -> State:
    disc = Discretization(build_structured_mesh(cfg.domain, cfg.base_level), cfg.params)
    if cfg.adaptivity.enabled:
        # resolve the initial interface before stepping: re-sample the
        # analytic datum after every adaptation pass.  Marking reads only phi
        # and v = 0, so mu is solved on the final mesh alone
        for _ in range(cfg.adaptivity.max_level - cfg.adaptivity.min_level + 2):
            phi = np.asarray(cfg.phi0(disc.mesh.vertices), dtype=float)
            marking = State(t=0.0, phi=phi, mu=None, v=np.zeros(disc.vspace.n_dofs),
                            p=None, disc=disc)
            marks = mark_elements(marking, cfg.adaptivity)
            if not (marks == REFINE).any():
                break
            disc = Discretization(refine_and_coarsen(disc.mesh, marks)[0], cfg.params)
    return initial_state(disc, cfg.params, cfg.phi0)


# tries of one step, each with half the increment of the last, before the
# run aborts
MAX_REJECTIONS = 5


def run(cfg: RunConfig) -> RunResult:
    """Advance the coupled system to t_end.  Deterministic for a fixed config:
    iteration orders, marking, and solver paths carry no randomness.  A step
    rejected ``MAX_REJECTIONS`` times raises RunAborted, a failed strict audit
    AuditFailure; both carry the steps accepted before."""
    state = _initial_adapted_state(cfg)
    records: list[StepRecord] = []
    audit_failures = 0
    step_index = 0
    tiny = 1e-12 * max(cfg.t_end, 1.0)

    if cfg.snapshot_hook is not None:
        cfg.snapshot_hook(state, 0)

    while state.t < cfg.t_end - tiny and step_index < cfg.max_steps:
        tau = min(compute_timestep(state, cfg.timestep), cfg.t_end - state.t)
        new = None
        diags = None
        for attempt in range(1, MAX_REJECTIONS + 1):
            try:
                new, diags = splitting_step(state, tau, cfg.params, cfg.tols,
                                            convection=cfg.convection,
                                            newton_tol=cfg.newton_tol)
                break
            except StepRejected as exc:
                # raised in here: an exception kept past its handler would hold
                # the failed attempt's arrays through its traceback
                if attempt == MAX_REJECTIONS:
                    raise RunAborted(f"step at t={state.t:.6g} rejected {attempt} times; "
                                     f"last: {exc}",
                                     RunResult(state, records, audit_failures)) from exc
                tau *= 0.5

        report, breakdown = step_inequality_check(
            state.disc.sspace, state.disc.vspace, cfg.params,
            state.phi, state.v, new.phi, new.mu, new.v, tau, state.t,
            tol=cfg.audit_tol, viscous=diags.viscous)
        if not report.passed:
            audit_failures += 1
            if cfg.audit_strict:
                raise AuditFailure(
                    f"energy audit failed at t={new.t:.6g}: residual "
                    f"{report.residual:.3e} > {report.tolerance:.3e}",
                    RunResult(state, records, audit_failures))

        step_index += 1
        mass = float(state.disc.lumped @ new.phi)
        rec = StepRecord(t=new.t, tau=tau, energy=breakdown, report=report,
                         mass_phi=mass, phi_min=float(new.phi.min()),
                         phi_max=float(new.phi.max()), dofs=state.disc.total_dofs)

        if cfg.adaptivity.enabled:
            marks = mark_elements(new, cfg.adaptivity)
            if (marks != KEEP).any():
                new_mesh, source = refine_and_coarsen(new.disc.mesh, marks)
                # refining and coarsening the same number of elements keeps
                # the counts but still changes the mesh
                if not (np.array_equal(new_mesh.triangles, new.disc.mesh.triangles)
                        and np.array_equal(new_mesh.vertices, new.disc.mesh.vertices)):
                    moved = transfer_state(new, new_mesh, source, cfg.params)
                    rec.transfer_mass_drift = float(
                        moved.disc.lumped @ moved.phi) - mass
                    new = moved

        records.append(rec)
        state = new
        if cfg.snapshot_hook is not None and cfg.snapshot_every > 0 \
                and step_index % cfg.snapshot_every == 0:
            cfg.snapshot_hook(state, step_index)

    if cfg.snapshot_hook is not None:
        cfg.snapshot_hook(state, -1)
    return RunResult(state=state, records=records, audit_failures=audit_failures)
