"""Configuration, scenario presets, output writers, and the command line.

Configs are flat ``section.key = value`` text files; unknown keys are
rejected with a line number.  Scenario presets carry the parameter sets of
the validation experiments; values the literature leaves open (domain sizes,
initial geometry, force interpretation) are flagged in a ``# defaulted:``
block when a config is dumped.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .coupling import (
    AdaptivityConfig,
    RunConfig,
    RunResult,
    SplitTolerances,
    State,
    TimestepConfig,
    run,
)
from .errors import AuditFailure, GeometryError, RunAborted, SolverError
from .fem import P2_CHILDREN, l2_distance, p1_at_p2_nodes
from .mesh import grid_shape
from .momentum import ForceSpec, PhysParams


@dataclass
class Config:
    """Flat solver configuration; attribute names map to ``section.key``."""

    # domain
    domain_x0: float = -1.0
    domain_x1: float = 1.0
    domain_y0: float = -1.0
    domain_y1: float = 1.0
    # physics
    physics_rho1: float = 0.001
    physics_rho2: float = 0.019
    physics_eta1: float = 0.01
    physics_eta2: float = 0.01
    physics_sigma: float = 1.0
    physics_delta: float = 0.05
    physics_mobility: float = 0.005
    physics_model: str = "agg"
    physics_force_kind: str = "none"
    physics_force_x: float = 0.0
    physics_force_y: float = 0.0
    physics_force_rotations: float = 0.0
    # discretization
    discretization_level: int = 6
    discretization_elements: str = "th"
    discretization_convection: str = "fv"
    discretization_bc: str = "noslip"
    # solver
    solver_eps_v: float = 1e-6
    solver_eps_phi: float = 1e-6
    solver_max_inner: int = 50
    solver_newton_tol: float = 1e-12
    solver_audit: str = "log"
    solver_audit_tol: float = 1e-8
    # timestep
    timestep_safety: float = 0.9
    timestep_v_min: float = 10.0
    timestep_v_max: float = 1.0e5
    # adaptivity
    adaptivity_enabled: bool = False
    adaptivity_min_level: int = 4
    adaptivity_max_level: int = 8
    adaptivity_c_ref_phi: float = 0.1
    adaptivity_c_coarse_phi: float = 0.2
    adaptivity_c_ref_v: float = 0.1
    adaptivity_c_coarse_v: float = 0.5
    # output
    output_dir: str = "out"
    output_snapshot_every: int = 0
    output_vtk_quadratic: bool = False
    # scenario
    scenario_name: str = ""
    scenario_tmax: float = 0.1
    scenario_interface: str = "circle"   # circle | ellipse | annulus | layer
    scenario_cx: float = 0.0
    scenario_cy: float = 0.0
    scenario_rx: float = 0.5
    scenario_ry: float = 0.5
    scenario_r_inner: float = 0.3
    scenario_r_outer: float = 0.5
    scenario_layer_y: float = 0.0
    scenario_layer_amplitude: float = 0.0
    scenario_layer_waves: float = 1.0
    # metadata: which keys were defaulted rather than literature-stated
    defaulted: tuple = field(default_factory=tuple)


def _key_of(attr: str) -> str:
    section, _, key = attr.partition("_")
    return f"{section}.{key}"


_CONFIG_FIELDS = {f.name: f for f in fields(Config) if f.name != "defaulted"}
_KEY_TO_ATTR = {_key_of(name): name for name in _CONFIG_FIELDS}


def _parse_value(raw: str, pytype):
    raw = raw.strip()
    if pytype is bool:
        if raw.lower() in ("true", "yes", "on", "1"):
            return True
        if raw.lower() in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if pytype in (int, float):
        try:
            value = pytype(raw)
        except ValueError:
            kind = "an integer" if pytype is int else "a number"
            raise ValueError(f"not {kind}: {raw!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"not a finite number: {raw!r}")
        return value
    return raw


def load_config(path: str) -> Config:
    """Parse and validate a config file; errors carry the offending line.
    With ``scenario.name`` set the file starts from that preset, and every
    key the file gives overrides it."""
    values, lines = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'section.key = value'")
            key, _, raw = stripped.partition("=")
            key = key.strip()
            attr = _KEY_TO_ATTR.get(key)
            if attr is None:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[attr] = _parse_value(raw, type(_CONFIG_FIELDS[attr].default))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            lines[attr] = lineno
    name = values.get("scenario_name")
    try:
        base = preset(name) if name else Config()
    except ValueError as exc:
        raise ValueError(f"{path}:{lines['scenario_name']}: {exc}") from exc
    cfg = replace(base, **values)
    validate_config(cfg)
    return cfg


def validate_config(cfg: Config) -> None:
    def require(cond, name, msg):
        if not cond:
            raise ValueError(f"{name} {msg}")

    require(cfg.physics_delta > 0, "physics.delta", "must be > 0")
    require(cfg.physics_sigma > 0, "physics.sigma", "must be > 0")
    require(cfg.physics_rho1 > 0 and cfg.physics_rho2 > 0, "physics.rho*", "must be > 0")
    require(cfg.physics_eta1 > 0 and cfg.physics_eta2 > 0, "physics.eta*", "must be > 0")
    require(cfg.physics_mobility >= 0, "physics.mobility", "must be >= 0")
    require(cfg.physics_model in ("agg", "dss"), "physics.model", "must be agg or dss")
    require(cfg.discretization_elements in ("th", "p1p1"),
            "discretization.elements", "must be th or p1p1")
    require(cfg.discretization_convection in ("fv", "fe"),
            "discretization.convection", "must be fv or fe")
    require(cfg.discretization_bc in ("noslip", "freeslip"),
            "discretization.bc", "must be noslip or freeslip")
    require(cfg.discretization_level >= 2 and cfg.discretization_level % 2 == 0,
            "discretization.level", "must be an even integer >= 2")
    require(cfg.scenario_tmax >= 0, "scenario.tmax", "must be >= 0")
    require(cfg.solver_audit in ("strict", "log"), "solver.audit", "must be strict or log")
    require(cfg.domain_x1 > cfg.domain_x0 and cfg.domain_y1 > cfg.domain_y0,
            "domain", "must be a nondegenerate rectangle")
    _require_tiling(cfg, cfg.discretization_level)
    require(cfg.scenario_interface in ("circle", "ellipse", "annulus", "layer"),
            "scenario.interface", "unknown interface kind")
    require(cfg.timestep_safety > 0, "timestep.safety", "must be > 0")
    require(cfg.solver_max_inner >= 1, "solver.max_inner", "must be >= 1")
    require(cfg.solver_eps_v > 0, "solver.eps_v", "must be > 0")
    require(cfg.solver_eps_phi > 0, "solver.eps_phi", "must be > 0")
    require(cfg.solver_newton_tol > 0, "solver.newton_tol", "must be > 0")
    require(cfg.solver_audit_tol >= 0, "solver.audit_tol", "must be >= 0")
    require(cfg.output_snapshot_every >= 0, "output.snapshot_every", "must be >= 0")
    # the timestep and adaptivity settings are built into a run even with
    # adaptivity off
    require(cfg.timestep_v_min > 0, "timestep.v_min", "must be > 0")
    require(cfg.timestep_v_max > cfg.timestep_v_min, "timestep.v_max", "must be > timestep.v_min")
    for attr in ("adaptivity_c_ref_phi", "adaptivity_c_coarse_phi",
                 "adaptivity_c_ref_v", "adaptivity_c_coarse_v"):
        require(0 < getattr(cfg, attr) < 1, _key_of(attr), "must lie in (0, 1)")
    require(cfg.adaptivity_min_level <= cfg.adaptivity_max_level,
            "adaptivity.min_level", "must be <= adaptivity.max_level")
    if cfg.scenario_interface in ("circle", "ellipse"):
        require(cfg.scenario_rx > 0, "scenario.rx", "must be > 0")
    if cfg.scenario_interface == "ellipse":
        require(cfg.scenario_ry > 0, "scenario.ry", "must be > 0")
    if cfg.scenario_interface == "annulus":
        require(cfg.scenario_r_inner >= 0, "scenario.r_inner", "must be >= 0")
        require(cfg.scenario_r_outer > cfg.scenario_r_inner, "scenario.r_outer",
                "must be > scenario.r_inner")
    ForceSpec(kind=cfg.physics_force_kind,
              k0=(cfg.physics_force_x, cfg.physics_force_y),
              rotations_per_unit=cfg.physics_force_rotations)


def _require_tiling(cfg: Config, level: int) -> None:
    """Raise ValueError naming the domain keys unless the uniform grid of
    ``level`` tiles the configured rectangle."""
    try:
        grid_shape((cfg.domain_x0, cfg.domain_x1, cfg.domain_y0, cfg.domain_y1), level)
    except GeometryError as exc:
        raise ValueError(f"domain: {exc} at level {level} (the height is domain.y1 - "
                         f"domain.y0, h = (domain.x1 - domain.x0) * 2**(-level/2))") from None


def dump_config(cfg: Config) -> str:
    lines = []
    if cfg.defaulted:
        lines.append("# defaulted: values not stated by the validation literature:")
        for name in cfg.defaulted:
            lines.append(f"#   {name}")
    section = None
    for attr in _CONFIG_FIELDS:
        key = _key_of(attr)
        sec = key.split(".", 1)[0]
        if sec != section:
            lines.append("")
            section = sec
        value = getattr(cfg, attr)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = f"{value:.17g}"
        lines.append(f"{key} = {value}")
    return "\n".join(lines).lstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# scenario presets


def preset(name: str) -> Config:
    """Fully populated configuration for one of the validation scenarios."""
    if name == "ellipse":
        return Config(
            scenario_name=name,
            domain_x0=-1.0, domain_x1=1.0, domain_y0=-1.0, domain_y1=1.0,
            scenario_interface="ellipse", scenario_cx=0.0, scenario_cy=0.0,
            scenario_rx=0.87, scenario_ry=0.29,
            physics_rho1=0.001, physics_rho2=0.019,
            physics_eta1=0.01, physics_eta2=0.01,
            physics_sigma=1.0, physics_delta=0.1, physics_mobility=0.5,
            physics_force_kind="none",
            discretization_level=8, discretization_elements="th",
            scenario_tmax=2.5,
            defaulted=("discretization.level", "scenario.tmax (stationary after t=1.5)",
                       "initial profile tanh(d / (sqrt(2) delta))"),
        )
    if name in ("rising-droplet", "rising-droplet-r025"):
        radius = 0.5 if name == "rising-droplet" else 0.25
        return Config(
            scenario_name=name,
            domain_x0=0.0, domain_x1=1.0, domain_y0=0.0, domain_y1=2.0,
            scenario_interface="circle", scenario_cx=0.5, scenario_cy=0.5,
            scenario_rx=radius, scenario_ry=radius,
            physics_rho1=0.015, physics_rho2=0.005,   # avg 0.01, |A| = 0.5
            physics_eta1=0.001, physics_eta2=0.001,
            physics_sigma=1.0, physics_delta=0.05, physics_mobility=0.005,
            physics_force_kind="weighted", physics_force_x=0.0, physics_force_y=-1.0e4,
            discretization_bc="freeslip",
            discretization_level=8, discretization_elements="th",
            scenario_tmax=0.05,
            defaulted=("discretization.level",
                       "physics.force_kind = weighted (buoyancy needs the density factor)",
                       "scenario.tmax"),
        )
    if name == "rayleigh-taylor":
        return Config(
            scenario_name=name,
            domain_x0=0.0, domain_x1=1.0, domain_y0=0.0, domain_y1=4.0,
            scenario_interface="layer", scenario_layer_y=2.0,
            scenario_layer_amplitude=0.05, scenario_layer_waves=1.0,
            physics_rho1=0.00075, physics_rho2=0.00125,  # avg 0.001, |A| = 0.25
            physics_eta1=1.0e-3, physics_eta2=1.0e-3,
            physics_sigma=0.1, physics_delta=0.1, physics_mobility=0.01,
            physics_force_kind="weighted", physics_force_x=0.0, physics_force_y=-1.0e5,
            discretization_level=8, discretization_elements="p1p1",
            scenario_tmax=0.14,
            defaulted=("domain ((0,1)x(0,4))", "initial perturbation (cosine, amplitude 0.05)",
                       "discretization.level", "discretization.bc",
                       "physics.force_kind = weighted", "scenario.tmax"),
        )
    if name == "rotating-annulus":
        return Config(
            scenario_name=name,
            domain_x0=-1.0, domain_x1=1.0, domain_y0=-1.0, domain_y1=1.0,
            scenario_interface="annulus", scenario_cx=0.0, scenario_cy=0.0,
            scenario_r_inner=0.3, scenario_r_outer=0.5,
            physics_rho1=0.001, physics_rho2=0.019,
            physics_eta1=0.01, physics_eta2=0.01,
            physics_sigma=1.0, physics_delta=0.05, physics_mobility=0.005,
            physics_force_kind="rotating-weighted",
            physics_force_x=0.0, physics_force_y=100.0,
            physics_force_rotations=5.0,
            discretization_level=8, discretization_elements="p1p1",
            scenario_tmax=0.37,
            defaulted=("annulus radii (0.3, 0.5)", "physics.eta*",
                       "physics.force_kind = rotating-weighted",
                       "discretization.level", "discretization.bc", "scenario.tmax"),
        )
    raise ValueError(f"unknown scenario {name!r}")


def initial_phase(cfg: Config):
    """tanh profile across the configured interface geometry."""
    width = np.sqrt(2.0) * cfg.physics_delta

    if cfg.scenario_interface == "circle":
        cx, cy, r = cfg.scenario_cx, cfg.scenario_cy, cfg.scenario_rx

        def dist(p):
            return r - np.sqrt((p[:, 0] - cx) ** 2 + (p[:, 1] - cy) ** 2)
    elif cfg.scenario_interface == "ellipse":
        cx, cy = cfg.scenario_cx, cfg.scenario_cy
        rx, ry = cfg.scenario_rx, cfg.scenario_ry

        def dist(p):
            x = p[:, 0] - cx
            y = p[:, 1] - cy
            e = np.sqrt((x / rx) ** 2 + (y / ry) ** 2)
            g = np.sqrt((x / rx**2) ** 2 + (y / ry**2) ** 2)
            denom = np.where(e > 1e-12, np.maximum(g / np.maximum(e, 1e-12), 1e-12), 1e-12)
            return (1.0 - e) / denom
    elif cfg.scenario_interface == "annulus":
        cx, cy = cfg.scenario_cx, cfg.scenario_cy
        r_in, r_out = cfg.scenario_r_inner, cfg.scenario_r_outer

        def dist(p):
            rr = np.sqrt((p[:, 0] - cx) ** 2 + (p[:, 1] - cy) ** 2)
            return np.minimum(rr - r_in, r_out - rr)
    elif cfg.scenario_interface == "layer":
        y0 = cfg.scenario_layer_y
        amp = cfg.scenario_layer_amplitude
        waves = cfg.scenario_layer_waves
        wx = cfg.domain_x1 - cfg.domain_x0

        def dist(p):
            mid = y0 + amp * np.cos(2.0 * np.pi * waves * (p[:, 0] - cfg.domain_x0) / wx)
            return p[:, 1] - mid
    else:
        raise ValueError(f"unknown interface {cfg.scenario_interface!r}")

    return lambda p: np.tanh(dist(p) / width)


def phys_params(cfg: Config) -> PhysParams:
    return PhysParams(
        rho1=cfg.physics_rho1, rho2=cfg.physics_rho2,
        eta1=cfg.physics_eta1, eta2=cfg.physics_eta2,
        sigma=cfg.physics_sigma, delta=cfg.physics_delta,
        mobility=cfg.physics_mobility,
        force=ForceSpec(kind=cfg.physics_force_kind,
                        k0=(cfg.physics_force_x, cfg.physics_force_y),
                        rotations_per_unit=cfg.physics_force_rotations),
        model=cfg.physics_model,
        elements=cfg.discretization_elements,
        bc=cfg.discretization_bc,
    )


def run_config(cfg: Config, snapshot_hook=None) -> RunConfig:
    return RunConfig(
        params=phys_params(cfg),
        domain=(cfg.domain_x0, cfg.domain_x1, cfg.domain_y0, cfg.domain_y1),
        base_level=cfg.discretization_level,
        t_end=cfg.scenario_tmax,
        phi0=initial_phase(cfg),
        tols=SplitTolerances(eps_v=cfg.solver_eps_v, eps_phi=cfg.solver_eps_phi,
                             max_inner=cfg.solver_max_inner),
        timestep=TimestepConfig(safety=cfg.timestep_safety, v_min=cfg.timestep_v_min,
                                v_max=cfg.timestep_v_max),
        adaptivity=AdaptivityConfig(
            enabled=cfg.adaptivity_enabled,
            min_level=cfg.adaptivity_min_level, max_level=cfg.adaptivity_max_level,
            c_ref_phi=cfg.adaptivity_c_ref_phi, c_coarse_phi=cfg.adaptivity_c_coarse_phi,
            c_ref_v=cfg.adaptivity_c_ref_v, c_coarse_v=cfg.adaptivity_c_coarse_v),
        convection=cfg.discretization_convection,
        newton_tol=cfg.solver_newton_tol,
        audit_tol=cfg.solver_audit_tol,
        audit_strict=(cfg.solver_audit == "strict"),
        snapshot_every=cfg.output_snapshot_every,
        snapshot_hook=snapshot_hook,
    )


# ---------------------------------------------------------------------------
# output writers


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_vtk(state: State, path: str, quadratic: bool = False) -> None:
    """Legacy-VTK ASCII snapshot: triangles, nodal phi/mu/p, velocity vectors.

    By default the quadratic velocity is sampled at the primal vertices; with
    ``quadratic`` every velocity node is written, and each element as its four
    children on the P2 nodes (P1 fields are prolonged exactly)."""
    disc = state.disc
    mesh = disc.mesh
    n = disc.vspace.n_nodes
    if quadratic and disc.vspace.degree == 2:
        points = disc.vspace.nodes
        tris = np.concatenate([disc.vspace.tri_nodes[:, child] for child in P2_CHILDREN])
        phi, mu, p = (p1_at_p2_nodes(mesh, f) for f in (state.phi, state.mu, state.p))
        vel = np.column_stack([state.v[:n], state.v[n:]])
    else:
        points = mesh.vertices
        tris = mesh.triangles
        phi, mu, p = state.phi, state.mu, state.p
        nv = mesh.n_vertices
        vel = np.column_stack([state.v[:n][:nv], state.v[n:][:nv]])

    lines = [
        "# vtk DataFile Version 3.0",
        f"phaseflow state t={_fmt(state.t)}",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(points)} double",
    ]
    # each section is formatted a whole column at a time, in _fmt's format
    lines.extend(map("{:.17g} {:.17g} 0".format, *points.T.tolist()))
    lines.append(f"CELLS {len(tris)} {4 * len(tris)}")
    lines.extend(map("3 {} {} {}".format, *tris.T.tolist()))
    lines.append(f"CELL_TYPES {len(tris)}")
    lines.extend(["5"] * len(tris))
    lines.append(f"POINT_DATA {len(points)}")
    for name, vals in (("phi", phi), ("mu", mu), ("p", p)):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(map("{:.17g}".format, vals.tolist()))
    lines.append("VECTORS velocity double")
    lines.extend(map("{:.17g} {:.17g} 0".format, *vel.T.tolist()))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


CSV_HEADER = ("t,tau,E_kin,E_int,E_total,D_visc,D_mob,W_ext,"
              "ineq_lhs,ineq_rhs,ineq_residual,mass_phi,min_phi,max_phi,dofs")


def write_energy_csv(records, path: str) -> None:
    lines = [CSV_HEADER]
    for r in records:
        e = r.energy
        lines.append(",".join([
            _fmt(r.t), _fmt(r.tau), _fmt(e.e_kin), _fmt(e.e_int), _fmt(e.e_total),
            _fmt(e.d_visc), _fmt(e.d_mob), _fmt(e.w_ext),
            _fmt(r.report.lhs), _fmt(r.report.rhs), _fmt(r.report.residual),
            _fmt(r.mass_phi), _fmt(r.phi_min), _fmt(r.phi_max), str(r.dofs),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# command line


_SYNOPSIS = """usage: phaseflow run [config] [options]

options:
  --scenario NAME        ellipse | rising-droplet | rising-droplet-r025 |
                         rayleigh-taylor | rotating-annulus
  --level N              uniform refinement level (even integer >= 2)
  --tmax T               final time
  --model agg|dss        include or omit the diffusive-flux momentum coupling
  --elements th|p1p1     velocity/pressure pair
  --convection fv|fe     transport mode
  --force constant|weighted
  --out DIR              output directory (default: out)
  --audit strict|log     strict stops the run at the first energy-audit
                         failure (exit code 2; solver failures exit 3)
  --eoc L1,L2,...        convergence study against a reference two levels
                         above the largest entry; prints an error table
  --vtk-quadratic        write every velocity node of a Taylor-Hood run, each
                         element as four triangles on its P2 nodes
"""


# flags that set one config attribute each
_FLAG_ATTRS = {"level": "discretization_level", "tmax": "scenario_tmax",
               "model": "physics_model", "elements": "discretization_elements",
               "convection": "discretization_convection", "audit": "solver_audit",
               "out": "output_dir"}
_KNOWN_FLAGS = ("scenario", "force", "eoc", *_FLAG_ATTRS)


def _parse_cli(argv: list[str]) -> dict:
    if not argv or argv[0] != "run":
        raise ValueError("expected the 'run' subcommand")
    args = {"config": None, "flags": {}}
    i = 1
    while i < len(argv):
        a = argv[i]
        if a == "--vtk-quadratic":
            args["flags"]["vtk_quadratic"] = True
            i += 1
            continue
        if a.startswith("--"):
            name = a[2:].replace("-", "_")
            if name not in _KNOWN_FLAGS:
                raise ValueError(f"unknown flag {a}")
            if i + 1 >= len(argv):
                raise ValueError(f"missing value for {a}")
            args["flags"][name] = argv[i + 1]
            i += 2
            continue
        if args["config"] is not None:
            raise ValueError(f"unexpected positional argument {a!r}")
        args["config"] = a
        i += 1
    return args


def _config_from_cli(args: dict) -> Config:
    flags = args["flags"]
    if args["config"] and "scenario" in flags:
        raise ValueError("give either a config file or --scenario, not both")
    if args["config"]:
        cfg = load_config(args["config"])
    elif "scenario" in flags:
        cfg = preset(flags["scenario"])
    else:
        raise ValueError("need a config file or --scenario")
    for flag, attr in _FLAG_ATTRS.items():
        if flag in flags:
            try:
                value = _parse_value(flags[flag], type(_CONFIG_FIELDS[attr].default))
            except ValueError as exc:
                raise ValueError(f"--{flag}: {exc}") from None
            setattr(cfg, attr, value)
    if flags.get("vtk_quadratic"):
        cfg.output_vtk_quadratic = True
    if "force" in flags:
        want = flags["force"]
        if want not in ("constant", "weighted"):
            raise ValueError("--force must be constant or weighted")
        rotating = cfg.physics_force_kind.startswith("rotating")
        if rotating:
            cfg.physics_force_kind = "rotating" if want == "constant" else "rotating-weighted"
        else:
            cfg.physics_force_kind = want
    validate_config(cfg)
    return cfg


def _report_abort(exc: RunAborted | SolverError) -> tuple[RunResult, int]:
    """The steps accepted before an abort and the exit code, 2 when the
    strict audit stopped the run and 3 when a solver failure did; prints the
    one-line failure message."""
    # a solver failure in the set-up leaves no steps to write
    result = exc.result if isinstance(exc, RunAborted) else RunResult(None, [], 0)
    code = 2 if isinstance(exc, AuditFailure) else 3
    kind = "audit" if code == 2 else "solver"
    print(f"{kind} failure after {len(result.records)} accepted steps: {exc}", file=sys.stderr)
    return result, code


def run_scenario(cfg: Config) -> tuple[RunResult, int]:
    """Execute a configured run, writing snapshots, the configuration and the
    energy ledger.  Returns the result and the process exit code: 0, or 2
    when the strict audit stopped the run, or 3 when a solver failure did;
    an aborted run still writes the ledger of the steps accepted before."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    quadratic = cfg.output_vtk_quadratic

    def hook(state: State, step_index: int) -> None:
        tag = "final" if step_index < 0 else f"{step_index:06d}"
        write_vtk(state, os.path.join(cfg.output_dir, f"state_{tag}.vtk"),
                  quadratic=quadratic)

    rc = run_config(cfg, snapshot_hook=hook)
    code = 0
    try:
        result = run(rc)
    except (RunAborted, SolverError) as exc:
        result, code = _report_abort(exc)
    with open(os.path.join(cfg.output_dir, "config.txt"), "w", encoding="utf-8") as fh:
        fh.write(dump_config(cfg))
    write_energy_csv(result.records, os.path.join(cfg.output_dir, "energy.csv"))
    return result, code


def run_eoc(cfg: Config, levels: list[int]) -> list[tuple[int, float, float]]:
    """Convergence harness: final-time phase-field L2 errors of uniform runs
    against a reference two levels above the largest requested level.  An
    aborted run re-raises with the run named in front of its message."""
    levels = sorted(levels)
    ref_level = levels[-1] + 2
    solutions = {}
    for level in levels + [ref_level]:
        c = replace(cfg)
        c.discretization_level = level
        c.adaptivity_enabled = False
        try:
            solutions[level] = run(run_config(c)).state
        except (RunAborted, SolverError) as exc:
            # name the failing run; type, result and cause stay
            name = f"level-{level} run" if level != ref_level else f"reference level-{level} run"
            exc.args = (f"{name}: {exc}",)
            raise
    ref = solutions[ref_level]
    width = cfg.domain_x1 - cfg.domain_x0
    rows = []
    for level in levels:
        st = solutions[level]
        err = l2_distance(st.disc.mesh, st.phi, ref.disc.mesh, ref.phi)
        rows.append((level, width * 2.0 ** (-level / 2), err))
    return rows


def _usage_error(message: object) -> int:
    print(f"error: {message}", file=sys.stderr)
    print(_SYNOPSIS, file=sys.stderr)
    return 1


def cli_main(argv: list[str]) -> int:
    try:
        args = _parse_cli(argv)
        cfg = _config_from_cli(args)
    except (ValueError, OSError) as exc:
        return _usage_error(exc)

    if "eoc" in args["flags"]:
        try:
            levels = [int(s) for s in args["flags"]["eoc"].split(",")]
        except ValueError:
            levels = []
        if not levels or any(level < 2 or level % 2 for level in levels):
            return _usage_error("--eoc expects a comma list of even integer levels >= 2")
        try:
            # the reference run too, two levels above the largest
            for level in levels + [max(levels) + 2]:
                _require_tiling(cfg, level)
        except ValueError as exc:
            return _usage_error(exc)
        try:
            rows = run_eoc(cfg, levels)
        except (RunAborted, SolverError) as exc:
            return _report_abort(exc)[1]
        print(f"{'level':>6} {'h':>12} {'L2 error':>14} {'ratio':>8}")
        prev = None
        for level, h, err in rows:
            ratio = f"{prev / err:8.2f}" if prev else " " * 8
            print(f"{level:>6} {h:>12.6g} {err:>14.6e} {ratio}")
            prev = err
        return 0

    try:
        os.makedirs(cfg.output_dir, exist_ok=True)
    except OSError as exc:
        return _usage_error(f"output.dir (--out) {cfg.output_dir!r}: {exc.strerror}")
    result, code = run_scenario(cfg)
    if code == 0:
        n = len(result.records)
        line = (f"completed {n} steps to t={result.state.t:.6g}; "
                f"audit failures: {result.audit_failures}")
        if cfg.adaptivity_enabled:
            drifts = [r.transfer_mass_drift for r in result.records]
            line += (f"; phase mass drift from remeshing: {sum(drifts):.2g}"
                     f"; largest remeshing drift: {max(map(abs, drifts), default=0.0):.2g}")
        print(line)
    return code


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))
