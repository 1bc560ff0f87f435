import os
import re
from dataclasses import replace

import numpy as np
import pytest

from phaseflow import app, coupling
from phaseflow.cahn_hilliard import LIN_TOL
from phaseflow.app import (
    CSV_HEADER,
    cli_main,
    dump_config,
    initial_phase,
    load_config,
    preset,
    run_config,
    write_energy_csv,
    write_vtk,
)
from phaseflow.coupling import Discretization, State, initial_state, run
from phaseflow.fem import p1_at_p2_nodes
from phaseflow.mesh import REFINE, build_structured_mesh, refine_and_coarsen
from phaseflow.momentum import PhysParams

from oracles import midpoint_refine, write_vtk_per_value


# ------------------------------------------------------------------- config

def test_load_empty_file_with_scenario(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("scenario.name = ellipse\n")
    cfg = load_config(str(p))
    assert cfg.physics_mobility == 0.5
    assert cfg.scenario_rx == 0.87


def test_load_rejects_bad_delta(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("physics.delta = -1\n")
    with pytest.raises(ValueError, match="physics.delta"):
        load_config(str(p))


def test_load_rejects_unknown_key(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("physics.bogus = 3\n")
    with pytest.raises(ValueError, match="c.txt:1"):
        load_config(str(p))


def test_load_reports_line_numbers(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("# comment\n\nphysics.delta == 0.05\n")
    with pytest.raises(ValueError, match=":3"):
        load_config(str(p))


def test_load_explicit_key_overrides_preset_in_any_order(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("physics.mobility = 0.125\nscenario.name = ellipse\n")
    assert load_config(str(p)) == replace(preset("ellipse"), physics_mobility=0.125)


@pytest.mark.parametrize("key", ["adaptivity.interface_target", "scenario.seed"])
def test_load_rejects_deleted_keys(tmp_path, key):
    p = tmp_path / "c.txt"
    p.write_text(f"scenario.name = ellipse\n{key} = 3\n")
    with pytest.raises(ValueError, match=re.escape(f"c.txt:2: unknown key '{key}'")):
        load_config(str(p))


def test_load_names_the_line_of_an_unknown_scenario(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("physics.mobility = 0.5\nscenario.name = elipse\n")
    with pytest.raises(ValueError, match=re.escape("c.txt:2: unknown scenario 'elipse'")):
        load_config(str(p))


@pytest.mark.parametrize("key,value", [
    ("timestep.safety", "0"), ("solver.max_inner", "0"), ("solver.eps_v", "0"),
    ("solver.eps_phi", "-1e-6"), ("solver.newton_tol", "0"), ("solver.audit_tol", "-1e-9"),
    ("output.snapshot_every", "-1")])
def test_load_rejects_bad_solver_settings(tmp_path, key, value):
    p = tmp_path / "c.txt"
    p.write_text(f"scenario.name = ellipse\n{key} = {value}\n")
    with pytest.raises(ValueError, match=re.escape(key)):
        load_config(str(p))


@pytest.mark.parametrize("key,value", [
    ("timestep.v_min", "0"), ("timestep.v_max", "5"), ("adaptivity.min_level", "9"),
    ("adaptivity.c_ref_phi", "1.5"), ("adaptivity.c_coarse_phi", "0"),
    ("adaptivity.c_ref_v", "-0.1"), ("adaptivity.c_coarse_v", "1")])
def test_load_rejects_bad_timestep_and_adaptivity_settings(tmp_path, key, value):
    # adaptivity stays off: run_config builds these settings all the same
    p = tmp_path / "c.txt"
    p.write_text(f"scenario.name = ellipse\n{key} = {value}\n")
    with pytest.raises(ValueError, match=re.escape(key)):
        load_config(str(p))


@pytest.mark.parametrize("name,key,value", [
    ("ellipse", "scenario.rx", "0"), ("ellipse", "scenario.ry", "-0.2"),
    ("rising-droplet", "scenario.rx", "0"), ("rotating-annulus", "scenario.r_inner", "-0.1"),
    ("rotating-annulus", "scenario.r_outer", "0.3")])
def test_load_rejects_degenerate_interfaces(tmp_path, name, key, value):
    p = tmp_path / "c.txt"
    p.write_text(f"scenario.name = {name}\n{key} = {value}\n")
    with pytest.raises(ValueError, match=re.escape(key)):
        load_config(str(p))


@pytest.mark.parametrize("name", ["ellipse", "rising-droplet", "rising-droplet-r025",
                                  "rayleigh-taylor", "rotating-annulus"])
def test_preset_round_trips_through_a_file(tmp_path, name):
    p = tmp_path / "c.txt"
    p.write_text(dump_config(preset(name)))
    assert load_config(str(p)) == preset(name)


def test_config_round_trip(tmp_path):
    p = tmp_path / "c.txt"
    p.write_text("scenario.name = rising-droplet\nphysics.mobility = 0.125\n"
                 "solver.audit = strict\nadaptivity.enabled = true\n")
    cfg = load_config(str(p))
    assert cfg.physics_mobility == 0.125  # explicit key beats the preset
    assert cfg.adaptivity_enabled is True
    text1 = dump_config(cfg)
    p2 = tmp_path / "c2.txt"
    p2.write_text(text1)
    text2 = dump_config(load_config(str(p2)))
    assert text1 == text2


def test_preset_values_pinned():
    assert preset("ellipse").physics_mobility == 0.5
    assert preset("ellipse").physics_delta == 0.1
    rd = preset("rising-droplet")
    assert rd.physics_force_kind == "weighted"
    assert (rd.physics_force_x, rd.physics_force_y) == (0.0, -1.0e4)
    assert rd.physics_rho1 + rd.physics_rho2 == pytest.approx(0.02)  # avg 0.01
    assert preset("rayleigh-taylor").physics_sigma == 0.1
    ra = preset("rotating-annulus")
    assert ra.physics_force_rotations == 5.0
    assert preset("rising-droplet-r025").scenario_rx == 0.25
    with pytest.raises(ValueError):
        preset("nope")


def test_preset_dump_flags_defaulted_values():
    text = dump_config(preset("rayleigh-taylor"))
    assert "# defaulted:" in text
    assert "domain" in text


def test_initial_phase_shapes():
    cfg = preset("rotating-annulus")
    f = initial_phase(cfg)
    pts = np.array([[0.0, 0.4], [0.0, 0.0], [0.9, 0.9]])
    vals = f(pts)
    # centerline of the annulus is one strip half-width (0.1) from either
    # boundary: tanh(0.1 / (sqrt(2) * 0.05)) ~ 0.888
    assert vals[0] == pytest.approx(np.tanh(0.1 / (np.sqrt(2) * 0.05)), abs=1e-12)
    assert vals[1] < -0.9          # inner hole
    assert vals[2] < -0.9          # far field


# -------------------------------------------------------------------- vtk

def tiny_state():
    params = PhysParams()
    mesh = build_structured_mesh((0, 1, 0, 1), 2)
    disc = Discretization(mesh, params)
    return initial_state(disc, params, lambda p: np.ones(len(p))), params


def test_vtk_smoke(tmp_path):
    state, _ = tiny_state()
    path = tmp_path / "s.vtk"
    write_vtk(state, str(path))
    text = path.read_text()
    assert "CELL_TYPES" in text
    assert text.count("\n5") >= state.disc.mesh.n_triangles
    assert "SCALARS phi double 1" in text


def test_vtk_deterministic(tmp_path):
    state, _ = tiny_state()
    p1, p2 = tmp_path / "a.vtk", tmp_path / "b.vtk"
    write_vtk(state, str(p1))
    write_vtk(state, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def parse_vtk(path):
    """Minimal independent legacy-VTK reader for the round-trip check."""
    with open(path) as fh:
        tokens = fh.read().split()
    i = tokens.index("POINTS")
    n_pts = int(tokens[i + 1])
    pts = np.array([float(t) for t in tokens[i + 3:i + 3 + 3 * n_pts]]).reshape(-1, 3)
    j = tokens.index("CELLS")
    n_cells = int(tokens[j + 1])
    size = int(tokens[j + 2])
    raw = [int(t) for t in tokens[j + 3:j + 3 + size]]
    cells = []
    k = 0
    while k < len(raw):
        cnt = raw[k]
        cells.append(raw[k + 1:k + 1 + cnt])
        k += cnt + 1
    assert len(cells) == n_cells
    return pts, cells


def test_vtk_round_trip_with_independent_parser(tmp_path):
    state, _ = tiny_state()
    path = tmp_path / "s.vtk"
    write_vtk(state, str(path))
    pts, cells = parse_vtk(str(path))
    assert len(pts) == state.disc.mesh.n_vertices
    assert len(cells) == state.disc.mesh.n_triangles
    np.testing.assert_allclose(pts[:, :2], state.disc.mesh.vertices)


def test_vtk_quadratic_mesh(tmp_path):
    state, _ = tiny_state()
    path = tmp_path / "q.vtk"
    write_vtk(state, str(path), quadratic=True)
    pts, cells = parse_vtk(str(path))
    assert len(pts) == state.disc.vspace.n_nodes
    assert len(cells) == 4 * state.disc.mesh.n_triangles


@pytest.mark.parametrize("bisected", [False, True], ids=["structured", "bisected"])
def test_vtk_quadratic_matches_a_midpoint_refined_mesh_bytewise(tmp_path, bisected):
    # the quadratic snapshot is the linear snapshot of the red refinement
    # whose vertices are the P2 nodes, with the P1 fields prolonged
    mesh = build_structured_mesh((0, 1, 0, 2), 4)
    if bisected:
        marks = np.zeros(mesh.n_triangles, dtype=int)
        marks[::5] = REFINE
        mesh, _ = refine_and_coarsen(mesh, marks)
    disc = Discretization(mesh, PhysParams())
    rng = np.random.default_rng(3)
    phi, mu, p = rng.standard_normal((3, mesh.n_vertices))
    v = rng.standard_normal(disc.vspace.n_dofs)
    write_vtk(State(0.25, phi, mu, v, p, disc), str(tmp_path / "q.vtk"), quadratic=True)

    fine = Discretization(midpoint_refine(mesh), PhysParams(elements="p1p1"))
    phi_f, mu_f, p_f = (p1_at_p2_nodes(mesh, f) for f in (phi, mu, p))
    write_vtk(State(0.25, phi_f, mu_f, v, p_f, fine), str(tmp_path / "ref.vtk"))
    assert (tmp_path / "q.vtk").read_bytes() == (tmp_path / "ref.vtk").read_bytes()


@pytest.mark.parametrize("elements, quadratic", [("p1p1", False), ("th", True)],
                         ids=["p1p1", "th-quadratic"])
def test_vtk_bytes_equal_the_per_value_writer(tmp_path, elements, quadratic):
    mesh = build_structured_mesh((0, 1, 0, 2), 4)
    disc = Discretization(mesh, PhysParams(elements=elements))
    rng = np.random.default_rng(4)
    phi, mu, p = rng.standard_normal((3, mesh.n_vertices))
    # signed zero, subnormal, huge and short decimals format like any other value
    phi[:5] = -0.0, 5e-324, 1.7976931348623157e308, 0.1, -1e-7
    v = rng.standard_normal(disc.vspace.n_dofs) * 1e-3
    state = State(1.0 / 3.0, phi, mu, v, p, disc)
    write_vtk(state, str(tmp_path / "columns.vtk"), quadratic=quadratic)
    write_vtk_per_value(state, str(tmp_path / "values.vtk"), quadratic)
    assert (tmp_path / "columns.vtk").read_bytes() == (tmp_path / "values.vtk").read_bytes()


# -------------------------------------------------------------------- csv

def test_csv_header_only_for_empty(tmp_path):
    path = tmp_path / "e.csv"
    write_energy_csv([], str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 1
    assert lines[0].startswith("t,tau,E_kin,E_int,E_total")


def test_csv_rows_and_determinism(tmp_path):
    cfg = preset("ellipse")
    cfg.discretization_level = 4
    cfg.scenario_tmax = 2e-3
    out = run(run_config(cfg))
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_energy_csv(out.records, str(pa))
    out2 = run(run_config(cfg))
    write_energy_csv(out2.records, str(pb))
    assert pa.read_bytes() == pb.read_bytes()
    lines = pa.read_text().strip().split("\n")
    assert len(lines) == len(out.records) + 1


# -------------------------------------------------------------------- cli

def test_cli_usage_error():
    assert cli_main(["bogus"]) == 1
    assert cli_main(["run", "--definitely-not-a-flag", "x"]) == 1
    assert cli_main(["run"]) == 1  # no config, no scenario


def test_cli_smoke_run(tmp_path, capsys):
    out = str(tmp_path / "out")
    code = cli_main(["run", "--scenario", "ellipse", "--level", "4",
                     "--tmax", "1e-3", "--out", out])
    assert code == 0
    assert os.path.exists(os.path.join(out, "energy.csv"))
    assert os.path.exists(os.path.join(out, "state_final.vtk"))
    assert os.path.exists(os.path.join(out, "config.txt"))
    assert "remeshing" not in capsys.readouterr().out  # a fixed-mesh run


def test_cli_force_flag_switch(tmp_path):
    out = str(tmp_path / "out2")
    code = cli_main(["run", "--scenario", "rising-droplet", "--level", "4",
                     "--tmax", "1e-4", "--force", "constant", "--out", out])
    assert code == 0
    cfg_text = open(os.path.join(out, "config.txt")).read()
    assert "physics.force_kind = constant" in cfg_text


def test_cli_eoc_prints_table(tmp_path, capsys):
    code = cli_main(["run", "--scenario", "ellipse", "--elements", "p1p1",
                     "--tmax", "5e-4", "--eoc", "2,4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "L2 error" in out
    assert "ratio" in out


@pytest.mark.parametrize("levels", [",", "3", "6,,8", "6,"])
def test_cli_eoc_rejects_bad_levels(monkeypatch, capsys, levels):
    monkeypatch.setattr(app, "run_eoc", lambda cfg, levels: pytest.fail(f"a study ran on {levels}"))
    code = cli_main(["run", "--scenario", "ellipse", "--tmax", "0.001", "--eoc", levels])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --eoc expects a comma list of even integer levels >= 2")
    assert "usage: phaseflow run" in err and "Traceback" not in err


@pytest.mark.parametrize("flag,value,message", [("--level", "abc", "not an integer: 'abc'"),
                                                ("--tmax", "soon", "not a number: 'soon'")],
                         ids=["level", "tmax"])
def test_cli_flag_value_of_the_wrong_type_is_a_usage_error_naming_the_flag(capsys, flag,
                                                                            value, message):
    assert cli_main(["run", "--scenario", "ellipse", flag, value]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: {message}\n")
    assert "usage: phaseflow run" in err and "Traceback" not in err


def test_cli_adaptive_run_prints_remeshing_mass_drift(tmp_path, capsys):
    out = tmp_path / "out"
    p = tmp_path / "c.txt"
    p.write_text(f"scenario.name = ellipse\ndiscretization.level = 4\n"
                 f"adaptivity.enabled = true\nadaptivity.min_level = 4\n"
                 f"adaptivity.max_level = 6\nscenario.tmax = 0.01\noutput.dir = {out}\n")
    assert cli_main(["run", str(p)]) == 0
    line = capsys.readouterr().out.strip()
    match = re.fullmatch(r"completed 2 steps to t=0.01; audit failures: 0; "
                         r"phase mass drift from remeshing: (\S+); "
                         r"largest remeshing drift: (\S+)", line)
    assert match, line
    # the same run through the library: the summed drift of its remeshings,
    # and the largest of them in magnitude
    result = run(run_config(load_config(str(p))))
    drifts = [r.transfer_mass_drift for r in result.records]
    assert sum(drifts) != 0.0 and match.group(1) == f"{sum(drifts):.2g}"
    assert match.group(2) == f"{max(abs(d) for d in drifts):.2g}"
    assert (out / "energy.csv").read_text().count("\n") == 3


def test_cli_adaptive_run_without_steps_prints_zero_drifts(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text(f"scenario.name = ellipse\ndiscretization.level = 4\n"
                 f"adaptivity.enabled = true\nadaptivity.min_level = 4\n"
                 f"adaptivity.max_level = 6\nscenario.tmax = 0\noutput.dir = {tmp_path / 'out'}\n")
    assert cli_main(["run", str(p)]) == 0
    assert capsys.readouterr().out.strip() == (
        "completed 0 steps to t=0; audit failures: 0; "
        "phase mass drift from remeshing: 0; largest remeshing drift: 0")


@pytest.mark.parametrize("line,key", [("timestep.v_min = 0", "timestep.v_min"),
                                      ("adaptivity.min_level = 9", "adaptivity.min_level"),
                                      ("adaptivity.c_ref_phi = 1.5", "adaptivity.c_ref_phi"),
                                      ("scenario.rx = 0", "scenario.rx")])
def test_cli_config_error_exits_1(tmp_path, capsys, line, key):
    out = tmp_path / "out"
    p = tmp_path / "c.txt"
    p.write_text(f"scenario.name = ellipse\ndiscretization.level = 4\n"
                 f"scenario.tmax = 1e-3\n{line}\noutput.dir = {out}\n")
    assert cli_main(["run", str(p)]) == 1
    assert f"error: {key} must" in capsys.readouterr().err
    assert not out.exists()


def test_cli_domain_the_grid_cannot_tile_exits_1_without_outputs(tmp_path, capsys):
    # level 4 on width 2 has h = 0.5, and the height 1.7 is no multiple of it
    out = tmp_path / "out"
    p = tmp_path / "c.txt"
    p.write_text(f"scenario.name = ellipse\ndiscretization.level = 4\n"
                 f"domain.y1 = 0.7\noutput.dir = {out}\n")
    assert cli_main(["run", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: domain: rectangle height 1.7 is not a multiple of h=0.5 "
                          "at level 4 (the height is domain.y1 - domain.y0")
    assert "usage: phaseflow run" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_eoc_level_the_grid_cannot_tile_exits_1(tmp_path, monkeypatch, capsys):
    # the height 1.5 tiles at level 4 (h = 0.5) but not at level 2 (h = 1)
    monkeypatch.setattr(app, "run_eoc", lambda cfg, levels: pytest.fail(f"a study ran on {levels}"))
    p = tmp_path / "c.txt"
    p.write_text("scenario.name = ellipse\ndiscretization.level = 4\ndomain.y1 = 0.5\n")
    assert cli_main(["run", str(p), "--eoc", "2,4"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: domain: rectangle height 1.5 is not a multiple of h=1.0 "
                          "at level 2")
    assert "usage: phaseflow run" in err and "Traceback" not in err


@pytest.mark.parametrize("key", ["physics.rho1", "domain.x1", "scenario.tmax"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_load_rejects_non_finite_numbers(tmp_path, key, value):
    p = tmp_path / "c.txt"
    p.write_text(f"scenario.name = ellipse\n{key} = {value}\n")
    with pytest.raises(ValueError, match=re.escape(f"c.txt:2: not a finite number: '{value}'")):
        load_config(str(p))


def test_cli_non_finite_flag_value_is_a_usage_error_naming_the_flag(tmp_path, capsys):
    assert cli_main(["run", "--scenario", "ellipse", "--tmax", "inf",
                     "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --tmax: not a finite number: 'inf'\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["", "taken", "taken/sub"], ids=["empty", "file", "below-file"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_unusable_output_dir_is_a_usage_error(tmp_path, monkeypatch, capsys, source, value):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("")
    if source == "flag":
        argv = ["run", "--scenario", "ellipse", "--level", "2", "--tmax", "0.001",
                "--out", value]
    else:
        (tmp_path / "c.txt").write_text("scenario.name = ellipse\ndiscretization.level = 2\n"
                                        f"scenario.tmax = 0.001\noutput.dir = {value}\n")
        argv = ["run", "c.txt"]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: output.dir (--out) {value!r}: ")
    assert "usage: phaseflow run" in err and "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == sorted(["taken"] + ["c.txt"] * (source == "config"))
    assert (tmp_path / "taken").read_text() == ""


def test_cli_solver_failure_exits_3_and_keeps_outputs(tmp_path, capsys):
    # a Newton tolerance no solve can reach: every retry of the first step fails
    out = tmp_path / "out"
    p = tmp_path / "c.txt"
    p.write_text(f"scenario.name = ellipse\ndiscretization.level = 4\n"
                 f"scenario.tmax = 1e-3\nsolver.newton_tol = 1e-30\noutput.dir = {out}\n")
    assert cli_main(["run", str(p)]) == 3
    err = capsys.readouterr().err
    assert "solver failure after 0 accepted steps" in err and "Newton stalled" in err
    assert (out / "config.txt").exists()
    assert (out / "energy.csv").read_text().strip().split("\n") == [CSV_HEADER]


def test_cli_eoc_solver_failure_exits_3(tmp_path, capsys):
    p = tmp_path / "c.txt"
    p.write_text("scenario.name = ellipse\nsolver.newton_tol = 1e-30\nscenario.tmax = 0.01\n")
    assert cli_main(["run", str(p), "--eoc", "2"]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("solver failure after 0 accepted steps") and "Newton stalled" in err
    assert "level-2 run: " in err


def test_cli_eoc_strict_audit_failure_exits_2(tmp_path, monkeypatch, capsys):
    import phaseflow.coupling as coupling

    check = coupling.step_inequality_check

    def fail(*args, **kw):
        report, breakdown = check(*args, **kw)
        return replace(report, residual=report.tolerance + 1.0), breakdown

    monkeypatch.setattr(coupling, "step_inequality_check", fail)
    code = cli_main(["run", "--scenario", "ellipse", "--tmax", "0.01", "--audit", "strict",
                     "--eoc", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("audit failure after 0 accepted steps")


def test_cli_strict_audit_failure_exits_2_and_keeps_accepted_rows(tmp_path, monkeypatch,
                                                                    capsys):
    import phaseflow.coupling as coupling

    check = coupling.step_inequality_check

    def fail_after_first_step(*args, **kw):
        report, breakdown = check(*args, **kw)
        if args[9] > 0.0:  # the time of the old level
            report = replace(report, residual=report.tolerance + 1.0)
        return report, breakdown

    monkeypatch.setattr(coupling, "step_inequality_check", fail_after_first_step)
    out = tmp_path / "out"
    code = cli_main(["run", "--scenario", "ellipse", "--level", "4", "--tmax", "1",
                     "--audit", "strict", "--out", str(out)])
    assert code == 2
    assert "audit failure after 1 accepted steps" in capsys.readouterr().err
    assert (out / "config.txt").exists()
    assert len((out / "energy.csv").read_text().strip().split("\n")) == 2


# -------------------------------------------------- phase-field Newton tolerance

# level-4 runs on the code paths of the three benchmark workloads
NEWTON_RUNS = {
    "ellipse-fe": ("ellipse", dict(discretization_level=4, discretization_convection="fe",
                                   scenario_tmax=0.01)),
    "rt-fv": ("rayleigh-taylor", dict(discretization_level=4, discretization_elements="p1p1",
                                      discretization_convection="fv", scenario_tmax=0.001)),
    "adapt": ("ellipse", dict(discretization_level=4, discretization_convection="fv",
                              adaptivity_enabled=True, adaptivity_min_level=4,
                              adaptivity_max_level=6, scenario_tmax=0.01)),
}


class AtLinTol:
    """A phase cache whose solves all run to ``LIN_TOL``."""

    def __init__(self, cache):
        self.cache = cache

    def solve(self, A, b, tol, x0):
        return self.cache.solve(A, b, LIN_TOL, x0)


def newton_counts(monkeypatch, name, at_lin_tol):
    """The Newton iterations of every phase-field solve of a run, with the
    corrections solved to the forcing tolerance or, held, to LIN_TOL."""
    scenario, inputs = NEWTON_RUNS[name]
    counts = []
    solve = coupling.ch_diffusive_solve

    def recording(*args, lin_cache, **kw):
        out = solve(*args, lin_cache=AtLinTol(lin_cache) if at_lin_tol else lin_cache, **kw)
        counts.append(out[2].newton_iterations)
        return out

    with monkeypatch.context() as m:
        m.setattr(coupling, "ch_diffusive_solve", recording)
        run(run_config(replace(preset(scenario), **inputs)))
    return counts


@pytest.mark.parametrize("name", sorted(NEWTON_RUNS))
def test_newton_iterations_do_not_depend_on_the_forcing_tolerance(monkeypatch, name):
    # solving each correction only as far as Newton's own test needs takes
    # exactly the Newton iterations of corrections solved to LIN_TOL
    forced = newton_counts(monkeypatch, name, at_lin_tol=False)
    assert sum(forced) > len(forced)
    assert forced == newton_counts(monkeypatch, name, at_lin_tol=True)
