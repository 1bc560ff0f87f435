"""The names the benchmark harness traces from outside the package.

``perfbench/tracing.py`` wraps phaseflow functions by name, and
``perfbench/worker.py`` drives a run through the public entry points; a
renamed or removed name makes a traced benchmark run abort.  These level-4
runs exercise the same code paths as the three benchmark workloads.
"""

import importlib
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

SPECS = {
    "ellipse-th-fe": ("ellipse", dict(discretization_level=4, discretization_elements="th",
                                      discretization_convection="fe", scenario_tmax=0.01)),
    "rt-p1p1-fv": ("rayleigh-taylor", dict(discretization_level=4,
                                           discretization_elements="p1p1",
                                           discretization_convection="fv",
                                           scenario_tmax=0.001)),
    "ellipse-adapt": ("ellipse", dict(discretization_level=4, discretization_elements="th",
                                      discretization_convection="fv", adaptivity_enabled=True,
                                      adaptivity_min_level=4, adaptivity_max_level=6,
                                      scenario_tmax=0.01)),
}


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("worker"), importlib.import_module("tracing")


@pytest.mark.parametrize("name", sorted(SPECS))
def test_traced_run_covers_every_layer(perfbench, tmp_path, name):
    worker, tracing = perfbench
    preset, inputs = SPECS[name]
    spec = dict(preset=preset, inputs=inputs, vtk_every=1, out_dir=str(tmp_path),
                trace=True, first_step_only=False)
    out = worker.run_once(spec, {})
    assert out["wrappers_removed"]
    assert out["steps"] >= 1
    expected = set(tracing.LAYER_UNITS) - {"trace.overhead_s"}
    assert expected <= set(out["layers"])
    layers = out["layers"]
    assert layers["coupling.accepted_steps"] == out["steps"]
    # every traced layer is live: a call routed around a traced name would
    # read as a silent 0 here
    assert layers["momentum.assemble_viscous.calls"] == layers["coupling.step_attempts"]
    for key in ("momentum.assemble_Nb_s", "momentum.apply_velocity_dirichlet_s",
                "momentum.solve_momentum.self_s"):
        assert layers[key] > 0, key
    # the factorizations and LU-preconditioned iterations run inside the
    # solves that own them; a cache moved out of solve_saddle or
    # ch_diffusive_solve would shift its work to the tracer's "other" bucket
    for key in ("linalg.saddle_refreshes", "linalg.phase_refreshes",
                "linalg.saddle_bicgstab_iters"):
        assert layers[key] >= 1, key
    assert layers["mesh.points_located"] == 0
    convection = inputs["discretization_convection"]
    assert (layers["cahn_hilliard.fe_convection_matrix_s"] > 0) == (convection == "fe")
    assert (layers["cahn_hilliard.fv_transport_step_s"] > 0) == (convection == "fv")
    for key in ("mesh.refine_and_coarsen_s", "coupling.transfer_state_s"):
        assert (layers[key] > 0) == (name == "ellipse-adapt"), key
    assert worker.environment()["assembly_threads"] >= 1
