"""One timed run of one workload, in a fresh process.

Usage: python3 worker.py SPEC.json RESULT.json
       python3 worker.py --sample SPEC.json

SPEC holds the preset name, the generated Config overrides, the VTK cadence,
the output directory, whether to trace, and whether to stop after the first
accepted step.  The run drives phaseflow's
public entry points the way the command line does: ``app.preset``,
``app.run_config``, ``coupling.run``, ``app.write_vtk`` from the snapshot
hook and ``app.write_energy_csv``.  RESULT receives the timings, the facts
the correctness checks need, and, when traced, the per-layer metrics.

With ``--sample`` the process stays up and repeats set-up and the first
accepted step on request: each line on standard input is a time budget in
seconds, answered by one JSON line on standard output with a list of
``{"setup_s", "first_step_s"}`` samples (or one ``{"error", "steps"}``).
It ends at the end of its input.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import sys
import time
import traceback
from dataclasses import replace


def environment() -> dict:
    """Versions and the thread settings in effect in this process."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    # numpy and scipy each bundle an OpenBLAS; ask both how many threads they use
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(pkg.__file__)), f"{pkg.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[os.path.basename(path)] = fn()
                    break
    from phaseflow.fem import assembly_threads

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "PHASEFLOW_THREADS": os.environ.get("PHASEFLOW_THREADS"),
        "assembly_threads": assembly_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "NUMPY_MADVISE_HUGEPAGE": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }


class FirstStepDone(Exception):
    """Ends a short run at the snapshot hook after the first accepted step."""


def run_once(spec: dict, marks: dict) -> dict:
    """Time one run; ``marks`` collects the hook's time stamps by step index,
    so an aborted run still shows how many steps it had accepted."""
    from phaseflow import app, coupling

    out_dir = spec["out_dir"]
    vtk_every = spec["vtk_every"]
    facts = {"max_triangles": 0}

    def hook(state, step_index):
        # coupling.run calls this at set-up end (0), after every accepted
        # step (the run config asks for every step) and at the end (-1)
        if step_index not in marks:
            marks[step_index] = time.perf_counter()
        if step_index == 1 and spec["first_step_only"]:
            raise FirstStepDone
        if step_index == 0:
            facts["mass0"] = float(state.disc.lumped @ state.phi)
        facts["max_triangles"] = max(facts["max_triangles"], state.disc.mesh.n_triangles)
        if step_index <= 0 or (vtk_every and step_index % vtk_every == 0):
            tag = "final" if step_index < 0 else f"{step_index:06d}"
            app.write_vtk(state, os.path.join(out_dir, f"state_{tag}.vtk"))

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        cfg = replace(app.preset(spec["preset"]), **spec["inputs"])
        rc = replace(app.run_config(cfg, snapshot_hook=hook), snapshot_every=1)
        try:
            result = coupling.run(rc)
        except FirstStepDone:
            return {"setup_s": marks[0] - t0, "first_step_s": marks[1] - marks[0]}
        csv_path = os.path.join(out_dir, "energy.csv")
        app.write_energy_csv(result.records, csv_path)
        t1 = time.perf_counter()
    finally:
        wrappers_removed = tracer.remove() if tracer is not None else True

    with open(csv_path, "rb") as fh:
        csv_sha256 = hashlib.sha256(fh.read()).hexdigest()
    records = result.records
    out = {
        "setup_s": marks[0] - t0,
        "first_step_s": marks[1] - marks[0],
        "run_s": t1 - marks[0],
        "steps": len(records),
        "audit_passed": [bool(r.report.passed) for r in records],
        "mass0": facts["mass0"],
        "mass_phi": [r.mass_phi for r in records],
        "final_e_total": records[-1].energy.e_total,
        "final_mass_phi": records[-1].mass_phi,
        "csv_sha256": csv_sha256,
        "domain_area": (cfg.domain_x1 - cfg.domain_x0) * (cfg.domain_y1 - cfg.domain_y0),
        "max_triangles": facts["max_triangles"],
        "wrappers_removed": wrappers_removed,
    }
    if tracer is not None:
        from tracing import layer_metrics

        out["layers"] = layer_metrics(tracer.spans)
        with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([vars(s) for s in tracer.spans], fh)
    return out


def sample(spec_path: str) -> int:
    """Serve first-step samples until standard input ends.  A budget is
    filled with whole cycles: one is always made, and another is started
    only while it is expected to end within the budget."""
    with open(spec_path, encoding="utf-8") as fh:
        spec = dict(json.load(fh), trace=False, first_step_only=True)
    sys.path.insert(0, spec["src"])
    import phaseflow.app  # noqa: F401  (imports stay out of the first budget)

    # the replies own standard output; anything else printed goes to the log
    replies = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    for line in sys.stdin:
        budget = float(line)
        start = time.perf_counter()
        samples = []
        cycle = 0.0
        while not samples or time.perf_counter() - start + cycle <= budget:
            t0 = time.perf_counter()
            marks = {}
            try:
                samples.append(run_once(spec, marks))
            except Exception as exc:
                traceback.print_exc()
                samples.append({"error": f"{type(exc).__name__}: {exc}", "steps": 1})
                break
            cycle = time.perf_counter() - t0
        replies.write(json.dumps(samples) + "\n")
        replies.flush()
        if "error" in samples[-1]:
            return 3
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "--sample":
        return sample(argv[1])
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    marks = {}
    try:
        out = run_once(spec, marks)
        out["environment"] = environment()
    except Exception as exc:  # the parent counts the run as aborted
        traceback.print_exc()
        out = {"error": f"{type(exc).__name__}: {exc}",
               "steps": sum(1 for k in marks if k > 0) + 1}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0 if "error" not in out else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
