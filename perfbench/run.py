"""phaseflow benchmark: time to solution on fixed solver workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs one workload once, start to finish, in a fresh worker
process (``worker.py``); repetitions follow each other, so this is a closed
loop with a single caller.  Without tracing, each repetition is followed
by a gap in which one long-lived sampler process repeats set-up and the
first accepted step, so ``setup_s`` and ``first_step_s`` get many samples
spread over the whole run.  The run plans as many repetitions as fit in
``--seconds`` next to gaps of at least ``SAMPLE_SHARE`` of a repetition
(at least three repetitions), and shares the time left over evenly between
the gaps, so it ends close to ``--seconds``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Times are medians over the
repetitions; ``peak_rss_mb`` is the smallest peak of the full repetitions,
because its noise only adds (identical repetitions peaked anywhere from 93
to 113 MB).

An operation is one accepted time step.  A step fails when its energy audit
fails or a correctness check on its run fails; an aborted run counts all of
its steps as failed.  ``failed / attempted`` is the failed share.

With ``--trace 1`` untraced and traced repetitions alternate; the traced ones
wrap phaseflow's public functions (``tracing.py``) and give the per-layer
metrics, and the difference of the two medians of ``run_s`` is the tracing
overhead.

Details of every repetition, the generated inputs and the environment are
written to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

MIN_REPS = 3
# smallest first-step sampling gap after an untraced repetition, as a share of
# a repetition's wall time
SAMPLE_SHARE = 0.4
# whatever --seconds says: start no repetition expected to end after
# RUN_CAP_S, and kill one still running at DEADLINE_S
RUN_CAP_S = 150.0
DEADLINE_S = 170.0

# Lumped phase mass on a fixed mesh is conserved by both transport modes up
# to rounding: allow 64 ulps of the domain area per step.
MASS_DRIFT_ULPS_PER_STEP = 64
# Final E_total and phase mass against the seed-commit reference: the inner
# loop stops once the increments drop below eps_v, eps_phi (1e-6), which leaves
# each step within a fraction of eps of its fixed point; allow ten eps per step.
REFERENCE_EPS = 1e-6
REFERENCE_EPS_PER_STEP = 10


def child_env() -> dict:
    """Pin the assembly threads to at most nproc and BLAS to one thread:
    all workloads stay below fem.element_chunks' threading threshold, so
    this is the single-threaded baseline."""
    env = dict(os.environ)
    nproc = os.cpu_count() or 1
    try:
        threads = int(env.get("PHASEFLOW_THREADS", ""))
    except ValueError:
        threads = nproc
    env["PHASEFLOW_THREADS"] = str(min(max(threads, 1), nproc))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    # numpy asks for transparent huge pages on large arrays; whether the kernel
    # grants them depends on the memory fragmentation other processes leave
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(spec: dict, rep_dir: str, timeout: float) -> dict:
    """Run one repetition in a fresh process; adds its wall time and peak RSS.
    A repetition still running after ``timeout`` seconds is killed and counts
    as aborted."""
    spec_path = os.path.join(rep_dir, "spec.json")
    result_path = os.path.join(rep_dir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    t0 = time.perf_counter()
    with open(os.path.join(rep_dir, "worker.log"), "wb") as log:
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                                 spec_path, result_path],
                                stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    break
                if time.perf_counter() - t0 > timeout:
                    return {"error": f"timed out after {timeout:.0f} s", "steps": 1,
                            "wall_s": time.perf_counter() - t0}
                time.sleep(0.02)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    wall = time.perf_counter() - t0
    try:
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {"error": f"worker exited with code {proc.returncode} and no result", "steps": 1}
    result["wall_s"] = wall
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


class Sampler:
    """The worker in ``--sample`` mode: one process for the whole run, so
    its samples pay no process start and can follow every repetition."""

    def __init__(self, spec: dict, run_dir: str):
        self.dir = os.path.join(run_dir, "sampler")
        os.makedirs(self.dir)
        spec_path = os.path.join(self.dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(dict(spec, out_dir=self.dir), fh)
        self.log = open(os.path.join(self.dir, "worker.log"), "wb")
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                                      "--sample", spec_path],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log, env=child_env(), cwd=ROOT)
        self.broken = False

    def sample(self, budget: float, timeout: float) -> list[dict]:
        """Samples made within about ``budget`` seconds; after an error,
        a timeout or an exit the sampler is broken and is not asked again."""
        try:
            self.proc.stdin.write(f"{budget!r}\n".encode())
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(timeout, 0.0))
            line = self.proc.stdout.readline() if ready else b""
        except OSError:
            line = b""
        if not line:
            self.broken = True
            reason = "timed out" if self.proc.poll() is None else \
                f"exited with code {self.proc.returncode}"
            return [{"error": f"first-step sampler {reason}", "steps": 1}]
        samples = json.loads(line)
        self.broken = any("error" in r for r in samples)
        return samples

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.log.close()


def check_repetitions(reps: list[tuple[bool, dict]], workload, reference: dict) -> list[dict]:
    """Failed steps per repetition, with the reasons."""
    verdicts = []
    first_sha = next((r["csv_sha256"] for _, r in reps if "error" not in r), None)
    first_counts = next((_counts(r["layers"]) for traced, r in reps
                         if traced and "error" not in r), None)
    for traced, r in reps:
        if "error" in r:
            verdicts.append({"steps": r["steps"], "failed": r["steps"], "reasons": [r["error"]]})
            continue
        steps = r["steps"]
        bad = [not ok for ok in r["audit_passed"]]
        reasons = ["energy audit"] if any(bad) else []
        if workload.fixed_mesh:
            bound = MASS_DRIFT_ULPS_PER_STEP * sys.float_info.epsilon * r["domain_area"]
            drift = [abs(m - r["mass0"]) > bound * (k + 1) for k, m in enumerate(r["mass_phi"])]
            if any(drift):
                reasons.append(f"phase mass drift on {sum(drift)} steps")
                bad = [b or d for b, d in zip(bad, drift)]
        whole_run = []
        if r["csv_sha256"] != first_sha:
            whole_run.append("energy.csv differs from the first repetition")
        if reference is not None:
            tol = REFERENCE_EPS_PER_STEP * REFERENCE_EPS * steps
            e_ref = reference["final_e_total"]
            if abs(r["final_e_total"] - e_ref) > tol * abs(e_ref):
                whole_run.append("final E_total differs from the reference")
            if abs(r["final_mass_phi"] - reference["final_mass_phi"]) > tol * r["domain_area"]:
                whole_run.append("final phase mass differs from the reference")
        else:
            whole_run.append("no reference for this variant")
        if traced:
            if not r["wrappers_removed"]:
                whole_run.append("trace wrappers were not removed")
            if _counts(r["layers"]) != first_counts:
                whole_run.append("trace counts differ between traced repetitions")
        if whole_run:
            bad = [True] * steps
        verdicts.append({"steps": steps, "failed": sum(bad), "reasons": reasons + whole_run})
    return verdicts


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


def summarize(reps: list[tuple[bool, dict]], samples: list[dict], trace: bool) -> dict:
    plain = [r for traced, r in reps if not traced and "error" not in r]
    traced = [r for t, r in reps if t and "error" not in r]
    if not plain or (trace and not traced):
        return {}
    if not trace:
        starts = plain + [r for r in samples if "error" not in r]
        return {
            "run_s": (statistics.median(r["run_s"] for r in plain), "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in starts), "s"),
            "first_step_s": (statistics.median(r["first_step_s"] for r in starts), "s"),
            "peak_rss_mb": (min(r["peak_rss_mb"] for r in plain), "MB"),
        }
    from tracing import LAYER_UNITS

    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name == "trace.overhead_s":
            value = statistics.median(r["run_s"] for r in traced) - \
                statistics.median(r["run_s"] for r in plain)
        elif unit == "s":
            value = statistics.median(r["layers"][name] for r in traced)
        else:
            value = traced[0]["layers"][name]
        metrics[name] = (value, unit)
    return metrics


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "phaseflow", "__init__.py")):
        print(f"error: no phaseflow sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, generate, variant_of

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = generate(workload, args.seed)
    variant = variant_of(args.seed)
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)["workloads"].get(workload.name, {}).get(str(variant))

    os.makedirs(OUT, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = tempfile.mkdtemp(prefix=tag + "-", dir=OUT)
    spec = {"src": SRC, "preset": workload.preset, "inputs": inputs,
            "vtk_every": workload.vtk_every}
    reps: list[tuple[bool, dict]] = []
    samples: list[dict] = []
    start = time.perf_counter()
    sampler = None
    try:
        while True:
            i = len(reps)
            # with tracing: untraced, traced, traced, untraced, traced, traced, ...
            traced = bool(args.trace) and i % 3 != 0
            rep_dir = os.path.join(run_dir, f"rep{i:03d}")
            os.makedirs(rep_dir)
            result = run_worker(dict(spec, out_dir=rep_dir, trace=traced, first_step_only=False),
                                rep_dir, DEADLINE_S - (time.perf_counter() - start))
            reps.append((traced, result))
            if traced and "error" not in result:
                shutil.copyfile(os.path.join(rep_dir, "spans.json"),
                                os.path.join(OUT, tag + "-spans.json"))
            shutil.rmtree(rep_dir)
            typical = statistics.median(r["wall_s"] for _, r in reps)
            share = 0.0 if args.trace else SAMPLE_SHARE
            left = min(args.seconds, RUN_CAP_S) - (time.perf_counter() - start)
            more = max(MIN_REPS - len(reps),
                       int((left - share * typical) / ((1.0 + share) * typical)))
            if not args.trace and (sampler is None or not sampler.broken):
                t0 = time.perf_counter()
                sampler = sampler or Sampler(spec, run_dir)
                samples += sampler.sample(max(left - more * typical, 0.0) / (more + 1),
                                          DEADLINE_S - (t0 - start))
            if more <= 0 or time.perf_counter() - start + typical > RUN_CAP_S:
                break
    finally:
        if sampler is not None:
            sampler.close()
        shutil.rmtree(run_dir, ignore_errors=True)

    verdicts = check_repetitions(reps, workload, reference)
    verdicts += [{"steps": r["steps"], "failed": r["steps"], "reasons": [r["error"]]}
                 for r in samples if "error" in r]
    attempted = sum(v["steps"] for v in verdicts)
    failed = sum(v["failed"] for v in verdicts)
    metrics = summarize(reps, samples, bool(args.trace))
    environment = next((r["environment"] for _, r in reps if "environment" in r), None)

    record = {"workload": workload.name, "seed": args.seed, "variant": variant,
              "inputs": inputs, "environment": environment,
              "repetitions": [dict(r, traced=t, verdict=v)
                              for (t, r), v in zip(reps, verdicts)],
              "first_step_samples": samples,
              "metrics": metrics, "attempted": attempted, "failed": failed}
    with open(os.path.join(OUT, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload {workload.name}, seed {args.seed} (variant {variant}), "
          f"{len(reps)} repetitions and {len(samples)} first-step samples "
          f"in {time.perf_counter() - start:.1f} s")
    print(f"# inputs {json.dumps(inputs, sort_keys=True)}")
    print(f"# environment {json.dumps(environment, sort_keys=True)}")
    for v in verdicts:
        if v["reasons"]:
            print(f"# check failed: {'; '.join(v['reasons'])}")
    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(f"{'failed_share':42s} {failed / max(attempted, 1):14.6g} ratio "
          f"({failed} of {attempted} steps)")
    if not metrics:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
