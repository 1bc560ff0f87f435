"""Record the final E_total and phase mass of every workload variant.

Usage: python3 perfbench/record_reference.py [WORKLOAD ...]

Writes the given workloads (default: all) into ``reference.json``, which
``run.py`` checks each run against.  Record it once, on a commit whose
solutions are trusted; re-recording it on a commit under test would make the
check compare that commit with itself.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import HERE, OUT, SRC, run_worker
from workloads import VARIANTS, WORKLOADS, generate


def main(names: list[str]) -> int:
    sys.path.insert(0, SRC)
    path = os.path.join(HERE, "reference.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    table = doc["workloads"]
    os.makedirs(OUT, exist_ok=True)
    for workload in (WORKLOADS[name] for name in names or WORKLOADS):
        table[workload.name] = {}
        for variant in range(VARIANTS):
            rep_dir = tempfile.mkdtemp(prefix="reference-", dir=OUT)
            try:
                spec = {"src": SRC, "preset": workload.preset,
                        "inputs": generate(workload, variant),
                        "vtk_every": workload.vtk_every, "out_dir": rep_dir, "trace": False,
                        "first_step_only": False}
                r = run_worker(spec, rep_dir, timeout=600.0)
            finally:
                shutil.rmtree(rep_dir, ignore_errors=True)
            if "error" in r or not all(r["audit_passed"]):
                print(f"{workload.name} variant {variant}: {r.get('error', 'audit failed')}",
                      file=sys.stderr)
                return 1
            table[workload.name][str(variant)] = {
                "steps": r["steps"], "final_e_total": r["final_e_total"],
                "final_mass_phi": r["final_mass_phi"]}
            print(workload.name, variant, table[workload.name][str(variant)], flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
