"""Spans around phaseflow's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced name in the namespace its caller
resolves it from with a wrapper that records a span: name, start, end, the
enclosing span, counts read from the return value, and the type of an
exception that left the call.  ``Tracer.remove`` puts the original objects
back.  Spans stay in memory; ``layer_metrics`` reduces them to the
per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: str = ""

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _targets():
    """(namespace, attribute, span name, counts-from-call) for every traced
    name.  The namespace is where the caller looks the name up: names
    imported with ``from .x import f`` are wrapped in the importer."""
    from phaseflow import app, coupling, energy, linalg, mesh, momentum

    return [
        (coupling, "splitting_step", "coupling.splitting_step",
         lambda args, kw, out: {"inner_iterations": out[1].inner_iterations}),
        (coupling, "transfer_state", "coupling.transfer_state", None),
        (coupling.Discretization, "__init__", "coupling.Discretization", None),
        (coupling, "refine_and_coarsen", "mesh.refine_and_coarsen", None),
        (mesh, "locate_points", "mesh.locate_points",
         lambda args, kw, out: {"points": len(out)}),
        (coupling, "ch_diffusive_solve", "cahn_hilliard.ch_diffusive_solve",
         lambda args, kw, out: {"newton_iterations": out[2].newton_iterations}),
        (coupling, "fv_transport_step", "cahn_hilliard.fv_transport_step", None),
        (coupling, "fe_convection_matrix", "cahn_hilliard.fe_convection_matrix", None),
        (coupling, "solve_momentum", "momentum.solve_momentum", None),
        (momentum, "assemble_viscous", "momentum.assemble_viscous", None),
        (momentum, "assemble_Nb", "momentum.assemble_Nb", None),
        (momentum, "apply_velocity_dirichlet", "momentum.apply_velocity_dirichlet", None),
        (momentum, "solve_saddle", "linalg.solve_saddle", None),
        (linalg, "bicgstab", "linalg.bicgstab",
         lambda args, kw, out: {"iterations": out[1]}),
        (linalg.FactorizationCache, "refresh", "linalg.FactorizationCache.refresh",
         lambda args, kw, out: {"nnz": int(out.nnz)}),
        (coupling, "step_inequality_check", "energy.step_inequality_check", None),
        (energy, "assemble_viscous", "energy.assemble_viscous", None),
        (app, "write_vtk", "app.write_vtk",
         lambda args, kw, out: {"bytes": os.path.getsize(args[1])}),
        (app, "write_energy_csv", "app.write_energy_csv", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, counts in _targets():
            original = vars(owner)[attr]
            setattr(owner, attr, self._wrap(original, name, counts))
            self._patched.append((owner, attr, original))

    def remove(self) -> bool:
        """Restore every wrapped name; True when each is the original again."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self._patched)
        self._patched.clear()
        return restored

    def _wrap(self, fn, name: str, counts):
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, open_[-1] if open_ else -1, time.perf_counter())
            spans.append(span)
            open_.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                open_.pop()
            if counts is not None:
                span.counts = counts(args, kwargs, out)
            return out

        return traced


# the per-layer metrics, in report order, with their units
LAYER_UNITS = {
    "linalg.saddle_refresh_s": "s",
    "linalg.saddle_refreshes": "count",
    "linalg.saddle_lu_nnz": "count",
    "linalg.saddle_bicgstab_s": "s",
    "linalg.saddle_bicgstab_iters": "count",
    "linalg.phase_refresh_s": "s",
    "linalg.phase_refreshes": "count",
    "linalg.phase_bicgstab_iters": "count",
    "linalg.fallbacks": "count",
    "momentum.solve_momentum.self_s": "s",
    "momentum.assemble_Nb_s": "s",
    "momentum.apply_velocity_dirichlet_s": "s",
    "momentum.assemble_viscous.calls": "count",
    "coupling.accepted_steps": "count",
    "coupling.step_attempts": "count",
    "coupling.rejected.cfl": "count",
    "coupling.rejected.inner": "count",
    "coupling.accept_ratio": "ratio",
    "coupling.rejected_s": "s",
    "coupling.inner_iterations": "count",
    "coupling.inner_per_step": "iter/step",
    "cahn_hilliard.ch_diffusive_solve.self_s": "s",
    "cahn_hilliard.newton_iterations": "count",
    "cahn_hilliard.fv_transport_step_s": "s",
    "cahn_hilliard.fe_convection_matrix_s": "s",
    "mesh.locate_points_s": "s",
    "mesh.points_located": "count",
    "mesh.refine_and_coarsen_s": "s",
    "coupling.transfer_state_s": "s",
    "coupling.discretizations_built": "count",
    "energy.step_inequality_check_s": "s",
    "energy.assemble_viscous_s": "s",
    "app.write_vtk_s": "s",
    "app.write_vtk.bytes": "bytes",
    "app.write_energy_csv_s": "s",
    "trace.overhead_s": "s",
}


# span whose subtree a linear solve belongs to, by the solve it serves
_SOLVE_OWNERS = {"linalg.solve_saddle": "saddle",
                 "cahn_hilliard.ch_diffusive_solve": "phase"}


def _owner(spans: list[Span], i: int) -> str:
    j = spans[i].parent
    while j >= 0:
        owner = _SOLVE_OWNERS.get(spans[j].name)
        if owner:
            return owner
        j = spans[j].parent
    return "other"


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer times (s) and counts from one traced run.  Times of
    rejected step attempts are included in their layers."""
    total = Counter()   # span name -> seconds
    calls = Counter()   # span name -> calls
    summed = Counter()  # (span name, count name) -> sum over the spans
    child_s = [0.0] * len(spans)
    solves = {owner: Counter() for owner in ("saddle", "phase", "other")}
    for i, s in enumerate(spans):
        total[s.name] += s.seconds
        calls[s.name] += 1
        for key, value in s.counts.items():
            summed[s.name, key] += value
        if s.parent >= 0:
            child_s[s.parent] += s.seconds
        if s.name == "linalg.FactorizationCache.refresh":
            acc = solves[_owner(spans, i)]
            acc["refresh_s"] += s.seconds
            acc["refreshes"] += 1
            acc["lu_nnz"] = max(acc["lu_nnz"], s.counts.get("nnz", 0))
        elif s.name == "linalg.bicgstab":
            acc = solves[_owner(spans, i)]
            acc["bicgstab_s"] += s.seconds
            acc["bicgstab_iters"] += s.counts.get("iterations", 0)

    def self_s(name):
        return sum(s.seconds - child_s[i] for i, s in enumerate(spans) if s.name == name)

    attempts = [s for s in spans if s.name == "coupling.splitting_step"]
    rejected = [s for s in attempts if s.error]
    accepted = len(attempts) - len(rejected)
    inner = summed["coupling.splitting_step", "inner_iterations"]
    saddle, phase = solves["saddle"], solves["phase"]
    return {
        "linalg.saddle_refresh_s": saddle["refresh_s"],
        "linalg.saddle_refreshes": saddle["refreshes"],
        "linalg.saddle_lu_nnz": saddle["lu_nnz"],
        "linalg.saddle_bicgstab_s": saddle["bicgstab_s"],
        "linalg.saddle_bicgstab_iters": saddle["bicgstab_iters"],
        "linalg.phase_refresh_s": phase["refresh_s"],
        "linalg.phase_refreshes": phase["refreshes"],
        "linalg.phase_bicgstab_iters": phase["bicgstab_iters"],
        "linalg.fallbacks": sum(s.name == "linalg.bicgstab" and s.error == "IterativeFailure"
                                for s in spans),
        "momentum.solve_momentum.self_s": self_s("momentum.solve_momentum"),
        "momentum.assemble_Nb_s": total["momentum.assemble_Nb"],
        "momentum.apply_velocity_dirichlet_s": total["momentum.apply_velocity_dirichlet"],
        "momentum.assemble_viscous.calls": calls["momentum.assemble_viscous"],
        "coupling.accepted_steps": accepted,
        "coupling.step_attempts": len(attempts),
        "coupling.rejected.cfl": sum(s.error == "CflError" for s in rejected),
        "coupling.rejected.inner": sum(s.error == "StepRejected" for s in rejected),
        "coupling.accept_ratio": accepted / len(attempts) if attempts else 0.0,
        "coupling.rejected_s": sum(s.seconds for s in rejected),
        "coupling.inner_iterations": inner,
        "coupling.inner_per_step": inner / accepted if accepted else 0.0,
        "cahn_hilliard.ch_diffusive_solve.self_s": self_s("cahn_hilliard.ch_diffusive_solve"),
        "cahn_hilliard.newton_iterations":
            summed["cahn_hilliard.ch_diffusive_solve", "newton_iterations"],
        "cahn_hilliard.fv_transport_step_s": total["cahn_hilliard.fv_transport_step"],
        "cahn_hilliard.fe_convection_matrix_s": total["cahn_hilliard.fe_convection_matrix"],
        "mesh.locate_points_s": total["mesh.locate_points"],
        "mesh.points_located": summed["mesh.locate_points", "points"],
        "mesh.refine_and_coarsen_s": total["mesh.refine_and_coarsen"],
        "coupling.transfer_state_s": total["coupling.transfer_state"],
        "coupling.discretizations_built": calls["coupling.Discretization"],
        "energy.step_inequality_check_s": total["energy.step_inequality_check"],
        "energy.assemble_viscous_s": total["energy.assemble_viscous"],
        "app.write_vtk_s": total["app.write_vtk"],
        "app.write_vtk.bytes": summed["app.write_vtk", "bytes"],
        "app.write_energy_csv_s": total["app.write_energy_csv"],
    }
