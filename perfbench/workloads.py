"""The benchmark's workloads and the seeded generator of their inputs.

A workload is a scenario preset plus fixed overrides (level, elements,
convection, adaptivity, simulated interval).  The seed only perturbs the
initial interface geometry, by amounts well below one mesh cell, so that
every seed exercises the same solver paths with the same step count.

The generator draws from ``seed % VARIANTS``: the reference final values in
``reference.json`` were recorded once per variant, so every seed has a
reference to be checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

VARIANTS = 32


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict
    # relative perturbation bound per Config field: value * (1 + u(-b, b))
    scale: dict = field(default_factory=dict)
    # absolute perturbation bound per Config field: value + u(-b, b)
    shift: dict = field(default_factory=dict)
    # write a VTK snapshot every this many accepted steps (0: first and final only)
    vtk_every: int = 0
    fixed_mesh: bool = True


# Each simulated interval ends where every variant takes the same number of
# accepted steps: inside a step, and for the adaptive workload with a last
# step short enough to pass the transport CFL check on its first attempt.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ellipse-th-fe-l10",
            preset="ellipse",
            overrides=dict(discretization_level=10, discretization_elements="th",
                           discretization_convection="fe", scenario_tmax=0.0153),
            scale=dict(scenario_rx=0.01, scenario_ry=0.01),
            shift=dict(scenario_cx=0.01, scenario_cy=0.01),
        ),
        Workload(
            name="rt-p1p1-fv-l8",
            preset="rayleigh-taylor",
            overrides=dict(discretization_level=8, discretization_elements="p1p1",
                           discretization_convection="fv", scenario_tmax=0.0045),
            scale=dict(scenario_layer_amplitude=0.01),
            shift=dict(scenario_layer_y=0.002),
            vtk_every=1,
        ),
        Workload(
            name="ellipse-adapt-l4-10",
            preset="ellipse",
            overrides=dict(discretization_level=4, discretization_elements="th",
                           discretization_convection="fv", adaptivity_enabled=True,
                           adaptivity_min_level=4, adaptivity_max_level=10,
                           scenario_tmax=0.0204),
            scale=dict(scenario_rx=0.01, scenario_ry=0.01),
            shift=dict(scenario_cx=0.01, scenario_cy=0.01),
            fixed_mesh=False,
        ),
    )
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def generate(workload: Workload, seed: int) -> dict:
    """Config overrides for one seed: the workload's fixed overrides plus the
    seeded geometry perturbation.  Same seed, same dict."""
    from phaseflow import app

    base = app.preset(workload.preset)
    rng = random.Random(variant_of(seed))
    inputs = dict(workload.overrides)
    for name, bound in sorted(workload.scale.items()):
        inputs[name] = getattr(base, name) * (1.0 + rng.uniform(-bound, bound))
    for name, bound in sorted(workload.shift.items()):
        inputs[name] = getattr(base, name) + rng.uniform(-bound, bound)
    return inputs
