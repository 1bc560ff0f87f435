"""phaseflow: energy-stable solver for diffuse-interface two-phase
incompressible flow with mass density contrast.

The package couples a Cahn-Hilliard phase field (P1 elements, convex-concave
split, finite-volume transport on the Voronoi dual grid) with a momentum
saddle-point solve (Taylor-Hood or stabilized equal-order elements) through a
splitting iteration whose converged limit is certified step by step against
the discrete energy inequality.
"""

from .cahn_hilliard import (
    ChReport,
    ch_diffusive_solve,
    engquist_osher_flux,
    fe_convection_matrix,
    fv_transport_step,
    minmod_reconstruct,
)
from .coupling import (
    AdaptivityConfig,
    Discretization,
    RunConfig,
    RunResult,
    SplitTolerances,
    State,
    TimestepConfig,
    compute_timestep,
    initial_state,
    mark_elements,
    run,
    splitting_step,
)
from .energy import (
    EnergyBreakdown,
    InequalityReport,
    step_inequality_check,
)
from .errors import CflError, GeometryError, IterativeFailure, SolverError, StepRejected
from .fem import (
    Quadrature,
    ScalarSpace,
    VelocitySpace,
    assemble_stiffness,
    element_gradient_magnitudes,
    l2_distance,
)
from .linalg import bicgstab
from .mesh import (
    COARSEN,
    KEEP,
    REFINE,
    DualGrid,
    Mesh,
    build_dual_grid,
    build_structured_mesh,
    refine_and_coarsen,
)
from .momentum import (
    ForceSpec,
    MomentumStep,
    PhysParams,
    assemble_Na,
    assemble_Nb,
    assemble_rhs_K,
    assemble_stabilization,
    assemble_time_terms,
    assemble_viscous,
    compute_flux_j,
    density_from_phase,
    solve_momentum,
    solve_saddle,
)

__version__ = "0.1.0"
