"""Lowest-order virtual element solver for the regularized Poisson-Boltzmann
equation on general 3D polyhedral meshes."""

from .mesh import (
    MeshError,
    MeshQualityReport,
    PolyMesh,
    VpmParseError,
    box_levelset,
    check_mesh_assumptions,
    classify_interface,
    compute_geometry,
    generate_cube_mesh,
    generate_tet_mesh,
    generate_voronoi_mesh,
    load_mesh,
    mesh_size,
    save_mesh,
    voronoi_mesh_from_seeds,
)
from .projectors import build_projectors
from .forms import (
    LoadSpec,
    NonlinearOverflow,
    PhysicsConfig,
    SingularityError,
    manufactured_sine,
    regularized_load,
)
from .solver import (
    NewtonConfig,
    SolveReport,
    SolverError,
    Workspace,
    assemble_residual,
    cg_solve,
    newton_solve,
)
from .analysis import (
    ConvergenceReport,
    compare_to_reference,
    convergence_order,
    fitted_order,
    run_convergence_study,
)

__version__ = "0.1.0"
