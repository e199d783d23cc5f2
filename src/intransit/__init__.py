"""Multi-period in-transit freight consolidation: MIP model, LP engine,
branch and bound, and a Benders-style decomposition solver."""

from .benders import (
    BendersParams,
    BendersResult,
    BendersTrace,
    lp_relaxation,
    run_benders,
    solve_master,
)
from .errors import (
    InfeasibleInstanceError,
    InstanceError,
    IntransitError,
    ModelError,
    SchemaError,
    SolverError,
)
from .instance import (
    GeneratorConfig,
    Instance,
    RouteDiagnostics,
    ZoneTable,
    default_zone_table,
    fcl_threshold,
    generate_synthetic,
    load_instance,
    rate_class_params,
    save_instance,
    validate_routes,
    zone_lookup,
)
from .milp import MilpOutcome, MilpProblem, lp_from_mip, solve_milp
from .model import (
    MODE_EXACT_DAY,
    MODE_WINDOW,
    CostBreakdown,
    MipModel,
    VarKey,
    build_mip,
    check_solution,
    objective_breakdown,
)
from .report import (
    DeliveryHistogram,
    ScenarioReport,
    audit_flows,
    consolidation_share,
    delivery_histogram,
    export_solution_json,
    scenario_row,
    solution_flows,
)
from .simplex import LpOutcome, LpProblem, solve_lp, verify_certificate

__version__ = "0.1.0"
