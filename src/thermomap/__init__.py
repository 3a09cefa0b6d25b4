"""Thermodynamic formalism for piecewise-monotone interval maps.

Pressure of the geometric potential family -t log|Df| is computed by
building the canonical Markov extension, extracting full-branch inducing
schemes, and solving for the shift at which the induced Gurevich
pressure vanishes.  All spectral quantities are carried as two-sided
brackets.
"""

from .errors import (
    AmbiguityError,
    CriticalOrbitError,
    DegenerateBranchError,
    DomainError,
    InfinitePressureError,
    NonCompatibleError,
    NotApplicableError,
    NumericError,
    ResourceError,
    SchemaError,
    ThermomapError,
)
from .interval_map import (
    BranchSpec,
    CriticalPoint,
    IntervalMap,
    derivative_along,
    eval_orbit,
    fixture,
    load_map,
    make_chebyshev,
    make_custom,
    make_plinear,
    make_quadratic,
    make_tent,
    parse_map_spec,
)
from .symbolic import (
    Cylinder,
    PeriodicPoint,
    Word,
    cylinder_of_word,
    itinerary,
    laps_entropy,
    periodic_point,
    refine,
)
from .hofbauer import (
    HofbauerTower,
    TowerDomain,
    build_tower,
    closed_primitive_subgraph,
    tower_to_dot,
    tower_to_json,
)
from .inducing import (
    InducingScheme,
    SchemeBranch,
    build_scheme,
    default_base_cylinder,
    extendible_return_scheme,
    first_return_scheme,
    validate_scheme,
)
from .thermo import (
    Bracket,
    ThermoModel,
    gurevich_pressure,
    induced_potential,
    markov_oracle,
    p_star_discriminant,
    pressure_vs_shift,
    synthetic_model,
    tail_classify,
)
from .gibbs import (
    GibbsSolution,
    PressureCurve,
    ScanConfig,
    TransitionReport,
    abramov_quantities,
    detect_phase_transition,
    equilibrium_shift_solve,
    gibbs_ratio_check,
    mass_by_tau,
    project_measure,
    scan_pressure,
    solve_gibbs,
)
from . import cli

__version__ = "0.1.0"
