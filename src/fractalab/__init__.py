"""fractalab: desk-scale numerics for Cantor-type measures, their Fourier
decay, additive energy, and distance-set geometry."""

from ._version import __version__
from .config import EXPERIMENT_KINDS, ExperimentConfig, GeometricSweep
from .cutoff import CutoffFunction
from .energy import (
    DZParams,
    EnergyProfile,
    SumsetDistribution,
    additive_energy,
    dyadic_r_sweep,
    dz_beta,
    energy_profile,
    smoothed_energy,
    smoothed_fourth_moment,
    sumset_autocorrelation,
)
from .errors import BudgetError, FractalabError, ValidationError, ValidityCapError
from .fitting import LoglogFit, loglog_fit
from .fourier import (
    AngularDecomposition,
    SphericalAverageSeries,
    StationaryPhaseReport,
    angular_decomposition,
    solid_average,
    spherical_average,
    spherical_average_detailed,
    spherical_average_series,
    stationary_phase_check,
    stationary_phase_main_term,
    validity_cap,
)
from .geometry import (
    CoverageReport,
    DistanceMeasure,
    MattilaEstimate,
    ThresholdReport,
    coverage_report,
    derive_delta,
    distance_measure,
    energy_integral,
    mattila_truncated,
    product_atoms,
    product_sum_threshold,
    threshold_report,
    weighted_mass,
)
from .measures import (
    CantorSpec,
    GridMeasure,
    ProductMeasure,
    RegularityReport,
    build_cantor,
    build_product,
    check_regularity,
    frostman_fit,
    grid_measure_from_text,
    grid_measure_to_text,
    load_grid_measure,
    middle_thirds,
    point_mass,
    save_grid_measure,
)
from .runner import emit_report, run_experiment
