"""Numerical workbench for convolution of measures on the real line.

Three convolution calculi (monotone, classical, free) built on
Cauchy-transform analysis, plus an infinite-ergodic-theory lab for the
boundary restrictions of inner functions (generalized Boole
transformations).
"""

from .errors import (
    CapacityExceeded,
    CoverageError,
    DegenerateMeasure,
    DomainError,
    MonocltError,
    NonConvergence,
    NumericBreakdown,
    PoleProximity,
)
from .measures import (
    AtomicMeasure,
    GridDensity,
    Measure,
    Moments,
    PowerTailLaw,
    ReferenceLaw,
    arcsine,
    atomic,
    classical_convolve,
    dilate,
    harmonic_variance,
    measure_from_json,
    measure_to_json,
    moments,
    normal,
    point_mass,
    power_tail,
    semicircle,
    shift,
    tail,
    truncated_variance,
)
from .transforms import (
    ArcsineMap,
    default_grid,
    ComposeMap,
    DilatedMap,
    FreeConvolveMap,
    IterateMap,
    MeasureMap,
    NevanlinnaMap,
    NevanlinnaRep,
    ScaledPowerMap,
    SelfMap,
    TightnessStat,
    cauchy_eval,
    cdf,
    f_eval,
    ks_distance,
    measure_from_map,
    nevanlinna_extract,
    nevanlinna_synthesize,
    sqrt_upper,
    tightness_stat,
)
from .convolve import (
    classical_power,
    free_density,
    free_convolve,
    monotone_convolve,
    monotone_power,
    scaled_monotone_power,
    subordination_eval,
)

__version__ = "0.1.0"
