"""degreelab: a laboratory for maximum-degree concentration in sparse random graphs.

The package provides the numeric concentration function for balls-into-bins
maximum loads, samplers for uniform random combinatorial structures (location
vectors, rooted forests, simple graphs, graphs without complex components,
complex parts with a prescribed core), graph decomposition into core / complex
parts / non-complex part, a degree-raising transformation on labelled planar
graph classes, and a reproducible Monte Carlo experiment harness with a CLI.
"""

from degreelab.concentration import (
    PredictedInterval,
    balanced_concentration,
    concentration_point,
    load_exponent,
    predicted_interval_sparse,
)

__all__ = [
    "PredictedInterval",
    "balanced_concentration",
    "concentration_point",
    "load_exponent",
    "predicted_interval_sparse",
]

__version__ = "0.1.0"
