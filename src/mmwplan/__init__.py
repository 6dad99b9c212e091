"""Millimeter-wave access point placement for seated venues.

Models seated users whose random body orientation blocks and unblocks
ceiling links, reduces each user's connectivity to exact arc probabilities
on the orientation circle, and places beams greedily or exactly until a
target fraction of the expected audience is covered.
"""

from .angles import wrap_angle
from .channel import (
    ChannelParams,
    linear_to_db,
    main_lobe_gain,
    path_loss_db,
    snr_db,
)
from .errors import (
    DeploymentValidationError,
    GeometryError,
    InfeasibleError,
    PlanError,
    SizeLimitError,
    VenueFormatError,
)
from .generators import generate_venue
from .metrics import (
    approximation_bound,
    audit_greedy_prices,
    location_difference,
)
from .montecarlo import McConfig, monte_carlo_coverage
from .render import render_svg
from .scenarios import (
    OrientationDistribution,
    ScenarioPartition,
    connectivity_probability,
)
from .solver import (
    Deployment,
    GpCoverage,
    GreedyIteration,
    GreedyTrace,
    PlacedAp,
    PlanningModel,
    evaluate_coverage,
    exact_place,
    greedy_iteration_best,
    greedy_place,
    uniform_place,
)
from .venue import (
    BodyPrism,
    CandidateLocation,
    GridPosition,
    Venue,
    occlusion_matrix,
    venue_betas,
)

__version__ = "0.1.0"

__all__ = [
    "wrap_angle",
    "ChannelParams",
    "linear_to_db",
    "main_lobe_gain",
    "path_loss_db",
    "snr_db",
    "PlanError",
    "GeometryError",
    "VenueFormatError",
    "DeploymentValidationError",
    "InfeasibleError",
    "SizeLimitError",
    "generate_venue",
    "approximation_bound",
    "audit_greedy_prices",
    "location_difference",
    "McConfig",
    "monte_carlo_coverage",
    "render_svg",
    "OrientationDistribution",
    "ScenarioPartition",
    "connectivity_probability",
    "PlacedAp",
    "Deployment",
    "GpCoverage",
    "GreedyIteration",
    "GreedyTrace",
    "PlanningModel",
    "evaluate_coverage",
    "greedy_iteration_best",
    "greedy_place",
    "exact_place",
    "uniform_place",
    "GridPosition",
    "CandidateLocation",
    "BodyPrism",
    "Venue",
    "venue_betas",
    "occlusion_matrix",
    "__version__",
]
