"""Millimeter-wave access point placement for seated venues.

Models seated users whose random body orientation blocks and unblocks
ceiling links, reduces each user's connectivity to exact arc probabilities
on the orientation circle, and places beams greedily or exactly until a
target fraction of the expected audience is covered.
"""

from .angles import AngularInterval, angle_offset, wrap_angle
from .channel import (
    ChannelParams,
    LinkClass,
    LinkProfile,
    db_to_linear,
    flat_top_gain,
    link_profile,
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
from .montecarlo import (
    McConfig,
    monte_carlo_connectivity,
    monte_carlo_coverage,
    sample_orientation,
)
from .render import render_svg, save_svg
from .scenarios import (
    OrientationDistribution,
    ScenarioCell,
    ScenarioPartition,
    build_scenarios,
    circular_mass,
    connectivity_probability,
    satisfied,
)
from .solver import (
    CoverageReport,
    CoverSet,
    Deployment,
    GpCoverage,
    GreedyIteration,
    GreedyState,
    GreedyTrace,
    IterationChoice,
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
    nadir_angle,
    occlusion_matrix,
    ray_occluded,
    rx_angles,
    tx_angles,
    venue_betas,
)

__version__ = "0.1.0"

__all__ = [
    "AngularInterval",
    "angle_offset",
    "wrap_angle",
    "ChannelParams",
    "LinkClass",
    "LinkProfile",
    "db_to_linear",
    "linear_to_db",
    "main_lobe_gain",
    "flat_top_gain",
    "path_loss_db",
    "snr_db",
    "link_profile",
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
    "sample_orientation",
    "monte_carlo_connectivity",
    "monte_carlo_coverage",
    "render_svg",
    "save_svg",
    "OrientationDistribution",
    "ScenarioCell",
    "ScenarioPartition",
    "build_scenarios",
    "circular_mass",
    "connectivity_probability",
    "satisfied",
    "PlacedAp",
    "Deployment",
    "GpCoverage",
    "CoverageReport",
    "CoverSet",
    "GreedyIteration",
    "GreedyTrace",
    "IterationChoice",
    "GreedyState",
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
    "tx_angles",
    "rx_angles",
    "nadir_angle",
    "ray_occluded",
    "occlusion_matrix",
    "__version__",
]
