"""Millimeter-wave access point placement for seated venues.

Models seated users whose random body orientation blocks and unblocks
ceiling links, reduces each user's connectivity to exact arc probabilities
on the orientation circle, and places beams greedily or exactly until a
target fraction of the expected audience is covered.

The top level holds what the command line and the README use; every other
name lives in its submodule.
"""

from .channel import ChannelParams
from .errors import (
    DeploymentValidationError,
    GeometryError,
    InfeasibleError,
    PlanError,
    SizeLimitError,
    VenueFormatError,
)
from .generators import generate_venue
from .metrics import approximation_bound, location_difference
from .montecarlo import McConfig, monte_carlo_coverage
from .render import render_svg
from .solver import (
    Deployment,
    GreedyTrace,
    PlacedAp,
    PlanningModel,
    evaluate_coverage,
    exact_place,
    greedy_place,
    uniform_place,
)
from .venue import Venue

__version__ = "0.1.0"

__all__ = [
    "ChannelParams",
    "Venue",
    "generate_venue",
    "PlanningModel",
    "greedy_place",
    "exact_place",
    "uniform_place",
    "evaluate_coverage",
    "McConfig",
    "monte_carlo_coverage",
    "approximation_bound",
    "location_difference",
    "render_svg",
    "Deployment",
    "PlacedAp",
    "GreedyTrace",
    "PlanError",
    "GeometryError",
    "VenueFormatError",
    "DeploymentValidationError",
    "InfeasibleError",
    "SizeLimitError",
    "__version__",
]
