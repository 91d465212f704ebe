"""MOST: the optimal (ILP-based) modulo scheduler."""

from ..portfolio.ilp_backend import ScheduleFormulation, build_formulation
from .scheduler import MostOptions, most_pipeline_loop

__all__ = [
    "MostOptions",
    "ScheduleFormulation",
    "build_formulation",
    "most_pipeline_loop",
]
