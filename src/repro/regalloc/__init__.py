"""Modulo renaming and Chaitin-Briggs register allocation."""

from .coloring import (
    AllocationResult,
    ColoringResult,
    InterferenceGraph,
    allocate,
    allocate_schedule,
    color_graph,
    exceeds_register_file,
)
from .rename import LiveRange, RenamedKernel, rename_kernel, value_reg_class

__all__ = [
    "AllocationResult",
    "ColoringResult",
    "InterferenceGraph",
    "LiveRange",
    "RenamedKernel",
    "allocate",
    "allocate_schedule",
    "color_graph",
    "exceeds_register_file",
    "rename_kernel",
    "value_reg_class",
]
