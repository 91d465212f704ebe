"""Experiment harness: metrics, per-figure drivers, report rendering."""

from .experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    ExperimentResult,
    ext_overhead_objective,
    ext_rau_comparison,
    fig2_pipelining_effectiveness,
    fig3_priority_heuristics,
    fig4_membank_effectiveness,
    fig5_ilp_vs_heuristic,
    fig6_livermore,
    fig7_static_quality,
    sec47_compile_speed,
    sec5_ii_parity,
    sec5_scalability,
)
from .corpus import LoopProfile, corpus_table, livermore_profile, profile_loop, spec92_profile
from .metrics import geometric_mean, speedup, weighted_relative_time
from .report import Table, bar_chart

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "ExperimentResult",
    "Table",
    "bar_chart",
    "fig2_pipelining_effectiveness",
    "fig3_priority_heuristics",
    "fig4_membank_effectiveness",
    "fig5_ilp_vs_heuristic",
    "fig6_livermore",
    "fig7_static_quality",
    "ext_overhead_objective",
    "ext_rau_comparison",
    "LoopProfile",
    "corpus_table",
    "geometric_mean",
    "livermore_profile",
    "profile_loop",
    "spec92_profile",
    "sec47_compile_speed",
    "sec5_ii_parity",
    "sec5_scalability",
    "speedup",
    "weighted_relative_time",
]
