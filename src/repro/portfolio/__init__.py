"""A portfolio of optimal modulo-scheduling backends over one formulation.

The paper's "optimal" side of the showdown is a single time-indexed ILP
(MOST, Section 3).  Its direct successors swapped the decision procedure
but kept the question: Roorda's SMT-solver modulo scheduling
(arXiv 2601.21842) encodes the same windows and modulo resource rows in
difference logic; the combinatorial-scheduling survey of Castañeda Lozano
& Schulte (arXiv 1409.7628) catalogues CP propagation over the identical
structure.  This package makes that literal: one backend-neutral
:class:`~repro.portfolio.formulation.ModuloFormulation`, and
interchangeable decision procedures behind it —

* ``ilp`` — the time-indexed ILP (:mod:`repro.portfolio.ilp_backend`
  over :mod:`repro.ilp`);
* ``cp``  — a pure-python CP solver: window propagation, modulo-resource
  filtering, conflict-driven chronological search (always available);
* ``smt`` — a difference-logic encoding for Z3, optional-dependency-gated
  and skipped cleanly when ``z3-solver`` is absent.

:func:`~repro.portfolio.driver.portfolio_pipeline_loop` races the
registered backends per (loop, II) under one shared
:class:`~repro.portfolio.driver.SolveBudget` and takes the first
definitive sat/unsat answer.  Because every backend answers the *same*
formulation, any disagreement is a soundness bug in one of them — the
cross-backend agreement oracle (``repro.fuzz`` layer ``agreement``) turns
that into a standing differential test.  MOST (:mod:`repro.most`) is the
same II walk racing the ILP alone.
"""

from .answer import BackendAnswer, ProbeRecord, probe_disagreements
from .driver import (
    PortfolioOptions,
    PortfolioResult,
    PortfolioStats,
    available_backend_names,
    portfolio_pipeline_loop,
)
from .formulation import ModuloFormulation, build_modulo_formulation, check_witness
from .smt import smt_available

__all__ = [
    "BackendAnswer",
    "ModuloFormulation",
    "PortfolioOptions",
    "PortfolioResult",
    "PortfolioStats",
    "ProbeRecord",
    "available_backend_names",
    "build_modulo_formulation",
    "check_witness",
    "portfolio_pipeline_loop",
    "probe_disagreements",
    "smt_available",
]
