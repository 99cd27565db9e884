"""Population size of the paper's Monte Carlo (Section 5.1).

The paper characterises yield by simulating 2000 manufactured caches, each
with an independently drawn set of correlated process parameters;
:class:`~repro.yieldmodel.analysis.YieldStudy` draws that many by default,
as columns (:mod:`repro.variation.columnar`).
"""

__all__ = ["PAPER_POPULATION"]

#: Population size used throughout the paper's evaluation.
PAPER_POPULATION = 2000
