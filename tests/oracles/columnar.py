"""The per-chip stream consumption the columnar sampler replaced.

``draw_chip`` is ``ColumnarPopulationSampler.draw_chip`` verbatim, now a
function whose ``self`` is the sampler: one ``Generator`` per chip and
about 38 calls into it, the head batch first, then per way the way's
batch followed by the scalar residual loop. ``draw`` runs it over
``spawn(seed, label)`` for each label, which is what
``ColumnarPopulationSampler.draw`` must reproduce byte for byte. Never
imported by ``src/``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.rng import spawn
from repro.variation.columnar import ColumnarPopulationSampler, RawDraws

__all__ = ["draw", "draw_chip"]


def draw_chip(
    self: ColumnarPopulationSampler,
    rng: np.random.Generator,
    index: int,
    raw: RawDraws,
) -> None:
    """Consume one chip's draws from ``rng`` into row ``index``.

    The consumption order is the contract: head batch, then per way
    a segment batch followed by the residual loop — the order the
    scalar oracle in ``sampling.py`` takes its per-parameter draws, so
    both leave ``rng`` at the same stream position (locked by the
    stream-identity regression test).
    """
    standard_normal = rng.standard_normal
    if self._head_n:
        standard_normal(self._head_n, out=raw.head_z[index])
    sampler = self.sampler
    sigma = sampler.path_residual_sigma
    prob = sampler.outlier_band_prob
    mean = sampler._residual_mean
    low, high = sampler.outlier_scale_range
    span = high - low
    # Same stream, same bits, faster scalar calls: Generator.lognormal
    # is exp(mean + sigma * standard_normal()) and Generator.uniform
    # is low + (high - low) * random() — the verbatim C definitions —
    # so the cheap primitives reproduce the reference's draws exactly
    # (locked by the stream-identity and differential tests).
    random = rng.random
    exp = math.exp
    num_bands = self.num_bands
    draw_residuals = self._draw_residuals
    chip_z = raw.way_z[index]
    chip_residuals = raw.residuals[index]
    for way in range(self.num_ways):
        count = self._way_counts[way]
        if count:
            start = self._way_starts[way]
            standard_normal(count, out=chip_z[way, start : start + count])
        if draw_residuals:
            row = chip_residuals[way]
            for band in range(num_bands):
                value = 1.0
                if sigma > 0:
                    value = exp(mean + sigma * standard_normal())
                if prob > 0 and random() < prob:
                    value *= low + span * random()
                row[band] = value


def draw(
    columnar: ColumnarPopulationSampler, seed: int, labels: Sequence[str]
) -> RawDraws:
    """The reference for ``columnar.draw(seed, labels)``, chip by chip."""
    raw = columnar.allocate(len(labels))
    for index, label in enumerate(labels):
        draw_chip(columnar, spawn(seed, label), index, raw)
    return raw
