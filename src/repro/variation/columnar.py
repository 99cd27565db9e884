"""Columnar Monte Carlo population sampling: the one sampling path.

:class:`ColumnarPopulationSampler` draws a population of
:class:`~repro.variation.sampling.CacheVariationSampler` chips into a
handful of preallocated NumPy arrays, not a tree of
:class:`~repro.variation.parameters.ProcessParameters` /
:class:`~repro.variation.sampling.WayVariation` tuples per chip:

* every chip's draws come from its own ``spawn(seed, f"{tag}-{chip_id}")``
  stream (tag ``"chip"`` for the reference population), in the order
  the paper's hierarchical procedure takes them (one ``Generator`` call
  per parameter in the scalar oracle, ``tests/oracles/sampling.py``).
  That order is the sampler's *draw program*: the head batch (die +
  band offsets), then per way its segment batch followed, per band, by
  the residual normal, the outlier-test uniform and, on a hit, the
  outlier-scale uniform.
  The program is decoded for blocks of chips at once from each stream's
  raw words (:mod:`repro.core.rng`): every word is decoded as a
  fast-path normal, and each chip's data-dependent steps — ziggurat slow
  paths and outlier hits, a few per chip — are found from a sparse list
  of candidate words and shift the chip's later reads, so every value is
  bit-identical to the reference draw for draw;
* the clip/offset/scale arithmetic of the oracle's ``_draw_around`` /
  ``_draw_offsets`` is then applied to the whole population at once as
  elementwise array operations, which are bit-identical to the per-chip
  arithmetic because each element goes through the same IEEE operations
  in the same order.

The result is a :class:`ColumnarPopulation`: ``(num_chips, num_ways,
num_bands, num_params)``-shaped parameter arrays the columnar circuit
model (:mod:`repro.circuit.columnar`) consumes directly;
:meth:`ColumnarPopulation.from_maps` turns per-chip maps from another
sampler into the same columns.

The draw program is an identity. :attr:`ColumnarPopulationSampler.program`
keys everything the decoding step reads apart from the seed and the
labels, so two samplers with equal keys decode equal raw draws from
every stream. Their scales may differ: the way-mesh factors 0.5x, 1x
and 2x the paper's are one program, while a zero factor drops its slot
and makes another. Raw draws carry their program, and
:meth:`~ColumnarPopulationSampler.finalize` of any sampler with that
program turns them into that sampler's own population bit for bit, so
a sweep that only rescales decodes each chip stream once
(:meth:`repro.engine.core.Engine.studies`); ``finalize`` refuses draws
of another program. Bit-identity to the scalar
oracle, values and final stream positions, is asserted by
``tests/test_columnar_diff.py`` over randomized geometries, correlation
factors and seeds, and the decoder is held to NumPy's ``Generator`` by
``tests/test_rng_decoder.py``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import ConfigurationError
from repro.core.rng import (
    StreamBlock,
    fast_normals,
    normals_at,
    stream_states,
    uniforms,
)
from repro.variation.parameters import PARAMETER_NAMES
from repro.variation.sampling import (
    CacheVariationMap,
    CacheVariationSampler,
    PERIPHERAL_SEGMENTS,
)

__all__ = [
    "ColumnarPopulation",
    "ColumnarPopulationSampler",
    "NORMAL",
    "RawDraws",
    "TEST",
    "decode_program",
]

_NUM_PARAMS = len(PARAMETER_NAMES)
_NUM_PERI = len(PERIPHERAL_SEGMENTS)

#: Chips decoded together. Bounds the word matrix and its temporaries
#: (about 0.8 MB at the stock program) whatever the population size.
#: Serve draws populations on several engine threads, each with its own
#: allocator arena that keeps its high-water mark; 256-chip blocks
#: (2.8 MB) raised the server's peak RSS by about 4%.
_BLOCK = 64
#: Words decoded per chip beyond its program length. A stock chip reads
#: about 5 extra words on average and rarely more than 20; a block with
#: a longer chip is decoded again over a wider window.
_SLACK = 32
#: Words drawn past the window, so that draws starting inside it rarely
#: need their rows extended.
_TAIL_WORDS = 16

#: Draw-program op kinds. A candidate word's code uses the same bits: a
#: word that starts a slow-path normal, a word whose uniform hits.
NORMAL = 1
TEST = 2


def decode_program(
    states: Sequence[Tuple[int, int]], kinds: Sequence[int], test_prob: float
):
    """Run one draw program on every stream, as ``Generator`` calls would.

    ``kinds[k]`` is op ``k``: :data:`NORMAL` is ``standard_normal()``;
    :data:`TEST` is ``random() < test_prob``, followed on a hit by one
    more ``random()``, the hit's scale. ``states`` are PCG64 states from
    :func:`~repro.core.rng.stream_states`.

    Returns ``(normals, consumed, hit_rows, hit_ops, hit_scales)``:
    ``normals[i]`` holds stream ``i``'s normal draws in op order,
    ``consumed[i]`` the words stream ``i`` read in all, and every hit
    is a (stream, op, scale) triple.
    """
    kinds = np.asarray(kinds, dtype=np.uint8)
    window = kinds.size + _SLACK
    while True:
        block = StreamBlock(states, window + _TAIL_WORDS)
        walked = _walk(block, window, kinds, test_prob)
        if walked is not None:
            return walked
        window *= 2


def _walk(block: StreamBlock, window: int, kinds: np.ndarray, test_prob):
    """:func:`decode_program` over each stream's first ``window`` words.

    Every word is decoded once as a fast-path normal; every word that
    starts a slow-path normal is decoded as a whole draw, and every word
    some test op can reach is tested. Without events, op ``k`` reads word
    ``k``. An event is a normal op whose word starts a slow-path draw (it
    reads ``extra`` more words) or a test op that hits (its scale draw
    reads one more). Events are rare and arrive in word order, so each
    stream walks its sorted list of candidate words once, keeping its
    shift: a candidate is an event when the op that reads it at that
    shift has the candidate's kind. Returns ``None`` if some stream reads
    past the window.
    """
    num_ops = kinds.size
    normal_ops = np.flatnonzero(kinds == NORMAL).astype(np.int32)
    test_ops = np.flatnonzero(kinds == TEST)
    words = block.words[:, :window]
    count = words.shape[0]
    values, slow = fast_normals(words)
    code = slow.view(np.uint8)
    if test_ops.size:
        # Test op k reads a word in [k, k + window - num_ops].
        reach = np.zeros(window + 1, dtype=np.int32)
        np.add.at(reach, test_ops, 1)
        np.add.at(reach, test_ops + (window - num_ops + 1), -1)
        hit = uniforms(words) < test_prob
        hit &= np.cumsum(reach[:window]) > 0
        code = code + (hit.view(np.uint8) << 1)
    del words, slow

    flat = np.flatnonzero(code)
    codes = code.ravel()[flat]
    del code
    rows, cols = np.divmod(flat, window)
    starts = np.searchsorted(rows, np.arange(count + 1)).tolist()
    extra = np.zeros(flat.size, dtype=np.intp)
    slow_at = np.flatnonzero(codes & NORMAL)
    drawn, end = normals_at(block, rows[slow_at], cols[slow_at])
    values.ravel()[flat[slow_at]] = drawn
    extra[slow_at] = end - cols[slow_at] - 1
    del flat, rows, slow_at, drawn, end

    op_kinds = kinds.tolist()
    cols, codes, extra = cols.tolist(), codes.tolist(), extra.tolist()
    event_rows, event_ops, event_steps, hits = [], [], [], []
    consumed = []
    for row in range(count):
        shift = 0
        next_op = 0
        for i in range(starts[row], starts[row + 1]):
            op = cols[i] - shift
            if op < next_op:
                continue
            if op >= num_ops:
                break
            kind = op_kinds[op]
            if kind & codes[i]:
                if kind == NORMAL:
                    added = extra[i]
                else:
                    added = 1
                    hits.append((row, op, cols[i] + 1))
                event_rows.append(row)
                event_ops.append(op + 1)
                event_steps.append(added)
                shift += added
                next_op = op + 1
        consumed.append(num_ops + shift)
    if max(consumed, default=0) > window:
        return None

    # Every normal op's word: its index plus the extra words of the
    # events before it.
    offset = np.zeros((count, num_ops + 1), dtype=np.int32)
    offset[event_rows, event_ops] = event_steps
    np.cumsum(offset, axis=1, out=offset)
    read = offset[:, normal_ops]
    read += normal_ops
    read += (np.arange(count, dtype=np.int32) * window)[:, None]
    normals = values.ravel().take(read)
    hit_rows, hit_ops, scale_at = np.array(
        hits, dtype=np.intp
    ).reshape(-1, 3).T
    hit_scales = uniforms(block.words[hit_rows, scale_at])
    return normals, np.array(consumed), hit_rows, hit_ops, hit_scales


class RawDraws(NamedTuple):
    """Preallocated standard-normal/residual buffers for one population.

    ``head_z`` holds each chip's die + band-offset batch, ``way_z`` the
    per-way batches (way vector slot first, then the peripheral/band
    segment slots; slots a zero correlation factor never draws stay
    zero, which the finalize arithmetic multiplies by a zero scale), and
    ``residuals`` the per-(way, band) delay residuals: the lognormal
    core times, on an outlier hit, the outlier scale. ``program`` is the
    :attr:`~ColumnarPopulationSampler.program` that decoded them.
    """

    head_z: np.ndarray  # (C, head_n)
    way_z: np.ndarray  # (C, W, n + rest_n)
    residuals: np.ndarray  # (C, W, B), ones when residuals are disabled
    program: tuple

    def first(self, count: int) -> "RawDraws":
        """The draws of the first ``count`` chips, as views."""
        return self._replace(
            head_z=self.head_z[:count],
            way_z=self.way_z[:count],
            residuals=self.residuals[:count],
        )


class ColumnarPopulation(NamedTuple):
    """One sampled population as parameter columns.

    All arrays share the leading chip axis; the trailing axis is always
    the five Table 1 parameters in :data:`PARAMETER_NAMES` order.
    ``draws`` are the raw draws the columns were finalized from, which
    another sampler of the same program may finalize too; ``None`` for
    columns from per-chip maps, or drawn through ``sample_range``'s
    ``die_z`` hook, which rewrites them.
    """

    chip_ids: Tuple[int, ...]
    die: np.ndarray  # (C, P)
    way_params: np.ndarray  # (C, W, P)
    peripherals: np.ndarray  # (C, W, S, P) in PERIPHERAL_SEGMENTS order
    bands: np.ndarray  # (C, W, B, P)
    band_residuals: np.ndarray  # (C, W, B)
    has_residuals: bool
    draws: Optional[RawDraws] = None

    @property
    def num_ways(self) -> int:
        return self.way_params.shape[1]

    @property
    def num_bands(self) -> int:
        return self.bands.shape[2]

    @classmethod
    def from_maps(
        cls, maps: Sequence[CacheVariationMap]
    ) -> "ColumnarPopulation":
        """Per-chip variation maps as columns. A way without residuals
        gets unit residuals; maps whose ways or bands vary are refused."""
        ways = [cvmap.ways for cvmap in maps]
        try:
            columns = [np.array(rows, dtype=float) for rows in (
                [cvmap.die for cvmap in maps],
                [[way.params for way in chip] for chip in ways],
                [[[way.peripheral(name) for name in PERIPHERAL_SEGMENTS]
                  for way in chip] for chip in ways],
                [[way.bands for way in chip] for chip in ways],
                [[way.band_residuals or (1.0,) * len(way.bands)
                  for way in chip] for chip in ways],
            )]
        except ValueError:  # inhomogeneous nested lengths
            columns = []
        if [column.ndim for column in columns] != [2, 3, 4, 4, 3]:
            raise ConfigurationError(
                "from_maps needs at least one chip and the same ways and "
                "bands in every chip"
            )
        return cls(
            tuple(cvmap.chip_id for cvmap in maps), *columns,
            has_residuals=any(
                way.band_residuals for chip in ways for way in chip
            ),
        )


class ColumnarPopulationSampler:
    """Draws whole populations as columns, bit-identical per chip.

    Wraps a configured :class:`CacheVariationSampler` and reuses its
    precomputed scale/clip vectors, so every table / correlation-factor /
    geometry configuration the sampler accepts is drawn here. There is
    no per-parameter skip: a zero correlation factor drops its whole
    slot from the draw program, and a single parameter's sigma cannot
    be zero, because :class:`~repro.variation.parameters.ParameterSpec`
    refuses one.

    Parameters
    ----------
    sampler:
        The sampling configuration whose population this draws.
    """

    def __init__(self, sampler: CacheVariationSampler) -> None:
        self.sampler = sampler
        self.num_ways = sampler.num_ways
        self.num_bands = sampler.num_bands
        factors = sampler.factors
        n = _NUM_PARAMS
        self._rest_n = (_NUM_PERI + self.num_bands) * n
        # Head batch layout: die slot then band-offset slots; a zero
        # factor removes its slot from the *drawn* batch (the reference
        # skips the draw entirely) but keeps its zeroed buffer columns.
        self._head_n = (n if factors.inter_die != 0.0 else 0) + (
            self.num_bands * n if factors.band != 0.0 else 0
        )
        self._die_drawn = factors.inter_die != 0.0
        self._band_drawn = factors.band != 0.0
        row_drawn = factors.row != 0.0
        self._way_counts = tuple(
            (n if factor != 0.0 else 0) + (self._rest_n if row_drawn else 0)
            for factor in sampler._way_factors
        )
        self._way_starts = tuple(
            0 if factor != 0.0 else n for factor in sampler._way_factors
        )
        self._draw_residuals = (
            sampler.path_residual_sigma > 0 or sampler.outlier_band_prob > 0
        )
        self._build_program()

    def _build_program(self) -> None:
        """Lay out one chip's draw program for :func:`decode_program`.

        Normals land in one ``(C, normals)`` matrix in op order:
        ``_way_src``/``_way_dst`` map its columns into ``way_z`` rows and
        ``_residual_src`` picks the residual normals; ``_cell`` maps a
        test op to its flat (way, band) residual cell.

        ``program`` keys everything :meth:`draw` reads apart from the
        seed and the labels: these layouts, the geometry, and the
        residual and outlier parameters its decoding applies (the
        outlier scale range only when there are outlier tests). The
        die, band, way and row scales are not in it; whether each
        factor is zero is, through the layouts.
        """
        sampler = self.sampler
        kinds = [NORMAL] * self._head_n
        way_src, way_dst, residual_ops, cells = [], [], [], []
        row_n = _NUM_PARAMS + self._rest_n
        for way in range(self.num_ways):
            count = self._way_counts[way]
            dst = way * row_n + self._way_starts[way]
            way_src.extend(range(len(kinds), len(kinds) + count))
            way_dst.extend(range(dst, dst + count))
            kinds.extend([NORMAL] * count)
            if not self._draw_residuals:
                continue
            for band in range(self.num_bands):
                if sampler.path_residual_sigma > 0:
                    residual_ops.append(len(kinds))
                    kinds.append(NORMAL)
                if sampler.outlier_band_prob > 0:
                    cells.append((len(kinds), way * self.num_bands + band))
                    kinds.append(TEST)
        kind = np.array(kinds, dtype=np.uint8)
        # Column of each normal op in the normals matrix.
        slot = np.cumsum(kind == NORMAL) - 1
        cell = np.full(kind.size, -1, dtype=np.intp)
        for op, flat in cells:
            cell[op] = flat
        self._op_kind = kind
        self._cell = cell
        self._way_src = slot[way_src]
        self._way_dst = np.array(way_dst, dtype=np.intp)
        self._residual_src = slot[residual_ops]
        self.program = (
            kind.tobytes(), self._head_n, self._way_src.tobytes(),
            self._way_dst.tobytes(), self._residual_src.tobytes(),
            cell.tobytes(), self.num_ways, self.num_bands,
            sampler.outlier_band_prob, sampler.path_residual_sigma,
            sampler._residual_mean,
            # A program without outlier tests never reads the range.
            tuple(sampler.outlier_scale_range) if cells else None,
        )

    # ------------------------------------------------------------------
    # stream decoding
    # ------------------------------------------------------------------
    def allocate(self, num_chips: int) -> RawDraws:
        """Preallocate the draw buffers for ``num_chips`` chips."""
        if num_chips < 0:
            raise ConfigurationError("num_chips must be >= 0")
        n = _NUM_PARAMS
        return RawDraws(
            head_z=np.zeros((num_chips, self._head_n)),
            way_z=np.zeros((num_chips, self.num_ways, n + self._rest_n)),
            residuals=np.ones(
                (num_chips, self.num_ways, self.num_bands)
            ),
            program=self.program,
        )

    def draw(self, seed: int, labels: Sequence[str]) -> RawDraws:
        """Run the draw program on ``spawn(seed, label)`` for each label.

        Row ``i`` of the result holds exactly what the scalar oracle
        draws from ``spawn(seed, labels[i])``. Chips are decoded in
        fixed blocks; a chip's values depend only on its
        ``(seed, label)``.
        """
        raw = self.allocate(len(labels))
        for lo in range(0, len(labels), _BLOCK):
            states = stream_states(seed, labels[lo : lo + _BLOCK])
            self._draw_block(states, raw, lo)
        return raw

    def _draw_block(self, states, raw: RawDraws, lo: int) -> None:
        """Decode one block of chips into rows ``lo:lo + len(states)``."""
        sampler = self.sampler
        z, _, hit_rows, hit_ops, hit_scales = decode_program(
            states, self._op_kind, sampler.outlier_band_prob
        )
        count = len(states)
        hi = lo + count
        raw.head_z[lo:hi] = z[:, : self._head_n]
        raw.way_z[lo:hi].reshape(count, -1)[:, self._way_dst] = z[
            :, self._way_src
        ]
        if not self._draw_residuals:
            return
        cells = raw.residuals[lo:hi].reshape(count, -1)
        if sampler.path_residual_sigma > 0:
            # lognormal(mean, sigma) is exp(mean + sigma * z), libm exp.
            exponent = (
                sampler._residual_mean
                + sampler.path_residual_sigma * z[:, self._residual_src]
            )
            cells[:] = np.fromiter(
                map(math.exp, exponent.ravel().tolist()),
                dtype=np.float64,
                count=exponent.size,
            ).reshape(exponent.shape)
        # uniform(low, high) is low + (high - low) * random().
        low, high = sampler.outlier_scale_range
        cells[hit_rows, self._cell[hit_ops]] *= low + (high - low) * hit_scales

    # ------------------------------------------------------------------
    # whole-population arithmetic
    # ------------------------------------------------------------------
    def finalize(
        self, chip_ids: Sequence[int], raw: RawDraws
    ) -> ColumnarPopulation:
        """Turn raw draws into clipped parameter columns, in bulk.

        Mirrors the scalar oracle's per-parameter arithmetic elementwise
        over the whole population: scale the z batch, add the centre,
        clip — same operations in the same order per element, so every
        value is bit-identical to the per-chip computation. Slots whose
        correlation factor is zero multiply a zeroed buffer by a zero
        scale, which reproduces the oracle's "skip the draw, keep the
        centre" branch exactly (``x + 0.0 == x`` for the strictly
        positive centres involved).

        ``raw`` may come from any sampler with this sampler's
        :attr:`program`; draws of another program are refused.
        """
        if raw.program != self.program:
            raise ConfigurationError(
                "raw draws of another draw program cannot be finalized "
                "by this sampler"
            )
        sampler = self.sampler
        n = _NUM_PARAMS
        num_chips = len(chip_ids)
        num_ways = self.num_ways
        num_bands = self.num_bands
        low = sampler._clip_low
        high = sampler._clip_high

        # Die vectors: nominal + die_scale * z, clipped.
        if self._die_drawn:
            die = sampler._nominal_arr + sampler._die_scale * raw.head_z[:, :n]
            band_z = raw.head_z[:, n:]
        else:
            die = np.broadcast_to(
                sampler._nominal_arr, (num_chips, n)
            ).copy()
            band_z = raw.head_z
        die = np.minimum(np.maximum(die, low), high)

        # Shared band offsets (zero-mean, unclipped).
        if self._band_drawn:
            band_offsets = 0.0 + sampler._band_scale * band_z
        else:
            band_offsets = np.zeros((num_chips, num_bands * n))

        # Way vectors: die + way_scale * z, clipped.
        way_scales = np.array(sampler._way_scales)  # (W, n)
        way_values = (
            die[:, None, :] + way_scales[None, :, :] * raw.way_z[:, :, :n]
        )
        way_values = np.minimum(np.maximum(way_values, low), high)

        # Segment vectors: way value (+ band offset for the band slots)
        # + rest_scale * z, clipped against the tiled bounds.
        rest_segments = _NUM_PERI + num_bands
        centres = np.empty((num_chips, num_ways, rest_segments, n))
        centres[:] = way_values[:, :, None, :]
        centres[:, :, _NUM_PERI:, :] += band_offsets.reshape(
            num_chips, 1, num_bands, n
        )
        rest_scale = sampler._rest_scale.reshape(rest_segments, n)
        rest = centres + rest_scale * raw.way_z[:, :, n:].reshape(
            num_chips, num_ways, rest_segments, n
        )
        rest = np.minimum(np.maximum(rest, low), high)

        return ColumnarPopulation(
            chip_ids=tuple(int(c) for c in chip_ids),
            die=die,
            way_params=way_values,
            peripherals=rest[:, :, :_NUM_PERI, :],
            bands=rest[:, :, _NUM_PERI:, :],
            band_residuals=raw.residuals,
            has_residuals=self._draw_residuals,
            draws=raw,
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def sample_range(
        self,
        seed: int,
        start: int,
        stop: int,
        tag: str = "chip",
        die_z: Optional[Callable[[np.ndarray], None]] = None,
    ) -> ColumnarPopulation:
        """Draw chip ids ``[start, stop)`` of stream ``tag`` as columns.

        Chip ``i`` draws from ``spawn(seed, f"{tag}-{i}")`` alone, so any
        split of an id range concatenates to the whole range; tag
        ``"chip"`` is the reference population. ``die_z`` (optional) is
        called with the ``(chips, 5)`` die-slot standard normals before
        they are scaled, and may rewrite them in place; the population
        then carries no draws.
        """
        if not 0 <= start <= stop:
            raise ConfigurationError(f"invalid chip range [{start}, {stop})")
        if die_z is not None and not self._die_drawn:
            raise ConfigurationError(
                "rewriting the die slot requires die-level variation "
                "(inter_die factor > 0)"
            )
        chip_ids = range(start, stop)
        raw = self.draw(seed, [f"{tag}-{chip_id}" for chip_id in chip_ids])
        if die_z is None:
            return self.finalize(chip_ids, raw)
        die_z(raw.head_z[:, :_NUM_PARAMS])
        return self.finalize(chip_ids, raw)._replace(draws=None)
