"""The population stream decoder against NumPy's own ``Generator``.

``repro.core.rng`` reproduces ``spawn(seed, label)`` in array arithmetic:
``SeedSequence`` mixing and PCG64 seeding, raw words, the ziggurat
``standard_normal`` and ``random()``. ``decode_program`` in
``repro.variation.columnar`` runs a whole draw program (normals, outlier
tests and their conditional scale draws) over many streams at once. Every
check here compares bits with NumPy's scalar calls, so a table entry, a
seeding constant or a slow-path branch that differs from NumPy fails.
"""

from __future__ import annotations

import random

import numpy as np
from hypothesis import given, settings as hsettings, strategies as st

from repro.core.rng import (
    StreamBlock,
    derive_seed,
    fast_normals,
    normals_at,
    spawn,
    stream_states,
    uniforms,
)
from repro.core import rng as rng_module
from repro.variation.columnar import (
    NORMAL,
    TEST,
    ColumnarPopulationSampler,
    decode_program,
)
from repro.variation.sampling import CacheVariationSampler


def _pcg64_state(seed: int):
    state = np.random.PCG64(seed).state["state"]
    return state["state"], state["inc"]


class TestSeeding:
    def test_edge_seeds_match_numpy(self):
        seeds = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 12345, 2**64 - 1]
        got = rng_module._pcg64_states(np.array(seeds, dtype=np.uint64))
        assert got == [_pcg64_state(seed) for seed in seeds]

    def test_random_63_bit_seeds_match_numpy(self):
        rng = random.Random(17)
        seeds = [rng.getrandbits(63) for _ in range(2000)]
        seeds += [rng.getrandbits(32) for _ in range(200)]
        got = rng_module._pcg64_states(np.array(seeds, dtype=np.uint64))
        assert got == [_pcg64_state(seed) for seed in seeds]

    def test_stream_states_follow_spawn_labels(self):
        labels = [f"chip-{i}" for i in range(50)] + ["is-3", "pilot-0"]
        got = stream_states(2006, labels)
        assert got == [
            _pcg64_state(derive_seed(2006, label)) for label in labels
        ]


class TestWords:
    def test_rows_match_random_raw(self):
        labels = [f"chip-{i}" for i in range(10_000)]
        block = StreamBlock(stream_states(1, labels), 24)
        for row, label in enumerate(labels):
            want = spawn(1, label).bit_generator.random_raw(24)
            assert np.array_equal(block.words[row], want), label

    def test_extension_continues_each_stream(self):
        """A block too short for its reads is extended from each
        stream's advanced state, not redrawn."""
        labels = [f"tag-{i}" for i in range(40)]
        block = StreamBlock(stream_states(9, labels), 5)
        block.ensure(7)
        assert block.width >= 7
        block.ensure(300)
        assert block.width >= 300
        for row, label in enumerate(labels):
            generator = spawn(9, label).bit_generator
            first = generator.random_raw(5)
            assert np.array_equal(block.words[row, :5], first)
            rest = block.width - 5
            assert np.array_equal(
                block.words[row, 5:], generator.random_raw(rest)
            )

    def test_uniforms_are_generator_random(self):
        labels = [f"u-{i}" for i in range(20)]
        block = StreamBlock(stream_states(3, labels), 500)
        for row, label in enumerate(labels):
            want = spawn(3, label).random(500)
            assert uniforms(block.words[row]).tobytes() == want.tobytes()


class TestNormals:
    def test_million_draws_match_standard_normal(self):
        """10**6 draws over 100 streams, decoded in lockstep; every
        slow-path branch (wedge accept, wedge reject, base-strip tail)
        must occur and match."""
        streams, draws = 100, 10_000
        labels = [f"normal-{i}" for i in range(streams)]
        block = StreamBlock(stream_states(77, labels), 64)
        rows = np.arange(streams)
        pos = np.zeros(streams, dtype=np.int64)
        got = np.empty((streams, draws))
        branches = {"accept": 0, "reject": 0, "tail": 0}
        for j in range(draws):
            first = block.words[rows, pos]
            _, slow = fast_normals(first)
            values, end = normals_at(block, rows, pos)
            got[:, j] = values
            read = end - pos
            tail = slow & ((first & np.uint64(0xFF)) == 0)
            wedge = slow & ~tail
            branches["tail"] += int(tail.sum())
            branches["accept"] += int((wedge & (read == 2)).sum())
            branches["reject"] += int((wedge & (read > 2)).sum())
            pos = end
        for row, label in enumerate(labels):
            want = spawn(77, label).standard_normal(draws)
            assert got[row].tobytes() == want.tobytes(), label
        assert all(count > 0 for count in branches.values()), branches

    def test_fast_path_flags(self):
        """Words the fast path accepts decode to standard_normal()
        after reading exactly that word."""
        block = StreamBlock(stream_states(5, ["f"]), 2000)
        values, slow = fast_normals(block.words[0])
        generator = spawn(5, "f")
        for j in np.flatnonzero(~slow)[:200].tolist():
            generator.bit_generator.state = spawn(5, "f").bit_generator.state
            generator.bit_generator.advance(j)
            assert values[j] == generator.standard_normal()


def _scalar_program(seed, label, kinds, test_prob):
    """What ``decode_program`` must return for one stream, by scalar
    ``Generator`` calls."""
    generator = spawn(seed, label)
    normals, hits = [], []
    for op, kind in enumerate(kinds):
        if kind == NORMAL:
            normals.append(generator.standard_normal())
        elif generator.random() < test_prob:
            hits.append((op, generator.random()))
    return normals, hits, generator.bit_generator.state


def _check_program(seed, labels, kinds, test_prob):
    normals, consumed, hit_rows, hit_ops, hit_scales = decode_program(
        stream_states(seed, labels), kinds, test_prob
    )
    hits = sorted(
        zip(hit_rows.tolist(), hit_ops.tolist(), hit_scales.tolist())
    )
    for row, label in enumerate(labels):
        want_normals, want_hits, want_state = _scalar_program(
            seed, label, kinds, test_prob
        )
        assert normals[row].tolist() == want_normals
        assert [(op, s) for r, op, s in hits if r == row] == want_hits
        advanced = spawn(seed, label).bit_generator
        advanced.advance(int(consumed[row]))
        assert advanced.state == want_state


class TestDrawPrograms:
    @hsettings(max_examples=60, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from([NORMAL, TEST]), min_size=1, max_size=80),
        test_prob=st.floats(min_value=0.0, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**40),
        streams=st.integers(min_value=1, max_value=12),
    )
    def test_random_interleavings_match_scalar_calls(
        self, kinds, test_prob, seed, streams
    ):
        labels = [f"op-{i}" for i in range(streams)]
        _check_program(seed, labels, kinds, test_prob)

    def test_stream_reading_past_the_first_window(self):
        """Almost every test hits: about 57 scale draws carry each stream
        past its first window (80 ops + 32 words), so the block is
        decoded again over a wider one."""
        kinds = [TEST, NORMAL] * 20 + [TEST] * 40
        labels = [f"long-{i}" for i in range(30)]
        _check_program(4, labels, kinds, 0.95)

    def test_normals_only_and_tests_only(self):
        labels = [f"pure-{i}" for i in range(25)]
        _check_program(8, labels, [NORMAL] * 300, 0.5)
        _check_program(8, labels, [TEST] * 50, 0.3)


class TestLayoutIndependence:
    def test_population_equals_uneven_shards(self):
        columnar = ColumnarPopulationSampler(CacheVariationSampler())
        labels = [f"chip-{i}" for i in range(2000)]
        whole = columnar.draw(1, labels)
        cuts = [0, 16, 32, 300, 301, 316, 1000, 1016, 1999, 2000]
        parts = [
            columnar.draw(1, labels[lo:hi]) for lo, hi in zip(cuts, cuts[1:])
        ]
        for name in ("head_z", "way_z", "residuals"):
            joined = np.concatenate([getattr(part, name) for part in parts])
            assert getattr(whole, name).tobytes() == joined.tobytes(), name

    def test_order_of_labels_does_not_matter(self):
        columnar = ColumnarPopulationSampler(CacheVariationSampler())
        labels = [f"chip-{i}" for i in range(40)]
        forward = columnar.draw(3, labels)
        backward = columnar.draw(3, labels[::-1])
        assert np.array_equal(forward.way_z, backward.way_z[::-1])
        assert np.array_equal(forward.residuals, backward.residuals[::-1])

    def test_empty_population(self):
        columnar = ColumnarPopulationSampler(CacheVariationSampler())
        raw = columnar.draw(1, [])
        assert raw.way_z.shape[0] == 0 and raw.residuals.shape[0] == 0
