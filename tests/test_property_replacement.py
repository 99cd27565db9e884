"""Property tests: LRU invariants under random workloads.

The differential batteries hold the cache's per-set recency lists to the
oracle cache, whose per-set policy is ``tests/oracles/replacement.py``'s
``LRUPolicy``. These tests check that policy against a straightforward
reference model over seeded random access sequences:

* the victim is always one of the eligible candidates;
* never-touched candidates are evicted before any touched one;
* among touched candidates, the least recently touched loses;
* a touch moves a way to most-recently-used (it cannot be the next
  victim while another touched candidate exists);
* victim selection is a pure query — it never mutates policy state.
"""

from __future__ import annotations

import random

import pytest

from oracles.replacement import LRUPolicy
from repro.core.errors import ConfigurationError

NUM_SEQUENCES = 30


def _random_workload(seed: int):
    """(ways, candidate set, interleaved touch/victim script)."""
    rng = random.Random(seed)
    ways = rng.choice((2, 4, 8))
    candidates = sorted(
        rng.sample(range(ways), k=rng.randint(1, ways))
    )
    script = []
    for _ in range(rng.randint(30, 120)):
        if rng.random() < 0.7:
            script.append(("touch", rng.randrange(ways)))
        else:
            script.append(("victim", None))
    return ways, candidates, script


class _ReferenceLRU:
    """Trivially-correct LRU: a recency list, most recent last."""

    def __init__(self):
        self.recency = []

    def touch(self, way):
        if way in self.recency:
            self.recency.remove(way)
        self.recency.append(way)

    def victim(self, candidates):
        untouched = [w for w in candidates if w not in self.recency]
        if untouched:
            return untouched[0]
        return next(w for w in self.recency if w in candidates)


@pytest.mark.parametrize("seed", range(NUM_SEQUENCES))
def test_lru_matches_reference_model(seed):
    _, candidates, script = _random_workload(seed)
    policy, reference = LRUPolicy(), _ReferenceLRU()
    for op, way in script:
        if op == "touch":
            policy.touch(way)
            reference.touch(way)
        else:
            assert policy.victim(candidates) == reference.victim(candidates)


@pytest.mark.parametrize("seed", range(NUM_SEQUENCES))
def test_lru_victim_is_least_recent_candidate(seed):
    _, candidates, script = _random_workload(seed)
    policy = LRUPolicy()
    touched = []  # recency order, most recent last
    for op, way in script:
        if op == "touch":
            policy.touch(way)
            if way in touched:
                touched.remove(way)
            touched.append(way)
            continue
        victim = policy.victim(candidates)
        assert victim in candidates
        untouched = [w for w in candidates if w not in touched]
        if untouched:
            assert victim not in touched
        else:
            # No touched candidate may be older than the victim.
            assert touched.index(victim) == min(
                touched.index(w) for w in candidates
            )
            # The most recently touched candidate survives (unless it is
            # the only one).
            mru = max(candidates, key=touched.index)
            if len(candidates) > 1:
                assert victim != mru
        # victim() is a query: asking again changes nothing.
        assert policy.victim(candidates) == victim
        # Touching the victim immediately protects it.
        if len([w for w in candidates if w != victim]) >= 1 and not untouched:
            policy.touch(victim)
            touched.remove(victim)
            touched.append(victim)
            assert policy.victim(candidates) != victim


@pytest.mark.parametrize("policy_cls", [LRUPolicy])
def test_empty_candidates_raise(policy_cls):
    # Zero-way sets (H-YAPD masking every way of a group) are a
    # configuration problem, not a simulator invariant violation.
    with pytest.raises(ConfigurationError):
        policy_cls().victim([])
