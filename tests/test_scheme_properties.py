"""Property-based tests over the scheme layer.

Random synthetic chips (delays and leakages drawn over wide ranges) are
pushed through all schemes; the dominance and consistency invariants that
the paper's Tables 2/3 rely on must hold for *every* chip, not just the
Monte Carlo population.
"""

from hypothesis import given, settings as hsettings, strategies as st

from repro.schemes import DeepVACA, Hybrid, NaiveBinning, VACA, YAPD
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES
from tests.conftest import decision_row, make_chip


def _row(scheme, chip):
    """``scheme``'s decision for the one-row ``chip``."""
    return decision_row(scheme.decide(chip))

way_delays = st.lists(
    st.floats(min_value=0.5, max_value=2.0), min_size=4, max_size=4
)
way_leaks = st.lists(
    st.floats(min_value=0.01, max_value=0.6), min_size=4, max_size=4
)


@hsettings(max_examples=150, deadline=None)
@given(delays=way_delays, leaks=way_leaks)
def test_hybrid_dominates_yapd_and_vaca(delays, leaks):
    """Any chip YAPD or VACA can save, Hybrid can save."""
    case = make_chip(delays, way_leakages=leaks)
    hybrid_saved = _row(Hybrid(), case).saved
    if _row(YAPD(), case).saved:
        assert hybrid_saved
    if _row(VACA(), case).saved:
        assert hybrid_saved


@hsettings(max_examples=150, deadline=None)
@given(delays=way_delays, leaks=way_leaks)
def test_deeper_buffers_dominate(delays, leaks):
    """VACA+2 saves a superset of VACA+1 = VACA."""
    case = make_chip(delays, way_leakages=leaks)
    if _row(VACA(), case).saved:
        assert _row(DeepVACA(2), case).saved


@hsettings(max_examples=150, deadline=None)
@given(delays=way_delays, leaks=way_leaks)
def test_binning_six_dominates_five(delays, leaks):
    case = make_chip(delays, way_leakages=leaks)
    if _row(NaiveBinning(5), case).saved:
        assert _row(NaiveBinning(6), case).saved


@hsettings(max_examples=150, deadline=None)
@given(delays=way_delays, leaks=way_leaks)
def test_saved_outcomes_actually_meet_constraints(delays, leaks):
    """A saved chip's post-rescue configuration really satisfies both
    limits — schemes must never claim an infeasible rescue."""
    case = make_chip(delays, way_leakages=leaks)
    for scheme in (YAPD(), VACA(), Hybrid(), NaiveBinning(5)):
        outcome = _row(scheme, case)
        if not outcome.saved:
            continue
        assert outcome.way_cycles is not None
        # leakage: disabled ways removed from the total. The re-sum
        # here can land an ULP away from the scheme's own accumulation
        # order, so shave the tolerance off rather than adding it on —
        # a rescue sitting exactly at the limit is feasible.
        way_leakages = case.circuits.way_leakages[0].tolist()
        leakage = sum(
            way_leakages[w]
            for w, cycles in enumerate(outcome.way_cycles)
            if cycles is not None
        )
        assert leakage - 1e-12 <= case.constraints.leakage_limit
        # delay: every enabled way's latency class is honoured
        way_cycles = case.way_cycles[0].tolist()
        for w, cycles in enumerate(outcome.way_cycles):
            if cycles is None:
                continue
            assert cycles >= way_cycles[w] or cycles >= BASE_ACCESS_CYCLES


@hsettings(max_examples=100, deadline=None)
@given(delays=way_delays, leaks=way_leaks)
def test_rescue_is_pure(delays, leaks):
    """Deciding twice yields identical rows (no hidden state)."""
    case = make_chip(delays, way_leakages=leaks)
    for scheme in (YAPD(), VACA(), Hybrid()):
        assert _row(scheme, case) == _row(scheme, case)


@hsettings(max_examples=100, deadline=None)
@given(delays=way_delays, leaks=way_leaks)
def test_passing_chips_never_modified(delays, leaks):
    case = make_chip(delays, way_leakages=leaks)
    if not case.passes[0]:
        return
    for scheme in (YAPD(), VACA(), Hybrid()):
        outcome = _row(scheme, case)
        assert outcome.saved
        assert outcome.disabled_way is None
        assert outcome.disabled_band is None
