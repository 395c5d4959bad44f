"""Properties on small generated instances.

Hypothesis runs derandomized with a bounded number of examples and no
example database, so every run checks the same instances.
"""

from hypothesis import given, settings, strategies as st

from schoolmatch import oracle, textio, trading
from schoolmatch.analysis import dominates, is_stable
from schoolmatch.mechanisms import eadam, sosm, ttc
from schoolmatch.model import UNASSIGNED, Instance, WeakOrder, rank, tie_break

from test_mechanisms import rescanning_ttc

fixed = settings(derandomize=True, max_examples=150, deadline=None, database=None)


@st.composite
def weak_orders(draw, items):
    order = draw(st.permutations(items))
    cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1)))) if len(order) > 1 else []
    bounds = [0, *cuts, len(order)]
    return WeakOrder.of(order[a:b] for a, b in zip(bounds, bounds[1:]))


@st.composite
def instances(draw, max_students=5, max_schools=3, truncate=False):
    """Weak preferences and priorities, capacities 1-3; with ``truncate``
    a preference list may stop after any of its classes."""
    n, m = draw(st.integers(1, max_students)), draw(st.integers(1, max_schools))
    students = tuple(f"i{k}" for k in range(1, n + 1))
    schools = tuple(f"s{k}" for k in range(1, m + 1))
    prefs = {}
    for i in students:
        order = draw(weak_orders(schools))
        if truncate:
            order = WeakOrder(order.classes[: draw(st.integers(0, len(order.classes)))])
        prefs[i] = order
    prios = {s: draw(weak_orders(students)) for s in schools}
    capacity = {s: draw(st.integers(1, 3)) for s in schools}
    return Instance(students, schools, capacity, prefs, prios)


@fixed
@given(instances(truncate=True), st.integers(0, 4))
def test_ttc_matches_rescanning_and_is_efficient(inst, lottery):
    strict = tie_break(inst, lottery)
    matching = ttc(strict)
    assert matching == rescanning_ttc(strict)
    acceptable = (
        m for m in oracle.enumerate_matchings(strict)
        if all(s is UNASSIGNED or s in strict.pref_rank[i] for i, s in m.pairs)
    )
    assert not any(dominates(strict, m, matching) for m in acceptable)


@fixed
@given(instances(max_students=6, max_schools=5))
def test_parse_inverts_serialize(inst):
    assert textio.parse_instance(textio.serialize_instance(inst)) == inst


@fixed
@given(instances(), st.integers(0, 4))
def test_tie_break_returns_strict_instance_itself(inst, lottery):
    strict = tie_break(inst, lottery)
    assert strict.is_strict
    assert tie_break(strict, lottery) is strict


@fixed
@given(instances(max_students=4), st.integers(0, 4))
def test_da_is_stable_and_student_optimal(inst, lottery):
    strict = tie_break(inst, lottery)
    matching, _ = sosm(strict)
    assert is_stable(strict, matching)
    for other in oracle.stable_set(strict):
        assert all(
            rank(strict.prefs[i], matching[i]) <= rank(strict.prefs[i], other[i])
            for i in strict.students
        )


@fixed
@given(instances(max_students=4), st.integers(0, 4))
def test_full_consent_eadam_dominates_da_and_is_efficient(inst, lottery):
    strict = tie_break(inst, lottery)
    da, _ = sosm(strict)
    matching = eadam(strict, strict.students).matching
    assert matching == da or dominates(strict, matching, da)
    assert not any(dominates(strict, m, matching) for m in oracle.enumerate_matchings(strict))


@fixed
@given(instances(truncate=True), st.integers(0, 4))
def test_canonical_tadam_is_an_enumerated_terminal(inst, lottery):
    strict = tie_break(inst, lottery)
    assert trading.tadam_run(strict).matching in trading.tadam_enumerate(strict).terminals
