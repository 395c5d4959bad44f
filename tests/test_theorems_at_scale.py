"""The paper's theorems at hundreds of students: on seeded strict n x n
instances and on a district-shaped instance with coarse priorities broken
by a lottery, DA is stable, TTC, EADAM and canonical TADAM are efficient,
EADAM and TADAM improve on DA, the coalition method reproduces EADAM, and
the seat trades from DA to EADAM are trading cliques."""

import random

import pytest

from schoolmatch import Instance, WeakOrder
from schoolmatch.analysis import dominates, is_efficient, is_stable
from schoolmatch.coalitions import eadam_as_coalition, run_coalition
from schoolmatch.mechanisms import eadam, sosm, ttc
from schoolmatch.model import tie_break
from schoolmatch.strategy import random_strict_instance
from schoolmatch.trading import CliqueKind, realize_domination, tadam_run


def district_instance(rng):
    """1,000 students and 50 schools of 22 seats (10 % spare); uniform
    strict preferences, and each school's priority order cut into four
    coarse classes."""
    students = tuple(f"i{k}" for k in range(1, 1001))
    schools = tuple(f"s{k}" for k in range(1, 51))
    prefs = {}
    for i in students:
        order = list(schools)
        rng.shuffle(order)
        prefs[i] = WeakOrder.strict(order)
    prios = {}
    for s in schools:
        order = list(students)
        rng.shuffle(order)
        prios[s] = WeakOrder.of(order[c::4] for c in range(4))
    return Instance(students, schools, dict.fromkeys(schools, 22), prefs, prios)


CASES = {
    "strict-200": lambda: (random_strict_instance(random.Random(1), 200, 200), 0),
    "strict-400": lambda: (random_strict_instance(random.Random(1), 400, 400), 0),
    "district-1000": lambda: (district_instance(random.Random(1)), 1),
}


@pytest.mark.parametrize("case", CASES)
def test_theorems_hold_at_scale(case):
    inst, lottery = CASES[case]()
    strict = tie_break(inst, lottery)
    da = sosm(strict)[0]
    assert is_stable(strict, da)
    assert is_efficient(strict, ttc(strict))

    everyone = strict.students
    adjusted = eadam(strict, everyone).matching
    assert is_efficient(strict, adjusted)
    assert adjusted == da or dominates(strict, adjusted, da)
    outcome, verified = run_coalition(strict, eadam_as_coalition(strict, everyone))
    assert verified and outcome == adjusted
    cliques = realize_domination(strict, da, adjusted)
    assert cliques is not None and all(c.kind is CliqueKind.TRADING for c in cliques)

    result = tadam_run(inst, tiebreak=lottery)
    assert is_efficient(inst, result.matching)
    assert result.matching == result.baseline or dominates(inst, result.matching, result.baseline)
