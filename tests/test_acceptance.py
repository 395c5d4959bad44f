"""Acceptance gate: one test per shipped guarantee, one printed line each."""

import random
from itertools import combinations, islice
from pathlib import Path

import pytest

from schoolmatch import (
    Matching,
    dominates,
    preference_index,
    sosm,
    ttc,
)
from schoolmatch import coalitions, oracle, strategy, textio, trading
from schoolmatch.mechanisms import eadam, hopeless_students
from schoolmatch.model import WeakOrder
from schoolmatch.strategy import Verdict, random_strict_instance

import networkx_route

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def announce(capsys):
    def _run(number, description, check):
        try:
            check()
        except BaseException:
            with capsys.disabled():
                print(f"criterion {number} ({description}): FAIL")
            raise
        with capsys.disabled():
            print(f"criterion {number} ({description}): PASS")

    return _run


def load(name):
    return textio.parse_instance((FIXTURES / f"{name}.txt").read_text())


def mu(inst, m):
    return preference_index(inst, m)


def test_criterion_1_paper_fixtures(announce):
    def check():
        scp1, scp2, scp3 = load("scp1"), load("scp2"), load("scp3")
        scp4, scp5, scp6 = load("scp4"), load("scp5"), load("scp6")

        m1, _ = sosm(scp1)
        assert m1.as_dict() == {"i1": "s1", "i2": "s2", "i3": "s3"}
        assert mu(scp1, m1) == 4
        t1 = ttc(scp1)
        e1 = eadam(scp1, ("i3",)).matching
        assert t1 == e1
        assert t1.as_dict() == {"i1": "s2", "i2": "s1", "i3": "s3"}
        assert mu(scp1, t1) == 2

        m2, _ = sosm(scp2)
        assert mu(scp2, m2) == 10
        coalition2 = coalitions.build_coalition(scp2, m2, (("i1", "i2", "i4"),))
        c2, verified2 = coalitions.run_coalition(scp2, coalition2)
        assert verified2 and mu(scp2, c2) == 6

        m3, _ = sosm(scp3)
        assert mu(scp3, m3) == 11
        assert mu(scp3, eadam(scp3, scp3.students).matching) == 3
        alt3 = coalitions.build_coalition(scp3, m3, (("i4", "i2"),))
        c3, verified3 = coalitions.run_coalition(scp3, alt3)
        assert verified3 and mu(scp3, c3) == 7

        m4, _ = sosm(scp4)
        t4 = ttc(scp4)
        assert mu(scp4, m4) == 1 and mu(scp4, t4) == 1
        assert not dominates(scp4, m4, t4) and not dominates(scp4, t4, m4)

        m5, _ = sosm(scp5)
        t5 = ttc(scp5)
        assert mu(scp5, m5) == 3 and mu(scp5, t5) == 3
        assert not dominates(scp5, m5, t5) and not dominates(scp5, t5, m5)
        assert 1 in {mu(scp5, m) for m in oracle.efficient_dominations_of(scp5, m5)}

        result6 = trading.tadam_run(scp6)
        assert mu(scp6, result6.matching) == 2
        assert mu(scp6, result6.baseline) == 3

    announce(1, "paper-fixture exactness", check)


def test_criterion_2_eadam_round_log(announce):
    def check():
        scp3 = load("scp3")
        result = eadam(scp3, scp3.students)
        assert result.removal_sequence == (("i5", "s4"), ("i5", "s2"), ("i5", "s5"))
        assert len(result.traces[-1].steps) == 1

    announce(2, "removal sequence", check)


def test_criterion_3_tadam_completeness(announce):
    def check():
        rng = random.Random(1003)
        for _ in range(200):
            n = rng.randint(3, 6)
            k = rng.randint(3, 6)
            inst = random_strict_instance(rng, n, k)
            base, _ = sosm(inst)
            assert set(trading.tadam_enumerate(inst).terminals) == \
                oracle.efficient_dominations_of(inst, base)

    announce(3, "tadam completeness vs oracle", check)


def test_criterion_4_coalition_theorem(announce):
    def check():
        rng = random.Random(1004)
        for _ in range(200):
            # Balanced unit-capacity draws: the falsified-list construction
            # presumes every accomplice holds a seat at baseline.
            n = rng.randint(4, 6)
            inst = random_strict_instance(rng, n, n)
            for _ in range(5):
                consent = tuple(
                    i for i in inst.students if rng.random() < 0.6
                )
                coalition = coalitions.eadam_as_coalition(inst, consent)
                replayed, verified = coalitions.run_coalition(inst, coalition)
                assert verified
                assert replayed == eadam(inst, consent).matching
                outcomes = {
                    coalitions.run_coalition(inst, coalition, seed)[0]
                    for seed in (0, 1, 2, 3, 4)
                }
                assert outcomes == {replayed}

    announce(4, "coalition reproduces interrupter removal", check)


def test_criterion_5_hopeless_theorem(announce):
    def check():
        rng = random.Random(1005)
        for _ in range(200):
            inst = random_strict_instance(rng, rng.randint(3, 6), rng.randint(3, 6))
            base, trace = sosm(inst)
            hopeless = hopeless_students(trace)
            for m in oracle.efficient_dominations_of(inst, base):
                for i in hopeless:
                    assert m[i] == base[i]

    announce(5, "hopeless students never improve", check)


def test_criterion_6_index_domination_law(announce):
    def check():
        rng = random.Random(1006)
        pairs = 0
        while pairs < 10_000:
            inst = random_strict_instance(rng, rng.randint(4, 5), rng.randint(4, 5))
            base, _ = sosm(inst)
            stable = oracle.stable_set(inst)
            base_mu = preference_index(inst, base)
            assert base in stable
            for m in stable:
                if m != base:
                    assert preference_index(inst, m) > base_mu
            matchings = list(oracle.enumerate_matchings(inst))
            for b in rng.sample(matchings, min(60, len(matchings))):
                graph = networkx_route.student_graph(inst, b)
                for clique in networkx_route.find_cliques(graph, inst, limit=2000):
                    if clique.kind is not trading.CliqueKind.TRADING:
                        continue
                    a = networkx_route.apply_clique(inst, b, clique)
                    assert dominates(inst, a, b)
                    assert preference_index(inst, a) < preference_index(inst, b)
                    pairs += 1
                    if pairs >= 10_000:
                        return

    announce(6, "domination lowers the index; baseline is unique minimum", check)


def test_criterion_7_property_sweeps(announce):
    def check():
        rng = random.Random(1007)
        da = strategy.mechanism_by_name("da")
        tadam = strategy.mechanism_by_name("tadam")
        draws = iter(lambda: random_strict_instance(rng, 5, 5), None)

        for mech in (da, tadam):
            for _, ok in islice(strategy.anonymity_cases(mech, draws, rng), 500):
                assert ok

        for mech in (da, tadam):
            for _, ok in islice(strategy.positive_association_cases(mech, draws, rng), 500):
                assert ok

        family = strategy.two_class_family(2)
        for _ in range(200):
            inst = family.draw_instance(
                strategy.class_respecting_profile(rng, family.partition), rng
            )
            assert strategy.same_class_cliques(inst, family.partition)

    announce(7, "anonymity, positive association, same-class cliques", check)


def test_criterion_8_stochastic_dominance(announce):
    def check():
        tadam = strategy.mechanism_by_name("tadam")
        families = [
            (strategy.two_class_family(2), ("s1", "s2")),
            (strategy.two_class_family(2), ("s3", "s4")),
            (strategy.two_class_family(3), ("s1", "s2")),
            (strategy.two_class_family(3), ("s4", "s6")),
            (strategy.two_class_family(2, capacity=2), ("s1", "s2")),
        ]
        for seed, (family, swap) in enumerate(families, start=80):
            alt = strategy.swap_in_profile(family.truth, *swap)
            report = strategy.dominance_trial(
                tadam, family, family.truth, alt, 10_000, seed
            )
            assert report.verdict is not Verdict.FAILS
            if report.verdict is Verdict.INCONCLUSIVE:
                for p in report.points:
                    if p.alt_cdf > p.truth_cdf:
                        assert p.band > 0.02

    announce(8, "truth-telling stochastically dominates", check)


def test_criterion_9_manipulation_witness(announce):
    def check():
        text = (FIXTURES / "manipulation_witness.txt").read_text()
        inst = textio.parse_instance(text)
        student = report = None
        for line in text.splitlines():
            if line.startswith("# witness-student"):
                student = line.split()[-1]
            elif line.startswith("# witness-report"):
                report = WeakOrder.strict(line.split()[2:])
        assert student is not None and report is not None
        assert strategy.manipulation_gain(inst, student, report) > 0

    announce(9, "stored manipulation witness", check)
