"""The benchmark's four workloads: seeded input generators, one timed
operation each, and the checks that every output must pass.

Every operation calls the package through module attributes
(``trading.tadam_run``, ``cli.main``, ...), so the span recorder in
``tracing.py`` sees each call once it has rebound those attributes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed
from schoolmatch import cli, coalitions, mechanisms, oracle, strategy, textio, trading
from schoolmatch.errors import CycleLimitExceededError
from schoolmatch.model import Instance, Matching, WeakOrder

# Cycle-enumeration limit passed to every ``tadam_run`` call of ``trade``.
# Below the package default (10**6) so that one failing instance costs
# about 0.15 s instead of up to 18 s, which lets a run repeat the whole
# pool several times.  The same 7 of the first 56 pool instances fail at
# 10**4 and at 5 * 10**4; failures stay in the sample set.
TRADE_CYCLE_LIMIT = 10_000

MECHANISMS = ("da", "ttc", "eadam")


class CheckError(Exception):
    """An output failed a correctness check."""


@dataclass
class Op:
    """One timed operation: the pool input it visited, total seconds, named
    parts, and its outcome.  ``scale`` turns measured seconds into reported
    seconds (``speed.py``)."""

    input: int
    seconds: float
    parts: dict[str, float]
    failed: bool
    digest: str
    counts: dict[str, int] = field(default_factory=dict)
    scale: float = 1.0


class Workload:
    """Shared shape: ``setup`` builds a pool of ``pass_size`` inputs and
    ``run(k)`` performs and checks operation ``k`` on input ``input_at(k)``.
    A run measures whole passes over the pool.  Checks run inside
    ``untraced()``, which the traced run replaces so that checking adds no
    spans.  Timed calls read ``clock()``, which the harness replaces with
    one that leaves out its speed sampler's time (``speed.py``); the
    sampler takes a sample every ``sample_interval`` seconds."""

    pass_size = 1
    untraced = contextlib.nullcontext
    clock = staticmethod(perf_counter)
    sample_interval = speed.INTERVAL
    _order: tuple[int, list[int]] = (-1, [])   # (pass, its order)

    def input_at(self, k: int) -> int:
        """The pool input of operation ``k``.  Each pass visits the pool in
        its own order, drawn from the workload seed, so that an input's time
        is not tied for a whole run to the state one predecessor leaves."""
        n, p = self.pass_size, k // self.pass_size
        if self._order[0] != p:
            order = list(range(n))
            random.Random(_sub_seed(self.seed, self.name, p)).shuffle(order)
            self._order = (p, order)
        return self._order[1][k % n]


def pool_digest(ops) -> str:
    """One digest over the answer to every input of the pool, in pool
    order; raises if two repeats of one input answered differently."""
    first: dict[int, str] = {}
    for op in ops:
        if first.setdefault(op.input, op.digest) != op.digest:
            raise CheckError(f"input {op.input} of the pool gave two different answers")
    return _sha("".join(first[k] for k in sorted(first)))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _sub_seed(seed: int, tag: str, k: int) -> int:
    """A stable derived seed; independent of PYTHONHASHSEED."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{tag}:{k}".encode()).digest()[:8], "big")


def _pref_ranks(instance: Instance) -> dict[str, dict[str, int]]:
    """The benchmark's own rank table: position in each (strict) list."""
    return {
        i: {s: r for r, s in enumerate(instance.prefs[i].items())}
        for i in instance.students
    }


def _rank(ranks: dict[str, int], school) -> int:
    return len(ranks) if school is None else ranks[school]


def check_capacity(instance: Instance, assignment: dict) -> None:
    if set(assignment) != set(instance.students):
        raise CheckError("matching does not cover exactly the students")
    fill: dict[str, int] = {}
    for s in assignment.values():
        if s is not None:
            if s not in instance.capacity:
                raise CheckError(f"unknown school {s!r} in matching")
            fill[s] = fill.get(s, 0) + 1
    for s, n in fill.items():
        if n > instance.capacity[s]:
            raise CheckError(f"school {s} holds {n} > capacity {instance.capacity[s]}")


def check_weakly_better(ranks, better: dict, worse: dict, what: str) -> None:
    for i, s in better.items():
        if _rank(ranks[i], s) > _rank(ranks[i], worse[i]):
            raise CheckError(f"{what}: student {i} is worse off")


def check_no_trading_clique(instance: Instance, assignment: dict, what: str) -> None:
    matching = Matching.of(assignment, instance)
    if trading.has_trading_clique(trading.build_graph(instance, matching)):
        raise CheckError(f"{what}: a trading clique remains")


def check_no_vacant_envy(instance: Instance, ranks, assignment: dict, what: str) -> None:
    fill: dict[str, int] = {}
    for s in assignment.values():
        if s is not None:
            fill[s] = fill.get(s, 0) + 1
    vacant = [s for s in instance.schools if fill.get(s, 0) < instance.capacity[s]]
    for i, s in assignment.items():
        own = _rank(ranks[i], s)
        if any(ranks[i][v] < own for v in vacant):
            raise CheckError(f"{what}: student {i} is below a vacant preferred seat")


# ---------------------------------------------------------------------------
# district: the CLI solve path at district size


class District(Workload):
    """1,000 students, 50 multi-seat schools, about 10 % spare seats.

    Preferences are uniform strict; priorities are coarse (a few classes
    per school) and broken by the CLI's ``--tiebreak`` lottery.  Instance k
    has the fixed seed k and is solved with lottery seed k; the workload
    seed sets the order of each pass.  One operation solves one instance
    with ``da``, ``ttc`` and ``eadam`` through ``cli.main``.
    """

    name = "district"
    spare = 0.10       # share of seats beyond one per student
    prio_classes = 4   # priority classes per school
    # Each solve takes 0.2-1.5 s.  Sampling every 20 ms left a scaled solve
    # time's coefficient of variation at 0.06-0.08 (42 solves each of da,
    # ttc, eadam); sampling every 50 ms, at 0.09-0.16 (53 solves each).
    sample_interval = 0.02

    def __init__(self, seed: int, work_dir: Path, n_students: int = 1000,
                 n_schools: int = 50, n_instances: int = 2):
        self.seed = seed
        self.work_dir = work_dir
        self.n_students, self.n_schools = n_students, n_schools
        self.n_instances = self.pass_size = n_instances
        self.instances: list[Instance] = []
        self.paths: list[Path] = []
        self.ranks: list[dict] = []
        self.checked: set[str] = set()

    def describe(self) -> dict:
        return {"students": self.n_students, "schools": self.n_schools,
                "seats": sum(self.instances[0].capacity.values()),
                "prio_classes": self.prio_classes,
                "instance_and_lottery_seeds": list(range(1, self.n_instances + 1))}

    def _generate(self, rng: random.Random) -> Instance:
        students = tuple(f"i{k}" for k in range(1, self.n_students + 1))
        schools = tuple(f"s{k}" for k in range(1, self.n_schools + 1))
        seats = round(self.n_students * (1 + self.spare) / self.n_schools)
        capacity = dict.fromkeys(schools, seats)
        prefs = {}
        for i in students:
            order = list(schools)
            rng.shuffle(order)
            prefs[i] = WeakOrder.strict(order)
        prios = {}
        for s in schools:
            order = list(students)
            rng.shuffle(order)
            prios[s] = WeakOrder.of(order[c::self.prio_classes] for c in range(self.prio_classes))
        return Instance(students, schools, capacity, prefs, prios)

    def setup(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.instances, self.paths, self.ranks = [], [], []
        for k in range(self.n_instances):
            inst = self._generate(random.Random(k + 1))
            path = self.work_dir / f"district-{k + 1}.txt"
            path.write_text(textio.serialize_instance(inst))
            self.instances.append(inst)
            self.paths.append(path)
            self.ranks.append(_pref_ranks(inst))

    def run(self, k: int) -> Op:
        idx = self.input_at(k)
        parts, outputs = self.solve(idx, lottery=idx + 1)
        digest = _sha("".join(outputs[m] for m in MECHANISMS))
        if digest not in self.checked:  # a repeat with identical output is checked
            with self.untraced():
                self.check(idx, {m: json.loads(text) for m, text in outputs.items()})
            self.checked.add(digest)
        return Op(idx, sum(parts.values()), parts, False, digest)

    def solve(self, idx: int, lottery: int) -> tuple[dict, dict]:
        """Seconds and stdout of each mechanism's CLI solve."""
        parts, outputs = {}, {}
        for mech in MECHANISMS:
            buf = io.StringIO()
            argv = ["--format", "json-like", "solve", "--mechanism", mech,
                    "--tiebreak", str(lottery), str(self.paths[idx])]
            t0 = self.clock()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            parts[mech] = self.clock() - t0
            if code != 0:
                raise CheckError(f"solve --mechanism {mech} exited {code}")
            outputs[mech] = buf.getvalue()
        return parts, outputs

    def check(self, idx: int, reports: dict[str, dict]) -> None:
        inst, ranks = self.instances[idx], self.ranks[idx]
        for report in reports.values():
            check_capacity(inst, report["matching"])
        if reports["da"]["stable"] is not True:
            raise CheckError("da: reported stable is not true")
        da, ttc_m = reports["da"]["matching"], reports["ttc"]["matching"]
        check_weakly_better(ranks, reports["eadam"]["matching"], da, "eadam vs da")
        check_no_trading_clique(inst, ttc_m, "ttc")
        check_no_vacant_envy(inst, ranks, ttc_m, "ttc")


# ---------------------------------------------------------------------------
# trade: canonical trading-clique improvement at the cycle-enumeration wall


class Trade(Workload):
    """Unit-capacity strict n x n instances for every n in ``sizes`` and
    every seed in ``seeds`` (fixed), each run through
    ``trading.tadam_run(inst, "canonical", cycle_limit=L)``.  The workload
    seed sets the order of each pass.

    An instance that hits L is a failed operation; its elapsed time stays
    in the sample set.
    """

    name = "trade"

    def __init__(self, seed: int, work_dir: Path, sizes=range(24, 31), seeds=range(1, 16),
                 cycle_limit: int = TRADE_CYCLE_LIMIT):
        self.seed = seed
        self.sizes, self.seeds = sizes, seeds
        self.cycle_limit = cycle_limit
        self.pass_size = len(sizes) * len(seeds)
        self.instances: list[Instance] = []

    def describe(self) -> dict:
        return {"n": [min(self.sizes), max(self.sizes)], "capacity": 1,
                "instance_seeds": [min(self.seeds), max(self.seeds)],
                "pool": self.pass_size, "cycle_limit": self.cycle_limit}

    def setup(self) -> None:
        self.instances = [strategy.random_strict_instance(random.Random(s), n, n)
                          for n in self.sizes for s in self.seeds]

    def run(self, k: int) -> Op:
        idx = self.input_at(k)
        inst = self.instances[idx]
        t0 = self.clock()
        try:
            result = trading.tadam_run(inst, "canonical", cycle_limit=self.cycle_limit)
        except CycleLimitExceededError:
            seconds = self.clock() - t0
            return Op(idx, seconds, {"tadam": seconds}, True, _sha("cycle-limit"))
        seconds = self.clock() - t0
        with self.untraced():
            self.check(inst, result)
        digest = _sha(repr((result.matching.pairs, [c.cycle for c in result.applied])))
        return Op(idx, seconds, {"tadam": seconds}, False, digest)

    def check(self, inst: Instance, result) -> None:
        ranks = _pref_ranks(inst)
        final, base = result.matching.as_dict(), result.baseline.as_dict()
        check_capacity(inst, final)
        check_weakly_better(ranks, final, base, "tadam vs its baseline")
        check_no_trading_clique(inst, final, "tadam")


# ---------------------------------------------------------------------------
# sweep: many tiny instances, fixed cost per call dominates


class Sweep(Workload):
    """Criterion 8's shape: ``strategy.dominance_trial`` with the ``tadam``
    mechanism over three small families, truth against a report that swaps
    the two best schools.  One operation runs every family once, with a
    trial seed drawn from the workload seed; the pool holds ``pass_size``
    trial seeds.
    """

    name = "sweep"

    def __init__(self, seed: int, work_dir: Path, trials: int = 20, pass_size: int = 40):
        self.seed = seed
        self.trials, self.pass_size = trials, pass_size
        self.cases = []

    def describe(self) -> dict:
        return {"families": ["two_class_family(2)", "two_class_family(3)",
                             "two_class_family(2, capacity=2)"],
                "students": [len(f.students) for f, _ in self.cases],
                "alternative": "truth with s1 and s2 swapped",
                "trials_per_call": self.trials,
                "trial_seeds": f"sha256('{self.seed}:sweep:k')[:8], k < {self.pass_size}"}

    def setup(self) -> None:
        self.mechanism = strategy.mechanism_by_name("tadam")
        families = [strategy.two_class_family(2), strategy.two_class_family(3),
                    strategy.two_class_family(2, capacity=2)]
        self.cases = [(f, strategy.swap_in_profile(f.truth, "s1", "s2")) for f in families]

    def run(self, k: int) -> Op:
        idx = self.input_at(k)
        seed = _sub_seed(self.seed, "sweep", idx)
        t0 = self.clock()
        reports = [strategy.dominance_trial(self.mechanism, family, family.truth, alt,
                                            self.trials, seed + n)
                   for n, (family, alt) in enumerate(self.cases)]
        seconds = self.clock() - t0
        with self.untraced():
            self.check(reports)
        digest = _sha(repr([(r.verdict.value, r.truth_dist, r.alt_dist) for r in reports]))
        return Op(idx, seconds, {}, False, digest, {"trials": self.trials * len(self.cases)})

    @staticmethod
    def check(reports) -> None:
        for r in reports:
            if r.verdict is strategy.Verdict.FAILS:
                raise CheckError("dominance trial verdict is FAILS")
            for dist in (r.truth_dist, r.alt_dist):
                if abs(sum(dist.values()) - 1.0) > 1e-9:
                    raise CheckError("placement distribution does not sum to 1")


# ---------------------------------------------------------------------------
# exhaustive: oracle, analysis predicates, enumeration and coalitions


class Exhaustive(Workload):
    """Criteria 3 and 5's shape: random strict instances for every student
    count and school count in ``sizes`` and every seed in ``seeds`` (fixed),
    each pass in the workload seed's order, each run through ``oracle.stable_set``,
    ``oracle.efficient_dominations_of``, ``trading.tadam_enumerate`` and
    ``coalitions.enumerate_coalitions``.

    An instance whose coalition enumeration reports an outcome as not
    verified is a failed operation (the falsified lists did not reproduce
    the cabal's trades); verified outcomes are checked independently.
    """

    name = "exhaustive"

    def __init__(self, seed: int, work_dir: Path, sizes=range(4, 7), seeds=range(1, 6)):
        self.seed = seed
        self.sizes, self.seeds = sizes, seeds
        self.pass_size = len(sizes) ** 2 * len(seeds)
        self.instances: list[Instance] = []

    def describe(self) -> dict:
        return {"students": [min(self.sizes), max(self.sizes)],
                "schools": [min(self.sizes), max(self.sizes)], "capacity": 1,
                "instance_seeds": [min(self.seeds), max(self.seeds)], "pool": self.pass_size}

    def setup(self) -> None:
        self.instances = [strategy.random_strict_instance(random.Random(s), n, m)
                          for n in self.sizes for m in self.sizes for s in self.seeds]

    def run(self, k: int) -> Op:
        idx = self.input_at(k)
        inst = self.instances[idx]
        t0 = self.clock()
        baseline, _ = mechanisms.sosm(inst)
        stable = oracle.stable_set(inst)
        efficient = oracle.efficient_dominations_of(inst, baseline)
        terminals = trading.tadam_enumerate(inst).terminals
        outcomes = coalitions.enumerate_coalitions(inst)
        seconds = self.clock() - t0
        with self.untraced():
            unverified = self.check(baseline, stable, efficient, terminals, outcomes)
        digest = _sha(repr((
            sorted(m.pairs for m in stable), sorted(m.pairs for m in efficient),
            [(o.matching.pairs, o.verified) for o in outcomes])))
        return Op(idx, seconds, {}, unverified > 0, digest,
                  {"coalitions_unverified": unverified})

    @staticmethod
    def check(baseline, stable, efficient, terminals, outcomes) -> int:
        """Raise on a wrong answer; return the number of unverified coalitions."""
        if set(terminals) != set(efficient):
            raise CheckError("tadam_enumerate terminals differ from efficient_dominations_of")
        if baseline not in stable:
            raise CheckError("the DA baseline is not in stable_set")
        unverified = 0
        for o in outcomes:
            expected = baseline.as_dict()
            for loop in o.coalition.loops:
                for pred, member in zip(loop[-1:] + loop[:-1], loop):
                    expected[member] = baseline[pred]
            reproduced = o.matching.as_dict() == expected
            if reproduced != o.verified:
                raise CheckError("coalition outcome's verified flag is wrong")
            unverified += not reproduced
        return unverified


WORKLOADS = {w.name: w for w in (District, Trade, Sweep, Exhaustive)}
