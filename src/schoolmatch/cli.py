"""Command-line interface: the only module that does I/O.

Subcommands: solve, trace, enumerate, analyze, graph, strategy.  Reports
print as plain text by default or as JSON with ``--format json-like``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path
from typing import Optional

from . import analysis, coalitions, oracle, strategy, textio, trading
from .errors import SchoolMatchError
from .mechanisms import eadam, sosm, ttc
from .model import Instance, Matching, UNASSIGNED, tie_break


def _load_instance(path: str) -> Instance:
    return textio.parse_instance(Path(path).read_text())


def _matching_dict(matching: Matching) -> dict:
    return {i: (s if s is not UNASSIGNED else None) for i, s in matching.pairs}


def _matching_str(matching: Matching) -> str:
    return ", ".join(
        f"{i}:{s if s is not UNASSIGNED else '-'}" for i, s in matching.pairs
    )


def _matching_report(instance: Instance, matching: Matching) -> dict:
    stable = analysis.is_stable(instance, matching)
    violations = [] if stable else analysis.priority_violations(instance, matching)
    return {
        "matching": _matching_dict(matching),
        "preference_index": analysis.preference_index(instance, matching),
        "stable": stable,
        "violations": [
            {"violator": v.violator, "victim": v.victim, "school": v.school}
            for v in violations
        ],
    }


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json-like":
        json.dump(report, out, indent=2, default=str)
        out.write("\n")
        return
    _emit_text(report, out, indent="")


def _emit_text(value, out, indent: str) -> None:
    if isinstance(value, dict):
        for key, val in value.items():
            if isinstance(val, (dict, list)):
                out.write(f"{indent}{key}:\n")
                _emit_text(val, out, indent + "  ")
            else:
                out.write(f"{indent}{key}: {val}\n")
    elif isinstance(value, list):
        for val in value:
            if isinstance(val, (dict, list)):
                _emit_text(val, out, indent + "  ")
            else:
                out.write(f"{indent}- {val}\n")
    else:
        out.write(f"{indent}{value}\n")


def _parse_consent(text: Optional[str], instance: Instance) -> tuple[str, ...]:
    if text is None or text == "all":
        return instance.students
    names = tuple(x.strip() for x in text.split(",") if x.strip())
    unknown = [x for x in names if x not in instance.student_index]
    if unknown:
        raise SchoolMatchError(f"--consent names unknown students {unknown}")
    return names


def _parse_policy(text: str) -> "str | int":
    if text == "canonical":
        return "canonical"
    if text.startswith("seed:"):
        try:
            return int(text[len("seed:"):])
        except ValueError:
            pass
    raise SchoolMatchError(f"--policy must be 'canonical' or 'seed:N', not {text!r}")


def _load_coalition(path: str, instance: Instance) -> coalitions.Coalition:
    loops = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        if keyword != "loop":
            raise SchoolMatchError(f"coalition file line {lineno}: expected 'loop i1 i2 ...'")
        loops.append(tuple(rest.split()))
    baseline, _ = sosm(instance)
    return coalitions.build_coalition(instance, baseline, tuple(loops))


# ---------------------------------------------------------------------------
# solve

def _cmd_solve(args, out) -> int:
    instance = _load_instance(args.file)
    policy = _parse_policy(args.policy)
    strict = tie_break(instance, args.tiebreak)
    extra: dict = {}

    if args.mechanism == "da":
        matching, _ = sosm(strict)
    elif args.mechanism == "ttc":
        matching = ttc(strict)
    elif args.mechanism == "eadam":
        result = eadam(strict, _parse_consent(args.consent, instance))
        matching = result.matching
        extra["removals"] = [
            {"student": p.student, "school": p.school, "step": p.rejection_step}
            for rnd in result.removals for p in rnd
        ]
        extra["rounds"] = len(result.traces)
    elif args.mechanism == "tadam":
        result = trading.tadam_run(instance, policy)
        matching = result.matching
        extra["baseline"] = _matching_dict(result.baseline)
        extra["cliques"] = [" -> ".join(c.cycle) for c in result.applied]
    elif args.mechanism == "cim":
        if args.coalition:
            coalition = _load_coalition(args.coalition, strict)
            matching, verified = coalitions.run_coalition(strict, coalition)
            extra["verified"] = verified
        else:
            outcomes = coalitions.enumerate_coalitions(strict)
            best = min(
                outcomes,
                key=lambda o: (analysis.preference_index(instance, o.matching),
                               o.matching.pairs),
            )
            matching = best.matching
            extra["loops"] = [" <- ".join(loop) for loop in best.coalition.loops]
            extra["accomplices"] = list(best.coalition.accomplices)
            extra["verified"] = best.verified
    else:  # pragma: no cover - argparse restricts choices
        raise SchoolMatchError(f"unknown mechanism {args.mechanism}")

    report = {"mechanism": args.mechanism, **_matching_report(instance, matching), **extra}
    _emit(report, args.format, out)
    return 0


# ---------------------------------------------------------------------------
# trace

def _cmd_trace(args, out) -> int:
    instance = _load_instance(args.file)
    strict = tie_break(instance, args.tiebreak)
    matching, trace = sosm(strict)
    if args.format == "json-like":
        report = {
            "steps": [
                {
                    "step": t,
                    "proposals": {s: list(v) for s, v in step.proposals.items()},
                    "holds": {s: list(v) for s, v in step.holds.items()},
                    "rejections": {s: list(v) for s, v in step.rejections.items()},
                }
                for t, step in enumerate(trace.steps, start=1)
            ],
            "matching": _matching_dict(matching),
        }
        _emit(report, args.format, out)
        return 0

    # One row per step, one column per school, rejects struck as -id-.
    header = ["step"] + list(strict.schools)
    rows = []
    for t, step in enumerate(trace.steps, start=1):
        row = [str(t)]
        for s in strict.schools:
            cell = []
            for i in step.proposals.get(s, ()):  # new proposers first
                cell.append(f"-{i}-" if i in step.rejections.get(s, ()) else i)
            for i in step.rejections.get(s, ()):
                if i not in step.proposals.get(s, ()):
                    cell.append(f"-{i}-")
            row.append(", ".join(cell))
        rows.append(row)
    widths = [max(len(r[k]) for r in [header] + rows) for k in range(len(header))]
    for row in [header] + rows:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")
    out.write(f"outcome: {_matching_str(matching)}\n")
    return 0


# ---------------------------------------------------------------------------
# enumerate

def _cmd_enumerate(args, out) -> int:
    instance = _load_instance(args.file)
    strict = tie_break(instance, args.tiebreak)

    if args.what == "stable":
        found = oracle.stable_set(instance)
    elif args.what == "efficient-dominations":
        baseline, _ = sosm(strict)
        found = oracle.efficient_dominations_of(instance, baseline)
    elif args.what == "tadam":
        found = trading.tadam_enumerate(instance).terminals
    elif args.what == "coalitions":
        outcomes = coalitions.enumerate_coalitions(strict)
        report = {
            "count": len(outcomes),
            "outcomes": [
                {
                    "matching": _matching_dict(o.matching),
                    "preference_index": analysis.preference_index(instance, o.matching),
                    "loops": [" <- ".join(loop) for loop in o.coalition.loops],
                    "accomplices": list(o.coalition.accomplices),
                    "verified": o.verified,
                }
                for o in outcomes
            ],
        }
        _emit(report, args.format, out)
        return 0
    else:  # pragma: no cover
        raise SchoolMatchError(f"unknown enumeration {args.what}")

    report = {
        "count": len(found),
        "matchings": [
            {
                "matching": _matching_dict(m),
                "preference_index": analysis.preference_index(instance, m),
            }
            for m in sorted(found, key=_seat_order)
        ],
    }
    _emit(report, args.format, out)
    return 0


def _seat_order(matching: Matching) -> tuple:
    """Sort key: each student's seat by name, unassigned last."""
    return tuple((s is None, s or "") for _, s in matching.pairs)


# ---------------------------------------------------------------------------
# analyze

def _cmd_analyze(args, out) -> int:
    instance = _load_instance(args.file)
    matching = textio.parse_matching(Path(args.matching).read_text(), instance)
    strict = tie_break(instance, args.tiebreak)
    baseline, _ = sosm(strict)
    report = {
        **_matching_report(instance, matching),
        "dominates_baseline": analysis.dominates(instance, matching, baseline),
        "dominated_by_baseline": analysis.dominates(instance, baseline, matching),
        "efficient": analysis.is_efficient(instance, matching),
        "reasonably_fair": analysis.is_reasonably_fair(instance, matching),
    }
    _emit(report, args.format, out)
    return 0


# ---------------------------------------------------------------------------
# graph

def _cmd_graph(args, out) -> int:
    instance = _load_instance(args.file)
    strict = tie_break(instance, args.tiebreak)
    baseline, _ = sosm(strict)
    out.write(trading.to_dot(trading.build_graph(instance, baseline)) + "\n")
    return 0


# ---------------------------------------------------------------------------
# strategy

def _parse_family(spec: str) -> strategy.RandomProblemFamily:
    """SPEC is CLASSESxPER[xCAPACITY], e.g. 2x3 or 2x2x2."""
    parts = spec.split("x")
    if len(parts) not in (2, 3) or not all(p.isdecimal() and int(p) > 0 for p in parts):
        raise SchoolMatchError(f"--family must be positive counts like 2x3 or 2x2x2, not {spec!r}")
    n_classes, per = int(parts[0]), int(parts[1])
    cap = int(parts[2]) if len(parts) == 3 else 1
    schools = [f"s{k}" for k in range(1, n_classes * per + 1)]
    classes = tuple(tuple(schools[c * per:(c + 1) * per]) for c in range(n_classes))
    partition = strategy.QualityPartition(classes)
    students = tuple(f"i{k}" for k in range(1, n_classes * per * cap + 1))
    truth = strategy.WeakOrder.strict(schools)
    return strategy.RandomProblemFamily(partition, students, students[0], truth,
                                        (cap,) * n_classes)


def _write_counterexample(instance: Instance, seed: int, case: int, tag: str) -> str:
    path = Path(f"counterexample_{tag}_{seed}_{case}.txt")
    header = f"# counterexample: {tag} sweep, seed {seed}, case {case}\n"
    path.write_text(header + textio.serialize_instance(instance))
    return str(path)


def _cmd_strategy(args, out) -> int:
    rng = random.Random(args.seed)
    mechs = {name: strategy.mechanism_by_name(name) for name in ("da", "tadam")}

    if args.check == "dominance":
        family = _parse_family(args.family or "2x2")
        truth = family.truth
        schools = truth.strict_sequence()
        if len(schools) < 2:
            raise SchoolMatchError("--family needs two schools to swap for the dominance check")
        alt = strategy.swap_in_profile(truth, schools[0], schools[1])
        report_obj = strategy.dominance_trial(
            mechs["tadam"], family, truth, alt, args.trials, args.seed
        )
        report = {
            "check": "dominance",
            "verdict": report_obj.verdict.value,
            "truth_distribution": {str(k): v for k, v in report_obj.truth_dist.items()},
            "alt_distribution": {str(k): v for k, v in report_obj.alt_dist.items()},
            "points": [
                {"prefix": p.prefix, "truth": p.truth_cdf, "alt": p.alt_cdf, "band": p.band}
                for p in report_obj.points
            ],
        }
        _emit(report, args.format, out)
        return 0 if report_obj.verdict is not strategy.Verdict.FAILS else 1

    failures = []
    cases = 0
    for case in range(args.trials):
        if args.file:
            instance = _load_instance(args.file)
        elif args.check == "same-class":
            family = _parse_family(args.family or "2x3")
            instance = family.draw_instance(
                strategy.class_respecting_profile(rng, family.partition), rng
            )
        else:
            instance = strategy.random_strict_instance(rng, 5, 5)

        if args.check == "anonymity":
            a, b = rng.sample(instance.schools, 2)
            ok = all(
                strategy.check_anonymity(m, instance, (a, b)) for m in mechs.values()
            )
        elif args.check == "positive-association":
            ok = True
            for mech in mechs.values():
                outcome = mech(instance)
                candidates = [
                    i for i in instance.students
                    if outcome[i] is not UNASSIGNED
                    and strategy.rank(instance.prefs[i], outcome[i]) > 1
                ]
                if not candidates:
                    continue
                student = rng.choice(candidates)
                school = outcome[student]
                seq = instance.prefs[student].strict_sequence()
                better = rng.choice(seq[: seq.index(school)])
                ok = ok and strategy.check_positive_association(
                    mech, instance, student, school, better
                )
        elif args.check == "same-class":
            family = _parse_family(args.family or "2x3")
            ok = strategy.same_class_cliques(instance, family.partition)
        else:  # pragma: no cover
            raise SchoolMatchError(f"unknown check {args.check}")

        cases += 1
        if not ok:
            failures.append(_write_counterexample(instance, args.seed, case, args.check))
        if args.file:
            break

    report = {"check": args.check, "cases": cases, "failures": len(failures),
              "counterexample_files": failures}
    _emit(report, args.format, out)
    return 1 if failures else 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="schoolmatch")
    parser.add_argument(
        "--format", choices=["text", "json-like"], default="text",
        help="report format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one mechanism on an instance file")
    p.add_argument("--mechanism", required=True,
                   choices=["da", "ttc", "eadam", "tadam", "cim"])
    p.add_argument("--consent", help="comma-separated students or 'all'")
    p.add_argument("--policy", default="canonical", help="'canonical' or 'seed:N'")
    p.add_argument("--tiebreak", type=int, default=0)
    p.add_argument("--coalition", help="coalition file of 'loop i1 i2 ...' lines")
    p.add_argument("file")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("trace", help="deferred-acceptance step table")
    p.add_argument("--tiebreak", type=int, default=0)
    p.add_argument("file")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("enumerate", help="enumerate matchings of a kind")
    p.add_argument("--what", required=True,
                   choices=["stable", "efficient-dominations", "tadam", "coalitions"])
    p.add_argument("--tiebreak", type=int, default=0)
    p.add_argument("file")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("analyze", help="analyze a matching file against an instance")
    p.add_argument("--matching", required=True)
    p.add_argument("--tiebreak", type=int, default=0)
    p.add_argument("file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("graph", help="DOT export of the baseline trading graph")
    p.add_argument("--tiebreak", type=int, default=0)
    p.add_argument("file")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("strategy", help="strategic-behavior sweeps")
    p.add_argument("--check", required=True,
                   choices=["anonymity", "positive-association", "same-class", "dominance"])
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--family", help="family spec CLASSESxPER[xCAP], e.g. 2x3")
    p.add_argument("file", nargs="?")
    p.set_defaults(func=_cmd_strategy)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Reader gone (`| head`): drop the rest so the exit flush cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (SchoolMatchError, OSError, ValueError) as exc:  # also arguments a library rejects
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
