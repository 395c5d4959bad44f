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
from itertools import islice
from pathlib import Path
from typing import Optional

from . import analysis, textio
from .errors import SchoolMatchError
from .mechanisms import eadam, sosm, ttc
from .model import Instance, Matching, UNASSIGNED, tie_break


def _load(args, strict: bool = True) -> tuple[Instance, Optional[Instance]]:
    """The instance FILE as written, and if ``strict`` with ties broken by --tiebreak (0)."""
    instance = textio.parse_instance(Path(args.file).read_text())
    return instance, tie_break(instance, args.tiebreak or 0) if strict else None


def _reject_unread(args, choice: str, readers: dict[str, tuple[str, ...]]) -> None:
    """Fail on an option given to a ``--<choice>`` not among ``readers[option]``."""
    chosen = getattr(args, choice)
    for dest, choices in readers.items():
        if getattr(args, dest) is not None and chosen not in choices:
            flag = "FILE" if dest == "file" else f"--{dest}"
            raise SchoolMatchError(f"--{choice} {chosen} reads no {flag}; "
                                   f"it is for --{choice} {'/'.join(choices)}")


def _matching_str(matching: Matching) -> str:
    return ", ".join(
        f"{i}:{s if s is not UNASSIGNED else '-'}" for i, s in matching.pairs
    )


def _matching_report(instance: Instance, matching: Matching) -> dict:
    stable = analysis.is_stable(instance, matching)
    violations = [] if stable else analysis.priority_violations(instance, matching)
    return {
        "matching": matching.as_dict(),
        "preference_index": analysis.preference_index(instance, matching),
        "stable": stable,
        "violations": [
            {"violator": v.violator, "victim": v.victim, "school": v.school}
            for v in violations
        ],
    }


def _emit(report: dict, fmt: str, out) -> None:
    if fmt == "json-like":
        out.write(json.dumps(report, indent=2, default=str) + "\n")
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


def _parse_policy(text: Optional[str]) -> "str | int":
    if text is None or text == "canonical":
        return "canonical"
    if text.startswith("seed:"):
        try:
            return int(text[len("seed:"):])
        except ValueError:
            pass
    raise SchoolMatchError(f"--policy must be 'canonical' or 'seed:N', not {text!r}")


def _coalition_fields(outcome: coalitions.CoalitionOutcome) -> dict:
    return {
        "loops": [" <- ".join(loop) for loop in outcome.coalition.loops],
        "accomplices": list(outcome.coalition.accomplices),
        "verified": outcome.verified,
    }


def _load_coalition(path: str, instance: Instance) -> coalitions.Coalition:
    from . import coalitions
    loops = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, *members = line.split()
        if keyword != "loop":
            raise SchoolMatchError(f"coalition file line {lineno}: expected 'loop i1 i2 ...'")
        if len(members) < 2:
            raise SchoolMatchError(f"coalition file line {lineno}: a loop needs two students or more")
        loops.append(tuple(members))
    baseline, _ = sosm(instance)
    return coalitions.build_coalition(instance, baseline, tuple(loops))


# ---------------------------------------------------------------------------
# solve

def _cmd_solve(args, out) -> int:
    _reject_unread(args, "mechanism",
                   {"consent": ("eadam",), "policy": ("tadam",), "coalition": ("cim",)})
    instance, strict = _load(args, args.mechanism != "tadam")   # tadam_run breaks its own ties
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
        extra["rounds"] = len(result.removals) + 1
    elif args.mechanism == "tadam":
        from . import trading
        result = trading.tadam_run(instance, _parse_policy(args.policy), tiebreak=args.tiebreak or 0)
        matching = result.matching
        extra["baseline"] = result.baseline.as_dict()
        extra["cliques"] = [" -> ".join(c.cycle) for c in result.applied]
    else:  # cim
        from . import coalitions
        if args.coalition is not None:
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
            extra = _coalition_fields(best)

    report = {"mechanism": args.mechanism, **_matching_report(instance, matching), **extra}
    _emit(report, args.format, out)
    return 0


# ---------------------------------------------------------------------------
# trace

def _cmd_trace(args, out) -> int:
    instance, strict = _load(args)
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
            "matching": matching.as_dict(),
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
    from . import coalitions, oracle, trading
    _reject_unread(args, "what", {"tiebreak": ("efficient-dominations", "tadam", "coalitions")})
    instance, strict = _load(args, args.what in ("efficient-dominations", "coalitions"))

    if args.what == "stable":
        found = oracle.stable_set(instance)
    elif args.what == "efficient-dominations":
        baseline, _ = sosm(strict)
        found = oracle.efficient_dominations_of(instance, baseline)
    elif args.what == "tadam":
        found = trading.tadam_enumerate(instance, tiebreak=args.tiebreak or 0).terminals
    else:  # coalitions
        outcomes = coalitions.enumerate_coalitions(strict)
        report = {
            "count": len(outcomes),
            "outcomes": [
                {
                    "matching": o.matching.as_dict(),
                    "preference_index": analysis.preference_index(instance, o.matching),
                    **_coalition_fields(o),
                }
                for o in outcomes
            ],
        }
        _emit(report, args.format, out)
        return 0

    report = {
        "count": len(found),
        "matchings": [
            {
                "matching": m.as_dict(),
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
    instance, strict = _load(args)
    matching = textio.parse_matching(Path(args.matching).read_text(), instance)
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
    from . import trading
    instance, strict = _load(args)
    baseline, _ = sosm(strict)
    out.write(trading.to_dot(trading.SeatGraph(instance, baseline.seats(instance))) + "\n")
    return 0


# ---------------------------------------------------------------------------
# strategy

def _parse_family(spec: str) -> strategy.RandomProblemFamily:
    """SPEC is CLASSESxPER[xCAPACITY], e.g. 2x3 or 2x2x2."""
    from . import strategy
    parts = spec.split("x")
    if len(parts) not in (2, 3) or not all(p.isdecimal() and int(p) > 0 for p in parts):
        raise SchoolMatchError(f"--family must be positive counts like 2x3 or 2x2x2, not {spec!r}")
    return strategy.class_family(*map(int, parts))


def _write_counterexample(instance: Instance, seed: int, case: int, tag: str) -> str:
    path = Path(f"counterexample_{tag}_{seed}_{case}.txt")
    header = f"# counterexample: {tag} sweep, seed {seed}, case {case}\n"
    path.write_text(header + textio.serialize_instance(instance))
    return str(path)


def _cmd_strategy(args, out) -> int:
    from . import strategy
    if args.trials < 1:
        raise SchoolMatchError(f"--trials must be at least 1, not {args.trials}")
    _reject_unread(args, "check", {"family": ("same-class", "dominance"),
                                   "file": ("anonymity", "positive-association", "same-class")})
    spec = ("2x2" if args.check == "dominance" else "2x3") if args.family is None else args.family
    family = _parse_family(spec)
    rng = random.Random(args.seed)

    if args.check == "dominance":
        if len(family.schools) < 2:
            raise SchoolMatchError("--family needs two schools to swap for the dominance check")
        alt = strategy.swap_in_profile(family.truth, *family.schools[:2])
        report_obj = strategy.dominance_trial(
            strategy.mechanism_by_name("tadam"), family, family.truth, alt, args.trials, args.seed
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

    # Each mechanism's sweep checks the FILE once, or the next --trials draws of one stream.
    if args.file is not None:
        instances = [textio.parse_instance(Path(args.file).read_text())]
        if not instances[0].is_strict:
            raise SchoolMatchError(f"--check {args.check} needs a strict FILE; "
                                   f"{args.file} has ties")
        if args.check == "same-class" and set(family.schools) != set(instances[0].schools):
            raise SchoolMatchError(f"--family {spec} partitions schools {' '.join(family.schools)}, "
                                   f"not the FILE's {' '.join(instances[0].schools)}")
    elif args.check == "same-class":
        instances = iter(lambda: family.draw_instance(
            strategy.class_respecting_profile(rng, family.partition), rng), None)
    else:
        instances = iter(lambda: strategy.random_strict_instance(rng, 5, 5), None)
    if args.check == "same-class":
        sweeps = [((i, strategy.same_class_cliques(i, family.partition)) for i in instances)]
    else:
        cases_of = (strategy.anonymity_cases if args.check == "anonymity"
                    else strategy.positive_association_cases)
        sweeps = [cases_of(strategy.mechanism_by_name(name), instances, rng)
                  for name in ("da", "tadam")]

    failures = []
    cases = 0
    for sweep in sweeps:
        for instance, ok in islice(sweep, args.trials):
            if not ok:
                failures.append(_write_counterexample(instance, args.seed, cases, args.check))
            cases += 1

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

    instance_file = argparse.ArgumentParser(add_help=False)
    instance_file.add_argument("--tiebreak", type=int)   # None reads as lottery 0
    instance_file.add_argument("file")

    p = sub.add_parser("solve", parents=[instance_file], help="run one mechanism on an instance file")
    p.add_argument("--mechanism", required=True,
                   choices=["da", "ttc", "eadam", "tadam", "cim"])
    p.add_argument("--consent", help="eadam: comma-separated students or 'all' (default)")
    p.add_argument("--policy", help="tadam: 'canonical' (default) or 'seed:N'")
    p.add_argument("--coalition", help="cim: coalition file of 'loop i1 i2 ...' lines")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("trace", parents=[instance_file], help="deferred-acceptance step table")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("enumerate", parents=[instance_file], help="enumerate matchings of a kind")
    p.add_argument("--what", required=True,
                   choices=["stable", "efficient-dominations", "tadam", "coalitions"])
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("analyze", parents=[instance_file],
                       help="analyze a matching file against an instance")
    p.add_argument("--matching", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("graph", parents=[instance_file], help="DOT export of the baseline trading graph")
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
