import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from schoolmatch import sosm, textio, ttc
from schoolmatch.cli import main
from schoolmatch.model import Matching, WeakOrder, rank, tie_break
from schoolmatch.strategy import random_strict_instance

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code = main(["--format", "json-like", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def fix(name):
    return str(FIXTURES / f"{name}.txt")


def test_solve_da(capsys):
    code, report = run_json(capsys, "solve", "--mechanism", "da", fix("scp1"))
    assert code == 0
    assert report["matching"] == {"i1": "s1", "i2": "s2", "i3": "s3"}
    assert report["preference_index"] == 4
    assert report["stable"] is True


def test_solve_eadam_removals(capsys):
    code, report = run_json(
        capsys, "solve", "--mechanism", "eadam", "--consent", "all", fix("scp3")
    )
    assert code == 0
    assert report["preference_index"] == 3
    assert [(r["student"], r["school"]) for r in report["removals"]] == [
        ("i5", "s4"), ("i5", "s2"), ("i5", "s5")
    ]


def test_solve_tadam_scp6(capsys):
    code, report = run_json(capsys, "solve", "--mechanism", "tadam", fix("scp6"))
    assert code == 0
    assert report["preference_index"] == 2


def test_solve_cim_auto(capsys):
    code, report = run_json(capsys, "solve", "--mechanism", "cim", fix("scp2"))
    assert code == 0
    assert report["preference_index"] == 6
    assert report["verified"] is True


def test_solve_cim_coalition_file(tmp_path, capsys):
    coalition = tmp_path / "coalition.txt"
    coalition.write_text("loop i1 i2 i4\n")
    code, report = run_json(
        capsys, "solve", "--mechanism", "cim",
        "--coalition", str(coalition), fix("scp2"),
    )
    assert code == 0
    assert report["matching"]["i1"] == "s2"
    assert report["verified"] is True


def test_trace_table(capsys):
    code, out = run(capsys, "trace", fix("scp3"))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["step", "s1", "s2", "s3", "s4", "s5"]
    assert len(lines) == 14  # header + 12 steps + outcome
    assert "-i3-" in lines[1]  # struck reject in step 1
    assert lines[-1].startswith("outcome:")


GOLDEN_COMMANDS = {
    "trace": ["trace"],
    "trace-json": ["--format", "json-like", "trace"],
    "eadam-json": ["--format", "json-like", "solve", "--mechanism", "eadam"],
    "graph": ["graph"],
    "enumerate-tadam": ["enumerate", "--what", "tadam"],
    "enumerate-coalitions": ["enumerate", "--what", "coalitions"],
    "tadam-seed7": ["solve", "--mechanism", "tadam", "--policy", "seed:7"],
}
GOLDEN = json.loads((FIXTURES / "golden_outputs.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_trace_boundary_matches_golden_output(capsys, key):
    """``golden_outputs.json`` holds the stdout of each command on each
    fixture, keyed "<fixture> <command>"; it must not change by a byte."""
    name, command = key.split()
    code, out = run(capsys, *GOLDEN_COMMANDS[command], fix(name))
    assert code == 0
    assert out == GOLDEN[key]


def test_golden_outputs_cover_every_fixture():
    keys = {f"{p.stem} {c}" for p in FIXTURES.glob("scp*.txt") for c in GOLDEN_COMMANDS}
    assert set(GOLDEN) == keys


def test_enumerate_tadam(capsys):
    code, report = run_json(capsys, "enumerate", "--what", "tadam", fix("scp2"))
    assert code == 0
    assert report["count"] == 3
    assert all(m["preference_index"] == 6 for m in report["matchings"])


def test_enumerate_stable(capsys):
    code, report = run_json(capsys, "enumerate", "--what", "stable", fix("scp1"))
    assert code == 0
    assert report["count"] == 1


def test_enumerate_coalitions(capsys):
    code, report = run_json(capsys, "enumerate", "--what", "coalitions", fix("scp3"))
    assert code == 0
    indices = {o["preference_index"] for o in report["outcomes"]}
    assert {3, 7} <= indices


def test_analyze(tmp_path, capsys):
    matching = tmp_path / "m.txt"
    matching.write_text("i1 s2\ni2 s1\ni3 s3\n")
    code, report = run_json(
        capsys, "analyze", "--matching", str(matching), fix("scp1")
    )
    assert code == 0
    assert report["preference_index"] == 2
    assert report["stable"] is False
    assert report["dominates_baseline"] is True
    assert report["efficient"] is True
    assert report["reasonably_fair"] is True


def test_analyze_strict_instance_past_the_oracle_bound(tmp_path, capsys):
    """Ten students: reasonable fairness is judged against DA, so the
    report answers; a weak instance that size keeps the oracle's error."""
    inst = random_strict_instance(random.Random(1), 10, 10)
    matching = ttc(inst)
    path, mpath = tmp_path / "inst.txt", tmp_path / "m.txt"
    path.write_text(textio.serialize_instance(inst))
    mpath.write_text(textio.serialize_matching(matching))
    code, report = run_json(capsys, "analyze", "--matching", str(mpath), str(path))
    assert code == 0
    da = sosm(inst)[0]
    assert report["reasonably_fair"] is all(
        rank(inst.prefs[i], matching[i]) <= rank(inst.prefs[i], da[i]) for i in inst.students)

    weak = inst.replace_prefs({"i1": WeakOrder.of([inst.schools[:2], inst.schools[2:]])})
    path.write_text(textio.serialize_instance(weak))
    code = main(["analyze", "--matching", str(mpath), str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: 10 students exceed") and captured.err.count("\n") == 1


ANALYZE = json.loads((FIXTURES / "analyze_outputs.json").read_text())


@pytest.mark.parametrize("key", sorted(ANALYZE))
def test_analyze_matches_pinned_output(tmp_path, capsys, key):
    """``analyze_outputs.json`` holds ``analyze`` in text and json-like form
    on each fixture against its TTC matching (canonical tie-break); it must
    not change by a byte."""
    name, command = key.split()
    inst = tie_break(textio.parse_instance(Path(fix(name)).read_text()), 0)
    matching = tmp_path / "m.txt"
    matching.write_text(textio.serialize_matching(ttc(inst)))
    form = ["--format", "json-like"] if command.endswith("-json") else []
    code, out = run(capsys, *form, "analyze", "--matching", str(matching), fix(name))
    assert code == 0
    assert out == ANALYZE[key]


def test_analyze_pins_cover_every_fixture():
    forms = ("analyze-ttc", "analyze-ttc-json")
    assert set(ANALYZE) == {f"{p.stem} {c}" for p in FIXTURES.glob("scp*.txt") for c in forms}


def test_graph_dot(capsys):
    code, out = run(capsys, "graph", fix("scp2"))
    assert code == 0
    assert out.startswith("digraph")
    assert '"i5" -> "i1"' in out


# Strict preferences, one priority class everywhere: the lottery decides DA.
TIED_PRIORITIES = """students i1 i2 i3
schools s1 s2 s3
pref i1: s1 > s2 > s3
pref i2: s1 > s3 > s2
pref i3: s2 > s1 > s3
prio s1: i1 = i2 = i3
prio s2: i1 = i2 = i3
prio s3: i1 = i2 = i3
"""


def test_tadam_breaks_ties_with_the_lottery(tmp_path, capsys):
    """Under every lottery 0-5, tadam's baseline is ``da``'s matching, and its
    terminals are the efficient dominations of that baseline."""
    tied = tmp_path / "tied.txt"
    tied.write_text(TIED_PRIORITIES)
    for lottery in map(str, range(6)):
        for path in [str(tied)] + [fix(f"scp{k}") for k in range(1, 6)]:
            _, da = run_json(capsys, "solve", "--mechanism", "da", "--tiebreak", lottery, path)
            _, tadam = run_json(capsys, "solve", "--mechanism", "tadam", "--tiebreak", lottery,
                                path)
            assert tadam["baseline"] == da["matching"], (lottery, path)
            _, terminals = run_json(capsys, "enumerate", "--what", "tadam",
                                    "--tiebreak", lottery, path)
            _, efficient = run_json(capsys, "enumerate", "--what", "efficient-dominations",
                                    "--tiebreak", lottery, path)
            assert terminals == efficient, (lottery, path)
    _, da = run_json(capsys, "solve", "--mechanism", "da", "--tiebreak", "3", str(tied))
    assert da["matching"] == {"i1": "s2", "i2": "s1", "i3": "s3"}


TIE_BREAKS = [
    *((("solve", "--mechanism", m), 1) for m in ("da", "ttc", "eadam", "tadam", "cim")),
    (("trace",), 1), (("graph",), 1), (("analyze", "--matching", "MATCHING"), 1),
    *((("enumerate", "--what", w), 1) for w in ("efficient-dominations", "tadam", "coalitions")),
    (("enumerate", "--what", "stable"), 0),
]


@pytest.mark.parametrize("argv, calls", TIE_BREAKS, ids=[" ".join(a) for a, _ in TIE_BREAKS])
def test_each_command_breaks_ties_once(tmp_path, monkeypatch, capsys, argv, calls):
    """Every command breaks the FILE's ties once, in the CLI or in the
    library, and ``enumerate --what stable``, which reads no lottery, never."""
    from schoolmatch import cli, trading
    counted, real = [], cli.tie_break

    def tie_break(instance, seed):
        counted.append(seed)
        return real(instance, seed)

    for module in (cli, trading):
        monkeypatch.setattr(module, "tie_break", tie_break)
    matching = tmp_path / "m.txt"
    matching.write_text("i1 s2\ni2 s1\ni3 s3\n")
    argv = [str(matching) if a == "MATCHING" else a for a in argv]
    code, _ = run(capsys, *argv, fix("scp6"))
    assert code == 0 and len(counted) == calls, counted


def test_strategy_anonymity(capsys):
    code, report = run_json(
        capsys, "strategy", "--check", "anonymity", "--trials", "20",
        "--seed", "5",
    )
    assert code == 0
    assert report["cases"] == 40 and report["failures"] == 0


# Every student holds their top school under DA and TADAM alike.
ALL_AT_TOP = """students i1 i2
schools s1 s2
pref i1: s1 > s2
pref i2: s2 > s1
prio s1: i1 > i2
prio s2: i1 > i2
"""


@pytest.mark.parametrize("argv, cases", [
    (["--check", "positive-association", "--trials", "20", "--seed", "5"], 40),
    (["--check", "anonymity", fix("scp1")], 2),
    (["--check", "positive-association", "{top}"], 0),
])
def test_strategy_cases_count_checks_per_mechanism(tmp_path, capsys, argv, cases):
    """``cases`` counts checks: --trials instances (or the FILE once) for each
    of DA and TADAM, less any with nobody seated below their top school."""
    top = tmp_path / "top.txt"
    top.write_text(ALL_AT_TOP)
    code, report = run_json(capsys, "strategy", *(a.format(top=top) for a in argv))
    assert code == 0
    assert report["cases"] == cases and report["failures"] == 0


def test_strategy_dominance(capsys):
    code, report = run_json(
        capsys, "strategy", "--check", "dominance", "--trials", "300",
        "--seed", "5", "--family", "2x2",
    )
    assert code == 0
    assert report["verdict"] in ("dominates", "inconclusive")


@pytest.mark.parametrize("check", ["anonymity", "positive-association", "same-class"])
def test_strategy_file_with_ties_is_a_cli_error(capsys, check):
    """A sweep over a FILE runs strict mechanisms on it as written: a FILE
    with ties fails once, naming the check, not the library's tie_break."""
    path = fix("scp6")   # i1: s1 = s2 > s3
    assert main(["strategy", "--check", check, path]) == 1
    error = f"error: --check {check} needs a strict FILE; {path} has ties\n"
    assert capsys.readouterr().err == error


SEAT_SHORTAGE = """students i1 i2 i3
schools s1 s2
pref i1: s1 > s2
pref i2: s1 > s2
pref i3: s2 > s1
prio s1: i1 > i2 > i3
prio s2: i1 > i2 > i3
"""


def test_strategy_same_class_with_an_unassigned_student(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text(SEAT_SHORTAGE)
    code, report = run_json(
        capsys, "strategy", "--check", "same-class", "--family", "1x2", str(path),
    )
    assert code == 0
    assert report["cases"] == 1 and report["failures"] == 0


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("students i1\nschools s1\n")
    code = main(["solve", "--mechanism", "da", str(bad)])
    assert code == 1


def test_text_format_solve(capsys):
    code, out = run(capsys, "solve", "--mechanism", "ttc", fix("scp5"))
    assert code == 0
    assert "preference_index: 3" in out


@pytest.mark.parametrize("argv", [
    ["solve", "--mechanism", "da", "{missing}"],
    ["solve", "--mechanism", "da", "{dir}"],
    ["analyze", "--matching", "{missing}", fix("scp1")],
    ["solve", "--mechanism", "cim", "--coalition", "{missing}", fix("scp2")],
])
def test_unreadable_file_is_one_line_error(tmp_path, capsys, argv):
    names = {"missing": str(tmp_path / "nope.txt"), "dir": str(tmp_path)}
    code = main([a.format(**names) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names["dir" if "{dir}" in argv else "missing"] in err


COALITION_FILES = {
    "unknown": "loop i1 ghost\n",   # names a student the instance lacks
    "invalid": "loop i5 i1\n",      # i1 does not prefer i5's baseline school
    "bare": "loop\n",               # a loop of no students
    "single": "loop i1\n",          # a loop of one student
}


# Each row is bad input that must give one error line; add a row per new check.
@pytest.mark.parametrize("argv", [
    ["solve", "--mechanism", "tadam", "--policy", "bogus", fix("scp2")],
    ["solve", "--mechanism", "tadam", "--policy", "seed:x", fix("scp2")],
    ["strategy", "--check", "dominance", "--family", "bogus"],
    ["strategy", "--check", "dominance", "--family", "2x0"],
    ["strategy", "--check", "dominance", "--trials", "0"],
    ["solve", "--mechanism", "cim", "--coalition", "{unknown}", fix("scp2")],
    ["solve", "--mechanism", "cim", "--coalition", "{invalid}", fix("scp2")],
    ["strategy", "--check", "dominance", "--family", "1x1"],
    ["strategy", "--check", "dominance", "--trials", "5", fix("scp1")],
    ["strategy", "--check", "anonymity", "--trials", "0"],
    ["strategy", "--check", "positive-association", "--trials", "-3"],
    ["strategy", "--check", "same-class", "--trials", "0", "--family", "2x2"],
    ["strategy", "--check", "anonymity", "--family", "2x2"],
    ["strategy", "--check", "positive-association", "--family", "2x2", fix("scp1")],
    ["strategy", "--check", "dominance", "--family", "", "--trials", "10"],
    ["strategy", "--check", "same-class", fix("scp1")],   # 2x3 names s1-s6, the FILE s1-s3
    ["solve", "--mechanism", "cim", "--coalition", "{bare}", fix("scp2")],
    ["solve", "--mechanism", "cim", "--coalition", "{single}", fix("scp2")],
    # Each mechanism input given to a mechanism that does not read it.
    ["solve", "--mechanism", "da", "--consent", "i9", fix("scp1")],
    ["solve", "--mechanism", "ttc", "--policy", "seed:3", fix("scp1")],
    ["solve", "--mechanism", "eadam", "--coalition", "{missing}", fix("scp3")],
    ["solve", "--mechanism", "da", "--coalition", "{missing}", fix("scp1")],
    ["solve", "--mechanism", "tadam", "--consent", "all", fix("scp6")],
    ["solve", "--mechanism", "cim", "--policy", "canonical", fix("scp2")],
    ["enumerate", "--what", "stable", "--tiebreak", "5", fix("scp1")],
])
def test_bad_input_is_one_error_line(tmp_path, capsys, argv):
    names = {"missing": str(tmp_path / "missing.txt")}
    for name, text in COALITION_FILES.items():
        names[name] = str(tmp_path / f"{name}.txt")
        Path(names[name]).write_text(text)
    code = main([a.format(**names) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_analyze_rejects_duplicate_matching_line(tmp_path, capsys):
    """A second line for one student is an error, not a silent overwrite."""
    matching = tmp_path / "m.txt"
    matching.write_text("i1 s1\ni1 s2\ni2 s1\ni3 s3\n")
    code = main(["analyze", "--matching", str(matching), fix("scp1")])
    assert code == 1
    assert capsys.readouterr().err == "error: line 2: duplicate line for student 'i1'\n"


def test_coalition_file_splits_on_any_whitespace(tmp_path, capsys):
    """A tab after ``loop`` works like a space; other keywords still fail
    with the same message."""
    reports = []
    for text in ("loop i1 i2 i4\n", "loop\ti1\ti2 i4\n"):
        coalition = tmp_path / "coalition.txt"
        coalition.write_text(text)
        reports.append(run_json(capsys, "solve", "--mechanism", "cim",
                                "--coalition", str(coalition), fix("scp2")))
    assert reports[0] == reports[1] and reports[0][0] == 0
    coalition.write_text("# two loops\n\nlooped\ti1 i2\n")
    code = main(["solve", "--mechanism", "cim", "--coalition", str(coalition), fix("scp2")])
    assert code == 1
    assert capsys.readouterr().err == \
        "error: coalition file line 3: expected 'loop i1 i2 ...'\n"


@pytest.mark.parametrize("argv, err", [
    (["--mechanism", "cim", "--coalition", "{coalition}"],
     "coalition file line 2: a loop needs two students or more"),
    (["--mechanism", "da", "--consent", "i9"],
     "--mechanism da reads no --consent; it is for --mechanism eadam"),
    (["--mechanism", "ttc", "--policy", "seed:3"],
     "--mechanism ttc reads no --policy; it is for --mechanism tadam"),
    (["--mechanism", "eadam", "--coalition", "{coalition}"],
     "--mechanism eadam reads no --coalition; it is for --mechanism cim"),
], ids=["short-loop", "consent", "policy", "coalition"])
def test_solve_names_the_option_or_loop_it_rejects(tmp_path, capsys, argv, err):
    coalition = tmp_path / "coalition.txt"
    coalition.write_text("loop i1 i2 i4\nloop i3\n")
    code = main(["solve", *(a.format(coalition=coalition) for a in argv), fix("scp2")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {err}\n"


def test_sweep_writes_each_failing_instance_and_exits_1(tmp_path, monkeypatch, capsys):
    """A mechanism that seats students by declaration order ignores a swap
    of school labels: both anonymity checks of the FILE fail, and each
    counterexample file, written in the working directory, replays it."""
    from schoolmatch import strategy
    by_order = lambda inst: Matching.of(dict(zip(inst.students, inst.schools)), inst)
    monkeypatch.setattr(strategy, "mechanism_by_name", lambda name: by_order)
    monkeypatch.chdir(tmp_path)
    code, report = run_json(capsys, "strategy", "--check", "anonymity", "--seed", "4", fix("scp1"))
    assert code == 1
    files = ["counterexample_anonymity_4_0.txt", "counterexample_anonymity_4_1.txt"]
    assert report["cases"] == 2 and report["failures"] == 2
    assert report["counterexample_files"] == files
    instance = textio.parse_instance(Path(fix("scp1")).read_text())
    for name in files:
        text = (tmp_path / name).read_text()
        assert text.startswith("# counterexample: anonymity sweep, seed 4, case ")
        assert textio.parse_instance(text) == instance


def test_unknown_consent_student_rejected(capsys):
    code = main(["solve", "--mechanism", "eadam", "--consent", "i1,nobody", fix("scp3")])
    assert code == 1
    assert capsys.readouterr().err == "error: --consent names unknown students ['nobody']\n"


def test_closed_pipe_gives_no_traceback():
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "schoolmatch", "solve", "--mechanism", "da", fix("scp3")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader leaves before the first byte, like `| head -0`
    err = proc.stderr.read().decode()
    proc.wait()
    assert err == ""
    assert proc.returncode == 1


def test_cli_import_leaves_networkx_unloaded():
    """Nothing loads networkx: not the CLI import, the trading-clique
    test, the efficiency test on ten students, TADAM canonical or seeded,
    on strict or weak preferences, cycle enumeration or coalitions."""
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = f"""
import random, sys
import schoolmatch.cli
from schoolmatch import analysis, coalitions, sosm, textio, trading
from schoolmatch.strategy import random_strict_instance
inst = random_strict_instance(random.Random(1), 10, 10)
da = sosm(inst)[0]
trading.has_trading_clique(trading.build_graph(inst, da))
analysis.is_efficient(inst, da)
trading.tadam_run(inst, "canonical")
rich = random_strict_instance(random.Random(6), 10, 10)
assert trading.find_cliques(trading.SeatGraph(rich, sosm(rich)[0].seats(rich)))
assert trading.tadam_run(rich, 7).applied
weak = textio.parse_instance(open({fix("scp6")!r}).read())
assert not weak.is_strict and trading.tadam_run(weak).applied
small = random_strict_instance(random.Random(8), 5, 5)
assert len(trading.tadam_enumerate(small).terminals) == 2
assert len(coalitions.enumerate_coalitions(small)) == 3
print("networkx" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_cli_import_loads_only_what_solve_needs():
    """``import schoolmatch.cli``, and then an EADAM solve, load the parser,
    the model, the mechanisms and the report's ``analysis`` (with ``oracle``,
    which ``is_reasonably_fair``'s default bound needs), nothing else."""
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = f"""
import contextlib, io, sys
loaded = lambda: print(sorted(m for m in sys.modules if m.split(".")[0] == "schoolmatch"))
import schoolmatch.cli
loaded()
with contextlib.redirect_stdout(io.StringIO()):
    assert schoolmatch.cli.main(["solve", "--mechanism", "eadam", {fix("scp3")!r}]) == 0
loaded()
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    want = ["schoolmatch", *(f"schoolmatch.{m}" for m in (
        "analysis", "cli", "errors", "mechanisms", "model", "oracle", "textio"))]
    assert proc.stdout == f"{want}\n{want}\n"


@pytest.mark.parametrize("modules", ["cli", "every"])
def test_package_import_leaves_dataclasses_and_inspect_unloaded(modules):
    """A fresh ``import schoolmatch.cli``, and one of the package and every
    submodule, load neither ``dataclasses`` nor ``inspect``: the records are
    NamedTuples and plain classes, so no import generates their methods."""
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    names = ["schoolmatch.cli"] if modules == "cli" else ["schoolmatch", *(
        f"schoolmatch.{p.stem}" for p in sorted((src / "schoolmatch").glob("[!_]*.py")))]
    code = f"import sys, {', '.join(names)}\n" \
        'print(sorted({"dataclasses", "inspect"} & sys.modules.keys()))'
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_enumerating_commands_run_without_networkx():
    """With networkx unimportable, the commands that enumerate cycles
    print their golden output on every fixture."""
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    commands = ("graph", "enumerate-tadam", "enumerate-coalitions", "tadam-seed7")
    jobs = [(f"{p.stem} {c}", [*GOLDEN_COMMANDS[c], str(p)])
            for p in sorted(FIXTURES.glob("scp*.txt")) for c in commands]
    code = """
import contextlib, io, json, sys
sys.modules["networkx"] = None
from schoolmatch.cli import main
outputs = {}
for key, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0, key
    outputs[key] = out.getvalue()
print(json.dumps(outputs))
"""
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(jobs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    outputs = json.loads(proc.stdout)
    assert len(outputs) == 24
    assert outputs == {key: GOLDEN[key] for key in outputs}


def test_readme_library_snippet_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    (snippet,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    shutil.copy(fix("scp3"), tmp_path / "instance.txt")
    monkeypatch.chdir(tmp_path)
    scope: dict = {}
    exec(compile(snippet, "README.md", "exec"), scope)
    assert scope["result"].baseline == scope["matching"]


@pytest.mark.parametrize("what", ["stable", "efficient-dominations", "tadam"])
def test_enumerate_output_ignores_hash_seed(what):
    src = Path(__file__).parent.parent / "src"
    outputs = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(
            [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "schoolmatch", "enumerate", "--what", what, fix("scp2")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
