import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schoolmatch.cli import main

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


def test_graph_dot(capsys):
    code, out = run(capsys, "graph", fix("scp2"))
    assert code == 0
    assert out.startswith("digraph")
    assert '"i5" -> "i1"' in out


def test_strategy_anonymity(capsys):
    code, report = run_json(
        capsys, "strategy", "--check", "anonymity", "--trials", "20",
        "--seed", "5",
    )
    assert code == 0
    assert report["failures"] == 0


def test_strategy_dominance(capsys):
    code, report = run_json(
        capsys, "strategy", "--check", "dominance", "--trials", "300",
        "--seed", "5", "--family", "2x2",
    )
    assert code == 0
    assert report["verdict"] in ("dominates", "inconclusive")


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
])
def test_bad_input_is_one_error_line(tmp_path, capsys, argv):
    names = {}
    for name, text in COALITION_FILES.items():
        names[name] = str(tmp_path / f"{name}.txt")
        Path(names[name]).write_text(text)
    code = main([a.format(**names) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


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
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = 'import sys, schoolmatch.cli; print("networkx" in sys.modules)'
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
