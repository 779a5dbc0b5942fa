import importlib.util
from dataclasses import replace
from pathlib import Path

from cpgroups import cli

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bounded_runs.py"
_SPEC = importlib.util.spec_from_file_location("bounded_runs", _PATH)
bounded_runs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bounded_runs)


def test_every_case_parses():
    parser = cli.build_parser()
    for case in bounded_runs.CASES:
        parser.parse_args(list(case.argv))


def test_case_names_are_unique():
    names = [case.name for case in bounded_runs.CASES]
    assert len(names) == len(set(names))


def test_judge_reports_each_failure():
    case = bounded_runs.Case("components", ("components", "6", "4"), 10,
                             lines=("components=2",))
    code, out, err, _ = bounded_runs.launch(case)
    assert bounded_runs.judge(case, code, out, err) == []
    assert bounded_runs.judge(replace(case, exit=1), code, out, err) == [
        "exit 0, expected 1"]
    assert bounded_runs.judge(replace(case, lines=("components=3",)), code, out, err) == [
        "no stdout line 'components=3'"]
    assert bounded_runs.judge(replace(case, stderr="budget"), code, out, err) == [
        "stderr lacks 'budget'"]
    assert bounded_runs.judge(case, None, "", "") == ["timed out after 10 s"]
