import enum
import json
import os
import re
import shlex
import subprocess
import sys
from collections import OrderedDict
from pathlib import Path

import pytest

from cpgroups import cli, cp, fp
from cpgroups.fp import DEFAULT_MAX_COSETS
from cpgroups.perm import (DEFAULT_AUT_NODE_BUDGET, klein_four_group,
                           symmetric_group)

SRC = Path(cli.__file__).resolve().parents[1]


def run_cli(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def test_group_from_spec_named():
    assert cli.group_from_spec("S5").order() == 120
    assert cli.group_from_spec("A6").order() == 360
    assert cli.group_from_spec("Z10").order() == 10
    assert cli.group_from_spec("D4").order() == 8
    assert cli.group_from_spec("V4").order() == 4
    with pytest.raises(ValueError):
        cli.group_from_spec("S11")
    with pytest.raises(ValueError):
        cli.group_from_spec("Z12")


def test_group_from_spec_cycles():
    g = cli.group_from_spec("(1 2), (1 2 3 4)")
    assert g.order() == 24
    h = cli.group_from_spec("(1 2)(3 4), (1 3)(2 4)")
    assert h.equals_subgroup(klein_four_group())


def test_order_command(capsys):
    code, out = run_cli(capsys, ["order", "--group", "S5"])
    assert code == 0
    assert 'order=120' in out


def test_cp_subgroup_names_alternating(capsys):
    code, out = run_cli(capsys, ["cp-subgroup", "--group", "S5", "--p", "2"])
    assert code == 0
    assert 'name="A5"' in out
    assert 'subgroup_order=60' in out


def test_cp_subgroup_names_large_cyclic(capsys):
    # a Z_1260, beyond any element scan's reach
    group = "(1 2 3 4 5 6 7)(8 9 10 11 12 13 14 15)(16 17 18 19 20 21 22 23 24)" \
        "(25 26 27 28 29)"
    code, out = run_cli(capsys, ["cp-subgroup", "--group", group, "--p", "2"])
    assert code == 0
    assert 'name="Z1260"' in out
    # C^2 is Z_2 x Z_3 = Z_6 though no generator has order 6, and then
    # Z_2 x Z_2, of order 4 but exponent 2
    code, out = run_cli(capsys, ["cp-subgroup", "--group", "(1 2), (3 4 5), (6 7 8 9)",
                                 "--p", "2"])
    assert code == 0 and 'name="Z6"' in out
    code, out = run_cli(capsys, ["cp-subgroup", "--group", "(1 2 3 4), (5 6 7 8)",
                                 "--p", "2"])
    assert code == 0 and "name=null" in out


def test_verdict_exit_codes(capsys):
    code, out = run_cli(capsys, ["verdict", "--group", "S3", "--p", "3"])
    assert code == 0 and 'status="IS_CP_GROUP"' in out
    code, out = run_cli(capsys, ["verdict", "--group", "S3", "--p", "2"])
    assert code == 1 and 'status="NOT_CP_GROUP"' in out


def test_torus_cover_exit_codes(capsys):
    code, out = run_cli(capsys, ["torus-cover", "3", "2", "5"])
    assert code == 0 and "exists=true" in out
    code, out = run_cli(capsys, ["torus-cover", "3", "2", "6"])
    assert code == 1 and "exists=false" in out


def test_chbili_q_command(capsys):
    code, out = run_cli(capsys, ["chbili-q", "3", "2", "5"])
    assert code == 0 and "q=4" in out and "q_inverse=4" in out
    code, _ = run_cli(capsys, ["chbili-q", "3", "2", "6"])
    assert code == 1


def test_input_error_exit_code(capsys):
    code = cli.run(["abelianize", "--presentation", "< a, b | a^3 = c >"])
    captured = capsys.readouterr()
    assert code == 2
    assert "error" in captured.err
    # a relator too long to expand is refused, not a MemoryError traceback
    presentation = "< a, b | a^99999999999999 >"
    for argv in (["coset-enum"], ["rs"], ["cp-kernel", "--p", "2"]):
        code = cli.run(argv + ["--presentation", presentation])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", argv
        assert captured.err == ("error: word of 99999999999999 letters "
                                "exceeds cap 1000000\n"), argv


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def fail(*args):
        raise MemoryError("no room for the table")

    monkeypatch.setattr(fp, "todd_coxeter", fail)
    assert cli.run(["coset-enum", "--presentation", "< a | a^5 >"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: MemoryError: no room for the table\n"

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(fp, "todd_coxeter", interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.run(["rs", "--presentation", "< a | a^5 >"])


def test_budget_exit_code(capsys):
    code = cli.run(["coset-enum", "--presentation", "< a, b | a^2, b^2 >",
                    "--max-cosets", "50"])
    captured = capsys.readouterr()
    assert code == 3
    assert "budget" in captured.err


@pytest.mark.parametrize("argv", [
    ["coset-enum", "--presentation", "< a | a^5 >", "--max-cosets", "0"],
    ["coset-enum", "--presentation", "< a | a^5 >", "--max-cosets", "-1"],
    ["aut", "--group", "S4", "--budget", "-1"],
    ["series", "--group", "S4", "--p", "2", "--depth", "1", "--budget", "-1"],
    ["cp-kernel", "--presentation", "< a, b | a^3 = b^2 >", "--p", "2",
     "--budget", "0"],
], ids=["coset-enum-0", "coset-enum-neg", "aut-neg", "series-neg", "cp-kernel-0"])
def test_nonpositive_budget_is_input_error(capsys, argv):
    # rejected while parsing, before the command runs with some default
    with pytest.raises(SystemExit) as info:
        cli.run(argv)
    assert info.value.code == 2
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["order", "--group", "S5", "--budget", "5"],
    ["cp-subgroup", "--group", "S4", "--p", "2", "--budget", "5"],
    ["snf", "--matrix", "[[2]]", "--max-cosets", "3"],
    ["aut", "--group", "S4", "--max-cosets", "3"],
    ["coset-enum", "--presentation", "< a | a^5 >", "--budget", "5"],
    ["verify", "table1.gcd0", "--budget", "5"],
], ids=["order", "cp-subgroup", "snf", "aut-max-cosets", "coset-enum-budget",
        "verify"])
def test_budget_flags_only_where_read(capsys, argv):
    # a budget the command would ignore is refused, not silently dropped
    with pytest.raises(SystemExit) as info:
        cli.run(argv)
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, default", [
    (["cp-kernel", "--presentation", "< a | >", "--p", "2"], "budget",
     cp.DEFAULT_SERIES_INDEX_CAP),
    (["series", "--group", "S3", "--p", "2", "--depth", "1"], "budget",
     cp.DEFAULT_SERIES_INDEX_CAP),
    (["verdict", "--group", "S3", "--p", "2"], "budget", DEFAULT_AUT_NODE_BUDGET),
    (["aut", "--group", "S3"], "budget", DEFAULT_AUT_NODE_BUDGET),
    (["s6", "--p", "2"], "budget", DEFAULT_AUT_NODE_BUDGET),
    (["coset-enum", "--presentation", "< a | >"], "max_cosets", DEFAULT_MAX_COSETS),
    (["rs", "--presentation", "< a | >"], "max_cosets", DEFAULT_MAX_COSETS),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_budget_defaults_are_the_library_defaults(argv, flag, default):
    assert getattr(cli.build_parser().parse_args(argv), flag) == default


def test_parser_is_shared_and_keeps_no_state(capsys):
    # one parser serves every run in a process, so no flag may stick
    # (a cycle spec builds a fresh group, with no cached search result)
    assert cli.build_parser() is cli.build_parser()
    s4 = "(1 2), (1 2 3 4)"
    code, out = run_cli(capsys, ["aut", "--group", s4, "--budget", "5"])
    assert code == 3 and "complete=false" in out
    assert cli.build_parser().parse_args(["aut", "--group", s4]).budget \
        == DEFAULT_AUT_NODE_BUDGET
    code, out = run_cli(capsys, ["aut", "--group", s4])
    assert code == 0 and "aut_order=24" in out
    code, out = run_cli(capsys, ["order", "--group", "S4", "--format", "json"])
    assert code == 0 and json.loads(out)["order"] == 24
    code, out = run_cli(capsys, ["order", "--group", "S4"])
    assert code == 0 and out == 'group="S4"\ndegree=4\norder=24\n'
    code, out = run_cli(capsys, ["cp-subgroup", "--group", "S4", "--p", "2"])
    assert code == 0 and "name=\"A4\"" in out


def test_snf_command(capsys):
    code, out = run_cli(capsys, ["snf", "--matrix", "[[2,0],[0,3]]"])
    assert code == 0
    assert "diagonal.0=1" in out and "diagonal.1=6" in out
    code = cli.run(["snf", "--matrix", "not json"])
    capsys.readouterr()
    assert code == 2
    # entries that are not integers are refused, not truncated or overflowed
    for matrix in ("[[1.5]]", "[[true]]", "[[2.0, 4]]", "[[1e400]]"):
        code = cli.run(["snf", "--matrix", matrix])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "", matrix
        assert captured.err.startswith("error: matrix entry "), matrix
        assert "Traceback" not in captured.err, matrix


def test_aut_budget_exit_code(capsys):
    code, out = run_cli(capsys, ["aut", "--group", "(1 2)(3 4), (1 3)(2 4)",
                                 "--budget", "2"])
    assert code == 3
    assert "complete=false" in out


def test_aut_budget_is_kept_after_a_complete_search(capsys):
    assert run_cli(capsys, ["aut", "--group", "S5"])[0] == 0
    code, out = run_cli(capsys, ["aut", "--group", "S5", "--budget", "20"])
    assert code == 3
    assert "complete=false" in out and "nodes_used=20" in out


@pytest.mark.parametrize("argv, message", [
    (["verdict", "--group", "S5", "--p", "2", "--budget", "20"],
     "automorphism search budget 20 exhausted after 20 nodes with 12 maps "
     "found; no sound verdict"),
    (["s6", "--p", "2", "--budget", "100"],
     "automorphism search budget 100 exhausted after 100 nodes with 48 maps "
     "found; no sound verdict"),
], ids=["verdict", "s6"])
def test_aut_budget_message_reports_progress(capsys, argv, message):
    symmetric_group.cache_clear()  # no cached complete search
    assert cli.run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"budget exhausted: {message}\n"


def test_negative_positionals_after_double_dash(capsys):
    code, out = run_cli(capsys, ["chbili-q", "--", "-3", "2", "5"])
    assert code == 0
    assert "m=-3" in out and "q=1" in out


def test_e2_table_rejects_bad_parameters(capsys):
    code = cli.run(["e2-table", "3", "2", "6"])
    capsys.readouterr()
    assert code == 2


def test_cp_kernel_over_cap_is_input_error(capsys):
    code = cli.run(["cp-kernel", "--presentation", "< a, b | >", "--p", "7",
                    "--budget", "10"])
    capsys.readouterr()
    assert code == 2


def test_verify_single_item(capsys):
    code, out = run_cli(capsys, ["verify", "table1.gcd0"])
    assert code == 0
    assert 'items.0.passed=true' in out
    code = cli.run(["verify", "no.such.id"])
    capsys.readouterr()
    assert code == 2


def test_verify_catalog_contains_pinned_ids():
    from cpgroups.catalog import item_ids
    ids = item_ids()
    for pinned in ["table1.zn", "exA.s6", "corB.series.trefoil.p2"]:
        assert pinned in ids


ROUND_TRIP_COMMANDS = [
    ["order", "--group", "S4"],
    ["cp-subgroup", "--group", "S4", "--p", "2"],
    ["cp-quotient", "--presentation", "< a, b | a^3 = b^2 >", "--p", "5"],
    ["cp-kernel", "--presentation", "< a, b | a^3 = b^2 >", "--p", "2"],
    ["series", "--presentation", "< a, b | a^3 = b^2 >", "--p", "2",
     "--depth", "2"],
    ["verdict", "--group", "S3", "--p", "3"],
    ["aut", "--group", "S4"],
    ["coset-enum", "--presentation", "< a, b | a^2, b^2, a b a b a b >"],
    ["rs", "--presentation", "< a | >", "--subgroup", "a^3"],
    ["abelianize", "--presentation", "< a, b | a^3, b^2 >"],
    ["snf", "--matrix", "[[3,-2]]"],
    ["torus-cover", "3", "2", "5"],
    ["chbili-q", "3", "2", "5"],
    ["components", "6", "4"],
    ["trefoil-obstruction", "--p", "2"],
    ["out-obstruction", "--presentation", "< a, b | a b a b^-1 a^-1 b^-1 >",
     "--assert-out-trivial"],
    ["s6", "--p", "2"],
    ["e2-table", "3", "2", "5", "--s-max", "2", "--t-max", "2"],
    ["verify", "rem.components"],
]


def test_text_and_json_carry_identical_data(capsys):
    # the text format must be exactly the flattened JSON payload
    for argv in ROUND_TRIP_COMMANDS:
        cli.run(argv + ["--format", "json"])
        json_out = capsys.readouterr().out
        payload = json.loads(json_out)
        cli.run(argv)
        text_out = capsys.readouterr().out.strip()
        expected = cli.render(payload, "text")
        assert text_out == expected, argv


# every "$ cpgroups ..." line in docs/cli.md, its exit code and its JSON block
DOC_EXAMPLES = re.findall(
    r"^    \$ cpgroups ([^\n]+)\n    \(exit code (\d)\)\n\n```json\n(.*?)\n```",
    (SRC.parent / "docs" / "cli.md").read_text(), re.M | re.S)


def _doc_example_ids(examples):
    """Each example's command name; a repeated command gets a -2, -3, ...
    suffix, so the first example of a command keeps its bare name."""
    seen = {}
    ids = []
    for example in examples:
        name = example[0].split()[0]
        seen[name] = seen.get(name, 0) + 1
        ids.append(name if seen[name] == 1 else f"{name}-{seen[name]}")
    return ids


@pytest.mark.parametrize("command, code, expected", DOC_EXAMPLES,
                         ids=_doc_example_ids(DOC_EXAMPLES))
def test_docs_examples_reproduce(capsys, command, code, expected):
    assert cli.run(shlex.split(command)) == int(code)
    assert capsys.readouterr().out == expected + "\n"


# hand-made payloads for the JSON renderer: empty and nested containers,
# tuples, bools among ints, long and negative ints, None, floats, non-str
# keys, a dict subclass, and strings with escapes and non-ASCII text
RENDER_CORPUS = [
    {}, [], (), None, 0, -7, 2.5, "x", True,
    {"a": {}, "b": [], "c": (), "d": {"e": {"f": []}}},
    [[]], [[], [1]], [[1, 2], [3]], ((1, 2), (3, 4)), [[1, 2], (3, 4)],
    [True, False, 1], [1, True], [[1, True], [2, 3]], [[True]], [[None]],
    [1, [2, 3]], [[1, 2], [3, 4.0]], [[1, 2], "34"], [[-1, 0], [10 ** 100]],
    ["plain", 'ünï\t"q"\n', ""], ("t",), [["a", "b"], ["c"]], ["s", 1, None],
    {"big": 10 ** 100, "neg": -10 ** 100, "ints": [-1, 0, -(10 ** 100)]},
    {"floats": [0.1, -0.0, 1e300, 1e-300, float("inf"), float("nan")]},
    {"esc": 'tab\t "quote" \\ back\nnewline \x00 \u2028', "uni": "Ωmega ünï 😀"},
    {'key "q"\n': 1, "ünï": [None, 1.0, "x", {"deep": [[1, 2], [3, 4]]}]},
    {1: "int key", 2.5: None}, {"a": {None: 1, True: [1, 2]}},
    OrderedDict([("b", [1, 2]), ("a", OrderedDict())]),
    {"rows": [[0, 1], [1, 0]], "nested": [{"t": ((0,), (1,))}, [[]], [{}]]},
]


def doc_payloads():
    """The payloads of the 20 docs/cli.md examples."""
    payloads = []
    for command, _, _ in DOC_EXAMPLES:
        args = cli.build_parser().parse_args(shlex.split(command))
        payloads.append(args.func(args)[0])
    assert len(payloads) == 20
    return payloads


def test_json_render_matches_indented_dumps():
    # the reference is the renderer it replaced, json.dumps(indent=2)
    for payload in doc_payloads() + RENDER_CORPUS:
        assert cli.render(payload, "json") == json.dumps(payload, indent=2), payload


def flatten_reference(value, prefix, out):
    """The text format's flattening before plain scalars skipped
    json.dumps, kept as its reference: (dotted key, json.dumps(scalar))
    pairs."""
    if isinstance(value, dict):
        if not value:
            out.append((prefix, "{}"))
        for k, v in value.items():
            flatten_reference(v, f"{prefix}.{k}" if prefix else str(k), out)
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append((prefix, "[]"))
        for i, v in enumerate(value):
            flatten_reference(v, f"{prefix}.{i}" if prefix else str(i), out)
    else:
        out.append((prefix, json.dumps(value)))


class Level(enum.IntEnum):
    LOW = 1


TEXT_CORPUS = [
    "", " ", "~", "a b", "\x7f", "\x1f", '"', "\\", "é", "😀", "tab\t", "a/b",
    [" ~!#$%&'()*+,-./0-9:;<=>?@A-Z[]^_`a-z{|}", "q\"", "\\n", "\u2028"],
    [Level.LOW, 1, True], {"e": Level.LOW, "f": [Level.LOW, 2]}, [10 ** 100, -(10 ** 100)],
    [(), [], {}, [[]], [{}], {"a": []}], {"deep": [[[1, 2], [3]], [["x", None]]]},
    [False, None, 0.0, -0.0], {"": [1], "k": {"": {}}},
]


def test_text_render_matches_flatten_reference():
    for payload in doc_payloads() + RENDER_CORPUS + TEXT_CORPUS:
        pairs = []
        flatten_reference(payload, "", pairs)
        expected = "\n".join(f"{k}={v}" for k, v in pairs)
        assert cli.render(payload, "text") == expected, payload


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("pipeline step failed; this is a build bug")
    monkeypatch.setattr(cp, "verify_s6_pipeline", broken)
    assert cli.run(["s6", "--p", "2"]) == 4
    assert "internal error: pipeline step failed" in capsys.readouterr().err


def _child_env():
    """Environment for a child interpreter that imports this checkout."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def test_verify_fails_loud_under_python_O():
    script = ("import sys; from cpgroups import cli, knot; "
              "knot.preimage_component_count = lambda p, c: 0; "
              "sys.exit(cli.main(['verify', 'rem.components']))")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "items.0.passed=false" in proc.stdout


def test_unfaithful_aut_action_fails_loud_under_python_O():
    # acting on the centre of D_4 alone is not faithful; the order check
    # that catches it is not an assert
    script = ("import sys; from cpgroups import cli, perm; "
              "perm._generating_classes = lambda elements, fingerprint: "
              "[i for i, x in enumerate(elements) if x.images == (2, 3, 0, 1)]; "
              "sys.exit(cli.main(['verdict', '--group', 'D4', '--p', '2']))")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=_child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 4, proc.stderr
    assert "internal error:" in proc.stderr and "not faithful" in proc.stderr
    assert proc.stdout == ""


def test_closed_stdout_is_internal_error():
    # the child waits on stdin, so its stdout is closed before it writes
    script = ("import sys; sys.stdin.read(); from cpgroups import cli; "
              "sys.exit(cli.main(['order', '--group', 'S5']))")
    proc = subprocess.Popen([sys.executable, "-c", script], env=_child_env(),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    proc.stdout.close()
    proc.stdin.close()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 4
    assert "Traceback" not in err and "output closed early" in err



TRACER_SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from cpgroups import cli
from spans import Tracer

tracer = Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in json.loads(sys.argv[2])]
print(json.dumps({"codes": codes, "spans": sorted({s[0] for s in tracer.spans})}))
"""


def test_benchmark_tracer_finds_its_spans():
    # the benchmark's traced pass wraps these by name, so a rename would
    # otherwise only show up there; only the AUT_CRITERION verdict on D4
    # builds the automorphism group as a permutation group, and only the
    # exact-sequence check lists the elements of a group
    argvs = [["aut", "--group", "S4"], ["verdict", "--group", "S4", "--p", "2"],
             ["series", "--group", "S4", "--p", "2", "--depth", "1"],
             ["verdict", "--group", "D4", "--p", "2"],
             ["verify", "lem.centralizer.exact"]]
    proc = subprocess.run(
        [sys.executable, "-c", TRACER_SCRIPT, str(SRC.parent / "perfbench"),
         json.dumps(argvs)],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 1, 0, 1, 0]
    for name in ["perm.aut_group_search", "perm.as_perm_group", "perm.chain",
                 "perm.elements"]:
        assert name in result["spans"], name
