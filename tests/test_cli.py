"""The batch front-end: exit codes, determinism, report shape."""

import contextlib
import copy
import functools
import io
import json
import operator
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

import gammaspace
from gammaspace import jsonio
from gammaspace.cli import COMMANDS, COMMON, FLAGS, Command, build_parser, main
from gammaspace.cocart import gamma_subcategory, nelg
from gammaspace.corpus import glued_presentation, z2_monoid_space
from gammaspace.gspace import gamma_rep
from gammaspace.marked import mark
from gammaspace.nerve import nerve
from gammaspace.catcore import poset_category, walking_iso_category
from gammaspace.shapes import boundary, standard_point, standard_simplex
from gammaspace.simplicial import constant_map, identity_map, inclusion_map
from gammaspace.suite import SUITE


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_factorize(capsys):
    code, report = run_cli(capsys, "factorize", "--src", "3", "--dst", "2",
                           "--map", "0,1,2")
    assert code == 0
    assert report["outputs"]["support"] == [2, 3]
    assert report["outputs"]["inert"]["map"] == [0, 1, 2]
    assert report["outputs"]["active"]["map"] == [1, 2]
    assert report["verdicts"][0]["tag"] == "factorization-unique"


def test_segal_check_fails_with_exit_one(tmp_path, capsys):
    x = gamma_rep(1).tabulate(2)
    p = tmp_path / "x.json"
    p.write_text(jsonio.canonical_dumps(jsonio.tabulated_to_json(x)))
    code, report = run_cli(capsys, "segal-check", str(p), "--k", "1", "--l", "1",
                           "--tier", "iso")
    assert code == 1
    verdict = report["verdicts"][0]
    assert verdict["status"] == "fails"
    assert verdict["witness"]["source"] == [3]
    assert verdict["witness"]["target"] == [4]


def test_segal_check_monoid_passes(tmp_path, capsys):
    x = z2_monoid_space(2)
    p = tmp_path / "m.json"
    p.write_text(jsonio.canonical_dumps(jsonio.tabulated_to_json(x)))
    code, report = run_cli(capsys, "segal-check", str(p), "--k", "1", "--l", "1")
    assert code == 0


def test_tau1_command(tmp_path, capsys):
    p = tmp_path / "j.json"
    p.write_text(jsonio.canonical_dumps(
        jsonio.simpset_to_json(nerve(walking_iso_category(), bound=2))))
    code, report = run_cli(capsys, "tau1", str(p))
    assert code == 0
    assert len(report["outputs"]["category"]["objects"]) == 2


def test_input_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{\"nonsense\": true}")
    code, report = run_cli(capsys, "tau1", str(p))
    assert code == 3


def test_a_fault_in_the_program_exits_four(monkeypatch, capsys):
    # a KeyError raised inside a command is a bug, not malformed input
    def run(report):
        raise KeyError("stub")

    monkeypatch.setitem(COMMANDS, "check-suite", Command(run))
    code, report = run_cli(capsys, "check-suite")
    assert code == 4
    [verdict] = report["verdicts"]
    assert (verdict["tag"], verdict["status"]) == ("internal", "inconclusive")
    assert verdict["witness"] == "KeyError: 'stub'"


@pytest.mark.parametrize("argv, message", [
    (["segal-check", "in.json", "--l", "1"], "required: --k"),
    (["segal-check", "in.json", "--k", "x", "--l", "1"], "invalid int value: 'x'"),
    (["segal-check", "in.json", "--k", "1", "--l", "1", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["no-such"], "invalid choice: 'no-such'"),
], ids=["missing-k", "non-integer-k", "unknown-flag", "unknown-command"])
def test_a_malformed_command_line_exits_three_with_a_report(argv, message, capsys):
    # argparse's own exit code, 2, is the code of a spent search
    code, report = run_cli(capsys, *argv)
    assert code == 3
    assert report["command"] is None
    [verdict] = report["verdicts"]
    assert (verdict["tag"], verdict["status"]) == ("input", "fails")
    assert message in verdict["witness"]
    # the digest is the command line's, so two bad command lines differ
    _, other = run_cli(capsys, "segal-check", "in.json", "--k", "y", "--l", "1")
    assert report["inputs_digest"] != other["inputs_digest"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["--help"])
    assert exit.value.code == 0
    assert "usage: gammaspace" in capsys.readouterr().out


def test_determinism(tmp_path, capsys):
    x = z2_monoid_space(2)
    p = tmp_path / "m.json"
    p.write_text(jsonio.canonical_dumps(jsonio.tabulated_to_json(x)))
    code1 = main(["segal-check", str(p), "--k", "1", "--l", "1"])
    out1 = capsys.readouterr().out
    code2 = main(["segal-check", str(p), "--k", "1", "--l", "1"])
    out2 = capsys.readouterr().out
    assert code1 == code2
    blob1 = json.loads(out1)
    blob2 = json.loads(out2)
    blob1.pop("seconds"), blob2.pop("seconds")
    assert blob1 == blob2


def test_a_cat_equiv_witness_reads_the_same_in_every_process(tmp_path):
    # the witness names the functor by its categories, not by its address,
    # so interpreters under two hash seeds print the same report
    p = tmp_path / "m.json"
    p.write_text(jsonio.canonical_dumps(jsonio.tabulated_to_json(z2_monoid_space(2))))
    src = os.path.dirname(os.path.dirname(gammaspace.__file__))
    reports = []
    for seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-m", "gammaspace.cli", "segal-check", str(p),
                              "--k", "1", "--l", "1", "--tier", "cat-equiv"],
                             env=env, capture_output=True, text=True, check=True)
        report = json.loads(run.stdout)
        report.pop("seconds")
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["verdicts"][0]["witness"].startswith("CatFunctor(FinCat(")


def test_semiadd_probe_command(tmp_path, capsys):
    p = tmp_path / "rep1.json"
    p.write_text(jsonio.canonical_dumps(jsonio.presented_to_json(gamma_rep(1))))
    code, report = run_cli(capsys, "semiadd-probe", str(p), "--level-bound", "2")
    assert code == 0
    assert report["outputs"]["report"]["levels"]["2"]["convolved_points"] == [9]


def test_check_suite_filtered(capsys):
    code, report = run_cli(capsys, "check-suite", "--only",
                           "factorization-unique,segal-condition")
    assert code == 0
    tags = {v["tag"] for v in report["verdicts"]}
    assert tags == {"factorization-unique", "segal-condition"}


def test_check_suite_unknown_tag_exits_three(capsys):
    code, report = run_cli(capsys, "check-suite", "--only",
                           "factorization-unique,yonda")
    assert code == 3
    # refused before any law ran: the only verdict is the input error
    assert [v["tag"] for v in report["verdicts"]] == ["input"]
    witness = report["verdicts"][0]["witness"]
    assert "yonda" in witness and "yoneda" in witness


def _arrow_file(tmp_path, name, m):
    p = tmp_path / name
    p.write_text(jsonio.canonical_dumps({
        "source": jsonio.simpset_to_json(m.source),
        "target": jsonio.simpset_to_json(m.target),
        "map": jsonio.simpmap_to_json(m),
    }))
    return str(p)


def test_pushout_product_of_non_mono_fails_with_witness(tmp_path, capsys):
    d1 = standard_simplex(1)
    collapse = _arrow_file(tmp_path, "f.json", constant_map(d1, standard_point(), "0"))
    edge = _arrow_file(tmp_path, "g.json", inclusion_map(boundary(1), d1))
    code, report = run_cli(capsys, "pushout-product", collapse, edge)
    assert code == 1
    verdict = report["verdicts"][0]
    assert verdict["status"] == "fails" and verdict["checked"] == "mono=False"
    # the witness is two distinct simplices of one dimension with one image
    w = verdict["witness"]
    n, (a, b) = w["dim"], [jsonio.ref_from_json(r) for r in w["simplices"]]
    assert a != b
    src = jsonio.simpset_from_json(report["outputs"]["source"])
    dst = jsonio.simpset_from_json(report["outputs"]["target"])
    pp = jsonio.simpmap_from_json(report["outputs"]["map"], src, dst)
    assert pp(a, n) == pp(b, n) == jsonio.ref_from_json(w["image"])


def test_pushout_product_refuses_an_image_word_out_of_normal_form(tmp_path, capsys):
    # the edge of f goes to s_1 of a vertex, a word beyond the edge's
    # dimension: the loader names the word rather than a later construction
    # failing on it
    d1 = standard_simplex(1)
    path = _arrow_file(tmp_path, "f.json", constant_map(d1, standard_point(), "0"))
    with open(path) as fh:
        blob = json.load(fh)
    blob["map"]["assignment"]["1"]["01"]["deg"] = [1]
    with open(path, "w") as fh:
        fh.write(jsonio.canonical_dumps(blob))
    edge = _arrow_file(tmp_path, "g.json", inclusion_map(boundary(1), d1))
    code, report = run_cli(capsys, "pushout-product", path, edge)
    assert code == 3
    verdict = report["verdicts"][0]
    assert verdict["tag"] == "input"
    assert "has degeneracy word [1]; expected strictly decreasing entries in 0..0" in \
        verdict["witness"]


def _option(dest):
    return "--" + dest.replace("_", "-")


def _required(command):
    """The flags the command table makes required for a command, each
    given the value 1."""
    return [arg for dest in COMMANDS[command].flags if FLAGS[dest].get("required")
            for arg in (_option(dest), "1")]


# every command that reads JSON files, with the flags it requires; "A" is an input
FILE_COMMANDS = [[name, *["A"] * len(row.kinds), *_required(name)]
                 for name, row in sorted(COMMANDS.items()) if row.kinds]


@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=lambda argv: argv[0])
@pytest.mark.parametrize("blob", ["[1, 2]", "null"])
def test_non_object_input_exits_three(tmp_path, capsys, argv, blob):
    p = tmp_path / "bad.json"
    p.write_text(blob)
    code, report = run_cli(capsys, *[str(p) if a == "A" else a for a in argv])
    assert code == 3
    assert report["verdicts"][0]["tag"] == "input"


@pytest.mark.parametrize("argv", FILE_COMMANDS, ids=lambda argv: argv[0])
def test_missing_input_file_exits_three(capsys, argv):
    code, report = run_cli(capsys, *[a for a in argv if a != "A"])
    assert code == 3
    verdict = report["verdicts"][0]
    assert verdict["tag"] == "input"
    assert f"{argv[0]} takes {argv.count('A')} input file" in verdict["witness"]


def test_absent_input_path_exits_three(tmp_path, capsys):
    code, report = run_cli(capsys, "tau1", str(tmp_path / "absent.json"))
    assert code == 3
    assert report["verdicts"][0]["tag"] == "input"


# commands whose loaders read a simplicial set first
SIMPSET_COMMANDS = [argv for argv in FILE_COMMANDS
                    if COMMANDS[argv[0]].kinds[0] in ("simpset", "marked")]


@pytest.mark.parametrize("argv", SIMPSET_COMMANDS, ids=lambda argv: argv[0])
def test_nested_malformed_input_exits_three(tmp_path, capsys, argv):
    p = tmp_path / "bad.json"
    p.write_text('{"dim_bound": 1, "cells": {"0": [5]}}')
    code, report = run_cli(capsys, *[str(p) if a == "A" else a for a in argv])
    assert code == 3
    assert report["verdicts"][0]["tag"] == "input"


# -- wrong-typed nested fields ------------------------------------------------


def _arrow_blob(m):
    return {"source": jsonio.simpset_to_json(m.source),
            "target": jsonio.simpset_to_json(m.target),
            "map": jsonio.simpmap_to_json(m)}


def _relative_blob(base=None):
    base, d1 = base or poset_category(1), standard_simplex(1)
    return {
        "base": jsonio.category_to_json(base),
        "diagram": {
            "values": {o: jsonio.simpset_to_json(d1) for o in base.objects},
            "arrows": {f: jsonio.simpmap_to_json(identity_map(d1)) for f in base.arrows},
        },
    }


def _gamma_relative_blob(level=2):
    """The Z/2 family on levels 0..level (2 by default) as a diagram over
    the dense based-set base: an input `sm-check` accepts
    (tests/test_cli_commands.py runs it with --k 1 --l 1), so the fuzz's
    draws of that command start from one."""
    m = z2_monoid_space(level)
    return {
        "base": jsonio.category_to_json(gamma_subcategory(level)),
        "diagram": {
            "values": {str(n): jsonio.simpset_to_json(m.value(n)) for n in m.base.objects},
            "arrows": {m.base.arrow_name(f): jsonio.simpmap_to_json(m.action(f))
                       for f in m.base.arrow_ids()},
        },
    }


# command options, and the valid input files it reads
VALID_INPUTS = {
    "relative-nerve": ([], [_relative_blob()]),
    "hom-marked": (["--dim-bound", "1"], [
        jsonio.marked_to_json(mark(standard_point(), "flat")),
        jsonio.marked_to_json(mark(standard_simplex(1), "sharp"))]),
    "pushout-product": (
        [], [_arrow_blob(inclusion_map(boundary(1), standard_simplex(1)))] * 2),
    "segal-check": (
        ["--k", "1", "--l", "1"], [jsonio.tabulated_to_json(z2_monoid_space(2))]),
    "convolve": (["--level-bound", "1"], [jsonio.presented_to_json(gamma_rep(1))] * 2),
    "tau1": ([], [jsonio.simpset_to_json(nerve(walking_iso_category(), bound=2))]),
}


def _run_quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


def _run_with(command, blobs):
    options, _ = VALID_INPUTS[command]
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, blob in enumerate(blobs):
            paths.append(os.path.join(tmp, f"in{k}.json"))
            with open(paths[-1], "w") as fh:
                fh.write(jsonio.canonical_dumps(blob))
        return _run_quiet([command, *paths, *options])


def _replaced(blob, path, value):
    blob = copy.deepcopy(blob)
    inner = blob
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return blob


@pytest.mark.parametrize("command", sorted(VALID_INPUTS))
def test_valid_inputs_run(command):
    code, _ = _run_with(command, VALID_INPUTS[command][1])
    assert code in (0, 1)


# each of these raised a TypeError or AttributeError in its loader (exit 1)
WRONG_SHAPES = [
    ("relative-nerve", ("base", "objects"), 5),
    ("relative-nerve", ("base", "arrows"), [5]),
    ("relative-nerve", ("base", "compose"), [5]),
    ("relative-nerve", ("diagram",), 5),
    ("hom-marked", ("marked",), 5),
    ("pushout-product", ("map", "assignment"), [{"0": "0"}]),
    ("segal-check", ("values",), 5),
    ("convolve", ("cells",), [5]),
]


@pytest.mark.parametrize("command,path,value", WRONG_SHAPES,
                         ids=[f"{c}:{'.'.join(p)}" for c, p, _ in WRONG_SHAPES])
def test_wrong_typed_nested_field_exits_three(command, path, value):
    blobs = VALID_INPUTS[command][1]
    code, report = _run_with(command, [_replaced(blobs[0], path, value)] + blobs[1:])
    assert code == 3
    assert report["verdicts"][0]["tag"] == "input"


def _fields(blob, path=()):
    """Every nested position of a JSON value, as a key path."""
    items = blob.items() if isinstance(blob, dict) else (
        enumerate(blob) if isinstance(blob, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _fields(value, path + (key,))


def _json_type(v):
    return bool if isinstance(v, bool) else int if isinstance(v, int) else type(v)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_any_wrong_typed_field_exits_three(data):
    command = data.draw(st.sampled_from(sorted(VALID_INPUTS)))
    blobs = list(VALID_INPUTS[command][1])
    k = data.draw(st.integers(0, len(blobs) - 1))
    path = data.draw(st.sampled_from(list(_fields(blobs[k]))))
    old = blobs[k]
    for key in path:
        old = old[key]
    value = data.draw(st.sampled_from(
        [v for v in (5, "x", [5], {"x": 5}) if _json_type(v) != _json_type(old)]))
    blobs[k] = _replaced(blobs[k], path, value)
    code, report = _run_with(command, blobs)
    assert code == 3, (command, path, value)
    assert report["verdicts"][0]["tag"] == "input"


# -- arrow ids that hold the nerve's separator ----------------------------------


@pytest.mark.parametrize("command", ["relative-nerve", "cocart-edges"])
def test_bar_in_an_arrow_id_reads_as_the_original(tmp_path, command):
    # the nerve escapes the "|" that joins a chain of arrow ids, so a base
    # arrow "u|v" names one arrow, as "le01" does
    def run(arrow):
        blob = json.loads(json.dumps(_relative_blob()).replace('"le01"', json.dumps(arrow)))
        assert any(a["id"] == arrow for a in blob["base"]["arrows"])
        path = tmp_path / "in.json"
        path.write_text(jsonio.canonical_dumps(blob))
        code, report = _run_quiet([command, str(path)])
        cells = report["outputs"].get("total") or report["outputs"]["marking"]
        return code, report["verdicts"], {n: len(c) for n, c in cells["cells"].items()}

    barred = run("u|v")
    assert barred[0] == 0 and barred == run("le01")


# -- the refusals of the checks each loader ends with --------------------------


def _edited(blob, edit):
    blob = copy.deepcopy(blob)
    edit(blob)
    return blob


def _diagram_arrow(f, m):
    """The edit that sets the diagram's map at the arrow f to m."""
    def edit(blob):
        blob["diagram"]["arrows"][f] = jsonio.simpmap_to_json(m)
    return edit


_D1 = standard_simplex(1)
ENTRY_REFUSALS = {
    "image-does-not-resolve": (
        "pushout-product", _arrow_blob(inclusion_map(boundary(1), _D1)),
        lambda b: b["map"]["assignment"]["0"].update({"0": "9"}), "does not resolve"),
    "map-breaks-a-face": (
        "pushout-product", _arrow_blob(identity_map(_D1)),
        lambda b: b["map"]["assignment"]["0"].update({"0": "1"}),
        "map does not commute with d1 on '01'"),
    "arrow-meets-a-missing-object": (
        "relative-nerve", _relative_blob(),
        lambda b: b["base"]["arrows"][1].update({"dst": "9"}),
        "arrow 'le01' meets a missing object"),
    "identity-with-wrong-ends": (
        "relative-nerve", _relative_blob(),
        lambda b: b["base"]["identities"].update({"0": "le01"}),
        "identity of '0' has wrong endpoints"),
    "diagram-breaks-an-identity": (
        "relative-nerve", _relative_blob(),
        _diagram_arrow("le00", constant_map(_D1, _D1, "0")),
        "diagram breaks identity at '0'"),
    "diagram-breaks-a-composite": (
        "relative-nerve", _relative_blob(poset_category(2)),
        _diagram_arrow("le02", constant_map(_D1, _D1, "0")),
        "diagram breaks composition at 'le12' o 'le01'"),
    "compose-entry-not-a-triple": (
        "relative-nerve", _relative_blob(),
        lambda b: b["base"]["compose"][0].pop(),
        "expected a composite [g, f, g o f]"),
}


@pytest.mark.parametrize("case", sorted(ENTRY_REFUSALS))
def test_an_input_its_loader_refuses_exits_three(case):
    command, blob, edit, message = ENTRY_REFUSALS[case]
    blobs = [_edited(blob, edit)] + [blob] * (len(COMMANDS[command].kinds) - 1)
    code, report = _run_with(command, blobs)
    assert code == 3
    assert report["verdicts"][0]["tag"] == "input"
    assert message in report["verdicts"][0]["witness"]


# -- out-of-range fields ------------------------------------------------------


# each of these exited 0 with a verdict instead of 3
OUT_OF_RANGE = [
    ("tau1", ("dim_bound",), -1),
    ("tau1", ("cells", "3"), []),
    ("tau1", ("cells", "-1"), []),
    ("convolve", ("cells", 0, "level"), -2),
]


@pytest.mark.parametrize("command,path,value", OUT_OF_RANGE,
                         ids=[f"{c}:{'.'.join(map(str, p))}" for c, p, _ in OUT_OF_RANGE])
def test_out_of_range_field_exits_three(command, path, value):
    blobs = [_replaced(blob, path, value) for blob in VALID_INPUTS[command][1]]
    code, report = _run_with(command, blobs)
    assert code == 3
    assert report["verdicts"][0]["tag"] == "input"


@pytest.mark.parametrize("blob", [
    # an edge above the bound used to be dropped silently
    {"dim_bound": 0, "cells": {"0": [{"id": "a"}, {"id": "b"}],
                               "1": [{"id": "e", "faces": ["a", "b"]}]}},
    {"dim_bound": -1, "cells": {}},
    # s0 s1 a in place of its normal form s1 s0 a
    {"dim_bound": 3, "cells": {"0": [{"id": "a"}], "3": [
        {"id": "t", "faces": [{"base": "a", "deg": [0, 1]}] * 4}]}},
], ids=["cell-above-bound", "negative-bound", "face-word-out-of-normal-form"])
def test_tau1_refuses_out_of_range_simplicial_set(tmp_path, capsys, blob):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(blob))
    code, report = run_cli(capsys, "tau1", str(p))
    assert code == 3
    assert report["verdicts"][0]["tag"] == "input"


def test_tau1_past_its_path_bound_exits_two(tmp_path, capsys):
    # one vertex with three loops: tau1 is free, so it has no end, and the
    # arrow budget must stop the enumeration
    p = tmp_path / "loops.json"
    p.write_text(json.dumps({"dim_bound": 1, "cells": {
        "0": [{"id": "v"}],
        "1": [{"id": f"e{i}", "faces": ["v", "v"]} for i in range(3)]}}))
    code, report = run_cli(capsys, "tau1", str(p))
    assert code == 2
    assert report["verdicts"][0]["tag"] == "resource"


def test_tau1_of_a_long_spine_exits_zero(tmp_path, capsys):
    # 17 edges end to end: tau1 is the poset [17], whose longest arrow is a
    # word of 17 edges
    p = tmp_path / "spine.json"
    p.write_text(json.dumps({"dim_bound": 1, "cells": {
        "0": [{"id": f"v{i:02d}"} for i in range(18)],
        "1": [{"id": f"e{i:02d}", "faces": [f"v{i + 1:02d}", f"v{i:02d}"]}
              for i in range(17)]}}))
    code, report = run_cli(capsys, "tau1", str(p))
    assert code == 0
    assert report["verdicts"][0]["status"] == "holds"
    assert len(report["outputs"]["category"]["arrows"]) == 171


def _blob_file(tmp_path, name, blob):
    p = tmp_path / name
    p.write_text(jsonio.canonical_dumps(blob))
    return str(p)


# (command, input blobs, a negative option): each exited 0, or 2 for the
# budget, reporting the negative bound as if it were in force
NEGATIVE_OPTIONS = [
    ("map-space", ["rep", "z2"], ["--dim-bound", "-1"]),
    ("map-space", ["rep", "z2"], ["--budget", "-5"]),
    ("internal-hom", ["rep", "z2"], ["--level-bound", "-1"]),
    ("convolve", ["rep", "rep"], ["--level-bound", "-1"]),
    ("segal-check", ["z2"], ["--k", "1", "--l", "-1"]),
    ("nelg", [], ["--k", "-1"]),
    ("hom-marked", ["point", "edge"], ["--dim-bound", "-1"]),
    ("rexp", ["d1", "d1"], ["--dim-bound", "-1"]),
    ("hmap", ["d1", "d1"], ["--dim-bound", "-1"]),
]


@pytest.mark.parametrize("command,inputs,options", NEGATIVE_OPTIONS,
                         ids=[f"{c}{o[-2]}" for c, _, o in NEGATIVE_OPTIONS])
def test_negative_option_exits_three(tmp_path, capsys, command, inputs, options):
    blobs = {
        "rep": jsonio.presented_to_json(gamma_rep(1)),
        "z2": jsonio.tabulated_to_json(z2_monoid_space(2)),
        "point": jsonio.marked_to_json(mark(standard_point(), "flat")),
        "edge": jsonio.marked_to_json(mark(standard_simplex(1), "sharp")),
        "d1": jsonio.simpset_to_json(standard_simplex(1)),
    }
    paths = [_blob_file(tmp_path, f"in{k}.json", blobs[name])
             for k, name in enumerate(inputs)]
    code, report = run_cli(capsys, command, *paths, *options)
    assert code == 3
    assert [v["tag"] for v in report["verdicts"]] == ["input"]
    assert f"{options[-2]} must be >= 0" in report["verdicts"][0]["witness"]

def _segal_values(change):
    blob = jsonio.tabulated_to_json(z2_monoid_space(2))
    change(blob["values"])
    return [blob]


@pytest.mark.parametrize("change,message", [
    (lambda values: values.update({"7": values["1"]}), "level 7 of the values"),
    (lambda values: values.pop("1"), "no values at level 1"),
], ids=["extra-level", "missing-level"])
def test_tabulated_level_out_of_range_exits_three(change, message):
    # the extra level loaded and the check ran; the missing one exited 3
    # with the bare witness "1"
    code, report = _run_with("segal-check", _segal_values(change))
    assert code == 3
    assert report["verdicts"][0]["tag"] == "input"
    assert message in report["verdicts"][0]["witness"]


def test_segal_check_refuses_non_functorial_top_level(tmp_path, capsys):
    # z2_monoid_space(3) with the swap (2,1,3) of 3+ acting as the identity;
    # a check of levels <= 2 alone accepts it, and (1,2) and (2,1) hold
    blob = jsonio.tabulated_to_json(z2_monoid_space(3))
    by_table = {tuple(e["map"]["map"]): e for e in blob["action"]
                if e["map"]["src"] == e["map"]["dst"] == 3}
    by_table[(2, 1, 3)]["simp_map"] = by_table[(1, 2, 3)]["simp_map"]
    p = tmp_path / "x.json"
    p.write_text(jsonio.canonical_dumps(blob))
    code, report = run_cli(capsys, "segal-check", str(p), "--k", "1", "--l", "2")
    assert code == 3
    assert report["verdicts"][0]["tag"] == "input"
    assert "not functorial" in report["verdicts"][0]["witness"]


def test_segal_check_refuses_an_identity_that_moves(tmp_path, capsys):
    # the identity of 2+ swaps the two coordinates: malformed input, so
    # exit 3 with the reason, not an AssertionError's traceback
    blob = jsonio.tabulated_to_json(z2_monoid_space(2))
    by_table = {tuple(e["map"]["map"]): e for e in blob["action"]
                if e["map"]["src"] == e["map"]["dst"] == 2}
    by_table[(1, 2)]["simp_map"] = by_table[(2, 1)]["simp_map"]
    p = tmp_path / "x.json"
    p.write_text(jsonio.canonical_dumps(blob))
    code, report = run_cli(capsys, "segal-check", str(p), "--k", "1", "--l", "1")
    assert code == 3
    assert "identity" in report["verdicts"][0]["witness"]


def test_convolve_refuses_a_gluing_arrow_between_wrong_levels(tmp_path, capsys):
    # the first arrow of the glued presentation reads 2+ -> 2+, but its
    # target cell has level 1: this ended in an AssertionError, exit 1
    blob = jsonio.presented_to_json(glued_presentation())
    gamma = blob["glue"][0]["gamma"]
    gamma["src"], gamma["map"] = 2, gamma["map"] + [2]
    p = tmp_path / "glued.json"
    p.write_text(jsonio.canonical_dumps(blob))
    code, report = run_cli(capsys, "convolve", str(p), str(p), "--level-bound", "1")
    assert code == 3
    assert report["verdicts"][0]["tag"] == "input"
    assert "gluing arrow 0 -> 1" in report["verdicts"][0]["witness"]


# -- the parser is built once and shared --------------------------------------

@pytest.mark.parametrize("before", [
    ["nelg", "--k", "1"],  # a command whose level_bound defaults to 2
    ["segal-check", "in.json", "--k", "1", "--l", "1"],  # the global default
    ["factorize"],  # a parse error: --src and --dst are missing
], ids=["after-nelg", "after-segal-check", "after-error"])
def test_cached_parser_parses_like_a_fresh_one(before, capsys):
    parser = build_parser()
    assert build_parser() is parser
    if before == ["factorize"]:
        with pytest.raises(ValueError, match="required: --src, --dst"):
            parser.parse_args(before)
    else:
        parser.parse_args(before)
    for command in sorted(COMMANDS):
        argv = [command, "in.json", *_required(command)]
        assert vars(parser.parse_args(argv)) == \
            vars(build_parser.__wrapped__().parse_args(argv)), command


# -- the command table: unread flags and a command-line fuzz -------------------

# the commands that read each common flag; every other command parses it
# without reading it, and the report still echoes it (see README)
COMMON_READERS = {
    "dim_bound": {"map-space", "internal-hom", "hom-marked", "relative-nerve",
                  "cocart-edges", "nelg", "upsilon", "hom-over-base", "r-plus",
                  "rexp", "hmap"},
    "level_bound": {"convolve", "internal-hom", "semiadd-probe", "nelg", "upsilon",
                    "r-plus"},
    "budget": {"map-space", "internal-hom", "hom-marked", "cocart-edges",
               "hom-over-base", "r-plus", "rexp", "hmap"},
    "tier": {"segal-check", "sm-check"},
    "format": set(),
}


def test_flags_parsed_but_not_read_are_the_pinned_list():
    unread = {(name, dest) for name, row in COMMANDS.items()
              for dest in row.flags if dest not in row.reads}
    expected = {(name, dest) for dest, readers in COMMON_READERS.items()
                for name in COMMANDS if name not in readers}
    assert set(COMMON_READERS) == set(COMMON)
    assert len(expected) == 83
    assert unread == expected | {("check-suite", "corpus")}


# small valid inputs of each loader kind; a diagram over the based-set
# base, which `sm-check` accepts, besides one over [1], which it refuses
KIND_FIXTURES = {
    "presented": [lambda: jsonio.presented_to_json(gamma_rep(1))],
    "tabulated": [lambda: jsonio.tabulated_to_json(z2_monoid_space(2))],
    "simpset": [lambda: jsonio.simpset_to_json(standard_simplex(1))],
    "marked": [lambda: jsonio.marked_to_json(mark(standard_simplex(1), "sharp"))],
    "relative_input": [_relative_blob, _gamma_relative_blob],
    "over_object": [lambda: jsonio.over_object_to_json(nelg(1, 1, dim_cap=1)[0])],
    "arrow": [lambda: _arrow_blob(inclusion_map(boundary(1), standard_simplex(1)))],
}

# the fixtures of a kind that a command draws, where it refuses the others:
# `sm-check` reads only a diagram over the based-set base, so that its draws
# reach the check rather than the refusal
COMMAND_FIXTURES = {("sm-check", "relative_input"): [_gamma_relative_blob]}

# small ranges, so that no draw runs for long; flags with choices draw from them.
# k and l mostly fit the fixtures' levels 0..2 (k + l <= 2), and sometimes
# reach past them, which the input check refuses
SEGAL_INDEX = st.integers(0, 1) | st.integers(0, 3)
FLAG_VALUES = {
    "dim_bound": st.integers(0, 2), "level_bound": st.integers(0, 2),
    "budget": st.integers(0, 100), "k": SEGAL_INDEX, "l": SEGAL_INDEX,
    "src": st.integers(0, 3), "dst": st.integers(0, 3),
    "map": st.lists(st.integers(0, 3), max_size=3).map(lambda t: ",".join(map(str, t))),
    "only": st.lists(st.sampled_from([tag for tag, _ in SUITE] + ["yonda"]),
                     max_size=2).map(",".join),
}


def test_every_loader_kind_has_a_fixture():
    assert {kind for row in COMMANDS.values() for kind in row.kinds} == set(KIND_FIXTURES)


@pytest.fixture(scope="module")
def kind_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("kinds")
    return {kind: [_blob_file(root, f"{kind}{k}.json", make()) for k, make in enumerate(makers)]
            for kind, makers in KIND_FIXTURES.items()}


def _drawn_files(kind_files, name, kind):
    """The fixture files of a kind that the command `name` draws."""
    keep = COMMAND_FIXTURES.get((name, kind), KIND_FIXTURES[kind])
    return [path for make, path in zip(KIND_FIXTURES[kind], kind_files[kind]) if make in keep]


def test_sm_check_draws_only_the_inputs_it_accepts(kind_files):
    # the fuzz leaves out the diagram over [1], which sm-check refuses
    drawn = _drawn_files(kind_files, "sm-check", "relative_input")
    assert drawn
    for path in kind_files["relative_input"]:
        code, _ = _run_quiet(["sm-check", path, "--k", "1", "--l", "1"])
        assert (code == 3) == (path not in drawn), path


def _flag_value(dest):
    spec = FLAGS[dest]
    if dest in FLAG_VALUES:
        return FLAG_VALUES[dest]
    return st.sampled_from(spec.get("choices") or [spec["default"]])


def _nodes(doc, path=()):
    """Each (path, node) of a JSON document, the document itself first."""
    yield path, doc
    if isinstance(doc, list):
        doc = dict(enumerate(doc))
    if isinstance(doc, dict):
        for key, node in doc.items():
            yield from _nodes(node, path + (key,))


# the four semantic rewrites: which nodes each applies to, and the new node
# it makes of one, given the strings of the document and a draw
SEMANTIC = {
    "swap-string": (lambda node: isinstance(node, str),
                    lambda node, strings, data: data.draw(
                        st.sampled_from([t for t in strings if t != node]))),
    "bump-int": (lambda node: isinstance(node, int) and not isinstance(node, bool),
                 lambda node, strings, data: node + data.draw(st.sampled_from([-1, 1]))),
    "unknown-key": (lambda node: isinstance(node, dict),
                    lambda node, strings, data: {**node, "bogus": 0}),
    "copy-item": (lambda node: isinstance(node, list) and node,
                  lambda node, strings, data: node + [data.draw(st.sampled_from(node))]),
}


def _semantic_rewrite(doc, data):
    """doc with one node rewritten in one of the four SEMANTIC ways."""
    nodes = list(_nodes(doc))
    strings = sorted({node for _, node in nodes if isinstance(node, str)})
    sites = {way: [path for path, node in nodes if applies(node)
                   and (way != "swap-string" or len(strings) > 1)]
             for way, (applies, _) in SEMANTIC.items()}
    way = data.draw(st.sampled_from(sorted(w for w, paths in sites.items() if paths)), "way")
    path = data.draw(st.sampled_from(sites[way]), "at")
    rewrite = SEMANTIC[way][1]
    doc = copy.deepcopy(doc)
    if not path:
        return rewrite(doc, strings, data)
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    parent[path[-1]] = rewrite(parent[path[-1]], strings, data)
    return doc


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_any_command_line_exits_with_a_report(kind_files, data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)), "command")
    row = COMMANDS[name]
    paths = [data.draw(st.sampled_from(_drawn_files(kind_files, name, kind)), kind)
             for kind in row.kinds]
    flags = {dest: data.draw(_flag_value(dest), dest) for dest in row.flags
             if dest in ("dim_bound", "level_bound", "budget") or FLAGS[dest].get("required")
             or data.draw(st.booleans())}
    mutations = ["none", "unknown", "stray"]
    mutations += ["drop"] if any(FLAGS[d].get("required") for d in flags) else []
    mutations += ["swap", "semantic"] if paths else []
    mutation = data.draw(st.sampled_from(mutations), "mutation")
    if mutation == "drop":
        del flags[data.draw(st.sampled_from([d for d in flags if FLAGS[d].get("required")]))]
    if mutation == "stray":
        paths.append(data.draw(st.sampled_from(
            sorted(path for files in kind_files.values() for path in files))))
    if mutation == "swap":
        k = data.draw(st.integers(0, len(paths) - 1))
        paths[k] = data.draw(st.sampled_from(
            [path for kind, files in sorted(kind_files.items()) if kind != row.kinds[k]
             for path in files]))
    if mutation == "semantic":
        k = data.draw(st.integers(0, len(paths) - 1))
        with open(paths[k]) as fh:
            doc = _semantic_rewrite(json.load(fh), data)
        paths[k] = os.path.join(os.path.dirname(paths[k]), "semantic.json")
        with open(paths[k], "w") as fh:
            fh.write(jsonio.canonical_dumps(doc))
    argv = [name, *paths, *[a for d, v in flags.items() for a in (_option(d), str(v))]]
    if mutation == "unknown":
        argv.append("--bogus")
    code, report = _run_quiet(argv)
    verdicts = report["verdicts"]
    assert code in (0, 1, 2, 3), argv
    if code == 1:
        assert any(v["status"] == "fails" and "witness" in v for v in verdicts), argv
    if code == 3:
        assert verdicts[-1]["tag"] == "input", argv
    if mutation in ("drop", "unknown", "stray"):
        assert code == 3 and [v["tag"] for v in verdicts] == ["input"], argv
