"""Wiring smoke tests: every command runs end to end on small inputs."""

import json

import pytest

from gammaspace import cli, jsonio
from gammaspace.catcore import FinCat, poset_category, terminal_category, walking_iso_category
from gammaspace.cli import main
from gammaspace.cocart import (
    OverObject, RelativeNerve, RelativeNerveInput, hom_over_base, nelg)
from gammaspace.corpus import z2_monoid_space
from gammaspace.gspace import gamma_rep, semiadditivity_probe
from gammaspace.marked import mark
from gammaspace.nerve import nerve
from gammaspace.shapes import boundary, standard_point, standard_simplex
from gammaspace.simplicial import (
    SimplexRef, SimpMap, constant_map, full_sub_on_edges, identity_map, inclusion_map)
from gammaspace.verdicts import INCONCLUSIVE, Verdict
from test_cli import _gamma_relative_blob


def run_ok(capsys, *argv, expect=0):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == expect, out
    return json.loads(out)


def write(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(jsonio.canonical_dumps(data))
    return str(p)


def test_convolve_and_map_space_and_internal_hom(tmp_path, capsys):
    rep1 = write(tmp_path, "rep1.json", jsonio.presented_to_json(gamma_rep(1)))
    rep2 = write(tmp_path, "rep2.json", jsonio.presented_to_json(gamma_rep(2)))
    report = run_ok(capsys, "convolve", rep1, rep2, "--level-bound", "2")
    assert report["outputs"]["levels"]["2"]["cells"]["0"]
    fam = write(tmp_path, "fam.json", jsonio.tabulated_to_json(z2_monoid_space(2)))
    report = run_ok(capsys, "map-space", rep1, fam, "--dim-bound", "1")
    assert report["outputs"]["space"]["cells"]["0"]
    report = run_ok(capsys, "internal-hom", rep1, fam,
                    "--level-bound", "1", "--dim-bound", "1")
    assert report["outputs"]["hom"]["level_bound"] == 1


def test_normalize_and_mark(tmp_path, capsys):
    fam = write(tmp_path, "fam.json", jsonio.tabulated_to_json(z2_monoid_space(1)))
    report = run_ok(capsys, "normalize", fam)
    assert report["outputs"]["normalized"]["values"]["0"]["cells"]["0"]
    shape = write(tmp_path, "d1.json",
                  jsonio.simpset_to_json(standard_simplex(1)))
    report = run_ok(capsys, "mark", shape, "--kind", "sharp")
    assert report["outputs"]["marked"]["marked"] == ["01"]


def test_hom_marked_command(tmp_path, capsys):
    j = nerve(walking_iso_category(), bound=2)
    x = write(tmp_path, "x.json", jsonio.marked_to_json(mark(standard_point(), "flat")))
    y = write(tmp_path, "y.json", jsonio.marked_to_json(mark(j, "sharp")))
    report = run_ok(capsys, "hom-marked", x, y, "--dim-bound", "1")
    assert report["outputs"]["flat"]["cells"]["0"]


def _walking_iso_over_arrow(tmp_path):
    """The identity diagram of the walking-iso nerve over [1], as a file."""
    base = poset_category(1)
    nw = nerve(walking_iso_category(), bound=2)
    inp = RelativeNerveInput(
        base, {"0": nw, "1": nw},
        {base.identities["0"]: identity_map(nw),
         base.identities["1"]: identity_map(nw),
         "le01": identity_map(nw)},
    ).validate()
    blob = {
        "base": jsonio.category_to_json(base),
        "diagram": {
            "values": {o: jsonio.simpset_to_json(v) for o, v in inp.values.items()},
            "arrows": {f: jsonio.simpmap_to_json(m) for f, m in inp.arrows.items()},
        },
    }
    return write(tmp_path, "rn.json", blob)


def test_relative_nerve_and_cocart_and_sm(tmp_path, capsys):
    path = _walking_iso_over_arrow(tmp_path)
    report = run_ok(capsys, "relative-nerve", path, "--dim-bound", "2")
    assert report["verdicts"][0]["status"] == "holds"
    report = run_ok(capsys, "cocart-edges", path, "--dim-bound", "2")
    assert report["outputs"]["cocartesian_edges"]
    # the monoid family as a diagram over the based-set base, the fuzz's
    # input of sm-check in tests/test_cli.py
    gpath = write(tmp_path, "g.json", _gamma_relative_blob())
    report = run_ok(capsys, "sm-check", gpath, "--k", "1", "--l", "1")
    assert report["verdicts"][0]["status"] == "holds"


def test_sm_check_reads_the_levels_off_the_base(tmp_path, capsys):
    # the family's levels are those of its based-set base: over the level-2
    # base, --k 0 --l 3 asks for level 3 and is refused at input, whatever
    # level count the file writes beside it (one that said 3 once read a
    # level the file lacks and exited 4 on a KeyError)
    blob = {**_gamma_relative_blob(), "gamma_levels": 3}
    report = run_ok(capsys, "sm-check", write(tmp_path, "g.json", blob),
                    "--k", "0", "--l", "3", expect=3)
    [verdict] = report["verdicts"]
    assert (verdict["tag"], verdict["witness"]) == ("input", "levels beyond bound")
    # a base that is not a based-set subcategory has no levels
    report = run_ok(capsys, "sm-check", _walking_iso_over_arrow(tmp_path),
                    "--k", "0", "--l", "1", expect=3)
    [verdict] = report["verdicts"]
    assert "only diagrams over a based-set subcategory" in verdict["witness"]


def test_sm_check_refuses_a_diagram_over_a_poset_with_levels_for_objects(tmp_path, capsys):
    # the objects of [4] are "0".."4", as the levels 0..4 of a based-set
    # base would be; telling the two apart by building the dense based-set
    # category on five levels ran into its resource cap (exit 2), where the
    # arrow count alone shows an input the check does not take (exit 3)
    base, pt = poset_category(4), standard_point()
    blob = {"base": jsonio.category_to_json(base), "diagram": {
        "values": {o: jsonio.simpset_to_json(pt) for o in base.objects},
        "arrows": {f: jsonio.simpmap_to_json(identity_map(pt)) for f in base.arrows}}}
    report = run_ok(capsys, "sm-check", write(tmp_path, "p4.json", blob),
                    "--k", "1", "--l", "1", expect=3)
    [verdict] = report["verdicts"]
    assert verdict["tag"] == "input"
    assert "only diagrams over a based-set subcategory" in verdict["witness"]


def _break(base, how):
    """The JSON base with one flaw: a composite changed to another arrow
    with its ends, an entry dropped, an identity swapped for another
    endomap, or an entry's first arrow swapped for one it does not compose
    with."""
    ends = {a["id"]: (a["src"], a["dst"]) for a in base["arrows"]}
    entries = base["compose"]
    if how == "composite-changed":
        k, h2 = next((k, h2) for k, (_, _, h) in enumerate(entries)
                     for h2 in ends if h2 != h and ends[h2] == ends[h])
        entries[k] = entries[k][:2] + [h2]
    elif how == "entry-dropped":
        entries.pop()
    elif how == "identity-wrong":
        ident = base["identities"]["2"]
        base["identities"]["2"] = next(f for f in ends if ends[f] == ("2", "2") and f != ident)
    else:
        _, f, h = entries[0]
        entries[0] = [next(x for x in ends if ends[x][0] != ends[f][1]), f, h]


@pytest.mark.parametrize("how,refusal", [
    ("composite-changed", "associativity fails"), ("entry-dropped", "missing"),
    ("identity-wrong", "unit law fails"), ("stray-pair", "missing")])
def test_a_flawed_level_3_based_set_base_exits_3(tmp_path, capsys, monkeypatch, how, refusal):
    # read without the validation every test category gets on
    # construction, so that the loader alone must refuse the flaw: the
    # base is not recognised as based sets and then fails `FinCat.validate`
    monkeypatch.setattr(FinCat, "__init__", FinCat.__init__.__wrapped__)
    blob = _gamma_relative_blob(3)
    _break(blob["base"], how)
    report = run_ok(capsys, "sm-check", write(tmp_path, "g3.json", blob),
                    "--k", "1", "--l", "1", expect=3)
    [verdict] = report["verdicts"]
    assert verdict["tag"] == "input"
    assert refusal in verdict["witness"]


def test_a_spent_edge_search_prints_no_edges(tmp_path, capsys):
    # a spent search decides no edge, so it lists none, not an empty list
    report = run_ok(capsys, "cocart-edges", _walking_iso_over_arrow(tmp_path),
                    "--dim-bound", "2", "--budget", "5", expect=2)
    assert report["outputs"]["cocartesian_edges"] is None
    assert report["verdicts"][0]["status"] == "inconclusive"


def test_nelg_upsilon_hom_over_base_r_plus(tmp_path, capsys):
    report = run_ok(capsys, "nelg", "--k", "1", "--level-bound", "1",
                    "--dim-bound", "1")
    over_blob = report["outputs"]["over_object"]
    path = write(tmp_path, "over.json", over_blob)
    report = run_ok(capsys, "hom-over-base", path, path, "--dim-bound", "1",
                    "--level-bound", "1")
    assert report["outputs"]["space"]["cells"]["0"]
    # the sharp variant is the flat space's sub-object on the marked edges:
    # for flat Delta[1] over a point, three edges of which none is marked
    d1 = standard_simplex(1).rebound(1)
    over = OverObject(mark(d1, "flat"), constant_map(d1, nerve(terminal_category(), bound=1), "o*"))
    d1_path = write(tmp_path, "d1.json", jsonio.over_object_to_json(over))
    runs = {variant: run_ok(capsys, "hom-over-base", d1_path, d1_path, "--dim-bound", "1",
                            "--variant", variant) for variant in ("flat", "sharp")}
    flat = jsonio.simpset_from_json(runs["flat"]["outputs"]["space"])
    _, mo = hom_over_base(over, over, dim_cap=1)
    sharp = full_sub_on_edges(flat, mo.plus.is_marked)
    assert (flat.cell_count(1), sharp.cell_count(1)) == (3, 0)
    assert runs["sharp"]["outputs"]["space"] == json.loads(jsonio.canonical_dumps(
        jsonio.simpset_to_json(sharp)))
    assert runs["sharp"]["verdicts"][-1]["checked"] == "sharp"
    report = run_ok(capsys, "r-plus", path, "--k", "0", "--level-bound", "1",
                    "--dim-bound", "1")
    assert report["outputs"]["level"]["cells"]["0"]
    report = run_ok(capsys, "upsilon", "--k", "1", "--l", "1",
                    "--level-bound", "2", "--dim-bound", "1")
    assert report["outputs"]["map"]["assignment"]


# each exited 0 with `holds` on an empty or one-point level (nelg, r-plus),
# or ran 24 s into a bare KeyError (upsilon, whose level is k + l = 4)
@pytest.mark.parametrize("argv, level", [
    (["nelg", "--k", "9"], 9),
    (["r-plus", "OVER", "--k", "5"], 5),
    (["upsilon", "--k", "2", "--l", "2"], 4),
], ids=["nelg", "r-plus", "upsilon"])
def test_a_level_beyond_the_level_bound_exits_three(tmp_path, capsys, argv, level):
    over, _, _ = nelg(1, 1, dim_cap=1)
    path = write(tmp_path, "over.json", jsonio.over_object_to_json(over))
    report = run_ok(capsys, *[path if a == "OVER" else a for a in argv], expect=3)
    [verdict] = report["verdicts"]
    assert verdict["tag"] == "input"
    assert f"level {level} lies outside the level bound 0..2" in verdict["witness"]


def test_j_rexp_hmap_tau1_pushout_product(tmp_path, capsys):
    ncx = nerve(walking_iso_category(), bound=2)
    xp = write(tmp_path, "x.json", jsonio.simpset_to_json(ncx))
    ap = write(tmp_path, "a.json", jsonio.simpset_to_json(standard_simplex(1)))
    report = run_ok(capsys, "j", xp)
    assert report["outputs"]["space"]["cells"]["0"]
    report = run_ok(capsys, "rexp", xp, ap, "--dim-bound", "2")
    assert report["outputs"]["space"]["cells"]["0"]
    report = run_ok(capsys, "hmap", ap, xp, "--dim-bound", "2")
    assert report["outputs"]["space"]["cells"]["0"]
    report = run_ok(capsys, "tau1", xp)
    assert len(report["outputs"]["category"]["objects"]) == 2
    incl = inclusion_map(boundary(1), standard_simplex(1))
    fblob = {
        "source": jsonio.simpset_to_json(incl.source),
        "target": jsonio.simpset_to_json(incl.target),
        "map": jsonio.simpmap_to_json(incl),
    }
    fp = write(tmp_path, "f.json", fblob)
    report = run_ok(capsys, "pushout-product", fp, fp)
    assert "mono=True" in report["verdicts"][0]["checked"]


def test_resource_guard_gives_inconclusive_exit(tmp_path, capsys):
    code = main(["nelg", "--k", "1", "--level-bound", "6"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["verdicts"][0]["status"] == "inconclusive"


def test_spent_comparisons_exit_inconclusive_not_failed(tmp_path, capsys, monkeypatch):
    # a fiber comparison or a level iso that ran out of budget refutes nothing
    base = poset_category(1)
    pt = standard_point(bound=2)
    blob = {
        "base": jsonio.category_to_json(base),
        "diagram": {
            "values": {o: jsonio.simpset_to_json(pt) for o in base.objects},
            "arrows": {f: jsonio.simpmap_to_json(identity_map(pt)) for f in base.arrow_ids()},
        },
    }
    path = write(tmp_path, "rn.json", blob)
    spent = Verdict(INCONCLUSIVE, "dims<=2", witness="budget exceeded")
    monkeypatch.setattr(RelativeNerve, "fiber_comparison", lambda self, obj: spent)
    report = run_ok(capsys, "relative-nerve", path, "--dim-bound", "2", expect=2)
    assert report["verdicts"][0]["status"] == "inconclusive"

    def spent_probe(p, level_cap):
        rep = semiadditivity_probe(p, level_cap)
        rep["levels"][1]["iso"] = INCONCLUSIVE
        return rep

    monkeypatch.setattr(cli, "semiadditivity_probe", spent_probe)
    rep1 = write(tmp_path, "rep1.json", jsonio.presented_to_json(gamma_rep(1)))
    report = run_ok(capsys, "semiadd-probe", rep1, "--level-bound", "2", expect=2)
    assert report["verdicts"][0]["status"] == "inconclusive"
