"""Command-line interface: schema, payloads, exit codes, poset output."""
import json
from fractions import Fraction

import pytest

from polyred import FiniteSubset, make_field, roots_of_unity
from polyred.cli import (SetFile, SetFileError, build_poset, emit_set_file,
                         main, parse_set_text)


def _encode_set(F, vals):
    return FiniteSubset(F, [F.from_rational(Fraction(v)) for v in vals]).encode()


def _setfile(tmp_path, order, sets, name="sets.json"):
    F = make_field(order)
    obj = {"cyclotomic_order": order,
           "sets": {k: _encode_set(F, v) for k, v in sets.items()}}
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- set files -------------------------------------------------------------------

def test_parse_and_emit_round_trip(F12):
    text = json.dumps({
        "cyclotomic_order": 12,
        "sets": {"b": _encode_set(F12, [1, 0]), "a": _encode_set(F12, [2])},
    })
    sf = parse_set_text(text)
    assert set(sf.sets) == {"a", "b"}
    emitted = emit_set_file(sf)
    assert emitted.endswith("\n")
    obj = json.loads(emitted)
    assert list(obj["sets"]) == ["a", "b"]  # canonical label order
    assert obj["sets"]["b"][0] == ["0/1", "0/1", "0/1", "0/1"]
    # canonical emission is a fixed point
    assert emit_set_file(parse_set_text(emitted)) == emitted


@pytest.mark.parametrize("text", [
    "[]",
    "{not json",
    '{"sets": {"a": [["0/1","0/1","0/1","0/1"]]}}',
    '{"cyclotomic_order": 0, "sets": {"a": [["0/1"]]}}',
    '{"cyclotomic_order": true, "sets": {"a": [["0/1"]]}}',
    '{"cyclotomic_order": 12, "sets": {}}',
    '{"cyclotomic_order": 12, "sets": {"a": []}}',
    '{"cyclotomic_order": 12, "sets": {"a": [[0]]}}',
    '{"cyclotomic_order": 12, "sets": {"a": [["1/0","0/1","0/1","0/1"]]}}',
    '{"cyclotomic_order": 12, "sets": {"a": [["1/1","0/1"]]}}',
    '{"cyclotomic_order": 12, "sets": {"a": [["1/1","0/1","0/1","0/1"],'
    ' ["1/1","0/1","0/1","0/1"]]}}',
])
def test_parse_rejects_malformed(text):
    with pytest.raises(SetFileError):
        parse_set_text(text)


# -- subcommands -----------------------------------------------------------------

def test_invariant_payload(tmp_path, capsys):
    f = _setfile(tmp_path, 12, {"A": [0, 1, 2]})
    code, out, err = _run(capsys, ["invariant", "-f", f, "A"])
    assert code == 0
    obj = json.loads(out)
    assert obj["n"] == 3
    assert obj["lambdas"] == [["-1/1", "0/1", "0/1", "0/1"]]
    assert "invariant key" in err


def test_equiv_payload(tmp_path, capsys):
    f = _setfile(tmp_path, 12, {"A": [0, 1, 2], "B": [0, 2, 4], "C": [0, 1, 3]})
    code, out, _ = _run(capsys, ["equiv", "-f", f, "A", "B"])
    assert code == 0
    obj = json.loads(out)
    assert obj["equivalent"] is True
    slopes = [w["c"][0] for w in obj["witnesses"]]
    assert slopes == ["-2/1", "2/1"]
    code, out, _ = _run(capsys, ["equiv", "-f", f, "A", "C"])
    assert json.loads(out) == {"equivalent": False, "witnesses": []}


def test_stabilizer_chi_exceptional(tmp_path, capsys):
    f = _setfile(tmp_path, 12, {"A": [0, 1, 2], "P": [0, 1, 3]})
    code, out, _ = _run(capsys, ["stabilizer", "-f", f, "A"])
    obj = json.loads(out)
    assert code == 0 and obj["order"] == 2 and len(obj["maps"]) == 2
    assert obj["y_values"][0][0] in ("1/1", "-1/1")
    code, out, _ = _run(capsys, ["chi", "-f", f, "A"])
    assert code == 0 and json.loads(out) == {"chi": 3}
    code, out, _ = _run(capsys, ["exceptional", "-f", f, "P"])
    assert code == 0 and json.loads(out) == {"exceptional": False}


def test_decompose_payload(tmp_path, capsys):
    f = _setfile(tmp_path, 12, {"A": [0, 1, 2]})
    code, out, _ = _run(capsys, ["decompose", "-f", f, "A"])
    obj = json.loads(out)
    assert code == 0
    assert set(obj) == {"r", "s", "barycenter", "gons", "includes_barycenter",
                        "group_order"}
    assert (obj["r"], obj["s"], obj["includes_barycenter"]) == (2, 1, True)
    assert obj["barycenter"] == ["1/1", "0/1", "0/1", "0/1"]


def test_gen_exceptional_round_trip(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "gen-exceptional", "--field", "12", "-r", "4", "-s", "1",
        "--epsilon-exponent", "3",
        "--base-vertices", json.dumps([["1/1", "0/1", "0/1", "0/1"]]),
        "--second-vertex", json.dumps(["0/1", "0/1", "0/1", "1/1"]),
    ])
    assert code == 0
    obj = json.loads(out)
    assert obj["cyclotomic_order"] == 12 and len(obj["elements"]) == 4
    # feed the generated set back through decompose
    p = tmp_path / "gen.json"
    p.write_text(json.dumps({"cyclotomic_order": 12,
                             "sets": {"G": obj["elements"]}}))
    code, out, _ = _run(capsys, ["decompose", "-f", str(p), "G"])
    got = json.loads(out)
    assert code == 0 and (got["r"], got["s"]) == (4, 1)


def test_bounds_payload(capsys):
    code, out, _ = _run(capsys, ["bounds", "5", "3"])
    assert code == 0 and json.loads(out) == {"m": 5, "n": 3, "gammas": [2]}
    code, out, _ = _run(capsys, ["bounds", "4", "3"])
    assert code == 0 and json.loads(out)["gammas"] == []


def test_reduce_payload(tmp_path, capsys):
    f = _setfile(tmp_path, 12, {"A": [0, 1, -1, 2, -2], "B": [0, 1, 4]})
    code, out, _ = _run(capsys, ["reduce", "-f", f, "A", "B"])
    obj = json.loads(out)
    assert code == 0 and obj["count"] == 1
    r = obj["reductions"][0]
    assert r["degree"] == 2
    assert r["coeffs"] == [["0/1"] * 4, ["0/1"] * 4, ["1/1", "0/1", "0/1", "0/1"]]
    assert len(r["fibers"]) == 3


def test_successors_payload(tmp_path, capsys):
    f = _setfile(tmp_path, 12, {"A": [0, 1, -1, 2, -2]})
    code, out, _ = _run(capsys, ["successors", "-f", f, "A"])
    obj = json.loads(out)
    assert code == 0
    ns = sorted(sc["invariant"]["n"] for sc in obj["successors"])
    assert ns == [1, 3, 5]
    for sc in obj["successors"]:
        if sc["trivial"]:
            assert sc["witness"] == "trivial"
        else:
            assert sc["witness"]["degree"] >= 2
    code, out, _ = _run(capsys, ["successors", "-f", f, "A", "--max-degree", "1"])
    obj = json.loads(out)
    assert code == 0 and all(sc["trivial"] for sc in obj["successors"])


def test_predecessor_payload_and_error(tmp_path, capsys):
    f = _setfile(tmp_path, 4, {"B": [0, 1, 4], "C": [0, 1, 2]})
    code, out, _ = _run(capsys, ["predecessor", "-f", f, "B"])
    obj = json.loads(out)
    assert code == 0
    assert [e[0] for e in obj["elements"]] == ["-2/1", "-1/1", "0/1", "1/1", "2/1"]
    assert [e[0] for e in obj["normalized_target"]] == ["0/1", "1/1", "4/1"]
    code, out, err = _run(capsys, ["predecessor", "-f", f, "C"])
    assert code == 1
    obj = json.loads(out)
    assert obj["error"]["type"] == "ValueError"
    assert "not found in working field" in obj["error"]["message"]
    assert "error:" in err


def test_sigma3_payload(tmp_path, capsys):
    f = _setfile(tmp_path, 12, {"T": [0, 1, 3]})
    code, out, _ = _run(capsys, ["sigma3", "-f", f, "T"])
    obj = json.loads(out)
    assert code == 0
    assert obj["coordinate"][0][0] == "1/1"
    assert obj["coordinate"][1][0] == "50/1029"


def test_vdm_rank_payload(capsys):
    code, out, _ = _run(capsys, [
        "vdm-rank", "--field", "12", "--gamma-plus-1", "6",
        "--s-vec", "[1, 1]",
        "--a-vec", json.dumps([["0/1"] * 4, ["1/1", "0/1", "0/1", "0/1"]]),
    ])
    obj = json.loads(out)
    assert code == 0 and obj["rank"] == 4 and len(obj["rows"]) == 4


# -- poset -----------------------------------------------------------------------

def _mu_file(tmp_path):
    F = make_field(12)
    sets = {f"mu{d}": roots_of_unity(F, d).encode() for d in (1, 2, 3, 4, 6, 12)}
    p = tmp_path / "mu.json"
    p.write_text(json.dumps({"cyclotomic_order": 12, "sets": sets}))
    return str(p)


def test_poset_matches_divisibility(tmp_path, capsys):
    code, out, _ = _run(capsys, ["poset", "-f", _mu_file(tmp_path)])
    obj = json.loads(out)
    assert code == 0
    assert len(obj["nodes"]) == 6
    rel = {(e["source"], e["target"]) for e in obj["relation"]}
    divs = (1, 2, 3, 4, 6, 12)
    want = {(f"mu{a}", f"mu{b}") for a in divs for b in divs
            if a != b and a % b == 0}
    assert rel == want and len(rel) == 12
    edges = {(e["source"], e["target"]) for e in obj["edges"]}
    want_edges = {(f"mu{a}", f"mu{b}") for (a, b) in
                  [(12, 6), (12, 4), (6, 3), (6, 2), (4, 2), (3, 1), (2, 1)]}
    assert edges == want_edges


def test_poset_merges_equivalent_sets(tmp_path, capsys):
    f = _setfile(tmp_path, 12, {"a1": [0, 1, 2], "a2": [0, 2, 4],
                                "z": [0, 1]})
    code, out, _ = _run(capsys, ["poset", "-f", f])
    obj = json.loads(out)
    assert code == 0
    labels = {n["label"]: n for n in obj["nodes"]}
    assert set(labels) == {"a1", "z"}
    assert labels["a1"]["members"] == ["a1", "a2"]
    assert labels["a1"]["chi"] == 3 and labels["a1"]["exceptional"] is True
    assert labels["z"]["chi"] is None
    assert {(e["source"], e["target"]) for e in obj["relation"]} == {("a1", "z")}


def test_poset_edges_witnessed_and_acyclic(tmp_path, capsys):
    """Every relation entry carries a polynomial that re-verifies exactly."""
    from polyred import check_exact_preimage, Poly
    code, out, _ = _run(capsys, ["poset", "-f", _mu_file(tmp_path)])
    obj = json.loads(out)
    assert code == 0
    F = make_field(12)
    sets = {f"mu{d}": roots_of_unity(F, d) for d in (1, 2, 3, 4, 6, 12)}
    rel = {(e["source"], e["target"]) for e in obj["relation"]}
    for e in obj["relation"]:
        # antisymmetry of a transitively closed relation rules out cycles
        assert e["source"] != e["target"]
        assert (e["target"], e["source"]) not in rel
        P = Poly(F, [F.element_from_encoding(c) for c in e["witness"]])
        assert P.degree == e["degree"]
        assert check_exact_preimage(P, sets[e["source"]], sets[e["target"]])
    assert {(e["source"], e["target"]) for e in obj["edges"]} <= rel


def test_poset_dot_outputs(tmp_path, capsys):
    f = _mu_file(tmp_path)
    dotfile = tmp_path / "g.dot"
    code, out, _ = _run(capsys, ["poset", "-f", f, "--dot", str(dotfile)])
    assert code == 0
    assert "nodes" in json.loads(out)  # JSON still on stdout
    text = dotfile.read_text()
    assert text.startswith("digraph") and '"mu12" -> "mu6"' in text
    assert '"mu12" [label="mu12 (n=12, chi=' in text
    code, out, _ = _run(capsys, ["poset", "-f", f, "--dot", "-"])
    assert code == 0
    assert out.startswith("digraph")  # DOT replaces the JSON payload


# -- exit codes ------------------------------------------------------------------

def test_missing_label_is_domain_error(tmp_path, capsys):
    f = _setfile(tmp_path, 12, {"A": [0, 1, 2]})
    code, out, _ = _run(capsys, ["invariant", "-f", f, "nope"])
    assert code == 1
    assert "no set labeled" in json.loads(out)["error"]["message"]


def test_unreadable_file_is_domain_error(tmp_path, capsys):
    code, out, _ = _run(capsys, ["invariant", "-f", str(tmp_path / "x.json"), "A"])
    assert code == 1
    assert json.loads(out)["error"]["type"] == "SetFileError"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["invariant"])
    assert exc.value.code == 2
    capsys.readouterr()
