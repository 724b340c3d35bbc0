"""Command-line interface: schema, payloads, exit codes, poset output."""
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polyred
from polyred import FiniteSubset, make_field, roots_of_unity
from polyred.cli import (MAX_BOUNDS_M, MAX_ORDER, MAX_VDM_COLUMNS, SetFile, SetFileError,
                         build_parser, build_poset, emit_set_file, main, parse_set_text)

DATA = Path(__file__).parent / "data"


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
    pytest.param('{"cyclotomic_order": 12, "sets": {"a": ' + "[" * 100_000
                 + "]" * 100_000 + "}}", id="deep"),
])
def test_parse_rejects_malformed(text):
    with pytest.raises(SetFileError):
        parse_set_text(text)


def test_set_errors_name_the_label():
    for bad in ([[0]], [["1/1"]], [["1/x", "0/1"]], "x", []):
        text = json.dumps({"cyclotomic_order": 4,
                           "sets": {"ok": [["1/1", "0/1"]], "bad": bad}})
        with pytest.raises(SetFileError, match='set "bad"'):
            parse_set_text(text)


def test_cyclotomic_order_is_bounded(tmp_path, capsys):
    """Orders above MAX_ORDER are refused before any field is built, from a
    set file and from --field alike: exit 1 with a JSON SetFileError."""
    assert MAX_ORDER == 512
    top = parse_set_text(json.dumps(
        {"cyclotomic_order": 512, "sets": {"a": [["1/1"] + ["0/1"] * 255]}}))
    assert top.field.degree == 256
    with pytest.raises(SetFileError, match="exceeds the limit 512"):
        parse_set_text('{"cyclotomic_order": 513, "sets": {"a": [["1/1"]]}}')
    p = tmp_path / "big.json"
    p.write_text('{"cyclotomic_order": 1024, "sets": {"a": [["1/1"]]}}')
    for argv in (["invariant", "-f", str(p), "a"],
                 ["vdm-rank", "--field", "1024", "--gamma-plus-1", "2",
                  "--s-vec", "[1]", "--a-vec", "[]"],
                 ["gen-exceptional", "--field", "1024", "-r", "2", "-s", "1",
                  "--epsilon-exponent", "512", "--base-vertices", "[]",
                  "--second-vertex", "[]"]):
        code, out, _ = _run(capsys, argv)
        err = json.loads(out)["error"]
        assert code == 1 and err["type"] == "SetFileError"
        assert "exceeds the limit 512" in err["message"]


_VDM = ["vdm-rank", "--field", "4", "--gamma-plus-1", "3"]
_GEN = ["gen-exceptional", "--field", "4", "-r", "2", "-s", "1",
        "--epsilon-exponent", "2"]


@pytest.mark.parametrize("argv, flag", [
    (_VDM + ["--s-vec", "[1", "--a-vec", "[]"], "--s-vec"),
    (_VDM + ["--s-vec", "[1]", "--a-vec", "{"], "--a-vec"),
    (_VDM + ["--s-vec", "[1]", "--a-vec", "[1]"], "--a-vec"),
    (_VDM + ["--s-vec", "[1]", "--a-vec", '[["1/1"]]'], "--a-vec"),
    (_GEN + ["--base-vertices", '["1/1", "0/1"]',
             "--second-vertex", '["0/1", "0/1"]'], "--base-vertices"),
    (_GEN + ["--base-vertices", '[["1/1", "0/1"]]',
             "--second-vertex", '[["0/1", "0/1"]]'], "--second-vertex"),
    (_GEN + ["--base-vertices", '[["1/1", "0/1"]]',
             "--second-vertex", '["0/1", "1/0"]'], "--second-vertex"),
    (_VDM + ["--s-vec", "[true, false]", "--a-vec", "[]"], "--s-vec"),
    # nested past the JSON decoder's recursion limit on every version
    pytest.param(_VDM + ["--s-vec", "[" * 100_000 + "]" * 100_000, "--a-vec", "[]"],
                 "--s-vec", id="deep---s-vec"),
])
def test_argument_errors_name_the_flag(argv, flag, capsys):
    code, out, _ = _run(capsys, argv)
    err = json.loads(out)["error"]
    assert code == 1 and err["type"] == "SetFileError"
    assert err["message"].startswith(flag)


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


def test_bounds_limit(capsys):
    """M above MAX_BOUNDS_M is refused before the window is built; at the
    limit with N = 2 the window holds M/2 degrees."""
    m = MAX_BOUNDS_M
    code, out, _ = _run(capsys, ["bounds", str(m), "2"])
    assert code == 0 and json.loads(out)["gammas"] == list(range(m // 2, m))
    code, out, err = _run(capsys, ["bounds", str(m + 1), "2"])
    assert code == 1 and json.loads(out) == {"error": {
        "type": "SetFileError",
        "message": f"m = {m + 1} exceeds the limit {m}"}}
    assert err.startswith("error: ")


def test_vdm_rank_column_limit(capsys):
    """A column count above MAX_VDM_COLUMNS is refused before any matrix is
    built; at the limit a one-row matrix has rank 1."""
    k = MAX_VDM_COLUMNS

    def argv(cols):
        return ["vdm-rank", "--field", "4", "--gamma-plus-1", str(cols),
                "--s-vec", "[0]", "--a-vec", '[["2/1", "0/1"]]']
    code, out, _ = _run(capsys, argv(k))
    assert code == 0 and json.loads(out)["rank"] == 1
    code, out, err = _run(capsys, argv(k + 1))
    assert code == 1 and json.loads(out) == {"error": {
        "type": "SetFileError",
        "message": f"--gamma-plus-1 = {k + 1} exceeds the limit {k}"}}
    assert err.startswith("error: ")


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


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_successors_rejects_max_degree_below_one(tmp_path, capsys, cap):
    f = _setfile(tmp_path, 12, {"A": [0, 1, 3]})
    code, out, _ = _run(capsys, ["successors", "-f", f, "A", "--max-degree", cap])
    err = json.loads(out)["error"]
    assert code == 1 and err["type"] == "ValueError" and "max_degree" in err["message"]


def test_successors_stdout_pinned(tmp_path, capsys):
    """Witness coefficients and fibers of `successors` on mu_4 with 0, byte for byte."""
    F = make_field(4)
    S = FiniteSubset(F, [F.zero()] + list(roots_of_unity(F, 4)))
    p = tmp_path / "mu4_0.json"
    p.write_text(json.dumps({"cyclotomic_order": 4, "sets": {"A": S.encode()}}))
    code, out, _ = _run(capsys, ["successors", "-f", str(p), "A"])
    assert code == 0
    assert out == (DATA / "successors_mu4_0.json").read_text()


GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[f"{i}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)])
def test_cli_golden(case, capsys):
    """Every subcommand on tests/data/cli_fixture.json (Q(zeta_4)): exit code,
    stdout and stderr byte for byte as in tests/data/cli_golden.json."""
    fixture = str(DATA / "cli_fixture.json")
    argv = [fixture if a == "{file}" else a for a in case["argv"]]
    assert _run(capsys, argv) == (case["exit"], case["stdout"], case["stderr"])


def test_predecessor_payload_and_error(tmp_path, capsys):
    f = _setfile(tmp_path, 4, {"B": [0, 1, 4], "C": [0, 1, 2]})
    code, out, _ = _run(capsys, ["predecessor", "-f", f, "B"])
    obj = json.loads(out)
    assert code == 0
    assert [e[0] for e in obj["elements"]] == ["-2/1", "-1/1", "0/1", "1/1", "2/1"]
    assert [e[0] for e in obj["normalized_target"]] == ["0/1", "1/1", "4/1"]
    # {1, 2, 5} normalizes to {0, 1, 4}: the same payload
    g = _setfile(tmp_path, 4, {"D": [1, 2, 5], "S": [3]}, name="d.json")
    assert _run(capsys, ["predecessor", "-f", g, "D"])[:2] == (0, out)
    code, out, _ = _run(capsys, ["predecessor", "-f", g, "S"])
    assert code == 1 and "at least 2 elements" in json.loads(out)["error"]["message"]
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


def test_poset_one_stabilizer_per_node(monkeypatch):
    """chi and exceptionality of a node come from one stabilizer search."""
    import polyred.poset
    F = make_field(12)
    calls = []
    search = polyred.poset.stabilizer

    def counting(B):
        calls.append(len(B))
        return search(B)

    monkeypatch.setattr(polyred.poset, "stabilizer", counting)
    report = build_poset({f"mu{d}": roots_of_unity(F, d) for d in (3, 4, 6, 12)})
    assert sorted(calls) == [3, 4, 6, 12]
    for node in report.nodes:
        n = node["n"]  # mu_n is stabilized by its n rotations
        assert node["chi"] == math.factorial(n) // n
        assert node["exceptional"] is True
    with pytest.raises(ValueError):
        build_poset({})


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


def test_poset_dot_escapes_labels(tmp_path, capsys):
    """A quote or backslash in a label is escaped in node IDs, edge endpoints
    and label text, so the DOT stays valid."""
    f = _setfile(tmp_path, 4, {'a"b': [0, 1, -1], "c\\d": [0, 1]})
    code, out, _ = _run(capsys, ["poset", "-f", f, "--dot", "-"])
    assert code == 0
    assert out == ('digraph reducibility {\n'
                   '  rankdir=TB;\n'
                   '  "a\\"b" [label="a\\"b (n=3, chi=3)"];\n'
                   '  "c\\\\d" [label="c\\\\d (n=2)"];\n'
                   '  "a\\"b" -> "c\\\\d" [label="deg 2"];\n'
                   '}\n')


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


# Python 3.13's argparse renders help and usage differently (choices and
# "...", invalid-choice quotes, "-f, --file FILE", where usage lines wrap), so
# it has its own golden, captured the same way.
USAGE_GOLDEN_FILE = ("cli_usage_golden_3_13.json" if sys.version_info >= (3, 13)
                     else "cli_usage_golden.json")
USAGE_GOLDEN = json.loads((DATA / USAGE_GOLDEN_FILE).read_text())


@pytest.mark.parametrize("case", USAGE_GOLDEN,
                         ids=[" ".join(c["argv"]) or "(none)" for c in USAGE_GOLDEN])
def test_usage_text_pinned(case, capsys, monkeypatch):
    """Help and usage errors, top level and per command: exit code, stdout and
    stderr byte for byte as in the USAGE_GOLDEN_FILE under tests/data, which
    was captured from a parser holding all the subparsers, at 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(case["argv"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def test_parser_built_once_per_process(capsys, monkeypatch):
    """main reuses one parser for every call, and after a successful command
    in the same process each help and usage case still matches the golden
    bytes."""
    build_parser.cache_clear()
    assert build_parser() is build_parser()
    assert _run(capsys, ["bounds", "10", "3"])[0] == 0
    assert build_parser.cache_info().misses == 1
    monkeypatch.setenv("COLUMNS", "80")
    for case in USAGE_GOLDEN:
        with pytest.raises(SystemExit) as exc:
            main(case["argv"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out, err) == (case["exit"], case["stdout"], case["stderr"])
    assert build_parser.cache_info().misses == 1


def _console(argv):
    """polyred run as its console script does, in a fresh interpreter."""
    src = str(Path(polyred.__file__).resolve().parents[1])
    env = {**os.environ, "COLUMNS": "80",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    entry = "import sys; from polyred.cli import main; sys.exit(main())"
    return subprocess.run([sys.executable, "-c", entry, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_console_entry_point(capsys):
    """One call per process: help and a usage error give the golden bytes, and
    a command prints what the in-process call prints."""
    golden = {tuple(c["argv"]): (c["exit"], c["stdout"], c["stderr"])
              for c in USAGE_GOLDEN}
    for argv in (["--help"], ["invariant"]):
        done = _console(argv)
        assert (done.returncode, done.stdout, done.stderr) == golden[tuple(argv)]
    assert golden[("--help",)][0] == 0 and golden[("invariant",)][0] == 2
    done = _console(["bounds", "10", "3"])
    assert (done.returncode, done.stdout, done.stderr) == _run(capsys, ["bounds", "10", "3"])
