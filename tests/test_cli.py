import ast
import json
import pathlib
import subprocess
import sys

import pytest

import ssekit
from ssekit import (
    EdgeFunction,
    NonnegIntMatrix,
    graph_from_matrix,
    serialize_graph,
    witness_to_json_obj,
)
from ssekit.cli import main
from ssekit.graphs import parse_graph_with_weights
from ssekit.sse import witness_from_json_obj


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def files(tmp_path, fork, loop_feed, fan, two_loops):
    e1, e2, e3, w = fork
    g_loop, f_loop, spec_loop = loop_feed
    g_fan, f_fan, spec_fan = fan
    tl_e1, tl_e2, tl_e3, tl_w, tl_bad, tl_good = two_loops
    out = {
        "fork_e1": _write(tmp_path / "fork_e1.graph", serialize_graph(e1)),
        "fork_e2": _write(tmp_path / "fork_e2.graph", serialize_graph(e2)),
        "fork_e3": _write(tmp_path / "fork_e3.graph", serialize_graph(e3)),
        "fork_w": _write(tmp_path / "fork.witness", json.dumps(witness_to_json_obj(w))),
        "loop": _write(tmp_path / "loop.graph", serialize_graph(g_loop)),
        "loop_f": _write(tmp_path / "loop_f.graph", serialize_graph(g_loop, f_loop)),
        "loop_spec": _write(tmp_path / "loop.spec", json.dumps(spec_loop.to_json_obj())),
        "fan": _write(tmp_path / "fan.graph", serialize_graph(g_fan)),
        "fan_f": _write(tmp_path / "fan_f.graph", serialize_graph(g_fan, f_fan)),
        "fan_spec": _write(tmp_path / "fan.spec", json.dumps(spec_fan.to_json_obj())),
        "tl_e1": _write(tmp_path / "tl_e1.graph", serialize_graph(tl_e1)),
        "tl_e2": _write(tmp_path / "tl_e2.graph", serialize_graph(tl_e2)),
        "tl_e3": _write(tmp_path / "tl_e3.graph", serialize_graph(tl_e3)),
        "tl_w": _write(tmp_path / "tl.witness", json.dumps(witness_to_json_obj(tl_w))),
        "tl_bad": _write(tmp_path / "tl_bad.graph", serialize_graph(tl_e2, tl_bad)),
        "tl_good": _write(tmp_path / "tl_good.graph", serialize_graph(tl_e2, tl_good)),
        "empty": _write(tmp_path / "empty.graph", '{"vertices": [], "edges": []}'),
        "sides": _write(
            tmp_path / "tl.sides",
            json.dumps(
                {
                    "side1": list(tl_w.side1),
                    "side2": list(tl_w.side2),
                    "e21": list(tl_w.e21),
                    "e12": list(tl_w.e12),
                    "vmap1": dict(tl_w.vmap1),
                    "vmap2": dict(tl_w.vmap2),
                }
            ),
        ),
        "mat_a": _write(tmp_path / "a.matrix", json.dumps({"entries": [[2]]})),
        "mat_b": _write(tmp_path / "b.matrix", json.dumps({"entries": [[1, 1], [1, 1]]})),
        "mat_r": _write(tmp_path / "r.matrix", json.dumps({"rows": ["0"], "cols": ["0", "1"], "entries": [[1, 1]]})),
        "mat_s": _write(tmp_path / "s.matrix", json.dumps({"rows": ["0", "1"], "cols": ["0"], "entries": [[1], [1]]})),
        "tmp": tmp_path,
    }
    return out


def test_validate_ok(run, files):
    code, out, _ = run("validate", files["fork_e1"])
    assert code == 0
    assert json.loads(out) == {
        "valid": True,
        "vertices": 4,
        "edges": 3,
        "weighted": False,
    }


def test_validate_empty(run, files):
    code, out, _ = run("validate", files["empty"])
    assert code == 0 and json.loads(out)["valid"]


def test_validate_malformed_is_usage_error(run, files):
    bad = _write(files["tmp"] / "bad.graph", "{nope")
    code, _, err = run("validate", bad)
    assert code == 2
    assert "error:" in err


def test_validate_non_utf8_is_usage_error(run, files):
    bad = files["tmp"] / "utf16.graph"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    code, out, err = run("validate", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "UTF-8" in err
    assert err.count(str(bad)) == 1


def test_deeply_nested_json_is_usage_error(run, files):
    # json.loads gives up on this with a RecursionError, at every decode site
    deep = _write(files["tmp"] / "deep.json", "[" * 200000 + "]" * 200000)
    for argv in (
        ("validate", deep),  # graphs.parse_graph_with_weights
        ("matrix-verify", deep, deep, deep, deep),  # cli._load_json
        ("insplit", files["loop"], "--spec", deep),  # splits.parse_split_spec
        ("sse-verify", files["fork_e1"], files["fork_e2"], "--witness", deep),  # sse.parse_witness
    ):
        code, out, err = run(*argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and "nested too deeply" in err


def test_unexpected_exception_is_internal_error(run, files, monkeypatch):
    import ssekit.cli

    def broken(path):
        raise RuntimeError("boom\non two lines")

    # cmd_validate looks _load_graph up at run time; the cached parser holds
    # cmd_validate itself
    monkeypatch.setattr(ssekit.cli, "_load_graph", broken)
    code, out, err = run("validate", files["fork_e1"])
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: boom on two lines\n"


def test_classify(run, files):
    code, out, _ = run("classify", files["fork_e1"])
    assert code == 0
    assert json.loads(out) == {"sources": ["w"], "sinks": ["y", "z"]}


def test_insplit_with_weights(run, files):
    code, out, _ = run("insplit", files["loop"], "--spec", files["loop_spec"], "--weights", files["loop_f"])
    assert code == 0
    payload = json.loads(out)
    g2, fn = parse_graph_with_weights(json.dumps(payload["e2"]))
    assert fn is not None
    assert {e: fn(e) for e in g2.edge_ids()} == {"a~1": 1, "a~2": 1, "b~": 2}


def test_insplit_witness_round_trip(run, files):
    code, out, _ = run("insplit", files["loop"], "--spec", files["loop_spec"], "--witness")
    assert code == 0
    payload = json.loads(out)
    w = witness_from_json_obj(payload["witness"])
    assert set(payload["phi2"]) == {"a", "b"}
    assert w.side1 == ("v", "w")


def test_insplit_invalid_spec_is_input_error(run, files):
    bad_spec = _write(files["tmp"] / "bad.spec", json.dumps({"kind": "insplit", "parts": {"v": [["a"]]}}))
    code, _, err = run("insplit", files["loop"], "--spec", bad_spec)
    assert code == 2
    assert "miss edges" in err


def test_split_spec_format_error_names_the_file(run, files):
    spec = _write(files["tmp"] / "short.spec", json.dumps({"kind": "insplit"}))
    code, out, err = run("insplit", files["loop"], "--spec", spec)
    assert (code, out, err) == (2, "", f'error: {spec}: split spec needs "kind" and "parts"\n')


def test_split_spec_of_the_other_kind_is_input_error(run, files):
    for command, graph, spec, found in (
        ("insplit", files["fan"], files["fan_spec"], "outsplit"),
        ("outsplit", files["loop"], files["loop_spec"], "insplit"),
    ):
        code, out, err = run(command, graph, "--spec", spec)
        assert (code, out, err) == (2, "", f"error: {spec}: expected an {command} spec, found {found!r}\n")


def test_outsplit_with_weights_and_witness(run, files):
    code, out, _ = run(
        "outsplit", files["fan"], "--spec", files["fan_spec"], "--weights", files["fan_f"], "--witness"
    )
    assert code == 0
    payload = json.loads(out)
    _, fn = parse_graph_with_weights(json.dumps(payload["e2"]))
    assert sorted(fn.weights.values()) == [1, 2, 2, 3, 4]
    assert set(payload["h"].values()) == {0, 1, 2, 3, 4}


def test_sse_verify_pass(run, files):
    code, out, _ = run("sse-verify", files["fork_e1"], files["fork_e2"], "--witness", files["fork_w"])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_sse_verify_negative(run, files, fork):
    e1, e2, e3, w = fork
    broken = w._replace(theta1=dict(w.theta1, e=("X1>y", "x>X1")))
    path = _write(files["tmp"] / "broken.witness", json.dumps(witness_to_json_obj(broken)))
    code, out, _ = run("sse-verify", files["fork_e1"], files["fork_e2"], "--witness", path)
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False and payload["condition3"] is False


def test_theta_search_found(run, files):
    code, out, _ = run(
        "theta-search", files["tl_e1"], files["tl_e2"], files["tl_e3"], "--sides", files["sides"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["theta1"] == {"p": ["c", "a"], "q": ["d", "b"]}


def test_theta_search_absent(run, files, two_loops):
    e1, e2, e3, w, _, _ = two_loops
    import ssekit

    stripped = ssekit.DirectedMultigraph(e3.vertices, tuple(e for e in e3.edges if e.id != "d"))
    path = _write(files["tmp"] / "stripped.graph", serialize_graph(stripped))
    sides = _write(
        files["tmp"] / "stripped.sides",
        json.dumps(
            {
                "side1": list(w.side1),
                "side2": list(w.side2),
                "e21": ["a", "b"],
                "e12": ["c"],
                "vmap1": dict(w.vmap1),
                "vmap2": dict(w.vmap2),
            }
        ),
    )
    code, out, _ = run("theta-search", files["tl_e1"], files["tl_e2"], path, "--sides", sides)
    assert code == 1
    assert json.loads(out)["status"] == "absent"


def test_theta_search_non_string_side_is_usage_error(run, files):
    sides = json.loads(open(files["sides"], encoding="utf-8").read())
    path = _write(files["tmp"] / "nested.sides", json.dumps(dict(sides, side1=[[1]])))
    code, out, err = run(
        "theta-search", files["tl_e1"], files["tl_e2"], files["tl_e3"], "--sides", path
    )
    assert code == 2
    assert out == "" and "error:" in err


def test_theta_search_stray_vmap_key_is_usage_error_like_sse_verify(run, tmp_path):
    e1 = {"vertices": ["a"], "edges": [{"id": "l", "src": "a", "rng": "a"}]}
    e2 = {"vertices": ["b"], "edges": [{"id": "m", "src": "b", "rng": "b"}]}
    e3 = {
        "vertices": ["x", "y", "z"],
        "edges": [{"id": "p", "src": "x", "rng": "y"}, {"id": "q", "src": "y", "rng": "x"}],
    }
    sides = {
        "side1": ["x", "z"], "side2": ["y"], "e21": ["p"], "e12": ["q"],
        "vmap1": {"a": "x", "zz": "z"}, "vmap2": {"b": "y"},
    }
    witness = dict(sides, e3=e3, theta1={"l": ["q", "p"]}, theta2={"m": ["p", "q"]})
    paths = {
        name: _write(tmp_path / name, json.dumps(obj))
        for name, obj in (("e1", e1), ("e2", e2), ("e3", e3), ("sides", sides), ("witness", witness))
    }
    theta = run("theta-search", paths["e1"], paths["e2"], paths["e3"], "--sides", paths["sides"])
    verify = run("sse-verify", paths["e1"], paths["e2"], "--witness", paths["witness"])
    for code, out, err in (theta, verify):
        assert code == 2
        assert out == "" and "vmap1 keyed by unknown side-1 vertex 'zz'" in err


def test_theta_search_partition_errors_name_every_misfit(run, files, fork_misfits):
    # sse-verify prints these as failed conditions 1 and 2 (golden case
    # sse_verify_partition_fail); theta-search cannot pair paths without
    # them and rejects the sides with the same messages in the same order.
    w = fork_misfits
    e3 = _write(files["tmp"] / "misfits.graph", serialize_graph(w.e3))
    sides = {key: list(getattr(w, key)) for key in ("side1", "side2", "e21", "e12")}
    sides.update(vmap1=dict(w.vmap1), vmap2=dict(w.vmap2))
    path = _write(files["tmp"] / "misfits.sides", json.dumps(sides))
    code, out, err = run("theta-search", files["fork_e1"], files["fork_e2"], e3, "--sides", path)
    assert code == 2 and out == ""
    assert err == (
        "error: sides/classes do not satisfy the partition conditions: "
        "a side lists a vertex twice; sides overlap: ['u']; "
        "side members missing from the intermediate graph: ['ghost']; "
        "vertices on neither side: ['s', 't']; "
        "vmap1 misses vertices: ['y', 'z']; vmap1 is not injective; vmap1 is not onto its side; "
        "vmap2 misses vertices: ['X2', 'Y', 'Z']; vmap2 is not injective; vmap2 is not onto its side; "
        "an edge class lists an edge twice; edge classes overlap: ['X2>z']; "
        "class members missing from the intermediate graph: ['bogus']; "
        "edges in neither class: ['s>Y', 'u>x']; "
        "e21 edge 'X2>z' does not run side1 -> side2; "
        "e12 edge 's>y' does not run side2 -> side1\n"
    )


def test_lift_infeasible_exit_1(run, files):
    code, out, _ = run("lift", "--witness", files["tl_w"], "--g", files["tl_bad"])
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "infeasible"
    assert payload["alternating_sum"] == 1
    assert payload["certificate"]


def test_lift_feasible(run, files):
    code, out, _ = run("lift", "--witness", files["tl_w"], "--g", files["tl_good"])
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "feasible"
    h = payload["h"]
    assert h["a"] + h["c"] == 1 and h["b"] + h["d"] == 4


def test_lift_bare_weight_map(run, files):
    bare = _write(
        files["tmp"] / "bare.weights",
        json.dumps({"weights": {"l1": 1, "m12": 2, "m21": 3, "l2": 4}}),
    )
    code, out, _ = run("lift", "--witness", files["tl_w"], "--g", bare)
    assert code == 0


def test_transport_h(run, files, two_loops):
    _, _, e3, _, _, _ = two_loops
    h = _write(
        files["tmp"] / "h.weights", json.dumps({"weights": {"a": 0, "b": 1, "c": 1, "d": 3}})
    )
    code, out, _ = run("transport", "--witness", files["tl_w"], "--h", h)
    assert code == 0
    assert json.loads(out)["g"] == {"l1": 1, "m12": 2, "m21": 3, "l2": 4}


def test_transport_f_phi_side(run, files):
    code, out, _ = run(
        "transport", "--witness", files["tl_w"], "--f",
        _write(files["tmp"] / "f.weights", json.dumps({"weights": {"p": 1, "q": 2}})),
        "--phi-side", "e12",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["h"] == {"a": 0, "b": 0, "c": 1, "d": 2}
    assert payload["g"] == {"l1": 1, "m12": 1, "m21": 2, "l2": 2}


@pytest.mark.parametrize("case", ["insplit", "outsplit", "transport_h", "transport_f", "lift_g", "lift_f"])
def test_weight_files_bind_by_edge_id(run, files, two_loops, case):
    """A graph-form weight file is read by edge id: the same edges and
    vertices listed in another order give byte-identical output, and a file
    missing an edge id is an input error."""
    tl_e1, tl_e2, tl_e3 = two_loops[:3]
    tmp = files["tmp"]

    def weighted(name, graph, weights):
        return _write(tmp / name, serialize_graph(graph, EdgeFunction(graph, weights)))

    tl_f = weighted("tl_f.graph", tl_e1, {"p": 1, "q": 2})
    tl_g = weighted("tl_g.graph", tl_e2, {"l1": 1, "m12": 1, "m21": 2, "l2": 2})
    tl_h = weighted("tl_h.graph", tl_e3, {"a": 0, "b": 1, "c": 1, "d": 3})
    argv, path = {
        "insplit": (["insplit", files["loop"], "--spec", files["loop_spec"], "--weights"], files["loop_f"]),
        "outsplit": (["outsplit", files["fan"], "--spec", files["fan_spec"], "--witness", "--weights"], files["fan_f"]),
        "transport_h": (["transport", "--witness", files["tl_w"], "--h"], tl_h),
        "transport_f": (["transport", "--witness", files["tl_w"], "--phi-side", "e21", "--f"], tl_f),
        "lift_g": (["lift", "--witness", files["tl_w"], "--g"], tl_g),
        "lift_f": (["lift", "--witness", files["tl_w"], "--g", tl_g, "--f"], tl_f),
    }[case]
    obj = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    obj["vertices"].reverse()
    obj["edges"].reverse()
    reordered = _write(tmp / "reordered.graph", json.dumps(obj))
    obj["edges"].pop()
    missing = _write(tmp / "missing.graph", json.dumps(obj))
    code, out, err = run(*argv, path)
    assert (code, err) == (0, "")
    assert run(*argv, reordered) == (0, out, "")
    code, out, err = run(*argv, missing)
    assert (code, out) == (2, "") and "weight map misses edges" in err


def test_broken_side2_witness_is_usage_error(run, files, broken_two_loops):
    h = _write(files["tmp"] / "h.weights", json.dumps({"weights": {"a": 0, "b": 1, "c": 1, "d": 3}}))
    for name, broken, message in broken_two_loops:
        w = _write(files["tmp"] / f"{name}.witness", json.dumps(witness_to_json_obj(broken)))
        for argv in (("transport", "--witness", w, "--h", h), ("lift", "--witness", w, "--g", files["tl_good"])):
            code, out, err = run(*argv)
            assert (code, out, err) == (2, "", f"error: {message}\n"), (name, argv[0])


def test_witness_format_errors_name_the_file(run, files):
    w = _write(files["tmp"] / "short.witness", json.dumps({"e3": {"vertices": [], "edges": []}}))
    for argv in (
        ("sse-verify", files["fork_e1"], files["fork_e2"], "--witness", w),
        ("lift", "--witness", w, "--g", files["tl_good"]),
        ("transport", "--witness", w, "--h", files["tl_good"]),
        ("export", w, "--dot"),
    ):
        code, out, err = run(*argv)
        assert (code, out, err) == (2, "", f'error: {w}: witness needs a "side1" key\n'), argv[0]


def test_each_input_file_is_read_once(run, files, monkeypatch):
    import ssekit.cli

    reads = []

    def counting_read(path):
        reads.append(path)
        return read(path)

    read = ssekit.cli._read
    monkeypatch.setattr(ssekit.cli, "_read", counting_read)
    for argv in (
        ("export", files["tl_w"], "--dot"),
        ("export", files["loop_f"], "--dot"),
        ("insplit", files["loop"], "--spec", files["loop_spec"], "--weights", files["loop_f"]),
    ):
        reads.clear()
        code, _, _ = run(*argv)
        assert code == 0
        assert sorted(reads) == sorted(set(reads)), argv[0]


def test_transport_f_requires_phi_side(run, files):
    f = _write(files["tmp"] / "f2.weights", json.dumps({"weights": {"p": 1, "q": 2}}))
    code, _, err = run("transport", "--witness", files["tl_w"], "--f", f)
    assert (code, err) == (2, "error: --f needs --phi-side\n")


def test_matrix_verify(run, files):
    code, out, _ = run("matrix-verify", files["mat_a"], files["mat_b"], files["mat_r"], files["mat_s"])
    assert code == 0
    assert json.loads(out) == {"equivalent": True}


def test_matrix_verify_false_exit_1(run, files):
    bad_b = _write(files["tmp"] / "bad_b.matrix", json.dumps({"entries": [[1, 0], [0, 1]]}))
    code, out, _ = run("matrix-verify", files["mat_a"], bad_b, files["mat_r"], files["mat_s"])
    assert code == 1
    assert json.loads(out) == {"equivalent": False}


def test_matrix_format_error_names_the_file(run, files):
    bad = _write(files["tmp"] / "rows.matrix", json.dumps({"rows": []}))
    for argv in (
        ("matrix-search", files["mat_a"], bad),
        ("matrix-verify", files["mat_a"], files["mat_b"], bad, files["mat_s"]),
    ):
        code, out, err = run(*argv)
        assert (code, out, err) == (2, "", f'error: {bad}: matrix needs an "entries" key\n'), argv[0]


def test_weight_map_error_names_the_file(run, files):
    """A weight file that does not fit its graph is named in the error, so
    ``lift --g a --f b`` says which of the two files is bad."""
    tmp = files["tmp"]
    good_f = _write(tmp / "f.weights", json.dumps({"weights": {"p": 1, "q": 2}}))
    empty = _write(tmp / "empty.weights", json.dumps({"weights": {}}))
    boolean = _write(tmp / "bool.weights", json.dumps({"weights": {"p": True, "q": 1}}))
    for g, f, bad, message in (
        (files["tl_good"], empty, empty, "weight map misses edges: ['p', 'q']"),
        (files["tl_good"], boolean, boolean, "weight of edge 'p' is not an integer: True"),
        (files["tl_good"], files["tl_good"], files["tl_good"], "weight map misses edges: ['p', 'q']"),
        (empty, good_f, empty, "weight map misses edges: ['l1', 'l2', 'm12', 'm21']"),
    ):
        code, out, err = run("lift", "--witness", files["tl_w"], "--g", g, "--f", f)
        assert (code, out, err) == (2, "", f"error: {bad}: {message}\n")


def test_matrix_search_found(run, files):
    code, out, _ = run("matrix-search", files["mat_a"], files["mat_b"], "--bound", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["r"]["entries"] == [[1, 1]]
    assert payload["s"]["entries"] == [[1], [1]]


def test_matrix_search_absent(run, files):
    b3 = _write(files["tmp"] / "b3.matrix", json.dumps({"entries": [[3]]}))
    code, out, _ = run("matrix-search", files["mat_a"], b3, "--bound", "3")
    assert code == 1
    assert json.loads(out)["status"] == "absent"


def test_matrix_search_prints_the_bound_it_used(run, files):
    b3 = _write(files["tmp"] / "b3.matrix", json.dumps({"entries": [[3]]}))
    default = run("matrix-search", files["mat_a"], b3)
    assert default == run("matrix-search", files["mat_a"], b3, "--bound", "3")
    assert default[0] == 1 and json.loads(default[1]) == {"status": "absent", "entry_bound": 3}


def test_matrix_search_empty_a_against_nonzero_b(run, files):
    empty = _write(files["tmp"] / "empty.matrix", json.dumps({"entries": []}))
    nilpotent = _write(files["tmp"] / "nil.matrix", json.dumps({"entries": [[0, 1], [0, 0]]}))
    code, out, _ = run("matrix-search", empty, nilpotent)
    assert code == 1
    assert json.loads(out)["status"] == "absent"


def test_matrix_search_huge_bound_is_lazy(run, files):
    one = _write(files["tmp"] / "one.matrix", json.dumps({"entries": [[1]]}))
    code, out, err = run("matrix-search", one, one, "--bound", "99999999999999999999")
    code1, out1, _ = run("matrix-search", one, one, "--bound", "1")
    assert code == code1 == 0
    assert out == out1 and err == ""


def test_matrix_search_pinned_row_is_refuted_at_once(files):
    # A*R = R*B pins R's second row to 0 (10^40 * R(1, j) = 0), so no R meets
    # the row bound of A's second row; R's first row is never enumerated.
    a = _write(files["tmp"] / "huge.matrix", json.dumps({"entries": [[1, 10**40], [0, 1]]}))
    b = _write(files["tmp"] / "id.matrix", json.dumps({"entries": [[1, 0], [0, 1]]}))
    proc = subprocess.run(
        [sys.executable, "-m", "ssekit", "matrix-search", a, b],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "absent"


@pytest.mark.parametrize(
    "a, b",
    [
        ([[1, 3], [2, 1]], [[1, 6], [1, 1]]),  # Williams' pair
        ([[0, 1], [3, 2]], [[1, 2], [2, 1]]),  # Bowen-Franks groups Z/4 and Z/2 + Z/2
    ],
)
def test_chain_search_hard_absent_probes_answer_quickly(files, a, b):
    # A state of depth 1 has a split over 6 vertices, so the flag is set and
    # the reason is depth-bound-reached without building layer 3 to see
    # whether it holds a state.  Building it took about 21 s on Williams'
    # pair and 2.8 s on the other (2-vCPU host).
    paths = [
        _write(files["tmp"] / f"{name}.graph", serialize_graph(graph_from_matrix(NonnegIntMatrix.from_entries(m))))
        for name, m in (("a", a), ("b", b))
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "ssekit", "chain-search", *paths, "--max-steps", "3", "--max-vertices", "6"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {
        "status": "absent",
        "reason": "depth-bound-reached",
        "truncated_by_vertex_bound": True,
    }


def test_chain_search_cli(run, files):
    code, out, _ = run("chain-search", files["loop"], files["loop"], "--max-steps", "0")
    assert code == 0
    assert json.loads(out)["total_steps"] == 0


def test_chain_search_absent_exit_1(run, files):
    code, out, _ = run("chain-search", files["tl_e1"], files["empty"], "--max-steps", "1")
    assert code == 1
    assert json.loads(out)["reason"] == "invariant-mismatch"


def test_chain_search_stops_when_both_sides_are_exhausted(run, files):
    # neither graph has a split that is not isomorphic to it, so both
    # frontiers die at depth 1; a huge depth bound must not be walked
    looped = _write(files["tmp"] / "looped.graph", json.dumps(
        {"vertices": ["a"], "edges": [{"id": "l", "src": "a", "rng": "a"}]}))
    looped_plus = _write(files["tmp"] / "looped_plus.graph", json.dumps(
        {"vertices": ["a", "b"], "edges": [{"id": "l", "src": "a", "rng": "a"}]}))
    code, out, err = run("chain-search", looped, looped_plus, "--max-steps", "1000000")
    code3, out3, _ = run("chain-search", looped, looped_plus, "--max-steps", "3")
    assert code == code3 == 1
    assert out == out3 and err == ""
    assert json.loads(out)["reason"] == "search-space-exhausted"


def test_invariants_profile(run, files):
    code, out, _ = run("invariants", files["tl_e1"], "--n", "4")
    assert code == 0
    assert json.loads(out) == {"n_max": 4, "traces": [2, 4, 8, 16]}


def test_invariants_compare(run, files):
    code, out, _ = run("invariants", files["tl_e1"], files["tl_e2"], "--n", "6")
    assert code == 0
    assert json.loads(out)["status"] == "pass"
    code, out, _ = run("invariants", files["tl_e1"], files["fork_e1"], "--n", "6")
    assert code == 1
    assert json.loads(out)["status"] == "fail"


def test_export_dot(run, files):
    code, out, _ = run("export", files["loop_f"], "--dot")
    assert code == 0
    assert out.startswith("digraph {")
    assert '"w~"' not in out  # exports the input graph, not a split
    assert 'label="b:2"' in out


def test_export_witness_colors(run, files):
    code, out, _ = run("export", files["tl_w"], "--dot")
    assert code == 0
    assert "color=blue" in out and "color=red" in out


def test_corpus_deterministic(run, files):
    code1, out1, _ = run("corpus", "--seed", "5", "--count", "3")
    code2, out2, _ = run("corpus", "--seed", "5", "--count", "3")
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(json.loads(out1)["graphs"]) == 3


def test_byte_determinism(run, files):
    outs = set()
    for _ in range(2):
        _, out, _ = run("insplit", files["loop"], "--spec", files["loop_spec"], "--witness")
        outs.add(out)
    assert len(outs) == 1


def test_usage_error_exit_2(run):
    code, _, _ = run("no-such-command")
    assert code == 2
    code, _, _ = run("lift", "--witness", "missing.witness")  # missing required --g
    assert code == 2
    for argv, message in (
        (("--count", "-1"), "--count must be nonnegative"),
        (("--max-vertices", "0"), "--max-vertices must be positive"),
        (("--max-vertices", "-2"), "--max-vertices must be positive"),
        (("--count", "2", "--max-edges", "-1"), "--max-edges must be nonnegative"),
    ):
        code, out, err = run("corpus", *argv)
        assert code == 2
        assert out == "" and err == f"error: {message}\n"


def test_console_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "ssekit", "classify", files["fork_e1"]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["sources"] == ["w"]


def test_library_imports_only_stdlib():
    """The library depends on nothing outside the standard library: networkx,
    sympy and hypothesis serve the tests only.  Relative imports stay within
    the package."""
    package = pathlib.Path(__file__).parent.parent / "src" / "ssekit"
    sources = sorted(package.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {n}" for n in names if n.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_library_imports_are_used():
    """Every name a module imports is used in it, so a deletion leaves no
    stale import behind.  ``__init__.py`` imports only to re-export."""
    package = pathlib.Path(__file__).parent.parent / "src" / "ssekit"
    sources = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert sources
    unused = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [alias.asname or alias.name for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in imported if name not in used]
    assert unused == []


def test_cli_import_stays_light():
    """Every CLI call pays for ``import ssekit.cli`` in a fresh process.
    ``dataclasses`` alone costs about as much as the rest of the import, and
    it brings ``inspect``, ``dis``, ``ast`` and ``tokenize`` along."""
    probe = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import ssekit.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    src = str(pathlib.Path(ssekit.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert "ssekit.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect"})


def test_public_api_is_pinned():
    """``ssekit.__all__`` is the public API.  A name joins or leaves it only
    with this list, so each addition or removal shows in review."""
    assert sorted(ssekit.__all__) == [
        "ChainSearchResult", "ChainStep", "DirectedMultigraph", "Edge", "EdgeFunction", "EssePair",
        "EsseWitnessBundle", "GraphError", "GraphFormatError", "GraphIsomorphism",
        "InvariantFilterResult", "LiftEquation", "LiftOutcome", "NonnegIntMatrix",
        "PeriodicPointProfile", "ReverseTransportResult", "SplitApplication", "SplitReport",
        "SplitSpec", "SplitSpecError", "SplitWitnessBundle", "SseWitness", "TransportError",
        "WitnessConstructionError", "WitnessReferenceError", "WitnessReport", "adjacency_matrix",
        "canonical_key", "check_weight_preserving", "classify_vertices", "find_theta_bijections",
        "graph_from_matrix", "graphs", "invariants", "is_isomorphic", "lift_edge_function",
        "matrix_essse_search", "matrix_essse_verify", "parse_graph", "parse_graph_with_weights",
        "parse_split_spec", "parse_witness", "paths_between", "periodic_point_profile",
        "push_forward", "reverse_transport", "search", "serialize_graph", "split_apply",
        "split_witness", "splits", "sse", "sse_chain_search", "sse_invariant_filter", "to_dot",
        "transport_g_from_h", "validate_split_spec", "verify_sse_witness", "weights",
        "witness_from_essse", "witness_to_json_obj",
    ]
