"""Golden CLI corpus: exact stdout bytes and exit codes of fixed invocations.

Inputs are written from the shared fixtures in ``conftest.py``; each case's
stdout is compared byte for byte with ``golden/<case>.out`` and its exit code
with ``golden/exit_codes.json``.  Stdout never names an input path, so the
files are independent of where the inputs live.

To rewrite every golden file from the current code, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from __future__ import annotations

import copy
import json
import pathlib
import random
import sys

import pytest

from ssekit import DirectedMultigraph, SplitSpec, serialize_graph, witness_to_json_obj
from ssekit.cli import main
from ssekit.corpus import random_edge_function, random_graph, random_split_spec
from ssekit.splits import split_apply

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

CASES = {
    "validate": ["validate", "{fork_e1}"],
    "classify": ["classify", "{fork_e1}"],
    "insplit": ["insplit", "{loop}", "--spec", "{loop_spec}"],
    "insplit_witness_weights": [
        "insplit", "{loop}", "--spec", "{loop_spec}", "--witness", "--weights", "{loop_f}",
    ],
    "insplit_witness_weights_large": [
        "insplit", "{big}", "--spec", "{big_spec}", "--witness", "--weights", "{big_f}",
    ],
    "insplit_weights": ["insplit", "{loop}", "--spec", "{loop_spec}", "--weights", "{loop_f}"],
    "insplit_funnel_witness": ["insplit", "{funnel}", "--spec", "{funnel_spec}", "--witness"],
    "insplit_invalid_spec": ["insplit", "{loop}", "--spec", "{bad_spec}"],
    "outsplit_weights": ["outsplit", "{fan}", "--spec", "{fan_spec}", "--weights", "{fan_f}"],
    "outsplit_witness_weights": [
        "outsplit", "{fan}", "--spec", "{fan_spec}", "--witness", "--weights", "{fan_f}",
    ],
    # w is a source: it stays whole as w^, and its edge e gets a copy e^1, e^2
    # into each copy of x
    "outsplit_source_witness_weights": [
        "outsplit", "{fork_e1}", "--spec", "{fork_spec}", "--witness", "--weights", "{fork_f}",
    ],
    "sse_verify_pass": ["sse-verify", "{fork_e1}", "{fork_e2}", "--witness", "{fork_w}"],
    "sse_verify_fail": ["sse-verify", "{fork_e1}", "{fork_e2}", "--witness", "{fork_broken_w}"],
    # every condition-1, -2 and -4 message at once
    "sse_verify_partition_fail": ["sse-verify", "{fork_e1}", "{fork_e2}", "--witness", "{fork_misfits_w}"],
    "theta_search_found": ["theta-search", "{tl_e1}", "{tl_e2}", "{tl_e3}", "--sides", "{tl_sides}"],
    "theta_search_absent": [
        "theta-search", "{tl_e1}", "{tl_e2}", "{tl_stripped}", "--sides", "{tl_stripped_sides}",
    ],
    "lift_feasible": ["lift", "--witness", "{tl_w}", "--g", "{tl_good}"],
    "lift_infeasible": ["lift", "--witness", "{tl_w}", "--g", "{tl_bad}"],
    "transport_h": ["transport", "--witness", "{tl_w}", "--h", "{tl_h}"],
    "transport_f_e12": ["transport", "--witness", "{tl_w}", "--f", "{tl_f}", "--phi-side", "e12"],
    "transport_f_e21": ["transport", "--witness", "{tl_w}", "--f", "{tl_f}", "--phi-side", "e21"],
    "matrix_verify_true": ["matrix-verify", "{mat_a}", "{mat_b}", "{mat_r}", "{mat_s}"],
    "matrix_verify_false": ["matrix-verify", "{mat_a}", "{mat_identity}", "{mat_r}", "{mat_s}"],
    "matrix_search_found": ["matrix-search", "{mat_a}", "{mat_b}", "--bound", "1"],
    "matrix_search_absent": ["matrix-search", "{mat_a}", "{mat_3}", "--bound", "3"],
    "matrix_search_power_trace_mismatch": ["matrix-search", "{mat_b}", "{mat_upper}"],
    "matrix_search_rect_found": ["matrix-search", "{mat_a}", "{mat_b}"],
    "matrix_search_williams_absent": [
        "matrix-search", "{mat_williams_a}", "{mat_williams_b}", "--bound", "6",
    ],
    "chain_search_one_step": ["chain-search", "{loop}", "{loop_split}", "--max-steps", "1"],
    "chain_search_two_loops": ["chain-search", "{tl_e1}", "{tl_e2}", "--max-steps", "1"],
    "chain_search_composite": ["chain-search", "{tl_e1}", "{tl_far}", "--max-steps", "3"],
    "chain_search_invariant_mismatch": ["chain-search", "{tl_e1}", "{empty}", "--max-steps", "1"],
    "chain_search_depth_bound": ["chain-search", "{tl_e1}", "{tl_e2}", "--max-steps", "0"],
    "chain_search_exhausted": ["chain-search", "{edgeless1}", "{edgeless2}", "--max-steps", "3"],
    "chain_search_vertex_bound_cut": ["chain-search", "{tl_e1}", "{tl_e2}", "--max-vertices", "1"],
    "chain_search_root_over_bound": ["chain-search", "{edgeless2}", "{edgeless1}", "--max-vertices", "1"],
    "invariants_profile": ["invariants", "{tl_e1}", "--n", "4"],
    "invariants_profile_odd": ["invariants", "{cycles}", "--n", "5"],
    "invariants_profile_n1": ["invariants", "{tl_e1}", "--n", "1"],
    "invariants_pass": ["invariants", "{tl_e1}", "{tl_e2}", "--n", "6"],
    "invariants_fail": ["invariants", "{tl_e1}", "{fork_e1}", "--n", "6"],
    "export_dot_graph": ["export", "{loop_f}", "--dot"],
    "export_dot_witness": ["export", "{tl_w}", "--dot"],
    "corpus": ["corpus", "--seed", "5", "--count", "3"],
    "corpus_default": ["corpus"],
    "usage_error": ["no-such-command"],
}


def _write(path: pathlib.Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, fork, fork_misfits, loop_feed, fan, two_loops, funnel):
    d = tmp_path_factory.mktemp("golden")
    e1, e2, _, w = fork
    g_loop, f_loop, spec_loop = loop_feed
    g_fan, f_fan, spec_fan = fan
    tl_e1, tl_e2, tl_e3, tl_w, tl_bad, tl_good = two_loops
    g_funnel, spec_funnel = funnel
    broken = w._replace(theta1=dict(w.theta1, e=("X1>y", "x>X1")))
    mid = split_apply(tl_e1, SplitSpec("insplit", {"v": (("p",), ("q",))})).graph
    far = split_apply(
        mid, SplitSpec("outsplit", {"v~1": (("p~1",), ("q~1",)), "v~2": (("p~2", "q~2"),)})
    ).graph
    stripped = DirectedMultigraph(tl_e3.vertices, tuple(e for e in tl_e3.edges if e.id != "d"))
    # A seeded 30-vertex, 72-edge graph: its witness output is deep and wide.
    rng = random.Random(1)
    big = random_graph(rng, max_vertices=30, max_edges=120, min_vertices=30)
    big_spec = random_split_spec(rng, big, "insplit")
    big_f = random_edge_function(rng, big, lo=-10**12, hi=10**12)
    sides = {
        "side1": list(tl_w.side1),
        "side2": list(tl_w.side2),
        "e21": list(tl_w.e21),
        "e12": list(tl_w.e12),
        "vmap1": dict(tl_w.vmap1),
        "vmap2": dict(tl_w.vmap2),
    }
    texts = {
        "fork_e1": serialize_graph(e1),
        "fork_e2": serialize_graph(e2),
        "fork_w": json.dumps(witness_to_json_obj(w)),
        "fork_broken_w": json.dumps(witness_to_json_obj(broken)),
        "fork_misfits_w": json.dumps(witness_to_json_obj(fork_misfits)),
        "fork_spec": json.dumps({"kind": "outsplit", "parts": {"x": [["f"], ["g"]]}}),
        "fork_f": json.dumps({"weights": {"e": 5, "f": -2, "g": 7}}),
        "loop": serialize_graph(g_loop),
        "loop_f": serialize_graph(g_loop, f_loop),
        "loop_spec": json.dumps(spec_loop.to_json_obj()),
        "loop_split": serialize_graph(split_apply(g_loop, spec_loop).graph),
        "bad_spec": json.dumps({"kind": "insplit", "parts": {"v": [["a"]]}}),
        "fan": serialize_graph(g_fan),
        "fan_f": serialize_graph(g_fan, f_fan),
        "fan_spec": json.dumps(spec_fan.to_json_obj()),
        "funnel": serialize_graph(g_funnel),
        "funnel_spec": json.dumps(spec_funnel.to_json_obj()),
        "big": serialize_graph(big),
        "big_spec": json.dumps(big_spec.to_json_obj()),
        "big_f": serialize_graph(big, big_f),
        "tl_e1": serialize_graph(tl_e1),
        "tl_e2": serialize_graph(tl_e2),
        "tl_e3": serialize_graph(tl_e3),
        "tl_w": json.dumps(witness_to_json_obj(tl_w)),
        "tl_bad": serialize_graph(tl_e2, tl_bad),
        "tl_good": serialize_graph(tl_e2, tl_good),
        "tl_far": serialize_graph(far),
        "tl_sides": json.dumps(sides),
        "tl_stripped": serialize_graph(stripped),
        "tl_stripped_sides": json.dumps(dict(sides, e12=["c"])),
        "tl_h": json.dumps({"weights": {"a": 0, "b": 1, "c": 1, "d": 3}}),
        "tl_f": json.dumps({"weights": {"p": 1, "q": 2}}),
        "empty": '{"vertices": [], "edges": []}',
        "edgeless1": '{"vertices": ["u"], "edges": []}',
        "edgeless2": '{"vertices": ["u", "v"], "edges": []}',
        "cycles": json.dumps({
            "vertices": ["a", "b", "c"],
            "edges": [
                {"id": "aa", "src": "a", "rng": "a"},
                {"id": "ab", "src": "a", "rng": "b"},
                {"id": "ba", "src": "b", "rng": "a"},
                {"id": "bc", "src": "b", "rng": "c"},
                {"id": "ca", "src": "c", "rng": "a"},
                {"id": "cc", "src": "c", "rng": "c"},
                {"id": "cc2", "src": "c", "rng": "c"},
            ],
        }),
        "mat_a": json.dumps({"entries": [[2]]}),
        "mat_b": json.dumps({"entries": [[1, 1], [1, 1]]}),
        "mat_3": json.dumps({"entries": [[3]]}),
        "mat_identity": json.dumps({"entries": [[1, 0], [0, 1]]}),
        "mat_upper": json.dumps({"entries": [[1, 1], [0, 1]]}),
        "mat_williams_a": json.dumps({"entries": [[1, 3], [2, 1]]}),
        "mat_williams_b": json.dumps({"entries": [[1, 6], [1, 1]]}),
        "mat_r": json.dumps({"rows": ["0"], "cols": ["0", "1"], "entries": [[1, 1]]}),
        "mat_s": json.dumps({"rows": ["0", "1"], "cols": ["0"], "entries": [[1], [1]]}),
    }
    return {key: _write(d / key, text) for key, text in texts.items()}


def _invoke(capsys, argv: list[str], inputs: dict[str, str]) -> tuple[int, str]:
    code = main([arg.format(**inputs) for arg in argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_cli(case, inputs, capsys, request):
    code, out = _invoke(capsys, CASES[case], inputs)
    if getattr(request.config, "golden_update", False):
        (GOLDEN / f"{case}.out").write_bytes(out.encode("utf-8"))
        codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
        codes[case] = code
        EXIT_CODES.write_text(json.dumps(dict(sorted(codes.items())), indent=2) + "\n")
        return
    assert out.encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes()
    assert code == json.loads(EXIT_CODES.read_text())[case]


def _json_paths(obj, path=()):
    """Every path into ``obj``, parents before children."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from _json_paths(value, path + (key,))


def _read_text(path: str) -> str:
    return pathlib.Path(path).read_text(encoding="utf-8")


@pytest.mark.parametrize("command", [
    "chain-search", "insplit", "outsplit", "matrix-search", "matrix-verify", "validate", "classify",
    "sse-verify", "theta-search", "lift", "transport", "invariants", "export",
])
def test_fuzzed_inputs_keep_the_exit_contract(command, inputs, capsys, tmp_path):
    # Mutated golden inputs of one subcommand (a graph, a witness, a split
    # spec, a sides or weights file, or a matrix): whatever the damage, the
    # command exits 0, 1 (with its negative result) or 2 (with an error
    # message), never with a traceback, and prints the same bytes on a
    # second run.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    chain = command == "chain-search"
    search = command == "matrix-search"
    split = command in ("insplit", "outsplit")
    # the golden cases' arguments, less the flags drawn below: chain-search
    # and matrix-search keep their two inputs, the splits everything but
    # --witness, the others everything
    templates = sorted({
        tuple(arg for arg in (argv[:3] if chain or search else argv) if not (split and arg == "--witness"))
        for argv in CASES.values()
        if argv[0] == command
    })
    too_long = int("9" * 40)  # written out as an integer past the interpreter's digit limit
    huge = st.sampled_from([2**63, -(2**64), 10**40, too_long])
    # a fresh copy per draw: a shared list or dict could be stored inside itself
    containers = st.sampled_from([[], {}, ["a"], {"id": "a"}]).map(copy.deepcopy)
    odd_values = st.one_of(huge, st.sampled_from([None, True, 1.5, "", "a"]), containers)

    @st.composite
    def mutated(draw, name):
        if draw(st.integers(0, 9)) == 0:
            return _read_text(inputs["tl_w"])  # a witness where another file is expected
        obj = json.loads(_read_text(inputs[name]))
        for _ in range(draw(st.integers(0, 2))):
            path = draw(st.sampled_from(list(_json_paths(obj))))
            kind = draw(st.sampled_from(["drop", "retype", "duplicate"]))
            if not path:
                obj = draw(odd_values)
                continue
            *head, key = path
            parent = obj
            for k in head:
                parent = parent[k]
            if kind == "drop":
                del parent[key]
            elif kind == "duplicate" and isinstance(parent, list):
                parent.append(parent[key])  # a repeated vertex id or edge record
            else:
                parent[key] = draw(odd_values)
        # json.dumps cannot write an integer past the digit limit, so splice it in as text
        return json.dumps(obj).replace(str(too_long), "9" * 5000)

    @st.composite
    def invocation(draw):
        """(argv with one input file replaced by ``{mutated}``, its text)."""
        argv = list(draw(st.sampled_from(templates)))
        slot = draw(st.sampled_from([i for i, arg in enumerate(argv) if arg.startswith("{")]))
        text = draw(mutated(argv[slot][1:-1]))
        argv[slot] = "{mutated}"
        return argv, text

    bounds = st.lists(st.sampled_from(["--max-steps", "--max-vertices", "--max-parts"]), unique=True).flatmap(
        lambda flags: st.tuples(*[st.tuples(st.just(f), st.integers(-2, 3)) for f in flags])
    )
    if chain:
        flag_lists = bounds.map(lambda flags: [str(x) for flag in flags for x in flag])
    elif search:
        # always a bound: the default is the largest entry, which a mutation may make 10**40
        flag_lists = st.integers(0, 3).map(lambda m: ["--bound", str(m)])
    elif split:
        flag_lists = st.sampled_from([[], ["--witness"]])
    else:
        flag_lists = st.just([])
    codes = set()

    @hypothesis.settings(max_examples=120)
    @hypothesis.given(invocation(), flag_lists)
    def check(argv_text, flags):
        template, text = argv_text
        path = tmp_path / "mutated.input"
        path.write_text(text, encoding="utf-8")
        argv = [arg.format(mutated=str(path), **inputs) for arg in template] + flags
        if chain and "--max-vertices" not in flags:
            argv += ["--max-vertices", "4"]  # the default 10 is slow on the biggest inputs
        runs = []
        for _ in range(2):
            code = main(argv)
            out, err = capsys.readouterr()
            runs.append((code, out, err))
        assert runs[0] == runs[1]
        assert code in (0, 1, 2), err
        assert "Traceback" not in err
        if code == 1:
            result = json.loads(out)
            if search:
                assert result == {"status": "absent", "entry_bound": int(flags[1])}
            elif command == "matrix-verify":
                assert result == {"equivalent": False}
            elif command == "sse-verify":
                assert result["passed"] is False
            elif command == "lift":
                assert result["status"] == "infeasible"
            elif command == "invariants":
                assert result["status"] == "fail"
            else:
                assert "reason" in result
        if code == 2:
            assert out == "" and err.startswith("error:")
        codes.add(code)

    check()
    # a command with no negative result either answers or rejects its input
    no_negative = split or command in ("validate", "classify", "transport", "export")
    assert codes == ({0, 2} if no_negative else {0, 1, 2})


class _GoldenUpdate:
    def pytest_configure(self, config):
        config.golden_update = True


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    EXIT_CODES.unlink(missing_ok=True)
    sys.exit(pytest.main([__file__, "-q", "-p", "no:cacheprovider"], plugins=[_GoldenUpdate()]))
