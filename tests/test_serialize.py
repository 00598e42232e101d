"""Document schemas, pointered errors, and byte-stable output."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import equifred.cli
from equifred import (
    InputDocumentError,
    canonical_json,
    character,
    decompose,
    dual_characters,
    element_key,
    group_doc,
    load_bundle,
    load_group,
    load_rep,
    make_group,
    matrix_doc,
    minimal_isotropy,
    multiplicity_doc,
    parse_element_key,
    pointwise_invertible,
    regular_rep,
    rep_doc,
    validate_bundle,
)
import equifred.serialize as serialize
from equifred.serialize import (
    _matrix_in_one_call,
    _matrix_text,
    _read_matrices,
    _walk_matrix,
    parse_complex,
    parse_matrix,
)
from helpers import reference_canonical_json, reference_symbol_defect

DATA = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# element keys and matrices


def test_element_key_round_trip():
    g = make_group((2, 4))
    for x in g.elements:
        assert parse_element_key(element_key(x), g, "/k") == x


def test_parse_element_key_errors():
    g = make_group((2, 4))
    with pytest.raises(InputDocumentError) as err:
        parse_element_key("1", g, "/k")
    assert err.value.path == "/k"
    with pytest.raises(InputDocumentError):
        parse_element_key("1,a", g, "/k")
    with pytest.raises(InputDocumentError):
        parse_element_key("1,5", g, "/k")  # 5 is not reduced mod 4
    with pytest.raises(InputDocumentError):
        parse_element_key("-1,0", g, "/k")


def test_parse_complex():
    assert parse_complex([1.5, -2.0], "/c") == 1.5 - 2.0j
    for bad in (3.0, [1.0], [1.0, 2.0, 3.0], ["a", 0.0]):
        with pytest.raises(InputDocumentError):
            parse_complex(bad, "/c")


def test_parse_complex_rejects_bools():
    with pytest.raises(InputDocumentError) as err:
        parse_matrix([[[1.0, 0.0], [True, False]]], "/m")
    assert err.value.path == "/m/0/1"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_parse_matrix_rejects_non_finite(bad):
    with pytest.raises(InputDocumentError) as err:
        parse_matrix([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, bad]]], "/m")
    assert err.value.path == "/m/1/1"
    assert "finite" in str(err.value)


def test_load_rep_points_at_a_nan_entry():
    doc = json.loads(json.dumps(rep_doc(regular_rep(make_group((2,))))))
    doc["matrices"]["1"][1][0] = [math.nan, 0.0]
    with pytest.raises(InputDocumentError) as err:
        load_rep(doc)
    assert err.value.path == "/matrices/1/1/0"


def test_parse_complex_rejects_huge_integers():
    with pytest.raises(InputDocumentError) as err:
        parse_complex([10**400, 0], "/c")
    assert err.value.path == "/c"


def test_matrix_round_trip():
    m = np.array([[1.0 + 2.0j, 0.0], [0.5, -1.0j]])
    doc = matrix_doc(m)
    back = parse_matrix(doc, "/m")
    assert np.array_equal(back, m)


def test_parse_matrix_errors_are_pointered():
    with pytest.raises(InputDocumentError) as err:
        parse_matrix([[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]], "/m")
    assert err.value.path == "/m/1"
    with pytest.raises(InputDocumentError) as err:
        parse_matrix([[[1.0, 0.0], "x"]], "/m")
    assert err.value.path == "/m/0/1"
    with pytest.raises(InputDocumentError):
        parse_matrix([], "/m")



# parse_matrix builds a well-formed matrix in one numpy call and must give the
# bits of the entry-by-entry walk; anything else must get the walk's error

EXACT_LEAVES = [-0.0, 5e-324, 2.5e-310, 1e308, -1e308, 0.1, 2**53 + 1, 2**63 + 1,
                -(2**63) - 1, 2**64 + 3, 3 * 2**70 + 12345]


@pytest.mark.parametrize("leaf", EXACT_LEAVES, ids=repr)
def test_one_call_parse_gives_the_walks_bits(leaf):
    node = [[[leaf, -0.0], [0, leaf]], [[1, 2.5], [-0.0, leaf]], [[leaf, 7], [-3, 0.0]]]
    stack = _matrix_in_one_call([node], (3, 2))
    fast = None if stack is None else stack[0]
    assert fast is not None and fast.shape == (3, 2)
    assert parse_matrix(node, "/m").tobytes() == _walk_matrix(node, "/m", (3, 2)).tobytes()
    assert fast.tobytes() == np.array(
        [[complex(*e) for e in row] for row in node], dtype=complex
    ).tobytes()


def _with(entry=None, row=None):
    """A 2x2 matrix with entry (1, 1) or row 1 replaced."""
    node = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    if entry is not None:
        node[1][1] = entry
    if row is not None:
        node[1] = row
    return node


@pytest.mark.parametrize("node, error", [
    (_with(entry=[True, 0]), "/m/1/1: complex entries are [re, im] pairs"),
    (_with(entry=[0, float("nan")]), "/m/1/1: entries must be finite numbers"),
    (_with(entry=[float("-inf"), 0]), "/m/1/1: entries must be finite numbers"),
    (_with(row=[[0, 0]]), "/m/1: ragged matrix rows"),
    (_with(entry=["1", 0]), "/m/1/1: complex entries are [re, im] pairs"),
    (_with(entry=[1, 0, 0]), "/m/1/1: complex entries are [re, im] pairs"),
    (_with(row={"0": [1, 0]}), "/m/1: expected an array, got dict"),
    (_with(entry=[10**400, 0]), "/m/1/1: number too large for a float"),
    (_with(entry=None, row=[[0, 0], None]), "/m/1/1: expected an array, got NoneType"),
    ([], "/m: matrix must be non-empty"),
    ([[]], None),  # a 1x0 matrix: the shape check of the caller refuses it
], ids=["bool", "nan", "inf", "ragged", "string", "triple", "dict-row", "huge", "null-entry",
        "empty", "zero-width"])
def test_malformed_matrices_get_the_walks_error(node, error):
    shape = (len(node), len(node[0]) if node else 0)  # what parse_matrix expects
    assert _matrix_in_one_call([node], shape) is None
    if error is None:
        assert parse_matrix(node, "/m").shape == _walk_matrix(node, "/m", shape).shape == (1, 0)
        return
    with pytest.raises(InputDocumentError) as exc:
        parse_matrix(node, "/m")
    assert str(exc.value) == error


# `_read_matrices` reads a row of nodes by shape, in bounded batches, and on
# any fault walks the row in order: the first fault keeps the walk's error

def test_a_batch_read_is_the_walk_bit_for_bit(monkeypatch):
    leaves = itertools.cycle(EXACT_LEAVES + [-0.0, 0, 3, -4, 0.25])
    shapes = [(1, 1), (2, 3), (1, 1), (3, 2), (2, 3), (1, 1)] * 3
    nodes = [[[[next(leaves), next(leaves)] for _ in range(c)] for _ in range(r)]
             for r, c in shapes]
    keys = [str(i) for i in range(len(nodes))]
    walked = [_walk_matrix(node, f"/m/{i}", shape).tobytes()
              for i, (node, shape) in enumerate(zip(nodes, shapes))]

    def no_walk(*args):
        raise AssertionError("a well-formed row was walked")

    monkeypatch.setattr(serialize, "_walk_matrix", no_walk)
    for bound in (serialize._READ_LEAVES, 16):  # 16: a batch holds eight of the nine 1x1 nodes
        monkeypatch.setattr(serialize, "_READ_LEAVES", bound)
        read = _read_matrices(nodes, shapes, "/m/", keys)
        assert [m.shape for m in read] == shapes
        assert [m.tobytes() for m in read] == walked


def test_a_malformed_node_deep_in_a_rep_gets_the_walks_error():
    doc = json.loads(json.dumps(rep_doc(regular_rep(make_group((8, 8))))))
    doc["matrices"]["7,7"][63][63] = [10**400, 0]
    with pytest.raises(InputDocumentError) as err:
        load_rep(doc)
    assert str(err.value) == "/matrices/7,7/63/63: number too large for a float"


# ---------------------------------------------------------------------------
# groups and reps


def test_load_group_round_trip():
    g = make_group((2, 4))
    assert load_group(group_doc(g)) == g


def test_load_group_errors():
    for bad, path in (
        ({}, "/orders"),
        ({"orders": []}, "/orders"),
        ({"orders": [0]}, "/orders/0"),
        ({"orders": ["x"]}, "/orders/0"),
        ([1, 2], "/"),
    ):
        with pytest.raises(InputDocumentError) as err:
            load_group(bad)
        assert err.value.path == path


def test_load_rep_round_trip():
    rep = regular_rep(make_group((3,)))
    again = load_rep(rep_doc(rep))
    assert again.dim == 3
    for x in again.elements:
        assert np.allclose(again.matrix(x), rep.matrix(x))


def test_load_rep_missing_element():
    rep = regular_rep(make_group((3,)))
    doc = rep_doc(rep)
    del doc["matrices"]["2"]
    with pytest.raises(InputDocumentError) as err:
        load_rep(doc)
    assert err.value.path == "/matrices/2"
    assert str(err.value) == "/matrices/2: missing"


def test_load_rep_refuses_a_second_spelling_of_an_element():
    doc = rep_doc(regular_rep(make_group((3,))))
    doc["matrices"]["01"] = doc["matrices"]["0"]
    with pytest.raises(InputDocumentError) as err:
        load_rep(doc)
    assert str(err.value) == "/matrices/01: element key '01' repeats '1'"


def test_load_rep_rejects_non_unitary():
    rep = regular_rep(make_group((2,)))
    doc = rep_doc(rep)
    doc["matrices"]["1"] = [[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]
    with pytest.raises(InputDocumentError) as err:
        load_rep(doc)
    assert err.value.path == "/matrices"


def test_load_rep_shape_mismatch():
    rep = regular_rep(make_group((2,)))
    doc = rep_doc(rep)
    doc["matrices"]["1"] = [[[1.0, 0.0]]]
    with pytest.raises(InputDocumentError) as err:
        load_rep(doc)
    assert err.value.path == "/matrices/1"
    assert str(err.value) == "/matrices/1: shape (1, 1), expected (2, 2)"


def test_multiplicity_doc_shape():
    g = make_group((2,))
    mv = decompose(regular_rep(g))
    doc = multiplicity_doc(mv)
    assert doc["dim"] == 2
    assert doc["entries"] == [
        {"character": [0], "multiplicity": 1},
        {"character": [1], "multiplicity": 1},
    ]


# ---------------------------------------------------------------------------
# bundle documents


def _square_bundle_doc():
    return {
        "group": {"orders": [2]},
        "points": ["p0", "p1"],
        "base": {"p0": "b", "p1": "b'"},
        "action": {
            "0": {"p0": "p0", "p1": "p1"},
            "1": {"p0": "p1", "p1": "p0"},
        },
        "fiber_dim": {"p0": 1, "p1": 1},
        "transport": {
            "0": {"p0": [[[1.0, 0.0]]], "p1": [[[1.0, 0.0]]]},
            "1": {"p0": [[[1.0, 0.0]]], "p1": [[[1.0, 0.0]]]},
        },
        "symbol": {"p0": [[[0.5, 0.0]]], "p1": [[[0.5, 0.0]]]},
    }


def test_load_bundle_square():
    bundle, sym = load_bundle(_square_bundle_doc())
    assert validate_bundle(bundle).ok
    assert bundle.points == ("p0", "p1")
    assert sym is not None
    assert pointwise_invertible(sym)


def test_load_bundle_without_symbol():
    doc = _square_bundle_doc()
    del doc["symbol"]
    bundle, sym = load_bundle(doc)
    assert sym is None
    assert validate_bundle(bundle).ok


def test_load_bundle_pointered_errors():
    cases = [
        (lambda d: d.pop("points"), "/points"),
        (lambda d: d["points"].append("p0"), "/points/2"),
        (lambda d: d["base"].pop("p1"), "/base/p1"),
        (lambda d: d["action"].pop("1"), "/action/1"),
        (lambda d: d["action"]["1"].pop("p0"), "/action/1/p0"),
        (lambda d: d["action"]["1"].update(p0="zz"), "/action/1/p0"),
        (lambda d: d["fiber_dim"].update(p0=0), "/fiber_dim/p0"),
        (lambda d: d["transport"]["1"].pop("p1"), "/transport/1/p1"),
        (
            lambda d: d["transport"]["1"].update(
                p0=[[[1.0, 0.0], [0.0, 0.0]]]
            ),
            "/transport/1/p0",
        ),
        (lambda d: d["symbol"].pop("p0"), "/symbol/p0"),
    ]
    for mutate, path in cases:
        doc = _square_bundle_doc()
        mutate(doc)
        with pytest.raises(InputDocumentError) as err:
            load_bundle(doc)
        assert err.value.path == path, f"expected {path}, got {err.value.path}"


@pytest.mark.parametrize("two_fiber", [False, True], ids=["one-fiber", "two-fiber"])
def test_load_bundle_without_points(two_fiber):
    doc = {"group": {"orders": [2]}, "points": [], "base": {}, "action": {"0": {}, "1": {}},
           "fiber_dim": {}, "transport": {"0": {}, "1": {}}, "symbol": {}}
    if two_fiber:
        doc.update(fiber_dim_out={}, transport_out={"0": {}, "1": {}})
    bundle, sym = load_bundle(doc)
    assert bundle.points == () and bundle.table.shape == (2, 0) and sym is not None


def test_load_bundle_rejects_foreign_action_key():
    doc = _square_bundle_doc()
    doc["action"]["7"] = {"p0": "p0", "p1": "p1"}
    with pytest.raises(InputDocumentError) as err:
        load_bundle(doc)
    assert err.value.path == "/action/7"


def _two_fiber_doc():
    eye = [[[1.0, 0.0]]]
    return {
        "group": {"orders": [2]},
        "points": ["r0", "r1"],
        "base": {"r0": "z0", "r1": "z1"},
        "action": {
            "0": {"r0": "r0", "r1": "r1"},
            "1": {"r0": "r1", "r1": "r0"},
        },
        "fiber_dim": {"r0": 1, "r1": 1},
        "fiber_dim_out": {"r0": 1, "r1": 1},
        "transport": {
            "0": {"r0": eye, "r1": eye},
            "1": {"r0": eye, "r1": eye},
        },
        "transport_out": {
            "0": {"r0": eye, "r1": eye},
            "1": {"r0": [[[0.0, 1.0]]], "r1": [[[0.0, -1.0]]]},
        },
        "symbol": {"r0": [[[2.0, 0.0]]], "r1": [[[0.0, 2.0]]]},
    }


def test_load_two_fiber_bundle_folds():
    bundle, sym = load_bundle(_two_fiber_doc())
    assert bundle.fiber_dim["r0"] == 2
    assert validate_bundle(bundle).ok
    move = bundle.transports.take(np.array([1 * len(bundle.points) + 0]))[0]  # T((1,), r0)
    assert np.allclose(move, np.diag([1.0, 1.0j]))
    folded = sym.value("r0")
    assert folded[1, 0] == 2.0  # the original symbol sits below the diagonal
    assert folded[0, 1] == 2.0  # and its adjoint above
    assert folded[0, 0] == 0.0 and folded[1, 1] == 0.0
    assert sym.value("r1")[1, 0] == 2.0j
    assert reference_symbol_defect(sym)[0] < 1e-12
    assert pointwise_invertible(sym)


def test_two_fiber_symbol_shape_checked():
    doc = _two_fiber_doc()
    doc["symbol"]["r0"] = [[[1.0, 0.0], [0.0, 0.0]]]
    with pytest.raises(InputDocumentError) as err:
        load_bundle(doc)
    assert err.value.path == "/symbol/r0"


def test_two_fiber_folded_minimal_isotropy():
    bundle, _ = load_bundle(_two_fiber_doc())
    assert minimal_isotropy(bundle).order == 1


def _benchmark_bundle_doc(monkeypatch, name):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmarks"))
    import workloads

    spec = next(s for s in workloads.BUNDLES if s.name == name)
    doc, _ = workloads.make_bundle(spec, np.random.default_rng(5), kill=True)
    return json.loads(json.dumps(doc))  # no node shared between points


def test_a_malformed_node_deep_in_a_bundle_gets_the_walks_error(monkeypatch):
    doc = _benchmark_bundle_doc(monkeypatch, "g64")
    assert list(doc["transport"])[-1] == "7,7" and doc["points"][-1] == "o1p00"
    doc["transport"]["7,7"]["o1p00"][1][1] = [0.0, "x"]
    with pytest.raises(InputDocumentError) as err:
        load_bundle(doc)
    assert str(err.value) == "/transport/7,7/o1p00/1/1: complex entries are [re, im] pairs"


@pytest.mark.parametrize("points", [["p0", "p1"], ["p1", "p0"]], ids=["p0-first", "p1-first"])
def test_the_first_fault_of_a_row_in_document_order_is_reported(points):
    # p0's node is well formed but 1x2, p1's has a string leaf: whichever
    # point the document lists first is refused
    doc = _square_bundle_doc()
    doc["points"] = points
    doc["transport"]["1"] = {"p0": [[[1.0, 0.0], [0.0, 0.0]]], "p1": [[["1", 0.0]]]}
    with pytest.raises(InputDocumentError) as err:
        load_bundle(doc)
    assert str(err.value) == {
        "p0": "/transport/1/p0: shape (1, 2), expected (1, 1)",
        "p1": "/transport/1/p1/0/0: complex entries are [re, im] pairs",
    }[points[0]]


def test_two_fiber_transport_out_shape_checked():
    doc = _two_fiber_doc()
    doc["transport_out"]["1"]["r1"] = [[[0.0, -1.0]], [[0.0, 0.0]]]
    with pytest.raises(InputDocumentError) as err:
        load_bundle(doc)
    assert str(err.value) == "/transport_out/1/r1: shape (2, 1), expected (1, 1)"


# ---------------------------------------------------------------------------
# canonical output


def test_canonical_json_sorts_and_formats():
    doc = {"b": 1, "a": [1.5, True, None, "x"]}
    text = canonical_json(doc)
    assert text == (
        '{\n  "a": [\n    1.5,\n    true,\n    null,\n    "x"\n  ],\n  "b": 1\n}\n'
    )


def test_canonical_json_float_precision():
    text = canonical_json({"v": 0.1})
    assert "0.1000000000000000" in text
    assert float(json.loads(text)["v"]) == 0.1


def test_canonical_json_non_finite():
    text = canonical_json({"a": float("nan"), "b": float("inf"), "c": float("-inf")})
    doc = json.loads(text)
    assert doc == {"a": "nan", "b": "inf", "c": "-inf"}


def test_canonical_json_trailing_newline_and_empty():
    assert canonical_json({}) == "{}\n"
    assert canonical_json([]) == "[]\n"
    assert canonical_json({"a": {}}).endswith("\n")


def test_canonical_json_numpy_scalars():
    text = canonical_json(
        {"i": np.int64(3), "f": np.float64(0.25), "b": np.bool_(True)}
    )
    assert json.loads(text) == {"i": 3, "f": 0.25, "b": True}


def test_canonical_json_rejects_non_string_keys():
    with pytest.raises(TypeError):
        canonical_json({1: "x"})


def test_canonical_json_deterministic():
    doc = {"z": [0.1, 0.2], "a": {"k": 1e-17}}
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))


@settings(max_examples=60, deadline=None)
@given(
    st.recursive(
        st.one_of(
            st.integers(-(10**12), 10**12),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.booleans(),
            st.text(max_size=8),
            st.none(),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=6), children, max_size=4),
        ),
        max_leaves=12,
    )
)
def test_canonical_json_round_trips_values(doc):
    parsed = json.loads(canonical_json(doc))

    def normal(x):
        if isinstance(x, dict):
            return {k: normal(v) for k, v in sorted(x.items())}
        if isinstance(x, list):
            return [normal(v) for v in x]
        if isinstance(x, float):
            assert not math.isnan(x)
            return x
        return x

    assert normal(parsed) == normal(doc)


# ---------------------------------------------------------------------------
# matrix documents are written in one formatting call; the bytes must be
# those of the recursive writer in helpers, which canonical_json replaced

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0,
                  math.nan, math.inf, -math.inf]
_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(width=64))


@st.composite
def _matrix_docs(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    flat = draw(st.lists(_floats, min_size=2 * rows * cols, max_size=2 * rows * cols))
    return matrix_doc(np.array(flat).view(complex).reshape(rows, cols))


@settings(max_examples=150, deadline=None)
@given(
    st.recursive(
        st.one_of(_matrix_docs(), st.integers(-5, 5), _floats, st.text(max_size=3), st.none()),
        lambda children: st.one_of(
            st.lists(children, max_size=3),
            st.dictionaries(st.text(max_size=4), children, max_size=3),
        ),
        max_leaves=8,
    )
)
def test_matrix_documents_are_written_as_the_recursive_writer_writes_them(doc):
    assert canonical_json(doc) == reference_canonical_json(doc)


def test_matrix_doc_is_a_json_list_of_float_pairs():
    m = np.array([[1.0 + 2.0j, -0.0], [5e-324, -1e308j], [0.1, 3.0]])
    doc = matrix_doc(m)
    plain = [[[float(v.real), float(v.imag)] for v in row] for row in m]
    assert doc == plain and json.dumps(doc) == json.dumps(plain)
    assert canonical_json(doc) == canonical_json(plain)
    assert _matrix_text(doc, 0) is not None  # written in one call
    for bad in (math.nan, math.inf, -math.inf):
        assert _matrix_text(matrix_doc(np.full((2, 3), complex(1.0, bad))), 0) is None


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d[0][0].__setitem__(0, 3),  # an int leaf
        lambda d: d[0][0].__setitem__(1, True),  # a bool leaf
        lambda d: d[1].append([0.0, 0.0]),  # a ragged row
        lambda d: d[0].__setitem__(1, [1.0]),  # a short pair
        lambda d: d.__setitem__(0, "x"),  # not a row
        lambda d: d[1].clear(),  # an empty row
    ],
)
def test_an_edited_matrix_doc_is_written_by_the_recursive_writer(edit):
    doc = matrix_doc(np.arange(6, dtype=complex).reshape(2, 3))
    edit(doc)
    assert canonical_json({"m": [doc]}) == reference_canonical_json({"m": [doc]})


def _reports(monkeypatch, argv):
    """The report documents the CLI builds for argv (none when it refuses)."""
    docs = []
    monkeypatch.setattr(equifred.cli, "_emit", lambda args, doc: docs.append(doc))
    equifred.cli.main(argv)
    return docs


def test_every_decompose_and_induce_report_has_the_recursive_writers_bytes(monkeypatch, tmp_path):
    big = tmp_path / "induce_z8xz8.json"
    big.write_text(json.dumps({"group": {"orders": [8, 8]}, "subgroup_generators": [[2, 0]],
                               "character_exponents": [1, 3]}))
    inputs = sorted(DATA.glob("*.json")) + [big]
    docs = [
        doc
        for path in inputs
        for verb in ("decompose", "induce")
        for doc in _reports(monkeypatch, [verb, "--input", str(path)])
    ]
    assert len(docs) == 3  # rep_z3_regular, induce_z4_sign and the Z8xZ8 induction
    for doc in docs:
        assert canonical_json(doc) == reference_canonical_json(doc)
