"""JSON document schemas and byte-stable report serialization.

Element keys are comma-joined residue tuples ("0,1" for (0, 1)) and complex
entries [re, im] pairs.  Every matrix node goes through one reader, a row of
nodes at a time; a loading failure carries a pointer to its first bad node
("/transport/1/p0").  Serialization sorts keys and prints floats at 17
significant digits, so identical inputs produce identical bytes.
"""
from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache
from typing import Any, Mapping

import numpy as np

from .bundles import EquivariantSampleBundle, InputDocumentError, SymbolField
from .bundles import _from_tables, element_key, symbol_field
from .groups import Character, ElementT, Group, Subgroup, SubgroupCharacter
from .groups import character, subgroup_from_generators
from .reps import MultiplicityVector, UnitaryRep, unitary_rep


def parse_element_key(key: str, group: Group, path: str) -> ElementT:
    parts = key.split(",")
    if len(parts) != len(group.orders):
        raise InputDocumentError(
            path, f"element key {key!r} has {len(parts)} coordinates, group has {len(group.orders)}"
        )
    try:
        residues = tuple(int(p) for p in parts)
    except ValueError:
        raise InputDocumentError(path, f"element key {key!r} is not a residue tuple")
    for r, n in zip(residues, group.orders):
        if not 0 <= r < n:
            raise InputDocumentError(
                path, f"element key {key!r} is not reduced modulo {group.orders}"
            )
    return residues


def _element_table(node: Any, group: Group, path: str) -> Mapping:
    """node as an object with an entry for each element of group, keyed as
    `element_key` writes it, and no other key (refused as by `_point_table`).
    The elements are walked one at a time, in `Group.elements` order, up to
    the first missing key: element i is named by its mixed-radix digits in
    Python integers, so a group of any order or rank gets its pointer."""
    node = _as_dict(node, path)
    for i in range(group.order):
        rest, digits = i, []
        for n in reversed(group.orders):
            rest, r = divmod(rest, n)
            digits.append(r)
        if (key := element_key(digits[::-1])) not in node:
            raise InputDocumentError(f"{path}/{key}", "missing")
    for key in node:
        again = element_key(parse_element_key(key, group, f"{path}/{key}"))
        if again != key:
            raise InputDocumentError(f"{path}/{key}", f"element key {key!r} repeats {again!r}")
    return node


def _point_table(node: Any, points: Mapping, path: str) -> Mapping:
    """node as an object with an entry for each point and no other key: the
    first missing point, or else the first key that is not a point, is
    refused at its pointer."""
    node = _as_dict(node, path)
    for p in points:
        if p not in node:
            raise InputDocumentError(f"{path}/{p}", "missing")
    for key in node:
        if key not in points:
            raise InputDocumentError(f"{path}/{key}", f"{key!r} is not a point")
    return node


def _need(doc: Mapping, field: str, path: str) -> Any:
    if field not in doc:
        raise InputDocumentError(f"{path}/{field}", "missing")
    return doc[field]


def _as_dict(node: Any, path: str) -> Mapping:
    if not isinstance(node, dict):
        raise InputDocumentError(path, f"expected an object, got {type(node).__name__}")
    return node


def _as_list(node: Any, path: str) -> list:
    if not isinstance(node, list):
        raise InputDocumentError(path, f"expected an array, got {type(node).__name__}")
    return node


def _as_int(node: Any, path: str) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise InputDocumentError(path, f"expected an integer, got {node!r}")
    return node


def _positive_int(node: Any, path: str, detail: str = "dimensions are positive") -> int:
    """An integer of at least 1; anything else is refused at path."""
    value = _as_int(node, path)
    if value < 1:
        raise InputDocumentError(path, detail)
    return value


def parse_complex(node: Any, path: str) -> complex:
    pair = _as_list(node, path)
    # type() rather than isinstance(): bool is an int subclass, not a number here
    if len(pair) != 2 or not all(type(x) in (int, float) for x in pair):
        raise InputDocumentError(path, "complex entries are [re, im] pairs")
    try:
        return complex(pair[0], pair[1])
    except OverflowError:
        raise InputDocumentError(path, "number too large for a float")


_NUMBER_TYPES = frozenset((int, float))
_READ_LEAVES = 1 << 14  # the most leaves any one np.fromiter call of the reader reads


def parse_matrix(node: Any, path: str) -> np.ndarray:
    """A complex matrix from its rows of [re, im] pairs: `_read_matrices` of the
    one node, of the shape its first row gives (the walk refuses a node without)."""
    head = node[0] if isinstance(node, list) and node else None
    shape = (len(node), len(head)) if isinstance(head, list) else (0, 0)
    return _read_matrices([node], [shape], path, [""])[0]


def _read_matrices(nodes: list, shapes: list, path: str, keys: list) -> list[np.ndarray]:
    """The matrices of a row of nodes, node i of shape shapes[i] at path + keys[i]:
    each shape's nodes in `_matrix_in_one_call`s of at most _READ_LEAVES leaves.
    A batch with a malformed or misshapen node sends the whole row, in order,
    to the walk, which raises the pointer and message of its first fault."""
    order = sorted(range(len(nodes)), key=shapes.__getitem__)
    by_shape, read = list(map(nodes.__getitem__, order)), []
    for shape, same in itertools.groupby(map(shapes.__getitem__, order)):
        end = len(read) + len(list(same))
        step = max(1, _READ_LEAVES // max(1, 2 * shape[0] * shape[1]))
        for k in range(len(read), end, step):
            stack = _matrix_in_one_call(by_shape[k:min(k + step, end)], shape)
            if stack is None:
                return list(map(_walk_matrix, nodes, [path + key for key in keys], shapes))
            read.extend(stack)
    return list(map(read.__getitem__, np.argsort(order).tolist()))


def _grid_leaves(node: Any) -> list | None:
    """The leaves, row-major, of a non-empty list of equal-length lists of
    2-element lists (the shape of a matrix document), or None."""
    if not isinstance(node, list) or not node or set(map(type, node)) != {list}:
        return None
    entries = list(itertools.chain.from_iterable(node))
    if (
        set(map(len, node)) != {len(node[0])}
        or set(map(type, entries)) != {list}
        or set(map(len, entries)) != {2}
    ):
        return None
    return list(itertools.chain.from_iterable(entries))


def _matrix_in_one_call(nodes: list, shape: tuple[int, int]) -> np.ndarray | None:
    """The (len(nodes), *shape) stack of nodes of that shape, or None for the
    walk to judge them.  Well-formed nodes (lists of rows of [re, im] pairs
    whose leaves are exactly int or float, all finite as floats) are built in
    one numpy call: the leaves become one float array, each by float(), viewed
    as complex, which keeps the bits complex(re, im) gives, -0.0 included."""
    if set(map(type, nodes)) != {list} or set(map(len, nodes)) != {shape[0]}:
        return None
    rows = list(itertools.chain.from_iterable(nodes))
    leaves = _grid_leaves(rows)
    if leaves is None or len(rows[0]) != shape[1] or not set(map(type, leaves)) <= _NUMBER_TYPES:
        return None
    try:
        flat = np.fromiter(leaves, dtype=float, count=len(leaves))
    except OverflowError:  # an integer too large for a float
        return None
    if not np.isfinite(flat).all():
        return None
    return flat.view(complex).reshape(len(nodes), *shape)


def _walk_matrix(node: Any, path: str, shape: tuple[int, int]) -> np.ndarray:
    rows = _as_list(node, path)
    if not rows:
        raise InputDocumentError(path, "matrix must be non-empty")
    data = []
    width = None
    for i, row in enumerate(rows):
        entries = _as_list(row, f"{path}/{i}")
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise InputDocumentError(f"{path}/{i}", "ragged matrix rows")
        data.append([parse_complex(e, f"{path}/{i}/{j}") for j, e in enumerate(entries)])
    m = np.array(data, dtype=complex)
    if not np.isfinite(m).all():
        i, j = np.argwhere(~np.isfinite(m))[0]
        raise InputDocumentError(f"{path}/{i}/{j}", "entries must be finite numbers")
    if m.shape != shape:
        raise InputDocumentError(path, f"shape {m.shape}, expected {shape}")
    return m


class MatrixDoc(list):
    """A matrix document: rows of [re, im] float pairs, a plain JSON list.

    Its type tells `canonical_json` to try writing it in one formatting call.
    """

    __slots__ = ()


def matrix_doc(m: np.ndarray) -> MatrixDoc:
    m = np.ascontiguousarray(m, dtype=complex)
    return MatrixDoc(m.view(float).reshape(*m.shape, 2).tolist())


# ---------------------------------------------------------------------------
# groups and representations


def load_group(doc: Any, path: str = "") -> Group:
    node = _as_dict(doc, path or "/")
    orders = _as_list(_need(node, "orders", path), f"{path}/orders")
    if not orders:
        raise InputDocumentError(f"{path}/orders", "needs at least one cyclic order")
    return Group(tuple(_positive_int(n, f"{path}/orders/{i}", "orders must be positive")
                       for i, n in enumerate(orders)))


def group_doc(group: Group) -> dict:
    return {"orders": list(group.orders)}


def load_rep(doc: Any) -> UnitaryRep:
    node = _as_dict(doc, "/")
    group = load_group(_need(node, "group", ""), "/group")
    dim = _positive_int(_need(node, "dim", ""), "/dim")
    mats_doc = _element_table(_need(node, "matrices", ""), group, "/matrices")
    keys = [element_key(g) for g in group.elements]
    mats = _read_matrices([mats_doc[k] for k in keys], [(dim, dim)] * len(keys), "/matrices/", keys)
    try:
        return unitary_rep(group, dict(zip(group.elements, mats)))
    except ValueError as exc:
        raise InputDocumentError("/matrices", str(exc))


def rep_doc(rep: UnitaryRep) -> dict:
    if not isinstance(rep.carrier, Group):
        raise ValueError("only full-group representations are serialized")
    return {
        "group": group_doc(rep.carrier),
        "dim": rep.dim,
        "matrices": {element_key(g): matrix_doc(rep.matrix(g)) for g in rep.elements},
    }


def load_induction(doc: Any) -> tuple[Group, Subgroup, Character]:
    """Parse an induce document: a group, the subgroup its generators span and
    the full-group character of its exponents, to be restricted to that
    subgroup.  Residues and exponents must be integers; they are reduced
    modulo the orders."""
    group, gens, chi = _induction_parts(doc)
    return group, subgroup_from_generators(group, gens), chi


def _induction_parts(doc: Any) -> tuple[Group, list, Character]:
    """`load_induction` up to the closure, which walks the subgroup one
    element at a time: the group, the generators and the character."""
    node = _as_dict(doc, "/")
    group = load_group(_need(node, "group", ""), "/group")
    gens_node = _need(node, "subgroup_generators", "")
    if not isinstance(gens_node, list):
        raise InputDocumentError("/subgroup_generators", "expected an array of elements")
    gens = []
    for i, g in enumerate(gens_node):
        at = f"/subgroup_generators/{i}"
        if not isinstance(g, list) or len(g) != group.rank:
            raise InputDocumentError(at, f"expected {group.rank} residues")
        gens.append([_as_int(x, f"{at}/{j}") for j, x in enumerate(g)])
    exps = _need(node, "character_exponents", "")
    if not isinstance(exps, list) or len(exps) != group.rank:
        raise InputDocumentError("/character_exponents", f"expected {group.rank} exponents")
    chi = character(
        group, [_as_int(x, f"/character_exponents/{j}") for j, x in enumerate(exps)]
    )
    return group, gens, chi


def character_doc(chi: Character | SubgroupCharacter) -> list:
    return list(chi.exponents)


def multiplicity_doc(mv: MultiplicityVector) -> dict:
    return {
        "dim": mv.dim,
        "entries": [
            {"character": character_doc(chi), "multiplicity": m} for chi, m in mv.entries
        ],
    }


# ---------------------------------------------------------------------------
# bundles and symbols


def load_bundle(doc: Any) -> tuple[EquivariantSampleBundle, SymbolField | None]:
    """Parse a bundle document, with its symbol when present.

    A document with "fiber_dim_out"/"transport_out" describes a morphism
    bundle between two fiber families; it is folded into a single
    endomorphism bundle on the direct sums, with the symbol placed
    off-diagonally (its adjoint in the upper corner), so a rectangular symbol
    is elliptic exactly when the folded square one is.
    """
    node = _as_dict(doc, "/")
    group = load_group(_need(node, "group", ""), "/group")

    pts_node = _as_list(_need(node, "points", ""), "/points")
    points: dict[str, int] = {}  # in document order, to the index in sorted order
    for i, p in enumerate(pts_node):
        if not isinstance(p, str):
            raise InputDocumentError(f"/points/{i}", "point ids are strings")
        if p in points:
            raise InputDocumentError(f"/points/{i}", f"duplicate point id {p!r}")
        points[p] = 0
    pts = tuple(sorted(points))
    points.update((p, i) for i, p in enumerate(pts))

    base = _point_table(_need(node, "base", ""), points, "/base")
    for p in points:
        if not isinstance(base[p], str):
            raise InputDocumentError(f"/base/{p}", "labels are strings")

    def load_point_ints(field: str) -> dict[str, int]:
        fd_node = _point_table(_need(node, field, ""), points, f"/{field}")
        return {p: _positive_int(fd_node[p], f"/{field}/{p}") for p in points}

    action_node = _element_table(_need(node, "action", ""), group, "/action")
    table = np.empty((group.order, len(pts)), dtype=np.intp)
    for g, elem in enumerate(group.elements):
        key = element_key(elem)
        images = _point_table(action_node[key], points, f"/action/{key}")
        for p in points:
            q = images[p]
            if not isinstance(q, str) or q not in points:
                raise InputDocumentError(f"/action/{key}/{p}", f"image {q!r} is not a point")
            table[g, points[p]] = points[q]

    keys = list(points)  # document order, in which nodes are read and refused
    at = np.array(list(points.values()), dtype=np.intp)  # their sorted indices
    unsort = np.argsort(at).tolist()  # the document position of each sorted point

    def load_transport(field: str, dims: dict[str, int]) -> list[np.ndarray]:
        """T(g, p) at g * len(points) + p, points sorted."""
        t_node = _element_table(_need(node, field, ""), group, f"/{field}")
        out: list[np.ndarray] = []
        sizes, cols = [dims[p] for p in pts], [dims[p] for p in keys]  # Python ints, any size
        for g, elem in enumerate(group.elements):
            key = element_key(elem)
            row = _point_table(t_node[key], points, f"/{field}/{key}")
            shapes = list(zip(map(sizes.__getitem__, table[g, at].tolist()), cols))
            mats = _read_matrices([row[p] for p in keys], shapes, f"/{field}/{key}/", keys)
            out += map(mats.__getitem__, unsort)
        return out

    fiber_dim = load_point_ints("fiber_dim")
    two_bundle = "fiber_dim_out" in node or "transport_out" in node
    if two_bundle:
        fiber_out = load_point_ints("fiber_dim_out")
        t_in = load_transport("transport", fiber_dim)
        t_out = load_transport("transport_out", fiber_out)
        dims = {p: fiber_dim[p] + fiber_out[p] for p in pts}
        transports = []
        for a, b in zip(t_in, t_out):
            m = np.zeros((len(a) + len(b), a.shape[1] + b.shape[1]), dtype=complex)
            m[: len(a), : a.shape[1]], m[len(a) :, a.shape[1] :] = a, b
            transports.append(m)
    else:
        dims, transports = fiber_dim, load_transport("transport", fiber_dim)
    bundle = _from_tables(group, pts, base, dims, table, transports)

    if "symbol" not in node:
        return bundle, None
    sym_node = _point_table(node["symbol"], points, "/symbol")
    shapes = [(fiber_out[p] if two_bundle else fiber_dim[p], fiber_dim[p]) for p in keys]
    values: dict[str, np.ndarray] = {}
    for p, m in zip(keys, _read_matrices([sym_node[p] for p in keys], shapes, "/symbol/", keys)):
        if two_bundle:  # the symbol below the diagonal, its adjoint above
            a, folded = fiber_dim[p], np.zeros((sum(m.shape),) * 2, dtype=complex)
            folded[a:, :a], folded[:a, a:] = m, m.conj().T
            m = folded
        values[p] = m
    return bundle, symbol_field(bundle, values)


# ---------------------------------------------------------------------------
# canonical output


@lru_cache(maxsize=64)
def _matrix_template(rows: int, cols: int, indent: int) -> str:
    """The layout `_write` gives a rows x cols matrix document at this indent,
    with a %.17g slot per float."""
    pad0, pad1, pad2 = ("  " * k for k in (indent, indent + 1, indent + 2))
    pair = f"[\n{pad2}  %.17g,\n{pad2}  %.17g\n{pad2}]"
    row = "[\n" + ",\n".join([f"{pad1}  {pair}"] * cols) + f"\n{pad1}]"
    return "[\n" + ",\n".join([f"{pad0}  {row}"] * rows) + f"\n{pad0}]"


def _matrix_text(node: MatrixDoc, indent: int) -> str | None:
    """What `_write` writes for a matrix document, in one formatting call.

    '%.17g' % x is format(x, '.17g') for every finite float.  None when the
    node is not a grid of float pairs or holds a nan or an infinity (the only
    floats whose %.17g contains an "n"), for the recursive writer to take.
    """
    leaves = _grid_leaves(node)
    if leaves is None or set(map(type, leaves)) != {float}:
        return None
    text = _matrix_template(len(node), len(node[0]), indent) % tuple(leaves)
    return None if "n" in text else text


def _write(obj: Any, out: list[str], indent: int) -> None:
    pad = "  " * indent
    if type(obj) is MatrixDoc:
        text = _matrix_text(obj, indent)
        if text is not None:
            out.append(text)
            return
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            out.append('"nan"')
        elif math.isinf(x):
            out.append('"inf"' if x > 0 else '"-inf"')
        else:
            out.append(format(x, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(obj):
            out.append(pad + "  ")
            _write(item, out, indent + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        keys = sorted(obj)
        if not all(isinstance(k, str) for k in keys):
            raise TypeError("canonical documents use string keys only")
        out.append("{\n")
        for i, k in enumerate(keys):
            out.append(pad + "  " + json.dumps(k, ensure_ascii=True) + ": ")
            _write(obj[k], out, indent + 1)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(pad + "}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats, newline end."""
    out: list[str] = []
    _write(obj, out, 0)
    return "".join(out) + "\n"
