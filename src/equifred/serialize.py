"""JSON document schemas and byte-stable report serialization.

Element keys are comma-joined residue tuples ("0,1" for (0, 1)), parsed only
off a table's one walk in group order; complex entries are [re, im] pairs.
Each table of matrix nodes is read by one reader call into shape stacks; a
loading failure points at its first bad node in document order
("/transport/1/p0").  Serialization sorts keys and prints floats at 17
significant digits, so identical inputs produce identical bytes.
"""
from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .bundles import EquivariantSampleBundle, InputDocumentError, SymbolField
from .bundles import _from_tables, element_key
from .groups import Character, ElementT, Group, Subgroup, SubgroupCharacter
from .groups import character, subgroup_from_generators
from .reps import InternalInconsistencyError, MultiplicityVector, UnitaryRep, _checked_rep
from .reps import _ShapeStacks


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


def _element_table(node: Any, group: Group, path: str) -> tuple[list[str], list]:
    """The keys and entries, in `Group.elements` order, of node as an object
    with an entry per element of group, keyed as `element_key` writes it, and
    no other key (refused as by `_point_table`).  The walk stops at its first
    missing key, within the box of each factor's first len(node) + 1 residues,
    so any group gets its pointer; only a key off a complete walk is parsed."""
    node = _as_dict(node, path)
    keys, box = [], itertools.product(*(range(min(n, len(node) + 1)) for n in group.orders))
    for key in map(element_key, box):
        if key not in node:
            raise InputDocumentError(f"{path}/{key}", "missing")
        keys.append(key)
    if len(node) > len(keys):  # the first key off the walk names no element, or a walked one
        key = next(itertools.filterfalse(set(keys).__contains__, node))
        again = element_key(parse_element_key(key, group, f"{path}/{key}"))
        raise InputDocumentError(f"{path}/{key}", f"element key {key!r} repeats {again!r}")
    return keys, list(map(node.__getitem__, keys))


def _point_table(node: Any, points: Mapping, path: str) -> Mapping:
    """node as an object with an entry for each point and no other key (one
    comparison of the key sets decides it): the first missing point, or else
    the first key that is not a point, is refused at its pointer."""
    node = _as_dict(node, path)
    if node.keys() == points.keys():
        return node
    for p in points:
        if p not in node:
            raise InputDocumentError(f"{path}/{p}", "missing")
    key = next(itertools.filterfalse(points.__contains__, node))  # the key sets differ
    raise InputDocumentError(f"{path}/{key}", f"{key!r} is not a point")


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


def _read_matrices(nodes: list, kind: Sequence, shape: Callable, where: Callable) -> _ShapeStacks:
    """The `_ShapeStacks` of nodes by kind, node i of shape shape(kind[i])
    (Python ints of any size, at least 1) with where(i) its (place in
    document order, pointer).  A kind's stack concatenates
    `_matrix_in_one_call`s of at most _READ_LEAVES leaves.  That call refuses
    a batch exactly when the walk refuses one of its nodes: the batch is
    walked in document order to that fault, and once all are read the first
    fault in the document is raised."""
    faults: list[tuple[tuple, InputDocumentError]] = []

    def fault(part: list[int]) -> tuple[tuple, InputDocumentError]:
        for i in sorted(part, key=where):
            try:
                _walk_matrix(nodes[i], where(i)[1], shape(kind[i]))
            except InputDocumentError as exc:
                return where(i), exc
        raise InternalInconsistencyError("the walk took a batch the one-call read refused")

    def read(idx: np.ndarray) -> np.ndarray:
        r, c = shape(kind[idx[0]])
        step, parts = max(1, _READ_LEAVES // max(1, 2 * r * c)), []
        for part in (idx[k:k + step].tolist() for k in range(0, idx.size, step)):
            stack = _matrix_in_one_call(list(map(nodes.__getitem__, part)), (r, c))
            if stack is None:
                faults.append(fault(part))
            parts.append(stack)
        return np.empty(0) if faults else np.concatenate(parts)  # never sized from a shape

    stacks = _ShapeStacks(kind, read)
    if faults:
        raise min(faults, key=lambda f: f[0])[1]
    return stacks


def _lists(items: list) -> bool:
    """Whether every item is a list, as the walk takes it (a subclass too)."""
    return all(issubclass(t, list) for t in set(map(type, items)))


def _grid_leaves(node: Any) -> list | None:
    """The leaves, row-major, of a non-empty list of equal-length lists of
    2-element lists (the shape of a matrix document), or None."""
    if not isinstance(node, list) or not node or not _lists(node):
        return None
    entries = list(itertools.chain.from_iterable(node))
    if (
        set(map(len, node)) != {len(node[0])}
        or not _lists(entries)
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
    if not _lists(nodes) or set(map(len, nodes)) != {shape[0]}:
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
    data: list[list[complex]] = []
    for i, row in enumerate(rows):
        entries = _as_list(row, f"{path}/{i}")
        if data and len(entries) != len(data[0]):
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
    keys, mats = _element_table(_need(node, "matrices", ""), group, "/matrices")
    stacks = _read_matrices(mats, [0] * len(keys), lambda k: (dim, dim),
                            lambda i: (i, f"/matrices/{keys[i]}"))
    try:  # the checks of `unitary_rep`, on the stack as read
        return _checked_rep(group, stacks)
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
    """`load_induction` short of the subgroup: the group, the generators and
    the character, for a caller that bounds the group first."""
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
    points: dict[str, int] = {}  # each id to its place in document order
    for i, p in enumerate(pts_node):
        if not isinstance(p, str):
            raise InputDocumentError(f"/points/{i}", "point ids are strings")
        if p in points:
            raise InputDocumentError(f"/points/{i}", f"duplicate point id {p!r}")
        points[p] = i
    pts = tuple(sorted(points))
    index = {p: i for i, p in enumerate(pts)}
    n = len(pts)

    base = _point_table(_need(node, "base", ""), points, "/base")
    for p in points:
        if not isinstance(base[p], str):
            raise InputDocumentError(f"/base/{p}", "labels are strings")

    def load_point_ints(field: str) -> dict[str, int]:
        fd_node = _point_table(_need(node, field, ""), points, f"/{field}")
        return {p: _positive_int(fd_node[p], f"/{field}/{p}") for p in points}

    flat: list[int] = []  # A[g, p], g-major, points sorted
    for key, row in zip(*_element_table(_need(node, "action", ""), group, "/action")):
        images = _point_table(row, points, f"/action/{key}")
        found = list(map(images.__getitem__, pts))  # the row in one lookup, points sorted
        strs = all(map(isinstance, found, itertools.repeat(str)))
        ids = list(map(index.get, found, itertools.repeat(-1))) if strs else [-1]
        if -1 in ids:  # walked in document point order to its first bad image
            p = next(p for p in points if not isinstance(images[p], str) or images[p] not in index)
            raise InputDocumentError(f"/action/{key}/{p}", f"image {images[p]!r} is not a point")
        flat += ids
    table = np.array(flat, dtype=np.intp).reshape(group.order, n)

    def load_transport(field: str, dims: dict[str, int]) -> _ShapeStacks:
        """T(g, p) at g * n + p, points sorted, read in one call once every row
        passes `_point_table`; a row that fails it is met after those before."""
        keys, t_rows = _element_table(_need(node, field, ""), group, f"/{field}")
        first: dict[int, int] = {}  # each dim (a Python int of any size) to its first point
        code = np.array([first.setdefault(dims[p], i) for i, p in enumerate(pts)], dtype=np.intp)
        kind = (code[table] * n + code).ravel()  # the dims at g·p and at p

        def read(rows: list) -> _ShapeStacks:
            nodes = [row[p] for row in rows for p in pts]
            return _read_matrices(
                nodes, kind[:len(nodes)], lambda k: (dims[pts[k // n]], dims[pts[k % n]]),
                lambda i: ((i // n, points[pts[i % n]]), f"/{field}/{keys[i // n]}/{pts[i % n]}"))

        rows: list = []
        for key, row in zip(keys, t_rows):
            try:
                rows.append(_point_table(row, points, f"/{field}/{key}"))
            except InputDocumentError:
                read(rows)  # a fault in an earlier row is met first
                raise
        return read(rows)

    fiber_dim = load_point_ints("fiber_dim")
    two_bundle = "fiber_dim_out" in node or "transport_out" in node
    if two_bundle:
        fiber_out = load_point_ints("fiber_dim_out")
        t_in = load_transport("transport", fiber_dim)
        t_out = load_transport("transport_out", fiber_out)
        dims = {p: fiber_dim[p] + fiber_out[p] for p in pts}
        kind = t_in.cls * len(t_out.stacks) + t_out.cls
        transports = _ShapeStacks(kind, lambda i: _block_diagonal(t_in.take(i), t_out.take(i)))
    else:
        dims, transports = fiber_dim, load_transport("transport", fiber_dim)
    bundle = _from_tables(group, pts, base, dims, table, transports)

    if "symbol" not in node:
        return bundle, None
    sym_node = _point_table(node["symbol"], points, "/symbol")
    shapes = [(fiber_out[p] if two_bundle else fiber_dim[p], fiber_dim[p]) for p in pts]
    read = _read_matrices([sym_node[p] for p in pts], shapes, lambda k: k,
                          lambda i: (points[pts[i]], f"/symbol/{pts[i]}"))
    if two_bundle:  # the symbol below the diagonal, its adjoint above
        def fold(idx: np.ndarray) -> np.ndarray:  # diag(adjoint, symbol), column blocks swapped
            s = read.take(idx)
            return np.roll(_block_diagonal(s.conj().transpose(0, 2, 1), s), s.shape[2], axis=2)

        return bundle, SymbolField(bundle, _ShapeStacks(read.cls.tolist(), fold))
    return bundle, SymbolField(bundle, read)


def _block_diagonal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The stack of block-diagonal matrices with a's matrices over b's."""
    (k, r, c), (s, t) = a.shape, b.shape[1:]
    m = np.zeros((k, r + s, c + t), dtype=complex)
    m[:, :r, :c], m[:, r:, c:] = a, b
    return m


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
