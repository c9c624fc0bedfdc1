"""Representations of the linear quiver 1 -> 2 -> ... -> n with a loop at n
and relation loop^2 = 0: indecomposables, direct sums, submodule witnesses."""

from __future__ import annotations

import re
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import LabelError, RelationError, WitnessError
from .frozen import Frozen, set_field
from .gf import PrimeFieldMatrix, SubspaceBasis, is_supported_prime, mat_vec, reduce_vector

# loop action on a 2-dimensional vertex space: e1 -> e2 -> 0
M_ALPHA = ((0, 0), (1, 0))


class AlgebraContext(Frozen):
    __slots__ = _fields = ("n", "p")

    def __init__(self, n: int, p: int) -> None:
        if n < 2:
            raise ValueError(f"need at least 2 vertices, got n={n}")
        if not is_supported_prime(p):
            raise ValueError(f"unsupported field order {p}; need a prime in [2, 97]")
        set_field(self, "n", n)
        set_field(self, "p", p)


_KIND_RANK = {"W": 0, "V": 1, "U": 2}


class IndecLabel(Frozen):
    """Isoclass label: U(i,j) any 1<=i,j<=n, V(i), or W(i,j) with i<=j<=n-1.

    V labels carry j=0 as a placeholder. Range checks against a concrete n
    happen in make_indec, not here.
    """

    _fields = ("kind", "i", "j")
    __slots__ = _fields + ("_hash", "_sort_key")

    def __init__(self, kind: str, i: int, j: int = 0) -> None:
        if kind not in ("U", "V", "W"):
            raise LabelError(f"unknown label kind {kind!r}")
        if i < 1:
            raise LabelError(f"index i must be positive, got {i}")
        if kind == "V":
            if j != 0:
                raise LabelError("V labels take a single index")
        elif j < 1:
            raise LabelError(f"index j must be positive, got {j}")
        if kind == "W" and j < i:
            raise LabelError(f"W({i},{j}) needs i <= j")
        set_field(self, "kind", kind)
        set_field(self, "i", i)
        set_field(self, "j", j)
        # labels key every cache and table, so the hash and the sort key are
        # computed once; the hash is that of the field tuple, as for every
        # value type (frozen.Frozen), so no set or dict order depends on it
        set_field(self, "_hash", hash((kind, i, j)))
        set_field(self, "_sort_key", (_KIND_RANK[kind], i, j))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.kind == other.kind and self.i == other.i and self.j == other.j
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple[int, int, int]:
        return self._sort_key

    def __str__(self) -> str:
        if self.kind == "V":
            return f"V{self.i}"
        return f"{self.kind}{self.i},{self.j}"


_LABEL_RE = re.compile(r"^([UVW])(\d+)(?:,(\d+))?$")


def parse_label(text: str) -> IndecLabel:
    m = _LABEL_RE.match(text.strip())
    if not m:
        raise LabelError(f"cannot parse label {text!r}; expected forms U2,1 V3 W1,2")
    kind, i, j = m.group(1), int(m.group(2)), m.group(3)
    if kind == "V":
        if j is not None:
            raise LabelError(f"V labels take a single index, got {text!r}")
        return IndecLabel("V", i)
    if j is None:
        raise LabelError(f"{kind} labels need two indices, got {text!r}")
    return IndecLabel(kind, i, int(j))


def parse_multiset(text: str) -> tuple[IndecLabel, ...]:
    """Parse a '+'-joined list of labels into a sorted label multiset."""
    parts = [s for s in (chunk.strip() for chunk in text.split("+")) if s]
    if not parts:
        raise LabelError(f"empty module expression {text!r}")
    return tuple(sorted((parse_label(s) for s in parts), key=IndecLabel.sort_key))


def multiset_to_str(labels: Sequence[IndecLabel]) -> str:
    return " + ".join(str(l) for l in labels) if labels else "0"


def check_label(label: IndecLabel, n: int) -> None:
    """Raise LabelError unless label is valid for an n-vertex algebra."""
    k, i, j = label.kind, label.i, label.j
    if k == "U":
        if not (1 <= i <= n and 1 <= j <= n):
            raise LabelError(f"{label} out of range for n={n}")
    elif k == "V":
        if not 1 <= i <= n:
            raise LabelError(f"{label} out of range for n={n}")
    else:
        if not 1 <= i <= j <= n - 1:
            raise LabelError(f"{label} out of range for n={n}")


def label_dims(label: IndecLabel, n: int) -> tuple[int, ...]:
    """Dimension vector of the indecomposable, by closed form."""
    check_label(label, n)
    k, i, j = label.kind, label.i, label.j
    if k == "U":
        lo, hi = (j, i) if j <= i else (i, j)
        return tuple(0 if v < lo else (1 if v < hi else 2) for v in range(1, n + 1))
    if k == "V":
        return tuple(0 if v < i else 1 for v in range(1, n + 1))
    return tuple(1 if i <= v <= j else 0 for v in range(1, n + 1))


@lru_cache(maxsize=None)
def all_labels(n: int) -> tuple[IndecLabel, ...]:
    """Every isoclass label at n vertices, in canonical order. Every table
    and report over the labels starts here, so this is where n >= 2 is
    checked (ValueError)."""
    if n < 2:
        raise ValueError("need n >= 2")
    out = [IndecLabel("W", i, j) for i in range(1, n) for j in range(i, n)]
    out += [IndecLabel("V", i) for i in range(1, n + 1)]
    out += [IndecLabel("U", i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    return tuple(sorted(out, key=IndecLabel.sort_key))


class DegreeTable(NamedTuple):
    """Each label's dimension vector at one n, and the labels of each vector
    in canonical order; read-only views, as degree_table's cache shares them."""

    n: int
    by_label: Mapping[IndecLabel, tuple[int, ...]]
    by_dims: Mapping[tuple[int, ...], tuple[IndecLabel, ...]]

    def dims(self, label: IndecLabel) -> tuple[int, ...]:
        """label_dims(label, n) by lookup; LabelError for a label not at n."""
        vec = self.by_label.get(label)
        if vec is None:
            raise LabelError(f"{label} out of range for n={self.n}")
        return vec


@lru_cache(maxsize=None)
def degree_table(n: int) -> DegreeTable:
    """The degree table at n, built on the first call for that n."""
    by_label = {l: label_dims(l, n) for l in all_labels(n)}
    by_dims: dict[tuple[int, ...], tuple[IndecLabel, ...]] = {}
    for l, vec in by_label.items():
        by_dims[vec] = by_dims.get(vec, ()) + (l,)
    return DegreeTable(n, MappingProxyType(by_label), MappingProxyType(by_dims))


class Representation(NamedTuple):
    """A module given by vertex spaces and matrices.

    arrow[v] maps vertex v+1 to vertex v+2 (0-based list over 1-based
    vertices); matrices act on column vectors. Structural validity is
    checked by check_relation, not at construction.
    """

    ctx: AlgebraContext
    dims: tuple[int, ...]
    arrow: tuple[PrimeFieldMatrix, ...]
    loop: PrimeFieldMatrix


RawRep = tuple  # (dims, arrow entries, loop entries)


@lru_cache(maxsize=None)
def _indec_raw(label: IndecLabel, n: int) -> RawRep:
    # the canonical matrices of a label; every entry is 0 or 1, so they
    # are the same over every F_p
    dims = label_dims(label, n)
    arrows = []
    for dv, dw in zip(dims, dims[1:]):
        if dv == 1 and dw == 2:
            # junction into the 2-dimensional tail: e1 for j <= i, e2 for i < j
            arrows.append(((1,), (0,)) if label.j <= label.i else ((0,), (1,)))
        else:
            # the identity between equal dimensions, zero otherwise
            eye = dv == dw
            arrows.append(tuple(tuple(int(eye and r == c) for c in range(dv)) for r in range(dw)))
    dn = dims[n - 1]
    loop = M_ALPHA if dn == 2 else tuple((0,) * dn for _ in range(dn))
    return dims, tuple(arrows), loop


def _block_diag(blocks, widths) -> tuple[tuple[int, ...], ...]:
    # entry tuples of the block-diagonal matrix; widths gives each block's
    # column count, which a block without rows does not carry
    total = sum(widths)
    rows = []
    left = 0
    for block, width in zip(blocks, widths):
        # the zero padding on either side, built once per block
        lpad, rpad = (0,) * left, (0,) * (total - left - width)
        rows += [lpad + tuple(r) + rpad for r in block]
        left += width
    return tuple(rows)


def raw_sum(labels: Iterable[IndecLabel], n: int) -> RawRep:
    """The direct sum of canonical indecomposables, summed in canonical
    label order, as raw entry tuples: the same over every F_p. The sum of
    one label is that label's own tuples, not a copy."""
    labels = sorted(labels, key=IndecLabel.sort_key)
    if len(labels) == 1:
        # the direct sum of one module is that module
        return _indec_raw(labels[0], n)
    raws = [_indec_raw(l, n) for l in labels]
    dims = tuple(map(sum, zip((0,) * n, *(r[0] for r in raws))))
    arrows = tuple(
        _block_diag([r[1][v] for r in raws], [r[0][v] for r in raws]) for v in range(n - 1)
    )
    return dims, arrows, _block_diag([r[2] for r in raws], [r[0][n - 1] for r in raws])


def _wrap(ctx: AlgebraContext, raw: RawRep) -> Representation:
    # one validated PrimeFieldMatrix per arrow and for the loop
    dims, arrows, loop = raw
    p = ctx.p
    mats = tuple(
        PrimeFieldMatrix(p, a, shape=(dims[v + 1], dims[v])) for v, a in enumerate(arrows)
    )
    return Representation(ctx, dims, mats, PrimeFieldMatrix(p, loop, shape=(dims[-1],) * 2))


def make_indec(label: IndecLabel, ctx: AlgebraContext) -> Representation:
    """The canonical matrix representation of an isoclass label."""
    return _wrap(ctx, _indec_raw(label, ctx.n))


def simple(i: int, ctx: AlgebraContext) -> IndecLabel:
    if not 1 <= i <= ctx.n:
        raise LabelError(f"no vertex {i} at n={ctx.n}")
    return IndecLabel("V", ctx.n) if i == ctx.n else IndecLabel("W", i, i)


def direct_sum(a: Representation, b: Representation) -> Representation:
    if a.ctx != b.ctx:
        raise ValueError("direct sum needs a common algebra context")
    dims = tuple(x + y for x, y in zip(a.dims, b.dims))
    arrows = tuple(
        _block_diag((x.entries, y.entries), (x.cols, y.cols)) for x, y in zip(a.arrow, b.arrow)
    )
    loop = _block_diag((a.loop.entries, b.loop.entries), (a.loop.cols, b.loop.cols))
    return _wrap(a.ctx, (dims, arrows, loop))


def rep_of_multiset(labels: Iterable[IndecLabel], ctx: AlgebraContext) -> Representation:
    """Direct sum of indecomposables, summed in canonical label order."""
    return _wrap(ctx, raw_sum(labels, ctx.n))


def zero_rep(ctx: AlgebraContext) -> Representation:
    return rep_of_multiset((), ctx)


def multiset_dims(labels: Iterable[IndecLabel], n: int) -> tuple[int, ...]:
    dims = degree_table(n).dims
    return tuple(map(sum, zip((0,) * n, *(dims(l) for l in labels))))


@lru_cache(maxsize=None)
def multisets_with_dims(n: int, dims: tuple[int, ...]) -> tuple[tuple[IndecLabel, ...], ...]:
    """All label multisets whose dimension vectors sum to dims."""
    labels = all_labels(n)
    vecs = [label_dims(l, n) for l in labels]
    out: list[tuple[IndecLabel, ...]] = []
    chosen: list[IndecLabel] = []

    def go(idx: int, remaining: tuple[int, ...]) -> None:
        if not any(remaining):
            out.append(tuple(chosen))
            return
        for k in range(idx, len(labels)):
            vec = vecs[k]
            if all(r >= d for r, d in zip(remaining, vec)):
                chosen.append(labels[k])
                go(k, tuple(r - d for r, d in zip(remaining, vec)))
                chosen.pop()

    go(0, dims)
    return tuple(out)


def check_relation(r: Representation) -> bool:
    """True iff all shapes are consistent and the loop squares to zero."""
    n, p = r.ctx.n, r.ctx.p
    if len(r.dims) != n or len(r.arrow) != n - 1:
        return False
    if any(d < 0 for d in r.dims):
        return False
    for v in range(n - 1):
        m = r.arrow[v]
        if m.p != p or m.rows != r.dims[v + 1] or m.cols != r.dims[v]:
            return False
    if r.loop.p != p or r.loop.rows != r.dims[n - 1] or r.loop.cols != r.dims[n - 1]:
        return False
    sq = r.loop @ r.loop
    return all(not x for row in sq.entries for x in row)


class SubmoduleWitness(NamedTuple):
    parent: Representation
    spaces: tuple[SubspaceBasis, ...]


def validate_witness(w: SubmoduleWitness) -> None:
    r = w.parent
    n, p = r.ctx.n, r.ctx.p
    if len(w.spaces) != n:
        raise WitnessError(f"need one subspace per vertex, got {len(w.spaces)}")
    for v, s in enumerate(w.spaces):
        if s.p != p or s.ambient_dim != r.dims[v]:
            raise WitnessError(f"subspace at vertex {v + 1} does not match the parent")
    for v in range(n - 1):
        a = r.arrow[v].entries
        tgt = w.spaces[v + 1]
        for b in w.spaces[v].row_basis:
            if not tgt.contains_vector(mat_vec(a, b, p)):
                raise WitnessError(f"arrow at vertex {v + 1} leaves the subspace")
    lo = r.loop.entries
    tgt = w.spaces[n - 1]
    for b in tgt.row_basis:
        if not tgt.contains_vector(mat_vec(lo, b, p)):
            raise WitnessError("loop leaves the subspace at the last vertex")


def _restrict(
    mat: PrimeFieldMatrix, src: SubspaceBasis, tgt: SubspaceBasis
) -> PrimeFieldMatrix:
    # matrix of mat on the chosen subspaces, in echelon-basis coordinates;
    # assumes mat maps src into tgt (validated by the witness check)
    p = mat.p
    cols = []
    for b in src.row_basis:
        img = mat_vec(mat.entries, b, p)
        cols.append(tuple(img[piv] for piv in tgt.pivots))
    entries = tuple(zip(*cols)) if cols else tuple(() for _ in range(tgt.dim))
    return PrimeFieldMatrix(p, entries, shape=(tgt.dim, src.dim))


def _induced(
    mat: PrimeFieldMatrix, src: SubspaceBasis, tgt: SubspaceBasis
) -> PrimeFieldMatrix:
    # matrix of mat on quotient coordinates: complement positions of the
    # echelon pivots, with representatives reduced against the subspace
    p = mat.p
    src_compl = [c for c in range(src.ambient_dim) if c not in set(src.pivots)]
    tgt_compl = [c for c in range(tgt.ambient_dim) if c not in set(tgt.pivots)]
    cols = []
    for c in src_compl:
        img = reduce_vector([row[c] for row in mat.entries], tgt.row_basis, tgt.pivots, p)
        cols.append(tuple(img[c2] for c2 in tgt_compl))
    entries = tuple(zip(*cols)) if cols else tuple(() for _ in range(len(tgt_compl)))
    return PrimeFieldMatrix(p, entries, shape=(len(tgt_compl), len(src_compl)))


def submodule_and_quotient(w: SubmoduleWitness) -> tuple[Representation, Representation]:
    """Split a witness into (submodule, quotient) representations."""
    validate_witness(w)
    r = w.parent
    n = r.ctx.n
    sub_dims = tuple(s.dim for s in w.spaces)
    quot_dims = tuple(d - s.dim for d, s in zip(r.dims, w.spaces))
    sub_arrows = tuple(
        _restrict(r.arrow[v], w.spaces[v], w.spaces[v + 1]) for v in range(n - 1)
    )
    quot_arrows = tuple(
        _induced(r.arrow[v], w.spaces[v], w.spaces[v + 1]) for v in range(n - 1)
    )
    sub = Representation(
        r.ctx, sub_dims, sub_arrows, _restrict(r.loop, w.spaces[n - 1], w.spaces[n - 1])
    )
    quot = Representation(
        r.ctx, quot_dims, quot_arrows, _induced(r.loop, w.spaces[n - 1], w.spaces[n - 1])
    )
    return sub, quot


def rep_to_json(r: Representation) -> dict:
    return {
        "p": r.ctx.p,
        "n": r.ctx.n,
        "dims": list(r.dims),
        "arrows": [[list(row) for row in m.entries] for m in r.arrow],
        "loop": [list(row) for row in r.loop.entries],
    }


def _is_int(x: object) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def rep_from_json(obj: object) -> Representation:
    """Build a Representation from the JSON schema, with descriptive errors."""
    if not isinstance(obj, dict):
        raise RelationError("representation file must hold a JSON object")
    for key in ("p", "n", "dims", "arrows", "loop"):
        if key not in obj:
            raise RelationError(f"representation object is missing {key!r}")
    n, p = obj["n"], obj["p"]
    if not (_is_int(n) and _is_int(p)):
        raise RelationError(f"n and p must be integers, got n={n!r}, p={p!r}")
    try:
        ctx = AlgebraContext(n, p)
    except ValueError as e:
        raise RelationError(f"bad algebra parameters: {e}") from None
    dims = obj["dims"]
    if not isinstance(dims, list) or len(dims) != n or not all(
        _is_int(d) and d >= 0 for d in dims
    ):
        raise RelationError(f"dims must be a list of {n} nonnegative integers")
    arrows_raw = obj["arrows"]
    if not isinstance(arrows_raw, list) or len(arrows_raw) != n - 1:
        raise RelationError(f"arrows must be a list of {n - 1} matrices")

    def build(mat: object, rows: int, cols: int, what: str) -> PrimeFieldMatrix:
        if not isinstance(mat, list) or len(mat) != rows or not all(
            isinstance(r, list) and len(r) == cols for r in mat
        ):
            raise RelationError(f"{what} must be a {rows}x{cols} matrix")
        for r in mat:
            for x in r:
                if not _is_int(x) or not 0 <= x < p:
                    raise RelationError(f"{what} has entry {x!r} not reduced mod {p}")
        return PrimeFieldMatrix(p, tuple(tuple(r) for r in mat), shape=(rows, cols))

    arrows = tuple(
        build(arrows_raw[v], dims[v + 1], dims[v], f"arrow {v + 1}->{v + 2}")
        for v in range(n - 1)
    )
    loop = build(obj["loop"], dims[n - 1], dims[n - 1], "loop")
    rep = Representation(ctx, tuple(dims), arrows, loop)
    # the shapes are checked above, so check_relation fails on the loop alone
    if not check_relation(rep):
        raise RelationError("loop matrix does not square to zero")
    return rep
