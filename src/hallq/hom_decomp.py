"""Hom-space dimensions, isomorphism testing, and decomposition of modules
into indecomposable summands via exact hom-count linear algebra."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping

from .errors import InternalInvariantError
from .gf import matrix_rank
from .quiver_rep import (
    AlgebraContext,
    IndecLabel,
    Representation,
    all_labels,
    make_indec,
    rep_of_multiset,
)


def hom_dim_raw(
    n: int,
    p: int,
    dx: tuple[int, ...],
    ax: tuple[tuple[tuple[int, ...], ...], ...],
    lx: tuple[tuple[int, ...], ...],
    dm: tuple[int, ...],
    am: tuple[tuple[tuple[int, ...], ...], ...],
    lm: tuple[tuple[int, ...], ...],
) -> int:
    """hom_dim on raw entry tuples, for callers that avoid Representation."""
    offsets = []
    total = 0
    for v in range(n):
        offsets.append(total)
        total += dm[v] * dx[v]
    if total == 0:
        return 0
    rows: list[list[int]] = []

    def add_block(t_src: int, mat_x: tuple, mat_m: tuple, var_tgt: int) -> None:
        # equations f_tgt . mat_x = mat_m . f_src, one per (r, c)
        for r in range(dm[var_tgt]):
            mat_m_r = mat_m[r] if mat_m else ()
            for c in range(dx[t_src]):
                row = [0] * total
                hit = False
                base_tgt = offsets[var_tgt] + r * dx[var_tgt]
                for b in range(dx[var_tgt]):
                    coeff = mat_x[b][c] if mat_x else 0
                    if coeff:
                        row[base_tgt + b] = (row[base_tgt + b] + coeff) % p
                        hit = True
                for a in range(dm[t_src]):
                    coeff = mat_m_r[a]
                    if coeff:
                        idx = offsets[t_src] + a * dx[t_src] + c
                        row[idx] = (row[idx] - coeff) % p
                        hit = True
                if hit:
                    rows.append(row)

    for t in range(n - 1):
        add_block(t, ax[t], am[t], t + 1)
    add_block(n - 1, lx, lm, n - 1)
    return total - matrix_rank(rows, p)


def hom_dim(x: Representation, m: Representation) -> int:
    """Dimension of the space of module maps x -> m.

    A map is one matrix f_v per vertex with f_{v+1} A^x_v = A^m_v f_v at
    every arrow and f_n L^x = L^m f_n at the loop; the count is the nullity
    of the stacked constraint system.
    """
    if x.ctx != m.ctx:
        raise ValueError("hom_dim needs a common algebra context")
    n, p = x.ctx.n, x.ctx.p
    return hom_dim_raw(
        n,
        p,
        x.dims,
        tuple(a.entries for a in x.arrow),
        x.loop.entries,
        m.dims,
        tuple(a.entries for a in m.arrow),
        m.loop.entries,
    )


@lru_cache(maxsize=None)
def hom_table(n: int, p: int) -> dict[tuple[IndecLabel, IndecLabel], int]:
    """hom_dim between all pairs of indecomposables, filled once per (n, p)."""
    ctx = AlgebraContext(n, p)
    labels = all_labels(n)
    reps = {l: make_indec(l, ctx) for l in labels}
    return {(a, b): hom_dim(reps[a], reps[b]) for a in labels for b in labels}


def hom_profile(rep: Representation) -> tuple[int, ...]:
    """hom_dim(X, rep) over all indecomposable X in canonical label order."""
    ctx = rep.ctx
    return tuple(hom_dim(make_indec(l, ctx), rep) for l in all_labels(ctx.n))


def is_iso(m: Representation, nrep: Representation) -> bool:
    """Isomorphism test by hom counts against every indecomposable.

    For a representation-finite algebra, equal hom dimensions from all
    indecomposables (plus equal dimension vectors) force an isomorphism.
    """
    if m.ctx != nrep.ctx:
        raise ValueError("is_iso needs a common algebra context")
    if m.dims != nrep.dims:
        return False
    ctx = m.ctx
    for l in all_labels(ctx.n):
        probe = make_indec(l, ctx)
        if hom_dim(probe, m) != hom_dim(probe, nrep):
            return False
    return True


@dataclass(frozen=True)
class DecompositionMultiset:
    """Multiset of indecomposable summands, stored in canonical label order."""

    items: tuple[tuple[IndecLabel, int], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[IndecLabel, int]]) -> DecompositionMultiset:
        kept = [(l, m) for l, m in pairs if m]
        for _, m in kept:
            if m < 0:
                raise ValueError("multiplicities must be positive")
        kept.sort(key=lambda lm: lm[0].sort_key())
        return cls(tuple(kept))

    @classmethod
    def from_labels(cls, labels: Iterable[IndecLabel]) -> DecompositionMultiset:
        counts: dict[IndecLabel, int] = {}
        for l in labels:
            counts[l] = counts.get(l, 0) + 1
        return cls.from_pairs(counts.items())

    @property
    def multiplicities(self) -> Mapping[IndecLabel, int]:
        return dict(self.items)

    def as_labels(self) -> tuple[IndecLabel, ...]:
        out: list[IndecLabel] = []
        for l, m in self.items:
            out.extend([l] * m)
        return tuple(out)

    def sort_key(self) -> tuple[int, ...]:
        return tuple(t for l, m in self.items for t in (*l.sort_key(), m))

    def __len__(self) -> int:
        return sum(m for _, m in self.items)


@lru_cache(maxsize=None)
def _c_inverse(n: int, p: int) -> tuple[tuple[Fraction, ...], ...]:
    # inverse of the hom-count matrix C[X][Y] = hom_dim(X, Y); its
    # invertibility is what makes hom profiles decide isomorphism classes
    labels = all_labels(n)
    table = hom_table(n, p)
    k = len(labels)
    aug = [
        [Fraction(table[(labels[r], labels[c])]) for c in range(k)]
        + [Fraction(int(r == c)) for c in range(k)]
        for r in range(k)
    ]
    for col in range(k):
        piv = next((r for r in range(col, k) if aug[r][col]), None)
        if piv is None:
            raise InternalInvariantError("hom-count matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[k:]) for row in aug)


def decompose(m: Representation) -> DecompositionMultiset:
    """Krull-Schmidt decomposition from the hom profile.

    Solves C . mult = h exactly over the rationals, where h is the hom
    profile of m and C holds hom counts between indecomposables, then
    validates integrality, nonnegativity, and a round trip: the module
    rebuilt from the multiplicities has the dimensions and hom profile of m.
    """
    ctx = m.ctx
    labels = all_labels(ctx.n)
    h = hom_profile(m)
    cinv = _c_inverse(ctx.n, ctx.p)
    mult = [sum(row[i] * h[i] for i in range(len(labels))) for row in cinv]
    for l, v in zip(labels, mult):
        if v.denominator != 1 or v < 0:
            raise InternalInvariantError(
                f"hom profile produced multiplicity {v} for {l}; not a module count"
            )
    result = DecompositionMultiset.from_pairs(
        (l, int(v)) for l, v in zip(labels, mult) if v
    )
    rebuilt = rep_of_multiset(result.as_labels(), ctx)
    if rebuilt.dims != m.dims or hom_profile(rebuilt) != h:
        raise InternalInvariantError("decomposition failed its round-trip check")
    return result
