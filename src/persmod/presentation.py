"""Finitely presented graded k[t]-modules and their barcodes.

A presentation is an inclusion matrix i: G -> F between free graded
modules; the module it presents is the quotient F/iG.  The quotient
splits into cyclic summands, read off the pivot pairing of one column
reduction of i: a generator of degree b paired with a relation of
degree b+a contributes the interval module k[t]/(t^a) shifted to
[b, b+a), and an unpaired generator contributes a free summand, the
infinite interval [b, inf).  The pairing is the diagonal of the graded
Smith normal form (:func:`persmod.linalg.graded_snf`), which is only
run where its change-of-basis matrices are needed.

Length-0 intervals (a = 0) are generators killed on arrival.  They are
invisible in every degree slice but do appear in the relation data, so
barcodes carry them flagged as ephemeral and :func:`minimize` removes
them by default.

Two brute-force oracles, :func:`dimension_at` and :func:`rank_t_power`,
evaluate the presented module degreewise using nothing but dense
Gaussian elimination over k.  They share no machinery with the graded
reduction engine, which makes them useful as independent checks.
"""

from __future__ import annotations

import math

from .linalg import (
    GradedBasis,
    GradedMatrix,
    HomogeneousElement,
    column_echelon,
    membership,
)

INF = math.inf


class Presentation:
    """A finitely presented graded module F/iG.

    ``incl`` maps the free module on the relation basis into the free
    module on the generator basis; its columns are the relations.
    """

    __slots__ = ("field", "incl")

    def __init__(self, field, incl: GradedMatrix):
        self.field = field
        self.incl = incl

    @property
    def gens(self) -> GradedBasis:
        return self.incl.target

    @property
    def rels(self) -> GradedBasis:
        return self.incl.source

    @classmethod
    def free(cls, field, gens) -> "Presentation":
        """The free module on the given (label, degree) pairs."""
        basis = gens if isinstance(gens, GradedBasis) else GradedBasis(gens)
        return cls(field, GradedMatrix.zero(field, GradedBasis([]), basis))

    @classmethod
    def from_terms(cls, field, gens, relations) -> "Presentation":
        """Build from generator pairs and relations given as term lists.

        Each relation is a list of (coeff, exponent, generator label)
        terms.  All terms of one relation must agree on the implied
        degree exponent + deg(generator); the relation basis is labeled
        rel0, rel1, ...
        """
        basis = gens if isinstance(gens, GradedBasis) else GradedBasis(gens)
        cols = []
        degrees = []
        for n, terms in enumerate(relations):
            if not terms:
                raise ValueError(f"relation {n} has no terms")
            col: dict[int, object] = {}
            degree = None
            for coeff, exponent, label in terms:
                i = basis.index(label)
                if exponent < 0:
                    raise ValueError(f"relation {n}: negative exponent")
                d = exponent + basis.degrees[i]
                if degree is None:
                    degree = d
                elif degree != d:
                    raise ValueError(
                        f"relation {n} mixes degrees {degree} and {d}"
                    )
                c = field.add(col.get(i, field.zero), field.scalar(coeff))
                col[i] = c
            cols.append(col)
            degrees.append(degree)
        rel_basis = GradedBasis(
            (f"rel{n}", d) for n, d in enumerate(degrees)
        )
        return cls(field, GradedMatrix(field, rel_basis, basis, cols))

    def generator(self, label: str) -> HomogeneousElement:
        return HomogeneousElement.generator(self.field, self.gens, label)

    def relation(self, j: int) -> HomogeneousElement:
        return self.incl.column(j)

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.field == other.field
            and self.incl == other.incl
        )

    def __hash__(self):
        return hash(self.incl)

    def __repr__(self):
        return (
            f"Presentation({len(self.gens)} gens, {len(self.rels)} rels "
            f"over {self.field!r})"
        )


class PresentationMorphism:
    """A map between presented modules, given on generators.

    ``phi`` sends generators of ``src`` to elements of ``dst``'s
    generator module.  The map is well defined on the quotients exactly
    when every relation of ``src`` lands in the relation submodule of
    ``dst``; that is checked by :func:`validate_morphism`, not here.
    """

    __slots__ = ("src", "dst", "phi")

    def __init__(self, src: Presentation, dst: Presentation, phi: GradedMatrix):
        if phi.source != src.gens:
            raise ValueError("phi source must be the source generators")
        if phi.target != dst.gens:
            raise ValueError("phi target must be the target generators")
        self.src = src
        self.dst = dst
        self.phi = phi

    @classmethod
    def identity(cls, p: Presentation) -> "PresentationMorphism":
        return cls(p, p, GradedMatrix.identity(p.field, p.gens))

    @classmethod
    def zero(cls, src: Presentation, dst: Presentation) -> "PresentationMorphism":
        return cls(src, dst, GradedMatrix.zero(src.field, src.gens, dst.gens))

    def compose(self, other: "PresentationMorphism") -> "PresentationMorphism":
        """self after other."""
        if other.dst is not self.src and other.dst != self.src:
            raise ValueError("morphisms do not compose")
        return PresentationMorphism(other.src, self.dst, self.phi @ other.phi)

    def __eq__(self, other):
        return (
            isinstance(other, PresentationMorphism)
            and self.src == other.src
            and self.dst == other.dst
            and self.phi == other.phi
        )

    def __repr__(self):
        return f"PresentationMorphism({self.src!r} -> {self.dst!r})"


def validate_morphism(m: PresentationMorphism) -> bool:
    """True iff the generator map descends to the quotient modules."""
    ech = column_echelon(m.dst.incl, change=False)
    return all(
        membership(m.phi.apply(m.src.relation(j)), ech)
        for j in range(len(m.src.rels))
    )


class Bar:
    """One barcode interval [birth, death), possibly infinite.

    ``dim`` is a homological dimension label when the bar came from a
    complex, otherwise None.  A bar with birth == death is ephemeral: it
    is present in the presentation but invisible in every degree slice.
    """

    __slots__ = ("dim", "birth", "death")

    def __init__(self, dim, birth, death):
        if death != INF and death < birth:
            raise ValueError(f"bar dies at {death} before birth {birth}")
        self.dim = dim
        self.birth = birth
        self.death = death

    @property
    def ephemeral(self) -> bool:
        return self.death == self.birth

    def alive_at(self, d: int) -> bool:
        return self.birth <= d < self.death

    def key(self):
        return (self.dim if self.dim is not None else -1, self.birth, self.death)

    def __eq__(self, other):
        return (
            isinstance(other, Bar)
            and self.dim == other.dim
            and self.birth == other.birth
            and self.death == other.death
        )

    def __hash__(self):
        return hash((self.dim, self.birth, self.death))

    def __repr__(self):
        d = "-" if self.dim is None else self.dim
        return f"Bar({d}, {self.birth}, {self.death})"


class Barcode:
    """A multiset of bars, stored sorted for deterministic output."""

    __slots__ = ("bars",)

    def __init__(self, bars):
        self.bars = tuple(sorted(bars, key=Bar.key))

    def __iter__(self):
        return iter(self.bars)

    def __len__(self):
        return len(self.bars)

    def without_ephemeral(self) -> "Barcode":
        return Barcode(b for b in self.bars if not b.ephemeral)

    def merged_with(self, other) -> "Barcode":
        return Barcode(self.bars + tuple(other))

    def __eq__(self, other):
        # sorted tuples make multiset equality plain tuple equality
        return isinstance(other, Barcode) and self.bars == other.bars

    def __hash__(self):
        return hash(self.bars)

    def __repr__(self):
        return f"Barcode({list(self.bars)!r})"


def barcode(p: Presentation, dim=None) -> Barcode:
    """Intervals of the presented module, one per generator.

    Reads the pivot pairing of one column reduction of the inclusion: a
    pivot row i of relation column j gives the bar [deg gen i, deg rel
    j), and a generator row that is no pivot gives [deg gen i, inf).
    Zero relation columns contribute nothing.  The pairing does not
    depend on which legal column operations reach it, so these are the
    diagonal entries of the graded Smith normal form.
    """
    ech = column_echelon(p.incl, change=False)
    gdeg, rdeg = p.gens.degrees, p.rels.degrees
    bars = [Bar(dim, gdeg[i], rdeg[j]) for i, j in ech.lows.items()]
    bars.extend(
        Bar(dim, gdeg[i], INF) for i in range(len(gdeg)) if i not in ech.lows
    )
    return Barcode(bars)


def minimize(p: Presentation, keep_ephemeral: bool = False) -> Presentation:
    """An equivalent diagonal presentation without redundant pairs.

    Rebuilds the presentation from the pivot pairing (see
    :func:`barcode`) on the paired and unpaired generators, relations
    in column processing order.  Zero relation columns are dropped, and
    a pivot on a relation of the generator's own degree cancels its
    generator against its relation (the quotient does not change); pass
    ``keep_ephemeral=True`` to keep such pairs as explicit length-0
    data.  Relations come out monic.
    """
    lows = column_echelon(p.incl, change=False).lows
    gdeg, rdeg = p.gens.degrees, p.rels.degrees
    keep = [
        (row, col)
        for row, col in lows.items()
        if keep_ephemeral or rdeg[col] > gdeg[row]
    ]
    kept_rows = sorted(
        [row for row, _ in keep]
        + [i for i in range(len(gdeg)) if i not in lows]
    )
    gens = GradedBasis((p.gens.labels[i], gdeg[i]) for i in kept_rows)
    position = {row: n for n, row in enumerate(kept_rows)}
    cols = [{position[row]: p.field.one} for row, _ in keep]
    rel_basis = GradedBasis(
        (f"rel{n}", rdeg[col]) for n, (_, col) in enumerate(keep)
    )
    return Presentation(
        p.field, GradedMatrix(p.field, rel_basis, gens, cols)
    )


def _dense_rank(field, rows) -> int:
    """Plain Gaussian elimination over k on a dense scalar matrix."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = field.mul(rows[r][col], inv)
                rows[r] = [
                    field.sub(a, field.mul(factor, b))
                    for a, b in zip(rows[r], rows[rank])
                ]
        rank += 1
    return rank


def _slice_matrix(m: GradedMatrix, rows, cols):
    return [[m.entry(i, j) for j in cols] for i in rows]


def dimension_at(p: Presentation, d: int) -> int:
    """dim_k of the degree-d slice of the presented module.

    Brute force: the slice of F has one k-dimension per generator of
    degree <= d, and the slice of iG is spanned by the scalar columns of
    the relations of degree <= d.  No graded machinery is involved.
    """
    rows = [i for i in range(len(p.gens)) if p.gens.degrees[i] <= d]
    cols = [j for j in range(len(p.rels)) if p.rels.degrees[j] <= d]
    rank = _dense_rank(p.field, _slice_matrix(p.incl, rows, cols))
    return len(rows) - rank


def rank_t_power(p: Presentation, d: int, j: int) -> int:
    """Rank of t^j as a k-linear map from degree d to degree d + j.

    The image of the slice M_d in M_{d+j} is spanned by the generators
    of degree <= d taken modulo the relations of degree <= d+j, so the
    rank is rank[B | A] - rank[A] with B the inclusion of those
    generators into the degree-(d+j) slice of F and A the relation
    slice there.
    """
    if j < 0:
        raise ValueError("t-power must be nonnegative")
    rows = [i for i in range(len(p.gens)) if p.gens.degrees[i] <= d + j]
    row_pos = {i: n for n, i in enumerate(rows)}
    cols = [k for k in range(len(p.rels)) if p.rels.degrees[k] <= d + j]
    a = _slice_matrix(p.incl, rows, cols)
    rank_a = _dense_rank(p.field, a)
    b_cols = [i for i in rows if p.gens.degrees[i] <= d]
    combined = [
        [p.field.one if i == bc else p.field.zero for bc in b_cols] + a[row_pos[i]]
        for i in rows
    ]
    return _dense_rank(p.field, combined) - rank_a
