"""Finitely presented graded k[t]-modules and their barcodes.

A presentation is an inclusion matrix i: G -> F between free graded
modules; the module it presents is the quotient F/iG.  The quotient
splits into cyclic summands, read off the pivot pairing of one column
reduction of i: a generator of degree b paired with a relation of
degree b+a contributes the interval module k[t]/(t^a) shifted to
[b, b+a), and an unpaired generator contributes a free summand, the
infinite interval [b, inf).  The pairing is the diagonal of the graded
Smith normal form (:func:`persmod.linalg.graded_snf`), which is only
run where its change of generator basis is needed.

Length-0 intervals (a = 0) are generators killed on arrival.  They are
invisible in every degree slice but do appear in the relation data, so
barcodes carry them flagged as ephemeral; the diagonal constructions in
:mod:`persmod.constructions` drop them.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .linalg import (
    GradedBasis,
    GradedMatrix,
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
                c = field.scalar(coeff)
                if i in col:
                    c = field.add(col[i], c)
                col[i] = c
            cols.append(col)
            degrees.append(degree)
        rel_basis = GradedBasis(
            (f"rel{n}", d) for n, d in enumerate(degrees)
        )
        return cls(field, GradedMatrix(field, rel_basis, basis, cols))

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


class _Diagonal(Presentation):
    """A diagonal presentation kept as (label, degree, annihilator)
    triples; see :func:`persmod.constructions._diagonal_presentation`.

    The base class's ``incl`` slot stays empty until its first read,
    which ``__getattr__`` serves by building it.  The caller has checked
    the labels, so the build cannot fail.
    """

    __slots__ = ("triples",)

    def __init__(self, field, triples):
        self.field = field
        self.triples = triples

    def __getattr__(self, name):
        if name != "incl":
            raise AttributeError(name)
        gens = GradedBasis([(lab, deg) for lab, deg, _ in self.triples])
        one = self.field.one
        rels = []
        cols = []
        for n, (_, deg, a) in enumerate(self.triples):
            if a != INF:
                rels.append((f"rel{len(cols)}", deg + a))
                cols.append({n: one})
        self.incl = GradedMatrix(self.field, GradedBasis(rels), gens, cols)
        return self.incl


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
    """True iff the generator map descends to the quotient modules:
    the image of every source relation, a column of phi @ incl at the
    relation's degree, lies in the span of the target's relations."""
    return membership(m.phi @ m.src.incl, m.dst.incl)


class Bar(namedtuple("Bar", ["dim", "birth", "death"])):
    """One barcode interval [birth, death), possibly infinite.

    ``dim`` is a homological dimension label when the bar came from a
    complex, otherwise None.  A bar with birth == death is ephemeral: it
    is present in the presentation but invisible in every degree slice.
    A bar is the plain triple (dim, birth, death) and compares as one.
    """

    __slots__ = ()

    def __new__(cls, dim, birth, death):
        if death != INF and death < birth:
            raise ValueError(f"bar dies at {death} before birth {birth}")
        return tuple.__new__(cls, (dim, birth, death))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def ephemeral(self) -> bool:
        return self.death == self.birth


class Barcode(tuple):
    """A multiset of bars, stored as a sorted tuple for deterministic
    output.  One barcode's dimensions are all ints or all None, so
    tuple order never compares None with <."""

    __slots__ = ()

    def __new__(cls, bars):
        return tuple.__new__(cls, sorted(bars))

    def without_ephemeral(self) -> "Barcode":
        return Barcode(b for b in self if not b.ephemeral)


def _annihilators(p: Presentation, lows=None) -> list:
    """Each generator's annihilator exponent, from a pivot pairing.

    ``lows`` maps pivot rows to relation columns, and defaults to that
    of one untracked column reduction of the inclusion: pivot row i of
    relation column j gives deg rel j - deg gen i, and a generator row
    that is no pivot gives INF.  Zero relation columns contribute
    nothing.  The pairing does not depend on which legal column
    operations reach it, so ``graded_snf(p.incl).lows`` is the same
    pairing, and these are the diagonal entries of the graded Smith
    normal form.
    """
    if lows is None:
        lows = column_echelon(p.incl).lows
    ann = [INF] * len(p.gens)
    gdeg, rdeg = p.gens.degrees, p.rels.degrees
    for i, j in lows.items():
        ann[i] = rdeg[j] - gdeg[i]
    return ann


def barcode(p: Presentation) -> Barcode:
    """Intervals of the presented module, one per generator.

    Generator i of degree b with annihilator t^a (see
    :func:`_annihilators`) gives the bar [b, b + a), and [b, inf) when
    it is free.  The bars carry no dimension label.
    """
    return Barcode(
        Bar(None, d, d + a) for d, a in zip(p.gens.degrees, _annihilators(p))
    )

