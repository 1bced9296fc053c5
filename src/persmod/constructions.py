"""Constructions on presented modules: sums, images, kernels, tensors.

Everything here returns new :class:`~persmod.presentation.Presentation`
values (plus projection or inclusion morphisms where meaningful) and
never mutates its inputs.

None of these functions re-checks morphism compatibility; that is
:func:`~persmod.presentation.validate_morphism`'s job and the caller's
choice.  The constructions are formal: they operate on the generator
maps as given, which also makes them usable as building blocks in
pipelines that work with maps failing the compatibility condition on
the nose (the torsion homology pipeline does).

The multiplicative family (tensor, dual, hom, exterior and symmetric
powers) works on diagonal form, because the generator-pairing rules
assume every generator carries an independent annihilator.  It reads
each generator's annihilator off the pivot pairing of one untracked
column reduction of the relations, the diagonal of the graded Smith
normal form.  Generators killed instantly (annihilator t^0) span zero
summands and are dropped.  :func:`snf_form` runs the graded Smith
normal form instead, for callers that need its change of generator
basis to map elements through, and reads the annihilators off its
pairing with the same reader,
:func:`~persmod.presentation._annihilators`.

A diagonal result is fully given by its (label, degree, annihilator)
triples, one per summand, so these functions return a presentation
that holds the triples (:func:`_diagonal_presentation`).  Its generator
and relation bases and its inclusion matrix are built only when a
caller first reads ``gens``, ``rels`` or ``incl``; the writer
:func:`persmod.cli.format_presentation` and a further diagonal
construction read the triples instead.  Label errors are still raised
at construction time.
"""

from __future__ import annotations

import math
from itertools import combinations, combinations_with_replacement, starmap

from .linalg import (
    GradedBasis,
    GradedMatrix,
    free_kernel,
    graded_snf,
)
from .presentation import (
    INF,
    Presentation,
    PresentationMorphism,
    _annihilators,
    _Diagonal,
)


def _joined(first: GradedBasis, second: GradedBasis) -> GradedBasis:
    """``first`` followed by ``second``, whose labels are primed until
    they are unique."""
    taken = set(first.labels)
    pairs = list(first)
    for lab, deg in second:
        while lab in taken:
            lab = lab + "'"
        taken.add(lab)
        pairs.append((lab, deg))
    return GradedBasis(pairs)


# ---------------------------------------------------------------------------
# SECTION: additive constructions
# ---------------------------------------------------------------------------


def direct_sum(p: Presentation, q: Presentation) -> Presentation:
    """Block-diagonal sum; right-hand labels are primed on collision."""
    if p.field != q.field:
        raise ValueError("direct sum needs a common field")
    gens = _joined(p.gens, q.gens)
    rels = _joined(p.rels, q.rels)
    off = len(p.gens)
    cols = [dict(c) for c in p.incl.cols]
    cols += [{i + off: v for i, v in c.items()} for c in q.incl.cols]
    return Presentation(p.field, GradedMatrix(p.field, rels, gens, cols))


def image(f: PresentationMorphism) -> Presentation:
    """The image of f, presented on the source's own generators.

    im f = F_P / phi^-1(i_Q G_Q), and that preimage, the relations
    rel0, rel1, ..., is the first step of :func:`kernel`.  A generator
    that phi sends into i_Q(G_Q) at its own degree is an ephemeral bar.

    >>> from persmod.fields import QQ
    >>> src = Presentation.free(QQ, [("a", 2)])
    >>> dst = Presentation.free(QQ, [("b", 0)])
    >>> phi = GradedMatrix(QQ, src.gens, dst.gens, [{0: QQ.one}])
    >>> im = image(PresentationMorphism(src, dst, phi))
    >>> list(im.gens), len(im.rels)
    ([('a', 2)], 0)
    """
    return Presentation(f.src.field, _kernel_step(f.phi, f.dst.incl, "rel"))


def cokernel(f: PresentationMorphism) -> Presentation:
    """Target generators with the images of f's generators added as
    relations: rels = G_Q followed by phi(F_P)."""
    rels = _joined(f.dst.rels, f.src.gens)
    cols = list(f.dst.incl.cols) + list(f.phi.cols)
    return Presentation(
        f.src.field, GradedMatrix(f.src.field, rels, f.dst.gens, cols)
    )


def _kernel_step(main: GradedMatrix, modders: GradedMatrix, prefix: str):
    """Elements of the main source whose image lies in the modders' span.

    Takes the free kernel of [main | -modders] and projects it to the
    main block; columns with zero projection are pure syzygies of the
    modders and present nothing, so they are pruned.  The projections
    are the columns prefix0, prefix1, ... of the matrix returned.
    """
    field = main.field
    cols = list(main.cols) + [
        {i: field.neg(v) for i, v in c.items()} for c in modders.cols
    ]
    stacked = GradedMatrix(
        field, _joined(main.source, modders.source), main.target, cols
    )
    k = free_kernel(stacked)
    na = main.ncols
    kept = []
    for col, degree in zip(k.cols, k.source.degrees):
        proj = {i: v for i, v in col.items() if i < na}
        if proj:
            kept.append((proj, degree))
    source = GradedBasis((f"{prefix}{n}", d) for n, (_, d) in enumerate(kept))
    return GradedMatrix(field, source, main.source, [c for c, _ in kept])


def kernel(f: PresentationMorphism):
    """The kernel of f, in two steps of ``_kernel_step``.

    Step 1, which :func:`image` shares, finds a free basis F_K, labeled
    k0, k1, ..., for the elements of F_P that phi maps into i_Q(G_Q)
    (these present kernel members).  Step 2 finds the relations rel0,
    rel1, ...: combinations of F_K that land in i_P(G_P).  Returns the
    kernel presentation and its inclusion morphism into f.src.
    """
    p = f.src
    incl_matrix = _kernel_step(f.phi, f.dst.incl, "k")
    pres = Presentation(p.field, _kernel_step(incl_matrix, p.incl, "rel"))
    return pres, PresentationMorphism(pres, p, incl_matrix)


def pullback(f: PresentationMorphism, g: PresentationMorphism):
    """Limit of f: P -> R <- Q: g, as the kernel of the difference map.

    Returns (pullback presentation, projection to P, projection to Q).
    """
    if f.dst != g.dst:
        raise ValueError("pullback inputs must share a target")
    field = f.src.field
    s = direct_sum(f.src, g.src)
    off = len(f.src.gens)
    cols = [dict(c) for c in f.phi.cols]
    cols += [{i: field.neg(v) for i, v in c.items()} for c in g.phi.cols]
    diff = GradedMatrix(field, s.gens, f.dst.gens, cols)
    k, incl = kernel(PresentationMorphism(s, f.dst, diff))
    proj_p = PresentationMorphism(
        k, f.src, incl.phi.restrict_rows(range(off), f.src.gens)
    )
    proj_q = PresentationMorphism(
        k, g.src, incl.phi.restrict_rows(range(off, len(s.gens)), g.src.gens)
    )
    return k, proj_p, proj_q


def pushout(f: PresentationMorphism, g: PresentationMorphism) -> Presentation:
    """Colimit of P <- R -> Q: the cokernel of r -> (f r, -g r)."""
    if f.src != g.src:
        raise ValueError("pushout inputs must share a source")
    field = f.src.field
    s = direct_sum(f.dst, g.dst)
    off = len(f.dst.gens)
    cols = []
    for j in range(len(f.src.gens)):
        col = dict(f.phi.cols[j])
        for i, v in g.phi.cols[j].items():
            col[i + off] = field.neg(v)
        cols.append(col)
    combined = GradedMatrix(field, f.src.gens, s.gens, cols)
    return cokernel(PresentationMorphism(f.src, s, combined))


# ---------------------------------------------------------------------------
# SECTION: diagonal form and the multiplicative family
# ---------------------------------------------------------------------------


class SnfForm:
    """A presentation converted to diagonal (Smith) form.

    ``presentation`` has one monic relation t^a per torsion generator
    and none for free generators; instantly-killed generators are gone.
    Its ``triples`` hold each surviving generator's exponent (INF for
    free).  ``to_new`` maps old generator coordinates to the new ones
    and ``from_new`` embeds the new generators back; they compose to the
    identity on the new side.
    """

    __slots__ = ("presentation", "to_new", "from_new")

    def __init__(self, presentation, to_new, from_new):
        self.presentation = presentation
        self.to_new = to_new
        self.from_new = from_new


def snf_form(p: Presentation) -> SnfForm:
    """Diagonalize a presentation, dropping zero summands."""
    snf = graded_snf(p.incl)
    gens = [(lab, deg, a) for (lab, deg), a in zip(p.gens, _annihilators(p, snf.lows))]
    kept = [i for i, (_, _, a) in enumerate(gens) if a != 0]
    pres = _diagonal_presentation(p.field, [gens[i] for i in kept])
    to_new = snf.row_change.restrict_rows(kept, pres.gens)
    from_new = GradedMatrix(
        p.field, pres.gens, p.gens, [snf.row_change_inv.cols[i] for i in kept]
    )
    return SnfForm(pres, to_new, from_new)


def _diagonal(p: Presentation) -> list:
    """(label, degree, annihilator) of each generator that survives;
    generators killed on arrival (annihilator t^0) are dropped.  A
    diagonal presentation gives back the triples it holds."""
    if isinstance(p, _Diagonal):
        return p.triples
    return [
        (lab, deg, a)
        for (lab, deg), a in zip(p.gens, _annihilators(p))
        if a != 0
    ]


def _diagonal_presentation(field, triples) -> Presentation:
    """Presentation from (label, degree, annihilator exponent) triples.

    Each triple is a generator and, for a finite annihilator a, the
    relation 1 t^a on it.  The result keeps the triples; its ``gens``,
    ``rels`` and ``incl`` are built when a caller first reads one of
    them.  The labels are checked now, so a repeated label fails here
    as the generator basis would fail on it.

    >>> from persmod.fields import QQ
    >>> d = _diagonal_presentation(QQ, [("x", 0, 2), ("y", 1, INF)])
    >>> d.triples
    [('x', 0, 2), ('y', 1, inf)]
    >>> list(d.gens), list(d.rels), d.incl.cols
    ([('x', 0), ('y', 1)], [('rel0', 2)], ({0: 1},))
    """
    if len({lab for lab, _, _ in triples}) != len(triples):
        # the generator basis raises on the first repeated label
        GradedBasis((lab, deg) for lab, deg, _ in triples)
    return _Diagonal(field, triples)


# A diagonal result whose labels need more characters than this is
# refused before anything is built; the test and benchmark inputs need
# at most 204,400.
LABEL_LIMIT = 10**7


def _check_label_size(what: str, size: int):
    if size > LABEL_LIMIT:
        shown = size if size < 10**18 else f"about 10^{int(math.log10(size))}"
        raise ValueError(
            f"{what} needs {shown} label characters, past the limit of {LABEL_LIMIT}"
        )


def tensor(p: Presentation, q: Presentation) -> Presentation:
    """Tensor product over k[t] of diagonalized inputs.

    Generator pairs multiply degrees additively; the pair's annihilator
    is the smaller of the factors' (t^a kills the pair as soon as it
    kills either factor, and no earlier power does).
    """
    dp, dq = _diagonal(p), _diagonal(q)
    # each pair's label is "(" + pl + "." + ql + ")"
    size = len(dq) * sum(len(pl) + 3 for pl, _, _ in dp)
    size += len(dp) * sum(len(ql) for ql, _, _ in dq)
    _check_label_size("tensor product", size)
    triples = [
        (f"({pl}.{ql})", pd + qd, min(pa, qa))
        for pl, pd, pa in dp
        for ql, qd, qa in dq
    ]
    return _diagonal_presentation(p.field, triples)


def tensor_over_k(p: Presentation, q: Presentation) -> Presentation:
    """Tensor over k, with the t-action taken from the left factor p.

    The non-acting factor q contributes one k-basis slot per degree
    where it is alive; each slot yields a degree-shifted copy of p.  So
    q must die in finite degree, otherwise the result would have
    infinite rank.
    """
    dp, dq = _diagonal(p), _diagonal(q)
    if any(a == INF for _, _, a in dq):
        raise ValueError(
            "non-acting tensor factor must be finite dimensional over k"
        )
    # a label is "(" + ql + "@" + e + "." + pl + ")", and e's text is
    # longest at an end of q's range
    longest = max((len(pl) + 4 for pl, _, _ in dp), default=0) + max(
        (len(ql) + max(len(str(qd)), len(str(qd + qa - 1))) for ql, qd, qa in dq),
        default=0,
    )
    _check_label_size(
        "tensor product over k", len(dp) * sum(qa for _, _, qa in dq) * longest
    )
    triples = [
        (f"({ql}@{e}.{pl})", pd + e, pa)
        for ql, qd, qa in dq
        for e in range(qd, qd + qa)
        for pl, pd, pa in dp
    ]
    return _diagonal_presentation(p.field, triples)


def dual(p: Presentation) -> Presentation:
    """Degree-reversed module on the dual basis of a diagonalized input.

    A torsion generator at degree b with annihilator t^a dualizes to a
    generator at degree -b with the same annihilator; free generators
    dualize to free generators.  On bars, [a, b) goes to
    [-a, -a + (b - a)) and [a, inf) to [-a, inf).

    This is not Hom(-, k[t]), which is 0 on a torsion bar, and not the
    Matlis dual, which sends [a, b) to [-b + 1, -a + 1): it keeps each
    bar's length and negates its birth.
    """
    triples = [(f"{lab}*", -deg, a) for lab, deg, a in _diagonal(p)]
    return _diagonal_presentation(p.field, triples)


def hom(p: Presentation, q: Presentation) -> Presentation:
    """Internal hom, realized as dual(p) tensor q."""
    return tensor(dual(p), q)


def _power(p: Presentation, m: int, name: str, choose, count, sep: str):
    """Generators are the m-element choices of diagonal generators.

    A choice has the summed degree and dies as soon as any member does;
    the first power is the diagonal form itself.  ``count(n, m)`` is the
    number of choices from n generators.
    """
    if m < 1:
        raise ValueError(f"{name} power needs m >= 1")
    gens = _diagonal(p)
    if m == 1:
        return _diagonal_presentation(p.field, gens)
    # a label is "(" + m labels joined by sep + ")", so a power is zero
    # at size 0 and otherwise needs at least m + 1 characters: the limit
    # settles a huge m before itertools allocates m slots
    longest = max((len(lab) for lab, _, _ in gens), default=0)
    size = count(len(gens), m) * (m * (longest + 1) + 1)
    if size == 0:
        return _diagonal_presentation(p.field, [])
    _check_label_size(f"{name} power", size)
    triples = [
        ("(" + sep.join(labels) + ")", sum(degrees), min(anns))
        for labels, degrees, anns in starmap(zip, choose(gens, m))
    ]
    return _diagonal_presentation(p.field, triples)


def exterior_power(p: Presentation, m: int) -> Presentation:
    """m-th exterior power of a diagonalized input.

    Generators are the strictly increasing m-subsets of the diagonal
    generators (the sorted representative absorbs the permutation sign);
    a subset dies as soon as any member does.
    """
    return _power(p, m, "exterior", combinations, math.comb, "^")


def symmetric_power(p: Presentation, m: int) -> Presentation:
    """m-th symmetric power: weight-m multisets with the same min rule."""
    return _power(
        p, m, "symmetric", combinations_with_replacement,
        lambda n, k: math.comb(n + k - 1, k), ".",
    )
