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
powers) first converts its inputs to diagonal form via
:func:`snf_form`, because the generator-pairing rules assume every
generator carries an independent annihilator.  Generators killed
instantly (annihilator t^0) span zero summands and are dropped by the
conversion; the conversion's change-of-basis matrices are exposed on
:class:`SnfForm` for callers that need to map elements through.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement

from .linalg import (
    GradedBasis,
    GradedMatrix,
    HomogeneousElement,
    column_echelon,
    concat_bases,
    express_in_echelon,
    free_kernel,
    graded_snf,
)
from .presentation import INF, Presentation, PresentationMorphism


def _fresh_labels(basis: GradedBasis, taken: set) -> list:
    """Labels for ``basis`` made unique against ``taken`` by priming."""
    labels = []
    for lab in basis.labels:
        while lab in taken:
            lab = lab + "'"
        taken.add(lab)
        labels.append(lab)
    return labels


def _relabeled(basis: GradedBasis, taken: set) -> GradedBasis:
    return GradedBasis(zip(_fresh_labels(basis, taken), basis.degrees))


# ---------------------------------------------------------------------------
# SECTION: additive constructions
# ---------------------------------------------------------------------------


def direct_sum(p: Presentation, q: Presentation) -> Presentation:
    """Block-diagonal sum; right-hand labels are primed on collision."""
    if p.field != q.field:
        raise ValueError("direct sum needs a common field")
    q_gens = _relabeled(q.gens, set(p.gens.labels))
    q_rels = _relabeled(q.rels, set(p.rels.labels))
    gens = concat_bases(p.gens, q_gens)
    rels = concat_bases(p.rels, q_rels)
    off = len(p.gens)
    cols = [dict(c) for c in p.incl.cols]
    cols += [{i + off: v for i, v in c.items()} for c in q.incl.cols]
    return Presentation(p.field, GradedMatrix(p.field, rels, gens, cols))


def image(f: PresentationMorphism) -> Presentation:
    """The image of f presented as a submodule of the target.

    Column-reduces [phi | i_Q] jointly; the surviving columns form a
    free basis w_0, w_1, ... of i_Q(G_Q) + phi(F_P), and each original
    target relation re-expressed over that basis gives one relation of
    the image (quotienting the span back down by i_Q(G_Q)).
    """
    field = f.src.field
    phi, iq = f.phi, f.dst.incl
    taken: set = set()
    a = _relabeled(phi.source, taken)
    b = _relabeled(iq.source, taken)
    combined = GradedMatrix(
        field, concat_bases(a, b), f.dst.gens, list(phi.cols) + list(iq.cols)
    )
    ech = column_echelon(combined, change=False)
    dead = set(ech.zero_cols)
    survivors = [c for c in ech.order if c not in dead]
    pos = {c: n for n, c in enumerate(survivors)}
    w_basis = GradedBasis(
        (f"w{n}", combined.source.degrees[c]) for n, c in enumerate(survivors)
    )
    rel_cols = []
    for j in range(iq.ncols):
        coeffs = express_in_echelon(iq.column(j), ech)
        rel_cols.append({pos[c]: v for c, v in coeffs.coords.items()})
    rels = GradedBasis(
        (f"rel{n}", d) for n, d in enumerate(iq.source.degrees)
    )
    return Presentation(field, GradedMatrix(field, rels, w_basis, rel_cols))


def cokernel(f: PresentationMorphism) -> Presentation:
    """Target generators with the images of f's generators added as
    relations: rels = G_Q followed by phi(F_P)."""
    extra = _relabeled(f.src.gens, set(f.dst.rels.labels))
    rels = concat_bases(f.dst.rels, extra)
    cols = list(f.dst.incl.cols) + list(f.phi.cols)
    return Presentation(
        f.src.field, GradedMatrix(f.src.field, rels, f.dst.gens, cols)
    )


def _kernel_step(main: GradedMatrix, modders: GradedMatrix):
    """Elements of the main source whose image lies in the modders' span.

    Takes the free kernel of [main | -modders] and projects it to the
    main block; elements with zero projection are pure syzygies of the
    modders and present nothing, so they are pruned.
    """
    field = main.field
    taken: set = set()
    a = _relabeled(main.source, taken)
    b = _relabeled(modders.source, taken)
    cols = list(main.cols) + [
        {i: field.neg(v) for i, v in c.items()} for c in modders.cols
    ]
    stacked = GradedMatrix(field, concat_bases(a, b), main.target, cols)
    k = free_kernel(stacked)
    na = main.ncols
    out = []
    for j in range(k.ncols):
        proj = {i: v for i, v in k.cols[j].items() if i < na}
        if proj:
            out.append(
                HomogeneousElement(field, main.source, k.source.degrees[j], proj)
            )
    return out


def kernel(f: PresentationMorphism):
    """The kernel of f, in two steps.

    Step 1 finds a free basis F_K for the elements of F_P that phi maps
    into i_Q(G_Q) (these are the elements presenting kernel members).
    Step 2 finds the relations: combinations of F_K that land in
    i_P(G_P).  Returns the kernel presentation and its inclusion
    morphism into f.src.
    """
    field = f.src.field
    p = f.src
    members = _kernel_step(f.phi, f.dst.incl)
    incl_matrix = GradedMatrix.from_columns(
        field, p.gens, members, [f"k{n}" for n in range(len(members))]
    )
    relations = _kernel_step(incl_matrix, p.incl)
    rel_matrix = GradedMatrix.from_columns(
        field, incl_matrix.source, relations,
        [f"rel{n}" for n in range(len(relations))],
    )
    pres = Presentation(field, rel_matrix)
    return pres, PresentationMorphism(pres, p, incl_matrix)


def pullback(f: PresentationMorphism, g: PresentationMorphism):
    """Limit of f: P -> R <- Q: g, as the kernel of the difference map.

    Returns (pullback presentation, projection to P, projection to Q).
    """
    if f.dst != g.dst:
        raise ValueError("pullback needs a common target")
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
        raise ValueError("pushout needs a common source")
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
    ``annihilators`` lists each surviving generator's exponent (INF for
    free).  ``to_new`` maps old generator coordinates to the new ones
    and ``from_new`` embeds the new generators back; they compose to the
    identity on the new side.
    """

    __slots__ = ("presentation", "to_new", "from_new", "annihilators")

    def __init__(self, presentation, to_new, from_new, annihilators):
        self.presentation = presentation
        self.to_new = to_new
        self.from_new = from_new
        self.annihilators = annihilators

    @property
    def gens(self) -> GradedBasis:
        return self.presentation.gens


def snf_form(p: Presentation) -> SnfForm:
    """Diagonalize a presentation, dropping zero summands."""
    field = p.field
    snf = graded_snf(p.incl)
    ann_by_row = {row: mono.exponent for row, _, mono in snf.diagonal}
    kept = [
        i for i in range(len(p.gens)) if ann_by_row.get(i, INF) != 0
    ]
    gens = GradedBasis((p.gens.labels[i], p.gens.degrees[i]) for i in kept)
    annihilators = tuple(ann_by_row.get(i, INF) for i in kept)
    cols = []
    degrees = []
    for n, i in enumerate(kept):
        a = annihilators[n]
        if a != INF:
            cols.append({n: field.one})
            degrees.append(p.gens.degrees[i] + a)
    rels = GradedBasis((f"rel{n}", d) for n, d in enumerate(degrees))
    pres = Presentation(field, GradedMatrix(field, rels, gens, cols))
    to_new = snf.row_change.restrict_rows(kept, gens)
    from_new = GradedMatrix(
        field, gens, p.gens, [snf.row_change_inv.cols[i] for i in kept]
    )
    return SnfForm(pres, to_new, from_new, annihilators)


def _diagonal_presentation(field, gens_with_ann):
    """Presentation from (label, degree, annihilator exponent) triples."""
    gens = GradedBasis((lab, deg) for lab, deg, _ in gens_with_ann)
    cols = []
    degrees = []
    for n, (_, deg, a) in enumerate(gens_with_ann):
        if a != INF:
            cols.append({n: field.one})
            degrees.append(deg + a)
    rels = GradedBasis((f"rel{n}", d) for n, d in enumerate(degrees))
    return Presentation(field, GradedMatrix(field, rels, gens, cols))


def tensor(p: Presentation, q: Presentation) -> Presentation:
    """Tensor product over k[t] of diagonalized inputs.

    Generator pairs multiply degrees additively; the pair's annihilator
    is the smaller of the factors' (t^a kills the pair as soon as it
    kills either factor, and no earlier power does).
    """
    sp, sq = snf_form(p), snf_form(q)
    triples = []
    for i, (pl, pd) in enumerate(sp.gens):
        for j, (ql, qd) in enumerate(sq.gens):
            ann = min(sp.annihilators[i], sq.annihilators[j])
            triples.append((f"({pl}.{ql})", pd + qd, ann))
    return _diagonal_presentation(p.field, triples)


def tensor_over_k(
    p: Presentation, q: Presentation, acting_side: str = "left"
) -> Presentation:
    """Tensor over k, with the t-action taken from one side only.

    The non-acting factor contributes one k-basis slot per degree where
    it is alive; each slot yields a degree-shifted copy of the acting
    factor.  The non-acting factor must die in finite degree, otherwise
    the result would have infinite rank.
    """
    if acting_side == "left":
        acting, passive = p, q
    elif acting_side == "right":
        acting, passive = q, p
    else:
        raise ValueError(f"acting_side must be left or right, not {acting_side!r}")
    sa, sp = snf_form(acting), snf_form(passive)
    if any(a == INF for a in sp.annihilators):
        raise ValueError(
            "non-acting tensor factor must be finite dimensional over k"
        )
    triples = []
    for j, (ql, qd) in enumerate(sp.gens):
        for e in range(qd, qd + sp.annihilators[j]):
            for i, (pl, pd) in enumerate(sa.gens):
                triples.append(
                    (f"({ql}@{e}.{pl})", pd + e, sa.annihilators[i])
                )
    return _diagonal_presentation(p.field, triples)


def dual(p: Presentation) -> Presentation:
    """Degree-reversed module on the dual basis of a diagonalized input.

    A torsion generator at degree b with annihilator t^a dualizes to a
    generator at degree -b with the same annihilator; free generators
    dualize to free generators.
    """
    sp = snf_form(p)
    triples = [
        (f"{lab}*", -deg, sp.annihilators[i])
        for i, (lab, deg) in enumerate(sp.gens)
    ]
    return _diagonal_presentation(p.field, triples)


def hom(p: Presentation, q: Presentation) -> Presentation:
    """Internal hom, realized as dual(p) tensor q."""
    return tensor(dual(p), q)


def exterior_power(p: Presentation, m: int) -> Presentation:
    """m-th exterior power of a diagonalized input.

    Generators are the strictly increasing m-subsets of the diagonal
    generators (the sorted representative absorbs the permutation sign);
    a subset dies as soon as any member does.
    """
    if m < 1:
        raise ValueError("exterior power needs m >= 1")
    sp = snf_form(p)
    if m == 1:
        return sp.presentation
    pairs = list(sp.gens)
    triples = []
    for subset in combinations(range(len(pairs)), m):
        label = "(" + "^".join(pairs[i][0] for i in subset) + ")"
        degree = sum(pairs[i][1] for i in subset)
        ann = min(sp.annihilators[i] for i in subset)
        triples.append((label, degree, ann))
    return _diagonal_presentation(p.field, triples)


def symmetric_power(p: Presentation, m: int) -> Presentation:
    """m-th symmetric power: weight-m multisets with the same min rule."""
    if m < 1:
        raise ValueError("symmetric power needs m >= 1")
    sp = snf_form(p)
    if m == 1:
        return sp.presentation
    pairs = list(sp.gens)
    triples = []
    for multiset in combinations_with_replacement(range(len(pairs)), m):
        label = "(" + ".".join(pairs[i][0] for i in multiset) + ")"
        degree = sum(pairs[i][1] for i in multiset)
        ann = min(sp.annihilators[i] for i in multiset)
        triples.append((label, degree, ann))
    return _diagonal_presentation(p.field, triples)
