"""Shared test utilities: independent oracles and random data builders.

The rank oracle here is deliberately naive (dense Gaussian elimination
over the coefficient field, no grading) so that it shares no code with
the library's reduction engine.
"""

import itertools
import math
import re
from collections import namedtuple
from fractions import Fraction

from hypothesis import strategies as st

from persmod import (
    INF,
    Bar,
    Barcode,
    FilteredComplex,
    GradedBasis,
    GradedMatrix,
    Presentation,
    PresentationMorphism,
    PrimeField,
    QQ,
    Rationals,
    Simplex,
    SnfResult,
    current_barcode,
    graded_boundary,
    membership,
    validate_morphism,
)
from persmod import constructions, linalg, streaming
from persmod.cli import CliError


def hstack(matrices):
    """Place matrices with a common target side by side."""
    matrices = list(matrices)
    target = matrices[0].target
    for m in matrices:
        if m.target != target:
            raise ValueError("hstack needs a common target basis")
    source = GradedBasis([pair for m in matrices for pair in m.source])
    cols = [col for m in matrices for col in m.cols]
    return GradedMatrix(matrices[0].field, source, target, cols)


def vstack(matrices):
    """Stack matrices with a common source on top of each other."""
    matrices = list(matrices)
    source = matrices[0].source
    for m in matrices:
        if m.source != source:
            raise ValueError("vstack needs a common source basis")
    target = GradedBasis([pair for m in matrices for pair in m.target])
    cols = [dict() for _ in range(len(source))]
    offset = 0
    for m in matrices:
        for j, col in enumerate(m.cols):
            for i, c in col.items():
                cols[j][i + offset] = c
        offset += len(m.target)
    return GradedMatrix(matrices[0].field, source, target, cols)


def gauss_rank(field, rows):
    """Rank of a dense scalar matrix given as a list of row lists."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(rank, len(rows)) if rows[r][col]), None
        )
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = field.mul(rows[r][col], inv)
                rows[r] = [
                    field.sub(a, field.mul(factor, b))
                    for a, b in zip(rows[r], rows[rank])
                ]
        rank += 1
    return rank


def entry(matrix, i, j):
    """The scalar of a graded matrix at row i, column j, zero if none."""
    return matrix.cols[j].get(i, matrix.field.zero)


def slice_rank(matrix, d):
    """Rank of the degree-d slice of a graded matrix, by plain Gaussian
    elimination.

    In degree d the module generated by a basis has one k-dimension per
    generator of degree <= d, and a matrix column contributes the same
    scalars in every degree from its own degree upward.
    """
    rows = [i for i, deg in enumerate(matrix.target.degrees) if deg <= d]
    cols = [j for j in range(matrix.ncols) if matrix.source.degrees[j] <= d]
    dense = [
        [entry(matrix, i, j) for j in cols]
        for i in rows
    ]
    return gauss_rank(matrix.field, dense) if cols else 0


def random_scalar(field, rng, nonzero=False):
    if field == QQ:
        num = rng.randint(1, 5) if nonzero else rng.randint(-5, 5)
        if nonzero and rng.random() < 0.5:
            num = -num
        return Fraction(num, rng.randint(1, 4))
    start = 1 if nonzero else 0
    return rng.randrange(start, field.char)


def random_basis(rng, size, label_prefix, max_degree=8):
    return GradedBasis(
        (f"{label_prefix}{i}", rng.randint(0, max_degree)) for i in range(size)
    )


def random_graded_matrix(field, rng, nrows=None, ncols=None, density=0.5):
    """A random graded matrix with entries wherever the grading allows."""
    nrows = nrows if nrows is not None else rng.randint(1, 6)
    ncols = ncols if ncols is not None else rng.randint(1, 6)
    target = random_basis(rng, nrows, "e")
    source = random_basis(rng, ncols, "r")
    entries = {}
    for j in range(ncols):
        for i in range(nrows):
            if source.degrees[j] >= target.degrees[i] and rng.random() < density:
                entries[(i, j)] = random_scalar(field, rng)
    return GradedMatrix.from_entries(field, source, target, entries)


def element(field, basis, degree, coords, label="x"):
    """The homogeneous element of degree ``degree`` with coordinates
    ``coords`` over ``basis``: a one-column matrix, its source the one
    generator ``label`` at that degree."""
    return GradedMatrix(field, GradedBasis([(label, degree)]), basis, [coords])


def degree(x):
    """The degree of a one-column matrix's column."""
    return x.source.degrees[0]


def random_element(field, rng, basis, degree=None):
    """A random homogeneous element over ``basis``."""
    if degree is None:
        degree = rng.randint(min(basis.degrees), max(basis.degrees) + 4)
    coords = {}
    for i in range(len(basis)):
        if basis.degrees[i] <= degree and rng.random() < 0.6:
            coords[i] = random_scalar(field, rng)
    return element(field, basis, degree, coords)


# -- element and matrix arithmetic ------------------------------------
#
# What the tests need beyond the package's API, written over one-column
# matrices with the fields' plain add, mul and neg, so that none of it
# runs the package's column operation, ``combine``.


def add(x, y):
    """x + y for two elements over one basis and of one degree."""
    if x.target != y.target or degree(x) != degree(y):
        raise ValueError("add needs elements over one basis, of one degree")
    f = x.field
    coords = dict(x.cols[0])
    for i, c in y.cols[0].items():
        coords[i] = f.add(coords.get(i, f.zero), c)
    return GradedMatrix(f, x.source, x.target, [coords])


def scale(x, c):
    """The scalar multiple c * x."""
    f = x.field
    coords = {i: f.mul(c, v) for i, v in x.cols[0].items()}
    return GradedMatrix(f, x.source, x.target, [coords])


def sub(x, y):
    """x - y for two elements over one basis and of one degree."""
    return add(x, scale(y, x.field.neg(x.field.one)))


def times_t(x, power=1):
    """t^power * x: the same scalars, the degree raised by ``power``."""
    assert power >= 0
    (label,) = x.source.labels
    return element(x.field, x.target, degree(x) + power, x.cols[0], label)


def low(x):
    """Index of x's bottom-most coordinate in (degree, index) order, or
    None for zero: the pivot rule of the package's reductions."""
    return max(x.cols[0], key=lambda i: (x.target.degrees[i], i), default=None)


def column(m, j):
    """Column j of a matrix as an element, of degree deg source[j]."""
    return element(
        m.field, m.target, m.source.degrees[j], m.cols[j], m.source.labels[j]
    )


def columns(m):
    """The columns of a matrix as elements."""
    return [column(m, j) for j in range(m.ncols)]


def terms(m, j=0):
    """(index, scalar, exponent) of column j's entries, by target index;
    the exponent is deg source[j] - deg target[index]."""
    d = m.source.degrees[j]
    col = m.cols[j]
    return [(i, col[i], d - m.target.degrees[i]) for i in sorted(col)]


def matrix_of_columns(field, target, cols, labels):
    """The matrix whose columns are the elements ``cols`` over
    ``target``, its source labeled by ``labels`` at their degrees."""
    source = GradedBasis((lab, degree(x)) for lab, x in zip(labels, cols))
    return GradedMatrix(field, source, target, [x.cols[0] for x in cols])


def identity_matrix(field, basis):
    cols = [{i: field.one} for i in range(len(basis))]
    return GradedMatrix(field, basis, basis, cols)


def negated(m):
    """-m, entry by entry."""
    f = m.field
    cols = [{i: f.neg(c) for i, c in col.items()} for col in m.cols]
    return GradedMatrix(f, m.source, m.target, cols)


def identity_morphism(p):
    return PresentationMorphism(p, p, identity_matrix(p.field, p.gens))


def zero_morphism(src, dst):
    phi = GradedMatrix(src.field, src.gens, dst.gens, [{} for _ in src.gens])
    return PresentationMorphism(src, dst, phi)


def alive_at(bar, d):
    """True when grade d lies in the bar's interval [birth, death)."""
    return bar.birth <= d < bar.death


def filtration_order(filtration):
    """The simplices by birth, then dimension, then input order."""
    return sorted(filtration.simplices, key=lambda s: (s.birth, len(s.vertices)))


def complex_text(filtration):
    """A complex in the CLI's input grammar, one simplex per line."""
    lines = []
    for vertices, birth, removal in filtration.simplices:
        tail = "" if removal == INF else f" ; {removal}"
        lines.append(" ".join(map(str, vertices)) + f" ; {birth}{tail}\n")
    return "".join(lines)


BOTH_FIELDS = (QQ, PrimeField(5))


class FractionQ(Rationals):
    """Q with every scalar a ``Fraction``, integral ones too.

    The oracle for ``QQ``'s int fast path: the same field, so it
    compares equal to ``QQ``, but no scalar it makes is ever an int.
    """

    __slots__ = ()

    zero = Fraction(0)
    one = Fraction(1)

    def scalar(self, value):
        return Fraction(value)

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        return Fraction(a) / b

    def combine(self, col, other, a, b):
        r = Fraction(a) / b
        for i, c in other.items():
            new = Fraction(col.get(i, 0)) - r * c
            if new:
                col[i] = new
            else:
                col.pop(i, None)

    def parse(self, text):
        return Fraction(text)


def random_presentation(field, rng, max_gens=8, max_degree=10, max_rels=None):
    """A random finitely presented module with nonnegative degrees."""
    from persmod import Presentation

    ngens = rng.randint(1, max_gens)
    nrels = rng.randint(0, max_rels if max_rels is not None else max_gens)
    gens = GradedBasis(
        (f"g{i}", rng.randint(0, max_degree)) for i in range(ngens)
    )
    rels = GradedBasis(
        (f"r{j}", rng.randint(min(gens.degrees), max_degree + 3))
        for j in range(nrels)
    )
    entries = {}
    for j in range(nrels):
        for i in range(ngens):
            if gens.degrees[i] <= rels.degrees[j] and rng.random() < 0.5:
                entries[(i, j)] = random_scalar(field, rng)
    return Presentation(field, GradedMatrix.from_entries(field, rels, gens, entries))


def eager_diagonal_presentation(field, labels, degrees, anns):
    """Presentation from parallel columns of labels, degrees and
    annihilator exponents, with its bases and inclusion built at once:
    one generator per summand and, for a finite annihilator a, the
    column {n: one} of degree deg + a labeled rel<k>.  The diagonal
    constructions build the same matrices only when a caller reads
    them."""
    gens = GradedBasis(zip(labels, degrees))
    one = field.one
    rels = []
    cols = []
    for n, (deg, a) in enumerate(zip(degrees, anns)):
        if a != INF:
            rels.append((f"rel{len(cols)}", deg + a))
            cols.append({n: one})
    incl = GradedMatrix(field, GradedBasis(rels), gens, cols)
    return Presentation(field, incl)


def incl_built(p):
    """True once ``p`` holds its inclusion matrix.  Reads the base
    class's slot directly, so a diagonal result is not built by it."""
    try:
        Presentation.incl.__get__(p)
    except AttributeError:
        return False
    return True


def hand_built_presentations(field):
    """A zero relation column, a repeated relation and a t^0 pivot."""
    gens = GradedBasis([("x", 1), ("y", 2), ("z", 2)])
    rels = GradedBasis([("r0", 3), ("r1", 4), ("r2", 4), ("r3", 2)])
    two = field.scalar(2)
    cols = [
        {0: field.one, 1: two},
        {},
        {0: field.one, 1: two},
        {2: field.one},
    ]
    yield Presentation(field, GradedMatrix(field, rels, gens, cols))
    yield Presentation.from_terms(
        field, [("a", 0), ("b", 0)], [[(1, 0, "a"), (1, 0, "b")]] * 2
    )


def assert_snf_certificate(m, snf):
    """Check a graded SNF of ``m`` with no SNF code.

    S and its inverse must invert each other, the pairing ``lows`` must
    give each column at most one pivot row, at a nonnegative exponent,
    and S @ m must span what the diagonal matrix D spans, as
    S @ m @ T == D for an invertible T requires.  The entry of D in row
    p is that of S @ m at (p, lows[p]): T only adds earlier pivot
    columns, which vanish in later pivot rows.
    """
    s, s_inv = snf.row_change, snf.row_change_inv
    ident = identity_matrix(m.field, m.target)
    assert s @ s_inv == ident and s_inv @ s == ident
    assert len(set(snf.lows.values())) == len(snf.lows)
    sm = s @ m
    entries = {}
    for p, c in snf.lows.items():
        assert m.source.degrees[c] >= m.target.degrees[p]
        assert entry(sm, p, c)
        entries[(p, c)] = entry(sm, p, c)
    d = GradedMatrix.from_entries(m.field, m.source, m.target, entries)
    assert membership(sm, d) and membership(d, sm)


def free_rows(m, snf):
    """Target rows that hold no diagonal entry."""
    return tuple(i for i in range(len(m.target)) if i not in snf.lows)


def row_operation_snf(m):
    """The graded SNF by row operations: the reference for ``graded_snf``.

    Columns are treated in ascending (degree, position) order.  A
    nonzero column's pivot is its entry in the row of highest (degree,
    index); row operations, recorded in S and S^-1, clear the rest of
    the column, and the pivot row is then deleted from later columns.
    Every entry is made as ``f.sub(a, f.mul(r, c))`` and put in the
    field's canonical form with ``f.scalar``, so nothing here runs the
    fields' ``combine``.
    """
    f = m.field
    tgt = m.target
    cols = [dict(col) for col in m.cols]
    rows = [set() for _ in tgt.labels]
    for j, col in enumerate(cols):
        for i in col:
            rows[i].add(j)
    s_rows = [{i: f.one} for i in range(len(tgt))]
    s_inv_cols = [{i: f.one} for i in range(len(tgt))]

    def minus(a, r, c):
        return f.scalar(f.sub(a, f.mul(r, c)))

    def axpy(x, y, r):
        for k, c in y.items():
            new = minus(x.get(k, f.zero), r, c)
            if new:
                x[k] = new
            else:
                x.pop(k, None)

    def row_op(i, p, r):
        # row_i -= r * row_p, on the matrix and on S; S^-1 gets the
        # inverse column operation
        for j in list(rows[p]):
            col = cols[j]
            new = minus(col.get(i, f.zero), r, col[p])
            if new:
                col[i] = new
                rows[i].add(j)
            else:
                col.pop(i, None)
                rows[i].discard(j)
        axpy(s_rows[i], s_rows[p], r)
        axpy(s_inv_cols[p], s_inv_cols[i], f.neg(r))

    lows = {}
    for c in m.source.sorted_indices():
        col = cols[c]
        if not col:
            continue
        p = max(col, key=lambda i: (tgt.degrees[i], i))
        for i in [i for i in col if i != p]:
            row_op(i, p, f.div(col[i], col[p]))
        # col is now {p: pivot}: clearing row p only deletes entries
        rows[p].discard(c)
        for c2 in rows[p]:
            del cols[c2][p]
        lows[p] = c
    s_entries = {(i, j): c for i, row in enumerate(s_rows) for j, c in row.items()}
    s = GradedMatrix.from_entries(f, tgt, tgt, s_entries)
    s_inv = GradedMatrix(f, tgt, tgt, s_inv_cols)
    return SnfResult(s, s_inv, lows)


def echelon(m):
    """``column_echelon`` with what it drops: m's reduced columns as a
    matrix, the pivot pairing and the columns that reduced to zero, in
    processing order, from the same ``linalg._echelon`` pass."""
    cols = [dict(col) for col in m.cols]
    key = linalg._pivot_rank(m.target).__getitem__
    order = m.source.sorted_indices()
    lows, dead = linalg._echelon(m.field, cols, order, key, len(m.target))
    return GradedMatrix(m.field, m.source, m.target, cols), lows, dead


def free_kernel(m):
    """A free basis, labeled k0, k1, ..., for the kernel of a map m
    between free modules: the public ``kernel`` of m as a morphism of
    free presentations, whose first preimage reduces [m ; I]."""
    src = Presentation.free(m.field, m.source)
    dst = Presentation.free(m.field, m.target)
    return constructions.kernel(PresentationMorphism(src, dst, m))[1].phi


def replayed_free_kernel(m):
    """``free_kernel`` by replay: the reference for the reduction of
    [m ; I] that computes it.

    Reduces m's columns in ascending (degree, position) order, each
    against the pivots of the columns before it, and replays every
    column operation onto a separate change column; the change columns
    of the columns that die, in that order, are the kernel k0, k1, ...
    """
    f = m.field
    rank = {i: n for n, i in enumerate(m.target.sorted_indices())}
    cols = [dict(col) for col in m.cols]
    track = [{j: f.one} for j in range(m.ncols)]
    lows = {}
    dead = []
    for c in m.source.sorted_indices():
        col = cols[c]
        while col:
            low = max(col, key=rank.__getitem__)
            p = lows.get(low)
            if p is None:
                lows[low] = c
                break
            a, b = col[low], cols[p][low]
            f.combine(col, cols[p], a, b)
            f.combine(track[c], track[p], a, b)
        else:
            dead.append(c)
    source = GradedBasis((f"k{n}", m.source.degrees[c]) for n, c in enumerate(dead))
    return GradedMatrix(f, source, m.source, [track[c] for c in dead])


def reference_kernel_step(main, modders, prefix):
    """``linalg._preimage`` as ``constructions._kernel_step`` computed
    it before it was one reduction: stack [main | -modders] into one
    matrix with primed labels, take its free kernel by reducing
    [stacked ; I] with an identity row under every column (labels k0,
    k1, ...), and keep the nonzero projections to main's block."""
    field = main.field
    cols = list(main.cols) + [
        {i: field.neg(v) for i, v in c.items()} for c in modders.cols
    ]
    labels = constructions._joined(main.source, modders.source)
    stacked = GradedMatrix(field, labels, main.target, cols)

    # the parent's free_kernel(stacked)
    m, f, n = stacked, field, len(stacked.target)
    cols = [{**col, n + j: f.one} for j, col in enumerate(m.cols)]
    key = (linalg._pivot_rank(m.target) + [-1] * m.ncols).__getitem__
    _, dead = linalg._echelon(f, cols, m.source.sorted_indices(), key, n)
    source = GradedBasis((f"k{i}", m.source.degrees[c]) for i, c in enumerate(dead))
    kernel = [{i - n: v for i, v in cols[c].items()} for c in dead]
    k = GradedMatrix(f, source, m.source, kernel)

    na = main.ncols
    kept = []
    for col, degree in zip(k.cols, k.source.degrees):
        proj = {i: v for i, v in col.items() if i < na}
        if proj:
            kept.append((proj, degree))
    source = GradedBasis((f"{prefix}{n}", d) for n, (_, d) in enumerate(kept))
    return GradedMatrix(field, source, main.source, [c for c, _ in kept])


def snf_exactly(snf):
    """An SNF's S and S^-1 with the type of every scalar, and its
    pairing: ``repr`` tells the int 2 from ``Fraction(2, 1)``."""
    def matrix(mat):
        return [sorted((i, repr(c)) for i, c in col.items()) for col in mat.cols]

    return (
        matrix(snf.row_change),
        matrix(snf.row_change_inv),
        list(snf.lows.items()),
    )


def degree_bound(p):
    """A degree beyond which nothing about the module changes."""
    degs = list(p.gens.degrees) + list(p.rels.degrees)
    return (max(degs) if degs else 0) + 2


def induced_slice_rank(phi, dst, d, j=0):
    """Rank of the degree-d slice of the map into the quotient ``dst``,
    followed by t^j into degree d + j.

    The image of a slice map into F/iG has dimension
    rank[phi | incl] - rank[incl], over the source columns of degree
    <= d and the target rows and relations of degree <= d + j; t^j
    leaves every scalar as it is.  Computed densely, independent of the
    graded engine.
    """
    field = dst.field
    rows = [i for i in range(len(dst.gens)) if dst.gens.degrees[i] <= d + j]
    pcols = [k for k in range(phi.ncols) if phi.source.degrees[k] <= d]
    rcols = [k for k in range(len(dst.rels)) if dst.rels.degrees[k] <= d + j]
    rel_rows = [[entry(dst.incl, i, k) for k in rcols] for i in rows]
    rank_rel = gauss_rank(field, rel_rows) if rows and rcols else 0
    combined = [
        [entry(phi, i, k) for k in pcols] + rel_rows[n]
        for n, i in enumerate(rows)
    ]
    if not rows or not (pcols or rcols):
        return 0
    return gauss_rank(field, combined) - rank_rel


def dimension_at(p, d):
    """dim_k of the degree-d slice of the presented module p, densely:
    the rank of the identity of p's generators into it."""
    return induced_slice_rank(identity_matrix(p.field, p.gens), p, d)


def rank_t_power(p, d, j):
    """Rank of t^j as a k-linear map from degree d to degree d + j of
    the presented module p, densely."""
    if j < 0:
        raise ValueError("t-power must be nonnegative")
    return induced_slice_rank(identity_matrix(p.field, p.gens), p, d, j)


def dense_homology_dimension(tcc, p, g):
    """dim_k of H_p at grade g of a torsion chain complex, densely.

    H_p is K / (K & W) with K = {x in C_p : dx in Rel_(p-1)} and
    W = Rel_p + im d_(p+1), the semantics ``torsion_homology``
    documents.  In the degree-g slice, dim K is the number of p-chains
    minus the rank of d into F_(p-1) / Rel_(p-1), and dim (K & W) is
    dim W minus the rank of d on W into that quotient.  Only dense
    ranks of slices are taken; no graded reduction is involved.
    """
    field = tcc.chains.field
    gens, dims = tcc.chains.gens, tcc.dims
    rows = {
        q: [i for i in range(len(gens)) if dims[i] == q and gens.degrees[i] <= g]
        for q in (p - 1, p)
    }

    def vector(col, q):
        return [col.get(i, field.zero) for i in rows[q]]

    def columns(matrix, q, keep):
        return [vector(col, q) for j, col in enumerate(matrix.cols) if keep(j)]

    def boundary(x):
        out = {}
        for c, i in zip(x, rows[p]):
            for k, v in tcc.boundary.cols[i].items():
                out[k] = field.add(out.get(k, field.zero), field.mul(c, v))
        return vector(out, p - 1)

    def rank(vectors):
        return gauss_rank(field, vectors)

    def rank_mod_relations(vectors):
        return rank(vectors + rel_below) - rank(rel_below)

    def relations(q):
        return columns(
            tcc.chains.incl, q,
            lambda j: tcc.chains.rels.degrees[j] <= g
            and any(dims[i] == q for i in tcc.chains.incl.cols[j]),
        )

    rel_below = relations(p - 1)
    unit = [
        [field.one if n == m else field.zero for m in range(len(rows[p]))]
        for n in range(len(rows[p]))
    ]
    w = relations(p) + columns(
        tcc.boundary, p, lambda j: dims[j] == p + 1 and gens.degrees[j] <= g
    )
    dim_k = len(rows[p]) - rank_mod_relations([boundary(x) for x in unit])
    dim_k_and_w = rank(w) - rank_mod_relations([boundary(x) for x in w])
    return dim_k - dim_k_and_w


def _random_elementary(field, rng, basis):
    """A legal elementary matrix E = I + c*e(i,j) with its inverse.

    Requires deg(j) >= deg(i) strictly in (degree, position) order, so
    both E and its inverse are graded and unit triangular.
    """
    if len(basis) < 2:
        return None
    i = rng.randrange(len(basis))
    j = rng.randrange(len(basis))
    if (basis.degrees[j], j) <= (basis.degrees[i], i):
        return None
    c = random_scalar(field, rng, nonzero=True)
    ident = {(k, k): field.one for k in range(len(basis))}
    fwd = GradedMatrix.from_entries(field, basis, basis, {**ident, (i, j): c})
    bwd = GradedMatrix.from_entries(
        field, basis, basis, {**ident, (i, j): field.neg(c)}
    )
    return fwd, bwd


def _random_diagonal(field, rng, prefix, max_gens=5, max_degree=8):
    """A presentation whose relations are t-powers of single generators.

    Returns the presentation together with the list of annihilator
    exponents (INF when a generator has no relation).
    """
    n = rng.randint(1, max_gens)
    gens = []
    anns = []
    for i in range(n):
        gens.append((f"{prefix}{i}", rng.randint(0, max_degree)))
        anns.append(INF if rng.random() < 0.3 else rng.randint(1, 5))
    basis = GradedBasis(gens)
    cols = []
    degs = []
    for i, a in enumerate(anns):
        if a != INF:
            cols.append({i: field.one})
            degs.append(basis.degrees[i] + a)
    rels = GradedBasis((f"{prefix}r{k}", d) for k, d in enumerate(degs))
    return Presentation(field, GradedMatrix(field, rels, basis, cols)), anns


def _random_compatible_map(field, rng, src, src_ann, dst, dst_ann):
    """A matrix src -> dst that descends to the diagonal quotients.

    An entry x_i -> y_j is allowed exactly when the degrees permit it
    and x_i dies no later than y_j's relation requires.
    """
    entries = {}
    for i in range(len(src.gens)):
        for j in range(len(dst.gens)):
            if src.gens.degrees[i] < dst.gens.degrees[j]:
                continue
            dies_soon_enough = src_ann[i] == INF or (
                dst_ann[j] != INF
                and src.gens.degrees[i] + src_ann[i]
                >= dst.gens.degrees[j] + dst_ann[j]
            )
            if dies_soon_enough and rng.random() < 0.5:
                entries[(j, i)] = random_scalar(field, rng)
    return GradedMatrix.from_entries(field, src.gens, dst.gens, entries)


class _Disguise:
    """Mutable holder for one presentation under random re-basing.

    Generator-side operations must be pushed through every matrix whose
    source or target is this presentation's generators, so the holder
    keeps lists of those matrices and updates them in lockstep.
    """

    def __init__(self, presentation):
        self.incl = presentation.incl

    def presentation(self, field):
        return Presentation(field, self.incl)


def _disguise_all(field, rng, holders, matrices, sources, targets, ops):
    """Apply random legal elementary operations to each presentation.

    ``sources[k]`` and ``targets[k]`` list indices into ``matrices``
    for the maps whose source, respectively target, is holder k; those
    matrices are rewritten in lockstep with the change of generators.
    Returns the updated matrix list.
    """
    matrices = list(matrices)
    for _ in range(ops):
        k = rng.randrange(len(holders))
        holder = holders[k]
        if rng.random() < 0.5:
            pair = _random_elementary(field, rng, holder.incl.target)
            if pair is None:
                continue
            holder.incl = pair[0] @ holder.incl
            for m in sources.get(k, ()):
                matrices[m] = matrices[m] @ pair[1]
            for m in targets.get(k, ()):
                matrices[m] = pair[0] @ matrices[m]
        else:
            pair = _random_elementary(field, rng, holder.incl.source)
            if pair is not None:
                holder.incl = holder.incl @ pair[0]
    return matrices


def random_valid_morphism(field, rng, max_gens=5, max_degree=8, ops=6):
    """A random morphism that satisfies the compatibility condition.

    Starts from diagonal presentations, builds a compatible map, then
    disguises the structure by conjugating both sides with legal
    elementary operations (which preserves compatibility).
    """
    p, p_ann = _random_diagonal(field, rng, "x", max_gens, max_degree)
    q, q_ann = _random_diagonal(field, rng, "y", max_gens, max_degree)
    phi = _random_compatible_map(field, rng, p, p_ann, q, q_ann)
    holders = [_Disguise(p), _Disguise(q)]
    (phi,) = _disguise_all(
        field, rng, holders, [phi], {0: [0]}, {1: [0]}, ops
    )
    return PresentationMorphism(
        holders[0].presentation(field), holders[1].presentation(field), phi
    )


def random_valid_cospan(field, rng, max_gens=5, max_degree=8, ops=8):
    """Two random compatible morphisms sharing the same target."""
    p, p_ann = _random_diagonal(field, rng, "x", max_gens, max_degree)
    q, q_ann = _random_diagonal(field, rng, "y", max_gens, max_degree)
    r, r_ann = _random_diagonal(field, rng, "z", max_gens, max_degree)
    phi_f = _random_compatible_map(field, rng, p, p_ann, r, r_ann)
    phi_g = _random_compatible_map(field, rng, q, q_ann, r, r_ann)
    holders = [_Disguise(p), _Disguise(q), _Disguise(r)]
    phi_f, phi_g = _disguise_all(
        field, rng, holders, [phi_f, phi_g], {0: [0], 1: [1]}, {2: [0, 1]}, ops
    )
    src_p = holders[0].presentation(field)
    src_q = holders[1].presentation(field)
    dst = holders[2].presentation(field)
    return (
        PresentationMorphism(src_p, dst, phi_f),
        PresentationMorphism(src_q, dst, phi_g),
    )


def random_valid_span(field, rng, max_gens=5, max_degree=8, ops=8):
    """Two random compatible morphisms sharing the same source."""
    p, p_ann = _random_diagonal(field, rng, "x", max_gens, max_degree)
    q, q_ann = _random_diagonal(field, rng, "y", max_gens, max_degree)
    r, r_ann = _random_diagonal(field, rng, "z", max_gens, max_degree)
    phi_f = _random_compatible_map(field, rng, r, r_ann, p, p_ann)
    phi_g = _random_compatible_map(field, rng, r, r_ann, q, q_ann)
    holders = [_Disguise(p), _Disguise(q), _Disguise(r)]
    phi_f, phi_g = _disguise_all(
        field, rng, holders, [phi_f, phi_g], {2: [0, 1]}, {0: [0], 1: [1]}, ops
    )
    src = holders[2].presentation(field)
    dst_p = holders[0].presentation(field)
    dst_q = holders[1].presentation(field)
    return (
        PresentationMorphism(src, dst_p, phi_f),
        PresentationMorphism(src, dst_q, phi_g),
    )


def random_change_of_basis(field, rng, basis, ops=4):
    """A random graded-invertible square matrix over ``basis``.

    Unit diagonal plus legal off-diagonal entries (i, j) chosen with
    strictly increasing (degree, position), which keeps the matrix
    unit triangular in sorted order and hence invertible.
    """
    entries = {(i, i): field.one for i in range(len(basis))}
    for _ in range(ops if len(basis) > 1 else 0):
        i = rng.randrange(len(basis))
        j = rng.randrange(len(basis))
        # entry at (row i, col j) needs deg j >= deg i; strict key order
        # keeps it triangular
        if (basis.degrees[j], j) > (basis.degrees[i], i):
            entries[(i, j)] = random_scalar(field, rng)
    return GradedMatrix.from_entries(field, basis, basis, entries)


def betti_numbers(vertex_sets, field):
    """Betti numbers of a plain simplicial complex over ``field``.

    Dense Gaussian elimination on the unfiltered boundary maps:
    beta_p = #p-simplices - rank(d_p) - rank(d_{p+1}).  Independent of
    the graded machinery, so it can cross-check filtered pipelines one
    slice at a time.
    """
    by_dim = {}
    for vertices in vertex_sets:
        key = len(vertices) - 1
        by_dim.setdefault(key, []).append(tuple(sorted(vertices)))
    for members in by_dim.values():
        members.sort()
    max_dim = max(by_dim, default=-1)
    ranks = {}
    for p in range(1, max_dim + 1):
        row_index = {vs: i for i, vs in enumerate(by_dim.get(p - 1, []))}
        cols = by_dim.get(p, [])
        if not row_index or not cols:
            continue
        rows = [[field.zero] * len(cols) for _ in row_index]
        for j, vertices in enumerate(cols):
            for omit in range(len(vertices)):
                face = vertices[:omit] + vertices[omit + 1 :]
                sign = field.one if omit % 2 == 0 else field.neg(field.one)
                rows[row_index[face]][j] = sign
        ranks[p] = gauss_rank(field, rows)
    return {
        p: len(by_dim.get(p, ())) - ranks.get(p, 0) - ranks.get(p + 1, 0)
        for p in range(max_dim + 1)
    }


def random_filtered_complex(rng, max_vertices=5, with_removals=False):
    """A random face-closed filtered complex on a few vertices.

    Births increase along face inclusions.  With removals enabled every
    simplex gets a removal time that decreases with dimension, so faces
    always outlive their cofaces.
    """
    n = rng.randint(1, max_vertices)
    births = {}
    for v in range(n):
        births[(v,)] = rng.randint(0, 4)
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() < 0.6:
            births[(u, v)] = max(births[(u,)], births[(v,)]) + rng.randint(0, 3)
    for u, v, w in itertools.combinations(range(n), 3):
        edges = ((u, v), (u, w), (v, w))
        if all(e in births for e in edges) and rng.random() < 0.5:
            births[(u, v, w)] = max(births[e] for e in edges) + rng.randint(0, 2)
    entries = []
    base = max(births.values()) + 1
    for vertices, birth in births.items():
        if with_removals:
            removal = base + (2 - (len(vertices) - 1)) * 6 + rng.randint(0, 2)
            entries.append((vertices, birth, removal))
        else:
            entries.append((vertices, birth))
    rng.shuffle(entries)
    return FilteredComplex(entries)


def with_component_removals(rng, filtration):
    """``filtration`` with each connected component removed at one time,
    no earlier than its last birth, or kept (about one in five).

    A whole component goes at once, so the boundary descends to the
    torsion chains (see ``relative_complex``) with faces and cofaces
    present, which ``random_filtered_complex`` gives only on inputs
    without edges.
    """
    root = {}

    def find(v):
        while root.setdefault(v, v) != v:
            v = root[v]
        return v

    for s in filtration.simplices:
        for v in s.vertices[1:]:
            root[find(v)] = find(s.vertices[0])
    last = {}
    for s in filtration.simplices:
        r = find(s.vertices[0])
        last[r] = max(last.get(r, s.birth), s.birth)
    removal = {
        r: b + rng.randint(0, 3) if rng.random() < 0.8 else INF
        for r, b in last.items()
    }
    return FilteredComplex(
        (s.vertices, s.birth, removal[find(s.vertices[0])])
        for s in filtration.simplices
    )


@st.composite
def complexes(draw):
    """Face-closed complexes with faces born no later and removed no
    earlier than their cofaces; removals on about half of them."""
    vertices = draw(st.lists(st.integers(0, 30), min_size=1, max_size=5, unique=True))
    simplices = [(v,) for v in sorted(vertices)]
    for size in (2, 3):
        for s in itertools.combinations(sorted(vertices), size):
            faces = itertools.combinations(s, size - 1)
            if all(f in simplices for f in faces) and draw(st.booleans()):
                simplices.append(s)
    birth, removal = {}, {}
    for s in simplices:
        faces = list(itertools.combinations(s, len(s) - 1)) if len(s) > 1 else []
        birth[s] = max((birth[f] for f in faces), default=0) + draw(st.integers(0, 3))
    removals = draw(st.booleans())
    for s in reversed(simplices):
        cofaces = [c for c in removal if len(c) == len(s) + 1 and set(s) <= set(c)]
        if not removals or INF in (removal[c] for c in cofaces) or draw(st.booleans()):
            removal[s] = INF
        else:
            floor = max([birth[s]] + [removal[c] for c in cofaces])
            removal[s] = floor + draw(st.integers(0, 3))
    order = draw(st.permutations(simplices))
    return FilteredComplex(
        (s, birth[s]) if removal[s] == INF else (s, birth[s], removal[s])
        for s in order
    )


def rips_complex(rng, npoints):
    """Vietoris-Rips 2-skeleton of random points in the unit square.

    Vertices are born at 0, an edge at the rank of its length among the
    distinct lengths (from 1), and a triangle with its longest edge, so
    every triangle ties with one of its edges.
    """
    points = [(rng.random(), rng.random()) for _ in range(npoints)]
    lengths = {
        e: math.dist(points[e[0]], points[e[1]])
        for e in itertools.combinations(range(npoints), 2)
    }
    rank = {d: n for n, d in enumerate(sorted(set(lengths.values())), 1)}
    birth = {(v,): 0 for v in range(npoints)}
    birth.update((e, rank[d]) for e, d in lengths.items())
    for t in itertools.combinations(range(npoints), 3):
        birth[t] = max(birth[e] for e in itertools.combinations(t, 2))
    return FilteredComplex(birth.items())


def boundary_pairing_barcode(filtration, field):
    """Bars from the pivot pairing of the reduced boundary matrix.

    The homology route (Zomorodian and Carlsson, 2005): one untracked
    column reduction of ``graded_boundary``, rows and columns in
    filtration order.  Pivot row i of column j gives [birth i, birth j)
    in the dimension of i; a zero column that is no pivot row gives
    [birth i, inf).
    """
    m = graded_boundary(filtration, field)
    _, lows, dead = echelon(m)
    births = m.source.degrees
    dims = [len(s.vertices) - 1 for s in filtration_order(filtration)]
    bars = [Bar(dims[i], births[i], births[j]) for i, j in lows.items()]
    bars.extend(Bar(dims[i], births[i], INF) for i in dead if i not in lows)
    return Barcode(bars)


def cone_barcode(filtration, field):
    """Bars of the mapping cone of the relations into the chains.

    Where the boundary descends to the torsion chains (see
    ``relative_complex``), the relations t^(r-b) s of the removed
    simplices s span a free subcomplex R of the chains C, and the cone
    of R -> C is a free filtered chain complex with the homology of
    C/R.  Each simplex s is a generator at its birth b, in dimension p;
    each removed s adds a generator c_s at its removal r, in dimension
    p + 1, with boundary t^(r-b) s - sum of +-c_f over the faces f of s,
    signed as in the boundary of s.  The bars come from a plain column
    reduction in (degree, dimension, position) order: pivot row i of
    column j gives [deg i, deg j) in the dimension of i, and a zero
    column that is no pivot row gives [deg j, inf).  Faces are found by
    vertex tuple; nothing here is shared with the graded engine.
    """
    simplices = filtration.simplices
    position = {s.vertices: n for n, s in enumerate(simplices)}

    def signed_faces(vertices):
        for omit in range(len(vertices) if len(vertices) > 1 else 0):
            face = vertices[:omit] + vertices[omit + 1 :]
            sign = field.one if omit % 2 == 0 else field.neg(field.one)
            yield position[face], sign

    degree = [s.birth for s in simplices]
    dim = [len(s.vertices) - 1 for s in simplices]
    boundary = [dict(signed_faces(s.vertices)) for s in simplices]
    cone = {}
    for n, s in enumerate(simplices):
        if s.removal != INF:
            cone[n] = len(degree)
            degree.append(s.removal)
            dim.append(dim[n] + 1)
    for n, g in cone.items():
        col = {n: field.one}
        for f, sign in signed_faces(simplices[n].vertices):
            col[cone[f]] = field.neg(sign)
        boundary.append(col)
    order = sorted(range(len(degree)), key=lambda i: (degree[i], dim[i], i))
    rank = {i: n for n, i in enumerate(order)}
    owner = {}  # pivot row -> reduced column
    bars = []
    cycles = []
    for j in order:
        col = dict(boundary[j])
        while col:
            low = max(col, key=rank.__getitem__)
            if low not in owner:
                break
            pivot = owner[low]
            r = field.mul(col[low], field.inv(pivot[low]))
            for i, v in pivot.items():
                x = field.sub(col.get(i, field.zero), field.mul(r, v))
                if x:
                    col[i] = x
                else:
                    del col[i]
        if col:
            owner[low] = col
            bars.append(Bar(dim[low], degree[low], degree[j]))
        else:
            cycles.append(j)
    bars.extend(Bar(dim[j], degree[j], INF) for j in cycles if j not in owner)
    return Barcode(bars)


def boundary_by_vertices(filtration, field):
    """``graded_boundary`` rebuilt from vertex tuples alone.

    Rows and columns in filtration order; each face is found by
    dropping vertex ``omit`` and looked up by its vertex tuple, with
    sign (-1)^omit.  Shares no face index with ``FilteredComplex``.
    """
    ordered = filtration_order(filtration)
    basis = GradedBasis((".".join(map(str, s.vertices)), s.birth) for s in ordered)
    row = {s.vertices: i for i, s in enumerate(ordered)}
    entries = {}
    for j, s in enumerate(ordered):
        if len(s.vertices) < 2:
            continue
        for omit in range(len(s.vertices)):
            face = s.vertices[:omit] + s.vertices[omit + 1 :]
            entries[(row[face], j)] = field.one if omit % 2 == 0 else field.neg(field.one)
    return GradedMatrix.from_entries(field, basis, basis, entries)


def scrambled(filtration, rng):
    """The same complex, listed in a random order with every vertex
    tuple in a random order, as ``(vertices, birth[, removal])`` entries."""
    entries = []
    for vertices, birth, removal in filtration.simplices:
        vertices = list(vertices)
        rng.shuffle(vertices)
        tail = () if removal == INF else (removal,)
        entries.append((tuple(vertices), birth, *tail))
    rng.shuffle(entries)
    return entries


def int_then_float(token, lineno):
    """A filtration value by the plain rule the CLI reader must keep:
    int() if it reads the token, else a finite float().  A run of
    decimal digits with an optional sign is an integer, so when int()
    refuses it (past the int-string limit) it is a bad value, not the
    overflowing float().  Raises ValueError with the CLI's message
    otherwise."""
    bad = f"line {lineno}: bad filtration value {token!r}"
    try:
        return int(token)
    except ValueError:
        if re.fullmatch(r"[+-]?\d+", token):
            raise ValueError(bad) from None
    try:
        value = float(token)
    except ValueError:
        raise ValueError(bad) from None
    if not math.isfinite(value):
        raise ValueError(f"line {lineno}: non-finite filtration value {token!r}")
    return value


def reference_load_complex(text):
    """``cli._load_complex`` as it read a complex before the one-pass
    reader: the reference for its results and for its errors.

    Reads line by line, each value by ``int_then_float``, sorts each
    vertex tuple after the line is read, ranks the values when one is a
    float, and indexes faces with ``reference_face_index``.  Returns
    (simplices, faces, value map or None, line numbers), or raises the
    CliError the reader must raise.
    """
    lines = []
    entries = []
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(";")
        if len(parts) not in (2, 3):
            raise CliError(
                1, f"line {n}: expected 'v0 v1 ... ; birth [; removal]'"
            )
        try:
            vertices = tuple(map(int, parts[0].split()))
        except ValueError:
            raise CliError(
                1, f"line {n}: bad vertex in {parts[0].strip()!r}"
            ) from None
        if not vertices or min(vertices) < 0:
            raise CliError(1, f"line {n}: vertices must be nonnegative integers")
        try:
            entry = [vertices]
            entry += (int_then_float(p.strip(), n) for p in parts[1:])
        except ValueError as e:
            raise CliError(1, str(e)) from None
        lines.append(n)
        entries.append(entry)
    value_map = None
    if any(type(v) is float for entry in entries for v in entry[1:]):
        distinct = sorted({v for entry in entries for v in entry[1:]})
        value_map = dict(zip(distinct, range(len(distinct))))
    rank = (value_map or {}).get

    def simplex(vertices, birth, removal=INF):
        return Simplex(
            tuple(sorted(vertices)), rank(birth, birth), rank(removal, removal)
        )

    simplices = tuple(simplex(*entry) for entry in entries)
    faces, broken = reference_face_index(simplices)
    if broken is None and not (value_map and distinct[0] < 0):
        return simplices, faces, value_map, tuple(lines)
    # the values as written break the same rules, a negative one too;
    # of equal values, the first read stands for all
    value_of = {r: v for v, r in (value_map or {}).items()}.get
    written = [
        Simplex(vertices, value_of(birth, birth), value_of(removal, removal))
        for vertices, birth, removal in simplices
    ]
    at, message = reference_face_index(written)[1]
    raise CliError(2, f"line {lines[at]}: {message}")


def _reference_term(token, lineno, field, coeffs):
    """One term ``<coeff>t^<e>*<name>`` -> (coeff, exponent, name)."""
    head, sep, name = token.partition("*")
    coeff_text, tsep, exp_text = head.partition("t^")
    if not sep or not name or not tsep:
        raise CliError(
            1,
            f"line {lineno}: bad term {token!r} "
            "(expected <coeff>t^<e>*<name>)",
        )
    try:
        exponent = int(exp_text)
    except ValueError:
        raise CliError(1, f"line {lineno}: bad exponent in {token!r}") from None
    if exponent < 0:
        raise CliError(1, f"line {lineno}: negative exponent in {token!r}")
    if coeff_text:
        coeff = coeffs.get(coeff_text)
        if coeff is None:
            try:
                coeff = coeffs[coeff_text] = field.parse(coeff_text)
            except (ValueError, ZeroDivisionError):
                raise CliError(
                    1, f"line {lineno}: bad coefficient in {token!r}"
                ) from None
    else:
        coeff = field.one
    return coeff, exponent, name


def _reference_terms(text, lineno, field, coeffs):
    return [
        _reference_term(token.strip(), lineno, field, coeffs)
        for token in text.split("+")
    ]


def _reference_presentation_lines(pairs, field, coeffs):
    gens = []
    rels = []
    for n, line in pairs:
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "gen":
            tokens = rest.split()
            if len(tokens) != 2:
                raise CliError(1, f"line {n}: expected 'gen <name> <degree>'")
            try:
                degree = int(tokens[1])
            except ValueError:
                raise CliError(1, f"line {n}: bad degree {tokens[1]!r}") from None
            if "+" in tokens[0] or "->" in tokens[0]:
                raise CliError(
                    1,
                    f"line {n}: generator name {tokens[0]!r} contains "
                    "'+' or '->'",
                )
            gens.append((tokens[0], degree))
        elif keyword == "rel":
            rels.append(_reference_terms(rest, n, field, coeffs))
        else:
            raise CliError(1, f"line {n}: unknown directive {keyword!r}")
    try:
        return Presentation.from_terms(field, gens, rels)
    except (ValueError, KeyError) as e:
        message = e.args[0]
    gen_lines = [n for n, line in pairs if line.partition(" ")[0] == "gen"]
    seen = set()
    for n, (label, _) in zip(gen_lines, gens):
        if label in seen:
            break
        seen.add(label)
    else:
        basis = GradedBasis(gens)
        rel_lines = [n for n, line in pairs if line.partition(" ")[0] == "rel"]
        for n, terms in zip(rel_lines, rels):
            try:
                Presentation.from_terms(field, basis, [terms])
            except (ValueError, KeyError):
                break
    raise CliError(2, f"line {n}: {message}")


def _reference_content_lines(text):
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield n, line


def reference_parse_presentation(text, field=QQ):
    """``cli.parse_presentation`` as it read a presentation before the
    one-pass reader: the reference for its results and its errors.

    Parses each term by itself, then builds the presentation with
    ``Presentation.from_terms``; on a fault there, a repeated label is
    reported at its second line, else at the first relation that fails
    alone.  Returns the presentation, or raises the CliError the reader
    must raise.
    """
    return _reference_presentation_lines(
        list(_reference_content_lines(text)), field, {}
    )


def reference_parse_morphism(text, field=QQ):
    """``cli.parse_morphism`` as it read a morphism before the one-pass
    reader: sections, the two presentations by
    ``reference_parse_presentation``'s rules, then the map lines term by
    term into a table of entries, and the morphism check."""
    sections = {"source": [], "target": [], "maps": []}
    current = None
    for n, line in _reference_content_lines(text):
        if line in sections:
            current = sections[line]
            continue
        if current is None:
            raise CliError(
                1, f"line {n}: expected a 'source', 'target', or 'maps' header"
            )
        current.append((n, line))
    coeffs = {}
    src = _reference_presentation_lines(sections["source"], field, coeffs)
    dst = _reference_presentation_lines(sections["target"], field, coeffs)
    entries = {}
    mapped = set()
    for n, line in sections["maps"]:
        keyword, _, rest = line.partition(" ")
        if keyword != "map":
            raise CliError(1, f"line {n}: unknown directive {keyword!r}")
        name, arrow, terms_text = rest.partition("->")
        name = name.strip()
        if not arrow:
            raise CliError(1, f"line {n}: expected 'map <name> -> <terms>'")
        try:
            j = src.gens.index(name)
        except KeyError as e:
            raise CliError(2, f"line {n}: {e.args[0]}") from None
        if j in mapped:
            raise CliError(1, f"line {n}: generator {name!r} mapped twice")
        mapped.add(j)
        for coeff, exponent, label in _reference_terms(
            terms_text, n, field, coeffs
        ):
            try:
                i = dst.gens.index(label)
            except KeyError as e:
                raise CliError(2, f"line {n}: {e.args[0]}") from None
            implied = src.gens.degrees[j] - dst.gens.degrees[i]
            if exponent != implied:
                raise CliError(
                    2,
                    f"line {n}: term on {label!r} must have exponent "
                    f"{implied} to preserve degree, got {exponent}",
                )
            if (i, j) in entries:
                coeff = field.add(entries[(i, j)], coeff)
            entries[(i, j)] = coeff
    phi = GradedMatrix.from_entries(field, src.gens, dst.gens, entries)
    morphism = PresentationMorphism(src, dst, phi)
    if not validate_morphism(morphism):
        raise CliError(
            2,
            "generator map does not send source relations into the "
            "target relation span",
        )
    return morphism


def reference_bar_key(bar):
    """``Bar.key`` as bars were sorted before a bar was a plain tuple:
    a None dimension sorts as -1."""
    return (bar.dim if bar.dim is not None else -1, bar.birth, bar.death)


def reference_bar_line(bar):
    """``cli._bar_line`` as it wrote a bar before it was one f-string:
    each grade by ``str``, an infinite one as ``inf``."""

    def grade(value):
        return "inf" if value == INF else str(value)

    dim = "-" if bar.dim is None else bar.dim
    return f"{dim} {grade(bar.birth)} {grade(bar.death)}"


def reference_face_index(simplices):
    """``homology._face_index`` one rule at a time in input order, as it
    was written before the one-pass check: the rules on each simplex
    alone first, then the rules on its faces."""
    position = {}
    for n, (vertices, birth, removal) in enumerate(simplices):
        if len(set(vertices)) != len(vertices):
            return None, (n, f"repeated vertex in simplex {vertices}")
        if birth < 0:
            return None, (n, f"simplex {vertices} born at {birth} < 0")
        if removal < birth:
            return None, (n, (
                f"simplex {vertices} removed at {removal} before "
                f"its birth {birth}"
            ))
        if vertices in position:
            return None, (n, f"simplex {vertices} listed twice")
        position[vertices] = n
    faces = []
    for n, (vertices, birth, removal) in enumerate(simplices):
        at = []
        size = len(vertices) - 1
        for face in itertools.combinations(vertices, size) if size > 0 else ():
            m = position.get(face)
            if m is None:
                return None, (n, f"simplex {vertices} is missing face {face}")
            _, face_birth, face_removal = simplices[m]
            if face_birth > birth:
                return None, (n, (
                    f"face {face} born at {face_birth}, after "
                    f"{vertices} at {birth}"
                ))
            if face_removal < removal:
                return None, (n, (
                    f"face {face} removed at {face_removal}, before "
                    f"{vertices} at {removal}"
                ))
            at.append(m)
        faces.append(tuple(at))
    return tuple(faces), None


def element_terms(matrix, j):
    """The ``<coeff>t^<e>*<label>`` terms of column j, read through
    ``terms``."""
    return [
        f"{matrix.field.format(c)}t^{e}*{matrix.target.labels[i]}"
        for i, c, e in terms(matrix, j)
    ]


def element_presentation_text(p):
    """``format_presentation`` of a readable presentation, term by term
    through ``element_terms``."""
    lines = [f"gen {label} {degree}" for label, degree in p.gens]
    for j in range(len(p.rels)):
        parts = element_terms(p.incl, j)
        if parts:
            lines.append("rel " + " + ".join(parts))
    return "".join(line + "\n" for line in lines)


def element_map_lines(matrix):
    """The ``map`` lines of ``snf --dump``, through ``element_terms``."""
    return [
        f"map {label} -> " + (" + ".join(element_terms(matrix, j)) or "0")
        for j, label in enumerate(matrix.source.labels)
    ]


ReductionState = namedtuple(
    "ReductionState", ["Z", "B", "field", "pivots", "z_columns", "b_columns"]
)
"""Cycles Z and boundaries B of a boundary matrix, with the original
column behind each and the pivot pairing of its column echelon."""


def reduce_boundary(m):
    """Split a boundary matrix into cycles and boundaries.

    The reference route of Zomorodian and Carlsson (2005), rebuilt on
    the public kernel: the cycles are the ``free_kernel`` columns, one
    per column that reduces to zero, in processing order; the
    boundaries are the nonzero columns of ``m`` in processing order,
    each a boundary of the module one dimension down.
    """
    _, lows, dead = echelon(m)
    b_columns = tuple(j for j in m.source.sorted_indices() if m.cols[j])
    return ReductionState(
        Z=tuple(columns(free_kernel(m))),
        B=tuple(column(m, j) for j in b_columns),
        field=m.field,
        pivots=lows,
        z_columns=tuple(dead),
        b_columns=b_columns,
    )


def express_in_columns(x, m):
    """Coefficients c over ``m.source`` with ``m @ c == x``, or None.

    Appends x to m as a last column, processed after every column of
    degree <= deg x.  x lies in the column space exactly when that
    column reduces to zero, and then its kernel column is the only one
    of degree deg x with a coordinate on x: scaled to -1 there, the
    rest of it is the answer, over x's own source.
    """
    if x.target != m.target:
        raise ValueError("element is not over the matrix target basis")
    f = m.field
    label = next(
        lab for lab in (f"x{n}" for n in itertools.count())
        if lab not in m.source.labels
    )
    source = GradedBasis([*m.source, (label, degree(x))])
    last = m.ncols
    joined = GradedMatrix(f, source, m.target, [*m.cols, x.cols[0]])
    kernel = free_kernel(joined)
    for d, k in zip(kernel.source.degrees, kernel.cols):
        if d == degree(x) and last in k:
            r = f.neg(f.inv(k[last]))
            coords = {i: f.mul(r, c) for i, c in k.items() if i != last}
            return GradedMatrix(f, x.source, m.source, [coords])
    return None


def cycle_presentation(field, cycles, boundaries):
    """Present a homology module: generators = cycles, relations = boundaries.

    Each boundary is rewritten in the cycle basis; failure means the
    input was not a boundary matrix.
    """
    zmat = matrix_of_columns(
        field,
        cycles[0].target if cycles else GradedBasis([]),
        cycles,
        [f"z{i + 1}" for i in range(len(cycles))],
    )
    cols = []
    for n, b in enumerate(boundaries):
        coeffs = express_in_columns(b, zmat)
        if coeffs is None:
            raise ValueError(
                f"boundary {n} does not reduce to zero against the cycles"
            )
        cols.append(coeffs)
    incl = matrix_of_columns(
        field, zmat.source, cols, [f"r{j + 1}" for j in range(len(cols))]
    )
    return Presentation(field, incl)


def boundaries_in_cycles(state):
    """Presentation of homology from a reduction: cycles modulo boundaries.

    Generators are labeled z1, z2, ... at the cycle degrees; relations
    r1, r2, ... express each boundary over the cycle basis.
    """
    return cycle_presentation(state.field, state.Z, state.B)


def random_insertion_order(rng, filtration):
    """Simplices of a filtered complex in random face-compatible order."""
    pending = list(filtration.simplices)
    placed = set()
    out = []
    while pending:
        ready = [
            s
            for s in pending
            if len(s.vertices) == 1
            or all(
                s.vertices[:i] + s.vertices[i + 1 :] in placed
                for i in range(len(s.vertices))
            )
        ]
        pick = rng.choice(ready)
        pending.remove(pick)
        placed.add(pick.vertices)
        out.append(pick)
    return out


def stream_simplices(state):
    """Id -> simplex of a stream state: the inverse of its ``index``."""
    simplices = [None] * len(state.keys)
    for vertices, i in state.index.items():
        simplices[i] = vertices
    return simplices


def live_cycles(state):
    """The ids of a stream state whose class is alive: those that own
    no chain and created no pair."""
    return {
        i for i in range(len(state.keys))
        if i not in state.chains and i not in state.pairing
    }


class ReferenceStream:
    """The state ``reference_add_simplex`` keeps: ``StreamState``'s
    ``index``, ``keys``, ``chains`` and ``pairing``, with ``simplices``
    (id -> simplex) and ``cycles`` (live creators) stored and kept up
    to date explicitly, so the reference shares no derived view with
    the state it checks."""

    def __init__(self, field):
        self.field = field
        self.index = {}
        self.simplices = []
        self.keys = []
        self.chains = {}
        self.pairing = {}
        self.cycles = set()


def reference_boundary_chain(state, vertices, value):
    """The signed face ids of a simplex, each face already inserted:
    the face without vertex i has sign (-1)^i.  Faces are checked from
    the last vertex left out to the first, which is lexicographic."""
    field = state.field
    chain = {}
    for i in reversed(range(len(vertices))):
        face = vertices[:i] + vertices[i + 1 :]
        if not face:
            break
        sid = state.index.get(face)
        if sid is None:
            raise ValueError(f"simplex {vertices} is missing face {face}")
        face_value = state.keys[sid][0]
        if face_value > value:
            raise ValueError(
                f"face {face} has value {face_value}, after "
                f"{vertices} at {value}"
            )
        chain[sid] = field.one if i % 2 == 0 else field.neg(field.one)
    return chain


def reference_interval(state, creator, killer=None):
    """The checked bar of a creator and its killer, or of a cycle."""
    death = INF if killer is None else state.keys[killer][0]
    return Bar(len(state.simplices[creator]) - 1, state.keys[creator][0], death)


def reference_add_simplex(state, vertices, value):
    """``streaming.add_simplex`` as it was before a simplex with no
    class alive below it skipped its reduction: every new boundary is
    reduced.  Fills a ``ReferenceStream``, not the sorted births and
    deaths.
    Builds its own chains and checked bars, sharing none of the
    stream's shortcuts."""
    vertices = tuple(sorted(vertices))
    if len(set(vertices)) != len(vertices):
        raise ValueError(f"repeated vertex in simplex {vertices}")
    if vertices in state.index:
        raise ValueError(f"simplex {vertices} inserted twice")
    chain = reference_boundary_chain(state, vertices, value)
    carrier = len(state.simplices)
    state.index[vertices] = carrier
    state.simplices.append(vertices)
    state.keys.append((value, carrier))

    field = state.field
    key = state.keys.__getitem__
    added = []
    removed = []
    while True:
        leading = linalg._reduce(
            field, chain, key, state.pairing, state.chains, key(carrier)
        )
        if leading is None:
            state.cycles.add(carrier)
            added.append(reference_interval(state, carrier))
            break
        owner = state.pairing.get(leading)
        state.pairing[leading] = carrier
        state.chains[carrier] = chain
        if owner is None:
            state.cycles.remove(leading)
            removed.append(reference_interval(state, leading))
            added.append(reference_interval(state, leading, carrier))
            break
        removed.append(reference_interval(state, leading, owner))
        added.append(reference_interval(state, leading, carrier))
        displaced = state.chains.pop(owner)
        field.combine(displaced, chain, displaced[leading], chain[leading])
        carrier, chain = owner, displaced
    return state, streaming.BarcodeDelta(added, removed)


def audit_stream(state):
    """Re-derive a stream state's pairing invariant from scratch.

    Ids are arrival indices: ``index`` maps the simplices one to one
    onto the ids and each id's filtration key ends in the id.  Every id
    must be exactly one of: live cycle, paired creator, or chain owner,
    and the repr must count the live cycles.
    Re-reducing each raw boundary against the chains earlier in the
    filtration must reach zero for cycles and creators, and reach the
    paired creator as leading id for chain owners.  The sorted births
    and finite deaths kept per dimension must be those of the barcode.
    """
    field = state.field
    n = len(state)
    assert len(state.keys) == len(state.index) == n
    assert sorted(state.index.values()) == list(range(n))
    assert all(state.keys[i][1] == i for i in range(n))
    key = state.keys.__getitem__  # filtration position
    owners = set(state.chains)
    creators = set(state.pairing)
    cycles = live_cycles(state)
    assert owners == set(state.pairing.values())
    assert not owners & creators
    assert owners | creators | cycles == set(range(n))
    assert repr(state) == (
        f"StreamState({n} simplices, {len(creators)} pairs, "
        f"{len(cycles)} cycles)"
    )
    creator_of = {killer: c for c, killer in state.pairing.items()}
    for creator, killer in state.pairing.items():
        assert max(state.chains[killer], key=key) == creator
    for sid, simplex in enumerate(stream_simplices(state)):
        chain = {}
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1 :]
            if face:
                one = field.one if i % 2 == 0 else field.neg(field.one)
                chain[state.index[face]] = one
        while chain:
            leading = max(chain, key=key)
            owner = state.pairing.get(leading)
            if owner is None or key(owner) >= key(sid):
                break
            ratio = field.div(chain[leading], state.chains[owner][leading])
            for s, c in state.chains[owner].items():
                value = field.sub(chain.get(s, field.zero), field.mul(ratio, c))
                if value:
                    chain[s] = value
                else:
                    chain.pop(s, None)
        if sid in owners:
            assert chain, f"chain owner {simplex} re-reduces to zero"
            assert max(chain, key=key) == creator_of[sid]
        else:
            assert not chain, f"cycle {simplex} re-reduces to a boundary"
    births, deaths = {}, {}
    for dim, birth, death in current_barcode(state):
        births.setdefault(dim, []).append(birth)
        if death != INF:
            deaths.setdefault(dim, []).append(death)
    for kept, barcode in ((state.births, births), (state.deaths, deaths)):
        assert kept == {d: sorted(v) for d, v in barcode.items()}
