"""Shared test utilities: independent oracles and random data builders.

The rank oracle here is deliberately naive (dense Gaussian elimination
over the coefficient field, no grading) so that it shares no code with
the library's reduction engine.
"""

import itertools
from fractions import Fraction

from persmod import (
    INF,
    FilteredComplex,
    GradedBasis,
    GradedMatrix,
    Presentation,
    PresentationMorphism,
    PrimeField,
    QQ,
    concat_bases,
)


def hstack(matrices):
    """Place matrices with a common target side by side."""
    matrices = list(matrices)
    target = matrices[0].target
    for m in matrices:
        if m.target != target:
            raise ValueError("hstack needs a common target basis")
    source = concat_bases(*(m.source for m in matrices))
    cols = [col for m in matrices for col in m.cols]
    return GradedMatrix(matrices[0].field, source, target, cols)


def vstack(matrices):
    """Stack matrices with a common source on top of each other."""
    matrices = list(matrices)
    source = matrices[0].source
    for m in matrices:
        if m.source != source:
            raise ValueError("vstack needs a common source basis")
    target = concat_bases(*(m.target for m in matrices))
    cols = [dict() for _ in range(len(source))]
    offset = 0
    for m in matrices:
        for j, col in enumerate(m.cols):
            for i, c in col.items():
                cols[j][i + offset] = c
        offset += m.nrows
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


def slice_rank(matrix, d):
    """Rank of the degree-d slice of a graded matrix, by plain Gaussian
    elimination.

    In degree d the module generated by a basis has one k-dimension per
    generator of degree <= d, and a matrix column contributes the same
    scalars in every degree from its own degree upward.
    """
    rows = [i for i in range(matrix.nrows) if matrix.target.degrees[i] <= d]
    cols = [j for j in range(matrix.ncols) if matrix.source.degrees[j] <= d]
    dense = [
        [matrix.entry(i, j) for j in cols]
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


def random_element(field, rng, basis, degree=None):
    """A random homogeneous element over ``basis``."""
    if degree is None:
        degree = rng.randint(min(basis.degrees), max(basis.degrees) + 4)
    coords = {}
    for i in range(len(basis)):
        if basis.degrees[i] <= degree and rng.random() < 0.6:
            coords[i] = random_scalar(field, rng)
    from persmod import HomogeneousElement

    return HomogeneousElement(field, basis, degree, coords)


BOTH_FIELDS = (QQ, PrimeField(5))


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


def degree_bound(p):
    """A degree beyond which nothing about the module changes."""
    degs = list(p.gens.degrees) + list(p.rels.degrees)
    return (max(degs) if degs else 0) + 2


def induced_slice_rank(phi, dst, d):
    """Rank of the degree-d slice of the map into the quotient ``dst``.

    The image of a slice map into F/iG has dimension
    rank[phi | incl] - rank[incl] over the degree-d scalar slices;
    computed densely, independent of the graded engine.
    """
    field = dst.field
    rows = [i for i in range(len(dst.gens)) if dst.gens.degrees[i] <= d]
    pcols = [j for j in range(phi.ncols) if phi.source.degrees[j] <= d]
    rcols = [j for j in range(len(dst.rels)) if dst.rels.degrees[j] <= d]
    rel_rows = [[dst.incl.entry(i, j) for j in rcols] for i in rows]
    rank_rel = gauss_rank(field, rel_rows) if rows and rcols else 0
    combined = [
        [phi.entry(i, j) for j in pcols] + rel_rows[n]
        for n, i in enumerate(rows)
    ]
    if not rows or not (pcols or rcols):
        return 0
    return gauss_rank(field, combined) - rank_rel


def _random_elementary(field, rng, basis):
    """A legal elementary matrix E = I + c*e(i,j) with its inverse.

    Requires deg(j) >= deg(i) strictly in (degree, position) order, so
    both E and its inverse are graded and unit triangular.
    """
    if len(basis) < 2:
        return None
    i = rng.randrange(len(basis))
    j = rng.randrange(len(basis))
    if basis.sort_key(j) <= basis.sort_key(i):
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
        if basis.sort_key(j) > basis.sort_key(i):
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


def audit_stream(state):
    """Re-derive a stream state's pairing invariant from scratch.

    Every simplex must be exactly one of: unpaired cycle, paired
    creator, or chain owner.  Re-reducing each raw boundary against
    the chains earlier in the filtration must reach zero for cycles
    and creators, and reach the paired creator as leading simplex for
    chain owners.
    """
    field = state.field
    owners = set(state.chains)
    creators = set(state.pairing)
    assert owners == set(state.pairing.values())
    assert not creators & state.cycles
    assert not owners & (creators | state.cycles)
    assert owners | creators | state.cycles == set(state.values)
    creator_of = {killer: c for c, killer in state.pairing.items()}
    for creator, killer in state.pairing.items():
        assert max(state.chains[killer], key=state.key) == creator
    for simplex in state.values:
        chain = {}
        for i in range(len(simplex)):
            face = simplex[:i] + simplex[i + 1 :]
            if face:
                chain[face] = field.one if i % 2 == 0 else field.neg(field.one)
        while chain:
            leading = max(chain, key=state.key)
            owner = state.pairing.get(leading)
            if owner is None or state.key(owner) >= state.key(simplex):
                break
            ratio = field.div(chain[leading], state.chains[owner][leading])
            for s, c in state.chains[owner].items():
                value = field.sub(chain.get(s, field.zero), field.mul(ratio, c))
                if value:
                    chain[s] = value
                else:
                    chain.pop(s, None)
        if simplex in owners:
            assert chain, f"chain owner {simplex} re-reduces to zero"
            assert max(chain, key=state.key) == creator_of[simplex]
        else:
            assert not chain, f"cycle {simplex} re-reduces to a boundary"
