"""Persistent homology of filtered simplicial complexes.

The pipeline: a filtered complex yields a graded boundary matrix whose
entries carry the t-power between the births of a simplex and its
face; one column reduction pairs simplices, and the pairing is the
barcode.  Column reduction with change tracking also splits the chain
module into cycles and boundaries; expressing each boundary in the
cycle basis gives a presentation whose diagonal form is the same
barcode, which is kept as the reference route.

Complexes that also remove simplices become torsion chain complexes:
every simplex contributes a relation at its removal time, and homology
is computed per dimension through the kernel and cokernel
constructions.
"""

from __future__ import annotations

from collections import namedtuple

from .constructions import cokernel, kernel
from .fields import QQ
from .linalg import (
    GradedBasis,
    GradedMatrix,
    column_echelon,
    express_in_columns,
)
from .presentation import (
    INF,
    Bar,
    Barcode,
    Presentation,
    PresentationMorphism,
    barcode,
)

__all__ = [
    "FilteredComplex",
    "ReductionState",
    "Simplex",
    "TorsionChainComplex",
    "boundaries_in_cycles",
    "graded_boundary",
    "persistent_homology",
    "reduce_boundary",
    "relative_complex",
    "torsion_homology",
]


Simplex = namedtuple("Simplex", ["vertices", "birth", "removal"])
"""One simplex: sorted vertex tuple, birth time, removal time (or INF)."""


def simplex_label(vertices) -> str:
    """Canonical generator label for a simplex, e.g. (0, 2) -> "0.2"."""
    return ".".join(str(v) for v in vertices)


class FilteredComplex:
    """A simplicial complex with integer birth and optional removal times.

    Simplices are given as ``(vertices, birth)`` or
    ``(vertices, birth, removal)`` tuples.  Every codimension-one face
    must be present, faces must be born no later than their cofaces,
    and faces must be removed no earlier than their cofaces.

    >>> c = FilteredComplex([((0,), 0), ((1,), 1), ((0, 1), 2)])
    >>> c.max_dimension
    1
    """

    __slots__ = ("simplices",)

    def __init__(self, simplices):
        normalized = []
        for entry in simplices:
            if len(entry) == 2:
                vertices, birth = entry
                removal = INF
            else:
                vertices, birth, removal = entry
            vertices = tuple(sorted(vertices))
            if len(set(vertices)) != len(vertices):
                raise ValueError(f"repeated vertex in simplex {vertices}")
            if birth < 0:
                raise ValueError(f"simplex {vertices} born at {birth} < 0")
            if removal != INF and removal < birth:
                raise ValueError(
                    f"simplex {vertices} removed at {removal} before "
                    f"its birth {birth}"
                )
            normalized.append(Simplex(vertices, birth, removal))
        self.simplices = tuple(normalized)
        self._validate()

    def _validate(self):
        by_vertices = {}
        for s in self.simplices:
            if s.vertices in by_vertices:
                raise ValueError(f"simplex {s.vertices} listed twice")
            by_vertices[s.vertices] = s
        for s in self.simplices:
            for face in _codim_one_faces(s.vertices):
                other = by_vertices.get(face)
                if other is None:
                    raise ValueError(
                        f"simplex {s.vertices} is missing face {face}"
                    )
                if other.birth > s.birth:
                    raise ValueError(
                        f"face {face} born at {other.birth}, after "
                        f"{s.vertices} at {s.birth}"
                    )
                if other.removal < s.removal:
                    raise ValueError(
                        f"face {face} removed at {other.removal}, before "
                        f"{s.vertices} at {s.removal}"
                    )

    @property
    def has_removals(self) -> bool:
        return any(s.removal != INF for s in self.simplices)

    @property
    def max_dimension(self) -> int:
        return max((len(s.vertices) - 1 for s in self.simplices), default=-1)

    def sorted_simplices(self):
        """Filtration order: by birth, then dimension, then input order."""
        order = sorted(
            range(len(self.simplices)),
            key=lambda n: (
                self.simplices[n].birth,
                len(self.simplices[n].vertices),
                n,
            ),
        )
        return [self.simplices[n] for n in order]

    def __len__(self):
        return len(self.simplices)

    def __eq__(self, other):
        return (
            isinstance(other, FilteredComplex)
            and self.simplices == other.simplices
        )

    def __hash__(self):
        return hash(self.simplices)

    def __repr__(self):
        return f"FilteredComplex({len(self.simplices)} simplices)"


def _codim_one_faces(vertices):
    if len(vertices) < 2:
        return
    for i in range(len(vertices)):
        yield vertices[:i] + vertices[i + 1:]


def graded_boundary(filtration: FilteredComplex, field=QQ) -> GradedMatrix:
    """The boundary of a filtered complex as a square graded matrix.

    Rows and columns are the simplices in filtration order; the entry
    for (face, simplex) is the alternating sign, carrying an implied
    t-power equal to the difference of their births.  Vertex columns
    are zero.
    """
    ordered = filtration.sorted_simplices()
    basis = GradedBasis(
        (simplex_label(s.vertices), s.birth) for s in ordered
    )
    index = {s.vertices: i for i, s in enumerate(ordered)}
    entries = {}
    for j, s in enumerate(ordered):
        for i, face in enumerate(_codim_one_faces(s.vertices)):
            sign = field.one if i % 2 == 0 else field.neg(field.one)
            entries[(index[face], j)] = sign
    return GradedMatrix.from_entries(field, basis, basis, entries)


class ReductionState:
    """Result of reducing a boundary matrix.

    Attributes
    ----------
    Z : tuple of HomogeneousElement
        Cycle basis in order of appearance: the change columns of the
        boundary columns that reduced to zero.
    B : tuple of HomogeneousElement
        The nonzero boundary columns of the original matrix in order
        of appearance; each lies in the span of Z.
    field : Rationals or PrimeField
        The coefficient field of the reduced matrix.
    pivots : dict
        Pivot row index -> column index of the reduced matrix.
    z_columns, b_columns : tuple of int
        The original column index behind each entry of Z and B.
    """

    __slots__ = ("Z", "B", "field", "pivots", "z_columns", "b_columns")

    def __init__(self, Z, B, field, pivots, z_columns, b_columns):
        self.Z = Z
        self.B = B
        self.field = field
        self.pivots = pivots
        self.z_columns = z_columns
        self.b_columns = b_columns

    def __repr__(self):
        return f"ReductionState({len(self.Z)} cycles, {len(self.B)} boundaries)"


def reduce_boundary(m: GradedMatrix) -> ReductionState:
    """Column-reduce a boundary matrix into cycles and boundaries.

    A column that reduces to zero certifies a cycle (its accumulated
    change column); a column that was nonzero to begin with records its
    unreduced value as a boundary of the module one dimension down.
    """
    ech = column_echelon(m)
    z_columns = ech.zero_cols
    b_columns = tuple(j for j in ech.order if not m.column(j).is_zero)
    return ReductionState(
        Z=tuple(ech.change.column(j) for j in z_columns),
        B=tuple(m.column(j) for j in b_columns),
        field=m.field,
        pivots=dict(ech.lows),
        z_columns=z_columns,
        b_columns=b_columns,
    )


def _cycle_presentation(field, cycles, boundaries) -> Presentation:
    """Present a homology module: generators = cycles, relations = boundaries.

    Each boundary is rewritten in the cycle basis; failure to reduce to
    zero means the input was not a boundary matrix.
    """
    zmat = GradedMatrix.from_columns(
        field,
        cycles[0].basis if cycles else GradedBasis([]),
        list(cycles),
        labels=[f"z{i + 1}" for i in range(len(cycles))],
    )
    ech = column_echelon(zmat)
    cols = []
    for n, b in enumerate(boundaries):
        coeffs = express_in_columns(b, ech)
        if coeffs is None:
            raise ValueError(
                f"boundary {n} does not reduce to zero against the cycles"
            )
        cols.append(coeffs)
    incl = GradedMatrix.from_columns(
        field,
        zmat.source,
        cols,
        labels=[f"r{j + 1}" for j in range(len(cols))],
    )
    return Presentation(field, incl)


def boundaries_in_cycles(state: ReductionState) -> Presentation:
    """Presentation of homology from a reduction: cycles modulo boundaries.

    Generators are labeled z1, z2, ... at the cycle degrees; relations
    r1, r2, ... express each boundary over the cycle basis.
    """
    return _cycle_presentation(state.field, state.Z, state.B)


def persistent_homology(filtration: FilteredComplex, field=QQ) -> Barcode:
    """Dimension-labeled barcode of a filtered complex without removals.

    Reads the bars off the pivot pairing of one column reduction of the
    boundary, without change tracking (Zomorodian and Carlsson,
    *Computing persistent homology*, 2005).  A pivot row i of column j
    pairs simplex i with simplex j and gives the bar [birth i, birth j)
    in the dimension of i; a column that reduced to zero and is no pivot
    row gives [birth i, inf).  Rows and columns are in filtration order,
    so the kernel's (degree, index) pivot rule is the standard one.

    ``reduce_boundary`` and ``boundaries_in_cycles`` build the homology
    presentation (cycles modulo boundaries) whose graded Smith normal
    form gives the same barcode; they are kept as the reference route.
    """
    if filtration.has_removals:
        raise ValueError(
            "complex has removal times; use relative_complex and "
            "torsion_homology"
        )
    m = graded_boundary(filtration, field)
    ech = column_echelon(m, change=False)
    births = m.source.degrees
    dims = [len(s.vertices) - 1 for s in filtration.sorted_simplices()]
    bars = [Bar(dims[i], births[i], births[j]) for i, j in ech.lows.items()]
    bars.extend(
        Bar(dims[i], births[i], INF)
        for i in ech.zero_cols
        if i not in ech.lows
    )
    return Barcode(bars)


class TorsionChainComplex:
    """A chain module with relations and a degree-zero boundary.

    ``chains`` presents all chain groups at once; ``dims`` assigns a
    homological dimension to each generator.  The boundary must be a
    square matrix on the generator basis that drops the homological
    dimension by exactly one and squares to zero.
    """

    __slots__ = ("chains", "boundary", "dims")

    def __init__(self, chains: Presentation, boundary: GradedMatrix, dims):
        dims = tuple(dims)
        if len(dims) != len(chains.gens):
            raise ValueError("one dimension label per generator required")
        if boundary.source != chains.gens or boundary.target != chains.gens:
            raise ValueError("boundary must be square on the generator basis")
        for j, col in enumerate(boundary.cols):
            for i in col:
                if dims[i] != dims[j] - 1:
                    raise ValueError(
                        "boundary entry does not drop homological "
                        f"dimension by one at ({i}, {j})"
                    )
        if not (boundary @ boundary).is_zero:
            raise ValueError("boundary does not square to zero")
        self.chains = chains
        self.boundary = boundary
        self.dims = dims

    @property
    def max_dimension(self) -> int:
        return max(self.dims, default=-1)

    def __repr__(self):
        return (
            f"TorsionChainComplex({len(self.chains.gens)} generators, "
            f"max dim {self.max_dimension})"
        )


def relative_complex(filtration: FilteredComplex, field=QQ) -> TorsionChainComplex:
    """Chain complex of a filtered complex whose simplices get removed.

    Every simplex contributes a generator at its birth; a simplex
    removed at time r additionally contributes the relation
    t^(r - birth) times its generator, so the chain class is killed
    from degree r onward.  Relations are ordered by removal time.

    ``FilteredComplex`` makes faces outlive their cofaces.  The
    boundary maps the relation of a simplex removed at r to its faces
    in degree r, and a face's relation holds only from the face's own
    removal time, which is r or later.  So the boundary descends to
    these torsion chains only where every removed simplex shares its
    removal time with each of its faces; elsewhere ``validate_morphism``
    on the boundary returns False.  The complex is built either way,
    and ``torsion_homology`` says what it reads from it.
    """
    ordered = filtration.sorted_simplices()
    basis = GradedBasis(
        (simplex_label(s.vertices), s.birth) for s in ordered
    )
    removed = sorted(
        (i for i, s in enumerate(ordered) if s.removal != INF),
        key=lambda i: (ordered[i].removal, i),
    )
    rels = GradedBasis(
        (f"rel{n}", ordered[i].removal) for n, i in enumerate(removed)
    )
    incl = GradedMatrix(
        field, rels, basis, [{i: field.one} for i in removed]
    )
    dims = (len(s.vertices) - 1 for s in ordered)
    return TorsionChainComplex(
        Presentation(field, incl), graded_boundary(filtration, field), dims
    )


def _restrict_presentation(tcc: TorsionChainComplex, p: int) -> Presentation:
    """The sub-presentation of the chains in homological dimension p."""
    field = tcc.chains.field
    rows = [i for i, d in enumerate(tcc.dims) if d == p]
    remap = {i: n for n, i in enumerate(rows)}
    gens = GradedBasis(
        (tcc.chains.gens.labels[i], tcc.chains.gens.degrees[i]) for i in rows
    )
    rel_cols = []
    rel_entries = []
    for j, col in enumerate(tcc.chains.incl.cols):
        support = {tcc.dims[i] for i in col}
        if len(support) > 1:
            raise ValueError(f"relation {j} mixes homological dimensions")
        if support == {p}:
            rel_cols.append(j)
            rel_entries.append({remap[i]: c for i, c in col.items()})
    rels = GradedBasis(
        (tcc.chains.rels.labels[j], tcc.chains.rels.degrees[j])
        for j in rel_cols
    )
    return Presentation(field, GradedMatrix(field, rels, gens, rel_entries))


def _boundary_block(tcc: TorsionChainComplex, p: int, src, dst) -> GradedMatrix:
    """The boundary restricted to dimension-p columns and (p-1)-rows."""
    field = tcc.chains.field
    src_idx = [i for i, d in enumerate(tcc.dims) if d == p]
    dst_idx = [i for i, d in enumerate(tcc.dims) if d == p - 1]
    remap = {i: n for n, i in enumerate(dst_idx)}
    cols = [
        {remap[i]: c for i, c in tcc.boundary.cols[j].items()}
        for j in src_idx
    ]
    return GradedMatrix(field, src, dst, cols)


def torsion_homology(tcc: TorsionChainComplex) -> Barcode:
    """Dimension-labeled barcode of a torsion chain complex.

    For each dimension p: take the kernel of the boundary leaving the
    p-chains, rewrite the boundaries arriving from the (p+1)-chains in
    the kernel basis, and read the barcode off the cokernel.

    H0 is the cokernel of the boundary from the 1-chains into C0.  A
    cokernel depends only on the images of the edge generators, so it
    is well defined whether or not the boundary descends to the torsion
    chains (see ``relative_complex``).  For p >= 1 the cycles are the
    preimage of the (p-1)-relations under the boundary, computed by
    ``kernel``.  When the boundary does not descend, that is a choice
    and not the homology of the complex alive at each grade.
    """
    field = tcc.chains.field
    chain_at = {
        p: _restrict_presentation(tcc, p)
        for p in range(tcc.max_dimension + 1)
    }
    chain_at[-1] = Presentation.free(field, [])
    bars = []
    for p in range(tcc.max_dimension + 1):
        block = _boundary_block(tcc, p, chain_at[p].gens, chain_at[p - 1].gens)
        k, incl = kernel(
            PresentationMorphism(chain_at[p], chain_at[p - 1], block)
        )
        above = chain_at.get(p + 1, Presentation.free(field, []))
        arriving = _boundary_block(tcc, p + 1, above.gens, chain_at[p].gens)
        ech = column_echelon(incl.phi)
        cols = []
        for j in range(arriving.ncols):
            coeffs = express_in_columns(arriving.column(j), ech)
            if coeffs is None:
                raise ValueError(
                    f"boundary of {above.gens.labels[j]} is not a cycle"
                )
            cols.append(coeffs)
        phi = GradedMatrix.from_columns(
            field, k.gens, cols, labels=list(above.gens.labels)
        )
        h = cokernel(PresentationMorphism(above, k, phi))
        bars.extend(barcode(h, dim=p))
    return Barcode(bars)
