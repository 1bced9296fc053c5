"""Persistent homology of filtered simplicial complexes.

A filtered complex is a graded chain complex over k[t]: its graded
boundary matrix carries the t-power between the births of a simplex
and its face.  Over a field the dual complex, whose coboundary is
graded by the last birth minus each birth, pairs the same simplices.
``persistent_homology`` reduces that coboundary one dimension at a time
with clearing and reads the barcode off the pairing (de Silva, Morozov
and Vejdemo-Johansson, *Dualities in persistent (co)homology*, 2011;
Bauer, *Ripser*, 2021).  The boundary reduction of Zomorodian and
Carlsson (2005), and the presentation of cycles modulo boundaries that
it yields, give the same barcode; the tests keep both as oracles.

Complexes that also remove simplices become torsion chain complexes:
every simplex contributes a relation at its removal time, and homology
is the kernel of the boundary leaving the cokernel of the boundary,
computed for the whole complex at once; each bar carries the dimension
of its kernel generator.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, repeat
from operator import itemgetter, lt, ne

from . import linalg
from .constructions import cokernel, kernel
from .fields import QQ
from .linalg import GradedBasis, GradedMatrix
from .presentation import (
    INF,
    Bar,
    Barcode,
    Presentation,
    PresentationMorphism,
    _annihilators,
)

__all__ = [
    "FilteredComplex",
    "Simplex",
    "TorsionChainComplex",
    "graded_boundary",
    "persistent_homology",
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
    and faces must be removed no earlier than their cofaces.  A simplex
    with no vertices, a NaN time, which compares false with every time,
    and a time that is not a number, such as None or a str, are refused.
    ``has_removals`` says whether any simplex has a removal time.

    >>> c = FilteredComplex([((0,), 0), ((1,), 1), ((0, 1), 2)])
    >>> c.max_dimension
    1
    """

    __slots__ = ("simplices", "_faces", "has_removals")

    def __init__(self, simplices):
        simplices = tuple(map(_normalized, simplices))
        for vertices, birth, removal in simplices:
            if not vertices:
                raise ValueError(f"simplex {vertices} has no vertices")
            fault = _time_fault(vertices, birth, "time") or _time_fault(
                vertices, removal, "time"
            )
            if fault:
                raise ValueError(fault)
        self._index(simplices)

    @classmethod
    def _of_sorted(cls, simplices):
        """The complex of a tuple of Simplex entries whose vertex tuples
        are already sorted, as the CLI reader makes them."""
        filtration = cls.__new__(cls)
        filtration._index(simplices)
        return filtration

    def _index(self, simplices):
        self.simplices = simplices
        # _faces[n]: input positions of the codimension-one faces of
        # simplex n, in the order of _codim_one_faces
        self._faces, broken = _face_index(simplices)
        if broken is not None:
            raise ValueError(broken[1])
        removals = map(itemgetter(2), simplices)
        self.has_removals = any(map(ne, removals, repeat(INF)))

    @property
    def max_dimension(self) -> int:
        return max((len(s.vertices) - 1 for s in self.simplices), default=-1)

    def _order(self):
        """Input positions in filtration order (birth, dimension, input
        order), which ``persistent_homology`` reverses."""
        keys = [(b, len(vertices)) for vertices, b, _ in self.simplices]
        return sorted(range(len(keys)), key=keys.__getitem__)  # stable

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


def _normalized(entry) -> Simplex:
    """A ``(vertices, birth[, removal])`` entry as a Simplex."""
    if len(entry) == 2:
        return Simplex(tuple(sorted(entry[0])), entry[1], INF)
    vertices, birth, removal = entry
    return Simplex(tuple(sorted(vertices)), birth, removal)


def _time_fault(vertices, t, noun):
    """Why a time t of a simplex is refused, or None: t is NaN, which
    compares false with every number, or compares with none at all."""
    try:
        if t <= INF:
            return None
    except TypeError:
        return f"simplex {vertices} has {noun} {t!r}, which is not a number"
    return f"simplex {vertices} has a NaN {noun}"


def _face_index(simplices):
    """The face index of a list of simplices and the first rule broken.

    Returns (faces, broken).  When every rule holds, broken is None and
    faces[n] holds the positions in ``simplices`` of the
    codimension-one faces of simplex n, in the order of
    ``_codim_one_faces``.  Otherwise faces is None and broken is
    (position, message): the index of the simplex at fault and a
    message that names it and the times it breaks.

    The rules on each simplex alone come first.  Listed twice, born
    before 0 and removed before its birth are checked over whole
    columns; when one may be broken, ``_alone_broken`` walks the
    simplices in input order to name the first.  One pass in input
    order then indexes the faces and checks the face rules.  It needs
    no set per simplex for a repeated vertex: the two faces of an edge
    (v, v) coincide, and a larger simplex that repeats a vertex has a
    face that repeats it too, so once every face is found and no
    simplex has its first face at the position of its last, no simplex
    repeats a vertex.  A fault the pass meets may still come after a
    repeated vertex, so ``_alone_broken`` is asked first.
    """
    if not simplices:
        return (), None
    vertex_sets, births, removals = zip(*simplices)
    position = dict(zip(vertex_sets, range(len(simplices))))
    if not (
        len(position) == len(simplices)  # none is listed twice
        and min(births) >= 0  # also false when a NaN comes first
        and not any(map(lt, removals, births))
    ):
        broken = _alone_broken(simplices)
        if broken is not None:
            return None, broken
    get = position.get
    faces = [()] * len(simplices)
    for n, vertices in enumerate(vertex_sets):
        if len(vertices) < 2:
            continue
        at = tuple(map(get, combinations(vertices, len(vertices) - 1)))
        if None not in at and at[0] != at[-1]:
            birth, removal = births[n], removals[n]
            for m in at:
                if births[m] > birth or removals[m] < removal:
                    break
            else:
                faces[n] = at
                continue
        return None, _alone_broken(simplices) or _face_broken(simplices, n, at)
    return tuple(faces), None


def _alone_broken(simplices):
    """The first simplex, in input order, that breaks a rule on a
    simplex alone, as (position, message), or None."""
    seen = set()
    for n, (vertices, birth, removal) in enumerate(simplices):
        if len(set(vertices)) != len(vertices):
            return n, f"repeated vertex in simplex {vertices}"
        if birth < 0:
            return n, f"simplex {vertices} born at {birth} < 0"
        if removal < birth:
            return n, (
                f"simplex {vertices} removed at {removal} before "
                f"its birth {birth}"
            )
        if vertices in seen:
            return n, f"simplex {vertices} listed twice"
        seen.add(vertices)
    return None


def _face_broken(simplices, n, at):
    """The first face rule that simplex n breaks, given the positions
    ``at`` of its faces (None for a missing one), as (n, message)."""
    vertices, birth, removal = simplices[n]
    for face, m in zip(_codim_one_faces(vertices), at):
        if m is None:
            return n, f"simplex {vertices} is missing face {face}"
        _, face_birth, face_removal = simplices[m]
        if face_birth > birth:
            return n, (
                f"face {face} born at {face_birth}, after "
                f"{vertices} at {birth}"
            )
        if face_removal < removal:
            return n, (
                f"face {face} removed at {face_removal}, before "
                f"{vertices} at {removal}"
            )


def _codim_one_faces(vertices):
    """The faces of a simplex in lexicographic order.

    Of a simplex with d + 1 vertices, the k-th face leaves out vertex
    d - k, so its boundary sign is (-1)^(d - k).
    """
    if len(vertices) < 2:
        return ()
    return combinations(vertices, len(vertices) - 1)


def graded_boundary(filtration: FilteredComplex, field=QQ) -> GradedMatrix:
    """The boundary of a filtered complex as a square graded matrix.

    Rows and columns are the simplices in filtration order
    (``FilteredComplex._order``); the entry for (face, simplex) is the
    alternating sign, carrying an implied t-power equal to the
    difference of their births.  Vertex columns are zero.  It is the
    boundary of ``relative_complex``, whose generators take the same
    order.
    """
    order = filtration._order()
    ordered = [filtration.simplices[n] for n in order]
    basis = GradedBasis(
        (simplex_label(s.vertices), s.birth) for s in ordered
    )
    index = [0] * len(order)
    signs = (field.one, field.neg(field.one))
    entries = {}
    for j, n in enumerate(order):
        index[n] = j  # faces precede cofaces in filtration order
        d = len(ordered[j].vertices) - 1
        for k, m in enumerate(filtration._faces[n]):
            entries[(index[m], j)] = signs[(d - k) % 2]
    return GradedMatrix.from_entries(field, basis, basis, entries)


def persistent_homology(filtration: FilteredComplex, field=QQ) -> Barcode:
    """Dimension-labeled barcode of a filtered complex without removals.

    Reads the bars off the pivot pairing of the coboundary, reduced one
    dimension at a time with clearing (de Silva, Morozov and
    Vejdemo-Johansson, *Dualities in persistent (co)homology*, 2011;
    Bauer, *Ripser*, 2021).  Over a field the coboundary pairs the same
    simplices as the boundary, at a fraction of the column work.

    Simplex r is the r-th from the end of the filtration order, and its
    column holds its signed cofacets.  Graded by M - birth, with M the
    last birth, the coboundary is a degree-0 map of free k[t]-modules
    (the dual module), and r is already the kernel's (degree, index)
    rank of a row.  Columns of each dimension are reduced in ascending
    r; a simplex that was a pivot row one dimension down would reduce
    to zero and is skipped.  A pivot row tau of column sigma gives the
    bar [birth sigma, birth tau) in the dimension of sigma, and a column
    that reduces to zero gives [birth sigma, inf).
    """
    if filtration.has_removals:
        raise ValueError(
            "complex has removal times; use relative_complex and "
            "torsion_homology"
        )
    births, cols, by_dim = _coboundary(filtration, field)
    lows: dict[int, int] = {}
    bars = []
    for p, rs in enumerate(by_dim):
        for r in rs:
            if r in lows:  # cleared
                continue
            # key None: a row index is its own rank
            low = linalg._reduce(field, cols[r], None, lows, cols)
            death = INF
            if low is not None:
                lows[low] = r
                death = births[low]
            bars.append(Bar(p, births[r], death))
    return Barcode(bars)


def _coboundary(filtration: FilteredComplex, field):
    """(births, cols, by_dim) indexed by r, the position from the end
    of the filtration order: cols[r] maps each cofacet's r to its sign,
    and by_dim[p] lists the r of the p-simplices in ascending order.

    One pass in filtration order, where faces precede their cofaces,
    so a face's r is known when a coface lists it.
    """
    order = filtration._order()
    last = len(order) - 1
    rank = [0] * len(order)
    births = [0] * len(order)
    signs = (field.one, field.neg(field.one))
    top = filtration.max_dimension
    # a top-dimensional simplex has no cofacet, and reducing an empty
    # column never writes to it, so they all share one
    no_cofacets = {}
    cols = [no_cofacets] * len(order)
    by_dim = [[] for _ in range(top + 1)]
    for i, n in enumerate(order):
        r = last - i
        rank[n] = r
        vertices, birth, _ = filtration.simplices[n]
        births[r] = birth
        d = len(vertices) - 1
        by_dim[d].append(r)
        if d < top:
            cols[r] = {}
        for k, m in enumerate(filtration._faces[n]):
            cols[rank[m]][r] = signs[(d - k) % 2]
    for rs in by_dim:
        rs.reverse()
    return births, cols, by_dim


class TorsionChainComplex:
    """A chain module with relations and a degree-zero boundary.

    ``chains`` presents all chain groups at once; ``dims`` assigns a
    homological dimension to each generator.  The boundary must be a
    square matrix on the generator basis that drops the homological
    dimension by exactly one and squares to zero, and each relation
    must lie in one dimension, so the complex is the direct sum of its
    dimensions.
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
        for j, col in enumerate(chains.incl.cols):
            if len({dims[i] for i in col}) > 1:
                raise ValueError(f"relation {j} mixes homological dimensions")
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
    on the boundary returns False, and ``_descent_failure`` names the
    first simplex at fault.  The complex is built either way.
    ``torsion_homology`` of it is torsion-chain homology, which equals
    the homology of the slice complex {birth <= g < removal} at every
    grade g exactly when the boundary descends; without descent it is a
    choice of this package in every dimension.
    """
    boundary = graded_boundary(filtration, field)
    ordered = [filtration.simplices[n] for n in filtration._order()]
    removed = sorted(
        (i for i, s in enumerate(ordered) if s.removal != INF),
        key=lambda i: (ordered[i].removal, i),
    )
    rels = GradedBasis(
        (f"rel{n}", ordered[i].removal) for n, i in enumerate(removed)
    )
    incl = GradedMatrix(
        field, rels, boundary.source, [{i: field.one} for i in removed]
    )
    dims = (len(s.vertices) - 1 for s in ordered)
    return TorsionChainComplex(Presentation(field, incl), boundary, dims)


def _descent_failure(filtration: FilteredComplex, show=lambda value: value):
    """None when the boundary descends to the torsion chains (see
    ``relative_complex``), else (position, message) for the first simplex
    in input order with a face removed later, naming its first such face
    and printing each removal time through ``show``."""
    simplices = filtration.simplices
    for n, (vertices, _, removal) in enumerate(simplices):
        for m in filtration._faces[n]:  # faces of a kept simplex are kept
            face, _, face_removal = simplices[m]
            if face_removal != removal:
                return n, (
                    f"face {face} of simplex {vertices} is removed at "
                    f"{show(face_removal)}, after {vertices} at {show(removal)}"
                )
    return None


def torsion_homology(tcc: TorsionChainComplex) -> Barcode:
    """Dimension-labeled barcode of a torsion chain complex.

    H = ker(d : C / im d -> C), for the whole complex at once: one
    cokernel of the boundary, and one kernel of the boundary leaving
    it.  Its generators are the chains whose boundary lies in the
    relations, and its relations are those generators lying in
    Rel + im d.  The boundary and the relations are block-diagonal by
    homological dimension, and a column operation only combines
    columns that share a pivot row, so each kernel generator lies in
    one dimension, which its bar carries.

    When the boundary descends to the torsion chains (see
    ``relative_complex``), taking the degree-g part is exact, so the
    bars alive at grade g count the homology of the slice complex
    {birth <= g < removal}; the tests check this against dense Betti
    numbers of every slice.  Otherwise torsion-chain homology is a
    choice of this package in every dimension: H0, say, is the cokernel
    of a boundary that joins an edge's vertices after the edge is gone.
    """
    quotient = cokernel(
        PresentationMorphism(tcc.chains, tcc.chains, tcc.boundary)
    )
    h, into = kernel(PresentationMorphism(quotient, tcc.chains, tcc.boundary))
    # a kernel column is nonzero, and all its rows share one dimension
    dims = [tcc.dims[next(iter(col))] for col in into.phi.cols]
    return Barcode(  # INF + an int past float range overflows
        Bar(p, deg, INF if a == INF else deg + a)
        for p, deg, a in zip(dims, h.gens.degrees, _annihilators(h))
    )
