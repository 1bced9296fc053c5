"""Persistence over simplex streams in inclusion-compatible order.

Simplices may arrive in any order whose every prefix is a complex, with
arbitrary filtration values.  Each simplex gets an int id when it
arrives, its arrival index, and the state is kept by id.  The state
keeps one reduced boundary chain per killing simplex; a new arrival
either starts a cycle, pairs with an unpaired cycle, or steals a
pairing from a later simplex, in which case the displaced chain is
reduced further and re-settled.  The net effect of each insertion is
reported as a barcode delta.

This is the batch column reduction run out of order (Cohen-Steiner,
Edelsbrunner and Morozov, *Vines and vineyards*, 2006): the pairing is
the pivot table of ``linalg``'s one reduction loop, keyed by arrival id,
and a chain is only reduced by owners earlier in filtration position.
Ids index the state as filtration positions index a batch engine's
columns (Bauer, Kerber, Reininghaus and Wagner, *PHAT*, 2017): a pivot
lookup hashes an int, not a vertex tuple.

Filtration ties are broken by arrival order: of two simplices with the
same value, the one inserted earlier reduces the one inserted later.
``add_simplex`` checks a simplex and finds its face ids; the core
``_insert`` takes those ids and checks nothing, so a caller holding a
checked face index, as the CLI reader does, calls it directly.
``add_simplex`` rejects a simplex whose face has not arrived; it checks
faces in the lexicographic order that ``FilteredComplex`` uses, so both
name the same missing face.

A new d-simplex with value v starts a cycle without being reduced
when no (d-1)-bar is alive at v, none with birth <= v < death.  This is
exact: the new simplex has the largest id, so the creators before it in
filtration position are those with value <= v and the killers after it
those with value > v.  No live bar then means that the (d-1)-homology
of the simplices before it is zero, so its boundary lies in the span of
the chains of earlier killers (R = DV, as in the batch reduction of
*Vines and vineyards*) and would reduce to zero.  It is the stream's
form of clearing, which skips the columns a batch reduction knows will
reach zero (Chen and Kerber, *Persistent homology computation with a
twist*, 2011).  The sorted births and finite deaths of each dimension's
bars answer the test by two bisects.  Each event updates one of those
lists once: a new cycle inserts its birth, a new pair its death, and a
steal moves the owner's death down to the carrier's in place.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

from . import homology, linalg
from .fields import QQ
from .presentation import INF, Bar, Barcode

__all__ = [
    "BarcodeDelta",
    "StreamState",
    "add_simplex",
    "current_barcode",
]


class BarcodeDelta:
    """Multiset difference between consecutive barcodes.

    ``added`` and ``removed`` are tuples of bars; folding every delta
    of a stream into an empty multiset reproduces the final barcode.
    """

    __slots__ = ("added", "removed")

    def __init__(self, added=(), removed=()):
        self.added = tuple(added)
        self.removed = tuple(removed)

    def _barcodes(self):
        return Barcode(self.added), Barcode(self.removed)

    def __eq__(self, other):
        return (
            isinstance(other, BarcodeDelta)
            and self._barcodes() == other._barcodes()
        )

    def __hash__(self):
        return hash(self._barcodes())

    def __repr__(self):
        return f"BarcodeDelta(added={list(self.added)}, removed={list(self.removed)})"


class StreamState:
    """Incremental persistence state for one simplex stream.

    Every simplex is known by its id, the number of simplices inserted
    before it.

    Attributes
    ----------
    index : dict
        Simplex (sorted vertex tuple) -> id; read only to find a new
        simplex's faces and to reject a repeat.
    simplices : list
        Id -> simplex.
    keys : list
        Id -> (filtration value, id), its filtration position.
    chains : dict
        Killing id -> reduced boundary chain, a mapping from ids to
        nonzero scalars.
    pairing : dict
        Cycle-creating id -> the id that kills its class.
    cycles : set
        Ids of creators whose class is still alive.
    births : dict
        Dimension -> sorted births of that dimension's bars; each new
        cycle inserts one.
    deaths : dict
        Dimension -> sorted finite deaths of that dimension's bars; each
        new pair inserts one, and a steal moves one down in place.
    """

    __slots__ = (
        "field", "index", "simplices", "keys", "chains", "pairing", "cycles",
        "births", "deaths",
    )

    def __init__(self, field=QQ):
        self.field = field
        self.index = {}
        self.simplices = []
        self.keys = []
        self.chains = {}
        self.pairing = {}
        self.cycles = set()
        self.births = {}
        self.deaths = {}

    def __len__(self):
        return len(self.simplices)

    def __repr__(self):
        return (
            f"StreamState({len(self.simplices)} simplices, "
            f"{len(self.pairing)} pairs, {len(self.cycles)} cycles)"
        )


def add_simplex(state: StreamState, vertices, value):
    """Insert one simplex; return the state and the barcode delta.

    If no bar one dimension down is alive at ``value``, the simplex
    starts a cycle.  Otherwise the new boundary is reduced against
    chains earlier in filtration position.  If it survives with a
    leading simplex owned by a pair later in the filtration, that pair
    is stolen and the displaced chain re-settled, cascading to later
    and later positions.  A NaN value, a value that is not a number, a
    repeated vertex, a repeat simplex, and a face missing or with a
    later value are refused before the state changes.
    """
    vertices = tuple(sorted(vertices))
    fault = homology._time_fault(vertices, value, "value")
    if fault:
        raise ValueError(fault)
    if len(set(vertices)) != len(vertices):
        raise ValueError(f"repeated vertex in simplex {vertices}")
    if vertices in state.index:
        raise ValueError(f"simplex {vertices} inserted twice")
    faces = []
    for face in homology._codim_one_faces(vertices):
        i = state.index.get(face)
        if i is None:
            raise ValueError(f"simplex {vertices} is missing face {face}")
        face_value = state.keys[i][0]
        if face_value > value:
            raise ValueError(
                f"face {face} has value {face_value}, after "
                f"{vertices} at {value}"
            )
        faces.append(i)
    return _insert(state, vertices, value, faces)


def _insert(state: StreamState, vertices, value, faces):
    """``add_simplex`` without its checks: ``vertices`` is sorted and
    new, ``value`` a number, and ``faces`` the ids of its faces in the
    order of ``homology._codim_one_faces``, none with a later value."""
    dim = len(vertices) - 1
    signs = (state.field.one, state.field.neg(state.field.one))
    chain = {i: signs[(dim - k) % 2] for k, i in enumerate(faces)}
    carrier = len(state.simplices)
    state.index[vertices] = carrier
    state.simplices.append(vertices)
    keys = state.keys
    keys.append((value, carrier))

    # delta bars skip Bar's check: killers follow creators in filtration order
    below = dim - 1
    births, deaths = state.births, state.deaths
    # no class alive below: the boundary bounds, with no reduction
    bounds = bisect_right(births.get(below, ()), value) == bisect_right(
        deaths.get(below, ()), value
    )
    field = state.field
    key = keys.__getitem__
    pairing, chains = state.pairing, state.chains
    added = []
    removed = []
    while True:
        leading = None if bounds else linalg._reduce(
            field, chain, key, pairing, chains, key(carrier)
        )
        if leading is None:
            state.cycles.add(carrier)
            birth = keys[carrier][0]
            insort(births.setdefault(dim, []), birth)
            added.append(tuple.__new__(Bar, (dim, birth, INF)))
            break
        owner = pairing.get(leading)
        pairing[leading] = carrier
        chains[carrier] = chain
        birth = keys[leading][0]
        death = keys[carrier][0]
        if owner is None:
            # the leading simplex was an unpaired cycle: new pair
            state.cycles.remove(leading)
            insort(deaths.setdefault(below, []), death)
            removed.append(tuple.__new__(Bar, (below, birth, INF)))
            added.append(tuple.__new__(Bar, (below, birth, death)))
            break
        # steal the pair from a later chain: its death moves down to
        # the carrier's, and the displaced chain is re-settled
        stolen = keys[owner][0]
        ends = deaths[below]
        i = bisect_left(ends, stolen)
        del ends[i]
        insort(ends, death, 0, i)
        removed.append(tuple.__new__(Bar, (below, birth, stolen)))
        added.append(tuple.__new__(Bar, (below, birth, death)))
        displaced = chains.pop(owner)
        ratio = field.div(displaced[leading], chain[leading])
        field.combine(displaced, chain, ratio)
        carrier, chain = owner, displaced
    return state, BarcodeDelta(added, removed)


def current_barcode(state: StreamState) -> Barcode:
    """Snapshot barcode: one bar per pair, one infinite bar per cycle."""
    # no Bar check, as for delta bars: a killer follows its creator
    keys, simplices = state.keys, state.simplices
    bars = [
        tuple.__new__(Bar, (len(simplices[c]) - 1, keys[c][0], keys[k][0]))
        for c, k in state.pairing.items()
    ]
    bars.extend(
        tuple.__new__(Bar, (len(simplices[c]) - 1, keys[c][0], INF))
        for c in state.cycles
    )
    return Barcode(bars)
