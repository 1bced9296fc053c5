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
A simplex whose face has not arrived is rejected; faces are checked in
the lexicographic order that ``FilteredComplex`` uses, so both name the
same missing face.

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
bars answer the test by two bisects.
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
        Dimension -> sorted births of that dimension's bars.
    deaths : dict
        Dimension -> sorted finite deaths of that dimension's bars.
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


def _boundary_chain(state: StreamState, vertices, value):
    """The signed face ids of a simplex, each face already inserted."""
    signs = (state.field.one, state.field.neg(state.field.one))
    d = len(vertices) - 1
    index = state.index
    keys = state.keys
    chain = {}
    for k, face in enumerate(homology._codim_one_faces(vertices)):
        i = index.get(face)
        if i is None:
            raise ValueError(f"simplex {vertices} is missing face {face}")
        face_value = keys[i][0]
        if face_value > value:
            raise ValueError(
                f"face {face} has value {face_value}, after "
                f"{vertices} at {value}"
            )
        chain[i] = signs[(d - k) % 2]
    return chain


def _interval(state: StreamState, creator, killer=None) -> Bar:
    death = INF if killer is None else state.keys[killer][0]
    return Bar(
        len(state.simplices[creator]) - 1, state.keys[creator][0], death
    )


def _record(state: StreamState, added, removed):
    """Move a delta's bars into the sorted births and finite deaths."""
    births, deaths = state.births, state.deaths
    for dim, birth, death in removed:
        _drop(births[dim], birth)
        if death != INF:
            _drop(deaths[dim], death)
    for dim, birth, death in added:
        insort(births.setdefault(dim, []), birth)
        if death != INF:
            insort(deaths.setdefault(dim, []), death)


def _drop(values, value):
    del values[bisect_left(values, value)]


def add_simplex(state: StreamState, vertices, value):
    """Insert one simplex; return the state and the barcode delta.

    If no bar one dimension down is alive at ``value``, the simplex
    starts a cycle.  Otherwise the new boundary is reduced against
    chains earlier in filtration position.  If it survives with a
    leading simplex owned by a pair later in the filtration, that pair
    is stolen and the displaced chain re-settled, cascading to later
    and later positions.  A NaN value, a repeated vertex, a repeat
    simplex, and a face missing or with a later value are refused
    before the state changes.
    """
    vertices = tuple(sorted(vertices))
    if value != value:
        raise ValueError(f"simplex {vertices} has a NaN value")
    if len(set(vertices)) != len(vertices):
        raise ValueError(f"repeated vertex in simplex {vertices}")
    if vertices in state.index:
        raise ValueError(f"simplex {vertices} inserted twice")
    chain = _boundary_chain(state, vertices, value)
    carrier = len(state.simplices)
    state.index[vertices] = carrier
    state.simplices.append(vertices)
    state.keys.append((value, carrier))

    field = state.field
    key = state.keys.__getitem__
    added = []
    removed = []
    below = len(vertices) - 2
    if bisect_right(state.births.get(below, ()), value) == bisect_right(
        state.deaths.get(below, ()), value
    ):
        leading = None  # no class alive below: the boundary bounds
    else:
        leading = linalg._reduce(
            field, chain, key, state.pairing, state.chains, key(carrier)
        )
    while True:
        if leading is None:
            state.cycles.add(carrier)
            added.append(_interval(state, carrier))
            break
        owner = state.pairing.get(leading)
        state.pairing[leading] = carrier
        state.chains[carrier] = chain
        if owner is None:
            # the leading simplex was an unpaired cycle: new pair
            state.cycles.remove(leading)
            removed.append(_interval(state, leading))
            added.append(_interval(state, leading, carrier))
            break
        # steal the pair from a later chain and re-settle that chain
        removed.append(_interval(state, leading, owner))
        added.append(_interval(state, leading, carrier))
        displaced = state.chains.pop(owner)
        ratio = field.div(displaced[leading], chain[leading])
        field.combine(displaced, chain, ratio)
        carrier, chain = owner, displaced
        # reduce against chains earlier in the filtration than carrier
        leading = linalg._reduce(
            field, chain, key, state.pairing, state.chains, key(carrier)
        )
    _record(state, added, removed)
    return state, BarcodeDelta(added, removed)


def current_barcode(state: StreamState) -> Barcode:
    """Snapshot barcode: one bar per pair, one infinite bar per cycle."""
    bars = [
        _interval(state, creator, killer)
        for creator, killer in state.pairing.items()
    ]
    bars.extend(_interval(state, creator) for creator in state.cycles)
    return Barcode(bars)
