"""Tests for streaming persistence over unordered simplex arrivals.

The worked example walks a triangle whose simplices arrive out of
filtration order, checking every pairing repair and barcode delta.
Property tests insert random complexes in random face-compatible
orders and require exact agreement with the batch pipeline, with the
reduction invariant re-audited from scratch along the way.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    BOTH_FIELDS,
    audit_stream,
    complexes,
    filtration_order,
    random_filtered_complex,
    random_insertion_order,
    reduce_boundary,
    reference_add_simplex,
    rips_complex,
)
from persmod import (
    INF,
    Bar,
    BarcodeDelta,
    FilteredComplex,
    PrimeField,
    QQ,
    StreamState,
    add_simplex,
    current_barcode,
    graded_boundary,
    linalg,
    persistent_homology,
    streaming,
)

TRIANGLE_TRACE = [
    ((1,), 1),
    ((2,), 4),
    ((1, 2), 6),
    ((3,), 2),
    ((1, 3), 3),
    ((2, 3), 5),
    ((1, 2, 3), 7),
]


# vertex 1 dies at 6 on edge 01; the edge 15 at 2, inserted last,
# steals that pair and moves the death down past 3 and 4 (edges 23 and
# 34), and 01 re-settles as a 1-cycle through 05
STEAL_TRACE = [
    ((0,), 0), ((1,), 1), ((2,), 0), ((3,), 0), ((4,), 0), ((5,), 0),
    ((0, 5), 0), ((0, 1), 6), ((2, 3), 3), ((3, 4), 4),
]

# the vertices and edges of a tetrahedron, all at 0
TETRAHEDRON_GRAPH = [
    (v, 0) for v in itertools.chain(
        itertools.combinations(range(4), 1), itertools.combinations(range(4), 2)
    )
]

# one insertion per branch of add_simplex: (trace before, insertion,
# reductions run, added, removed)
DELTA_BRANCHES = {
    "no-live-class-cycle": (
        TETRAHEDRON_GRAPH + [((0, 1, 2), 1), ((0, 1, 3), 1), ((0, 2, 3), 1)],
        ((1, 2, 3), 2), 0, [(2, 2, INF)], [],
    ),
    "cycle-after-reduction": (
        [((0,), 0), ((1,), 0), ((2,), 0), ((0, 1), 0), ((0, 2), 0)],
        ((1, 2), 1), 1, [(1, 1, INF)], [],
    ),
    "new-pair": (
        [((0,), 0), ((1,), 2)], ((0, 1), 5), 1, [(0, 2, 5)], [(0, 2, INF)],
    ),
    "steal-cascade": (
        STEAL_TRACE, ((1, 5), 2), 2, [(0, 1, 2), (1, 6, INF)], [(0, 1, 6)],
    ),
}


def bar_triples(bars):
    return [(b.dim, b.birth, b.death) for b in bars]


def named_pairing(state):
    """The pairing with ids translated back to simplices."""
    name = state.simplices
    return {name[c]: name[k] for c, k in state.pairing.items()}


def named_cycles(state):
    return {state.simplices[c] for c in state.cycles}


def random_stream(rng, values):
    """A random face-closed complex of dimension up to 3 on a few
    vertices, in random face-compatible order.  Each simplex takes a
    value from the sorted ``values`` no smaller than its faces', most
    often the largest of theirs, so values tie heavily."""
    def faces(s):
        return [f for f in itertools.combinations(s, len(s) - 1) if f]

    vertices = range(rng.randint(3, 6))
    rank = {}
    for size in range(1, 5):
        for s in itertools.combinations(vertices, size):
            if all(f in rank for f in faces(s)) and rng.random() < 0.9:
                floor = max((rank[f] for f in faces(s)), default=0)
                step = 0 if rng.random() < 0.6 else rng.randint(1, 2)
                rank[s] = min(floor + step, len(values) - 1)
    placed = set()
    out = []
    while len(out) < len(rank):
        ready = [
            s for s in rank
            if s not in placed and all(f in placed for f in faces(s))
        ]
        pick = rng.choice(ready)
        placed.add(pick)
        out.append((pick, values[rank[pick]]))
    return out


def feed(state, trace):
    deltas = []
    for vertices, value in trace:
        state, delta = add_simplex(state, vertices, value)
        deltas.append(delta)
    return state, deltas


class TestAddSimplex:
    def test_vertex_starts_class(self):
        state, delta = add_simplex(StreamState(), (0,), 3)
        assert bar_triples(delta.added) == [(0, 3, INF)]
        assert delta.removed == ()
        assert state.index == {(0,): 0}, "the first arrival is id 0"
        assert state.cycles == {0}
        assert named_cycles(state) == {(0,)}

    def test_edge_joins_components(self):
        state, _ = feed(StreamState(), [((0,), 0), ((1,), 2)])
        state, delta = add_simplex(state, (0, 1), 5)
        assert bar_triples(delta.removed) == [(0, 2, INF)], (
            "the younger class dies"
        )
        assert bar_triples(delta.added) == [(0, 2, 5)]
        assert state.pairing == {state.index[(1,)]: state.index[(0, 1)]}
        assert named_pairing(state) == {(1,): (0, 1)}

    def test_missing_face_rejected(self):
        state, _ = add_simplex(StreamState(), (0,), 0)
        with pytest.raises(ValueError, match="missing face"):
            add_simplex(state, (0, 1), 1)

    def test_missing_face_named_as_in_batch(self):
        # both check faces in lexicographic order
        with pytest.raises(ValueError) as streamed:
            add_simplex(StreamState(), (0, 1, 2), 0)
        with pytest.raises(ValueError) as batch:
            FilteredComplex([((0, 1, 2), 0)])
        assert str(streamed.value) == str(batch.value)
        assert str(streamed.value) == "simplex (0, 1, 2) is missing face (0, 1)"

    def test_duplicate_rejected(self):
        state, _ = add_simplex(StreamState(), (0,), 0)
        with pytest.raises(ValueError, match="twice"):
            add_simplex(state, (0,), 1)

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeated vertex"):
            add_simplex(StreamState(), (1, 1), 0)

    def test_face_with_later_value_rejected(self):
        state, _ = feed(StreamState(), [((0,), 0), ((1,), 4)])
        with pytest.raises(ValueError, match="after"):
            add_simplex(state, (0, 1), 2)

    @pytest.mark.parametrize(
        "vertices, value, message",
        [
            ((3, 3), 8, "repeated vertex"),
            ((1, 3), 8, "inserted twice"),
            ((1, 2, 4), 8, "missing face"),
            ((1, 2, 3), 5.5, "after"),
            # kept, a NaN would sit unsorted in the births bisected
            pytest.param(
                (4,), math.nan, r"^simplex \(4,\) has a NaN value$",
                id="nan-vertex",
            ),
            pytest.param(
                (3, 1, 2), math.nan, r"^simplex \(1, 2, 3\) has a NaN value$",
                id="nan-triangle",
            ),
            # kept, a value that is no number would break the next
            # insertion's bisect after that one had taken its id
            pytest.param(
                (4,), None,
                r"^simplex \(4,\) has value None, which is not a number$",
                id="none-vertex",
            ),
            pytest.param(
                (2, 4), "1",
                r"^simplex \(2, 4\) has value '1', which is not a number$",
                id="str-edge",
            ),
        ],
    )
    def test_rejection_consumes_no_id(self, vertices, value, message):
        # a skipped or reused id would put keys and simplices out of step
        for field in BOTH_FIELDS:
            state, _ = feed(StreamState(field), TRIANGLE_TRACE[:6])
            before = (
                len(state),
                dict(state.index),
                list(state.simplices),
                list(state.keys),
                {k: dict(chain) for k, chain in state.chains.items()},
                dict(state.pairing),
                set(state.cycles),
            )
            with pytest.raises(ValueError, match=message):
                add_simplex(state, vertices, value)
            audit_stream(state)
            assert (
                len(state),
                state.index,
                state.simplices,
                state.keys,
                state.chains,
                state.pairing,
                state.cycles,
            ) == before
            n = len(state)
            state, _ = add_simplex(state, *TRIANGLE_TRACE[6])
            assert state.index[TRIANGLE_TRACE[6][0]] == n
            audit_stream(state)
            assert current_barcode(state) == persistent_homology(
                FilteredComplex(TRIANGLE_TRACE), field
            )

    @pytest.mark.parametrize("value", [None, "1"])
    def test_first_value_not_a_number_leaves_no_trace(self, value):
        # nothing else compares the first value, so only the check keeps
        # it out of the live births, where the next insertion's bisect
        # would raise TypeError after that simplex had taken its id
        state = StreamState()
        with pytest.raises(ValueError, match="which is not a number$"):
            add_simplex(state, (0,), value)
        assert len(state) == 0 and not state.births
        state, delta = add_simplex(state, (1,), 1)
        audit_stream(state)
        assert len(state) == 1 and state.births == {0: [1]}
        assert bar_triples(delta.added) == [(0, 1, INF)]

    def test_worked_trace(self):
        state = StreamState()

        state, _ = feed(state, TRIANGLE_TRACE[:3])
        assert named_pairing(state) == {(2,): (1, 2)}, "classical prefix"
        assert named_cycles(state) == {(1,)}

        state, delta = add_simplex(state, *TRIANGLE_TRACE[3])
        assert bar_triples(delta.added) == [(0, 2, INF)]

        state, delta = add_simplex(state, *TRIANGLE_TRACE[4])
        assert named_pairing(state) == {(2,): (1, 2), (3,): (1, 3)}
        assert bar_triples(delta.removed) == [(0, 2, INF)]
        assert bar_triples(delta.added) == [(0, 2, 3)]

        # the late edge steals the pairing and retires 12 to a cycle
        state, delta = add_simplex(state, *TRIANGLE_TRACE[5])
        assert named_pairing(state) == {(2,): (2, 3), (3,): (1, 3)}
        assert named_cycles(state) == {(1,), (1, 2)}
        assert bar_triples(delta.removed) == [(0, 4, 6)]
        assert bar_triples(delta.added) == [(0, 4, 5), (1, 6, INF)]

        state, delta = add_simplex(state, *TRIANGLE_TRACE[6])
        assert bar_triples(delta.removed) == [(1, 6, INF)]
        assert bar_triples(delta.added) == [(1, 6, 7)]
        assert bar_triples(current_barcode(state)) == [
            (0, 1, INF), (0, 2, 3), (0, 4, 5), (1, 6, 7),
        ]

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)])
    def test_tied_simplex_kills_class_born_with_it(self, field):
        # the triangle ties with the edge that creates the 1-class, so
        # that class is alive at the triangle's value: it dies at once
        trace = [
            ((0,), 0), ((1,), 0), ((2,), 0), ((0, 1), 0), ((0, 2), 0),
            ((1, 2), 1), ((0, 1, 2), 1),
        ]
        state, deltas = feed(StreamState(field), trace)
        assert deltas[-1] == BarcodeDelta([Bar(1, 1, 1)], [Bar(1, 1, INF)])
        assert [bar for bar in current_barcode(state) if bar.dim == 2] == []
        audit_stream(state)

    @pytest.mark.parametrize("field", [QQ, PrimeField(2)])
    @pytest.mark.parametrize("branch", sorted(DELTA_BRANCHES))
    def test_delta_bars_in_every_branch(self, branch, field, monkeypatch):
        # delta bars skip Bar's check, so each branch must still give
        # true Bars that die no earlier than they are born
        before, (vertices, value), reductions, added, removed = (
            DELTA_BRANCHES[branch]
        )
        state, _ = feed(StreamState(field), before)
        reduce = linalg._reduce
        calls = []

        def counted(*args):
            calls.append(args)
            return reduce(*args)

        monkeypatch.setattr(linalg, "_reduce", counted)
        state, delta = add_simplex(state, vertices, value)
        assert len(calls) == reductions
        for bar in delta.added + delta.removed:
            assert type(bar) is Bar and bar.birth <= bar.death
        assert bar_triples(delta.added) == added
        assert bar_triples(delta.removed) == removed
        audit_stream(state)

    def test_steal_moves_death_down_in_place(self):
        state, _ = feed(StreamState(), STEAL_TRACE)
        assert state.births == {0: [0, 0, 0, 0, 0, 1]}
        assert state.deaths == {0: [0, 3, 4, 6]}
        state, delta = add_simplex(state, (1, 5), 2)
        assert state.births == {0: [0, 0, 0, 0, 0, 1], 1: [6]}
        assert state.deaths == {0: [0, 2, 3, 4]}
        assert named_pairing(state)[(1,)] == (1, 5)
        assert (0, 1) in named_cycles(state)
        assert delta == BarcodeDelta(
            [Bar(0, 1, 2), Bar(1, 6, INF)], [Bar(0, 1, 6)]
        )
        audit_stream(state)

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)])
    def test_matches_reduction_of_every_boundary(self, field):
        # a simplex with no class alive below skips its reduction; the
        # reference reduces every boundary, so both must agree exactly
        value_sets = [
            [0, 1, 2, 3, 4],
            [0.0, 0.25, 1.5, 2.0, 3.5],
            [Fraction(k, 3) for k in range(5)],
            [0, 0.5, Fraction(2, 3), 1, 1.25, Fraction(7, 4)],
        ]
        rng = random.Random(59)
        for trial in range(80):
            state, reference = StreamState(field), StreamState(field)
            for vertices, value in random_stream(rng, value_sets[trial % 4]):
                state, delta = add_simplex(state, vertices, value)
                reference, want = reference_add_simplex(
                    reference, vertices, value
                )
                assert (delta.added, delta.removed) == (want.added, want.removed)
                assert state.pairing == reference.pairing
                assert state.cycles == reference.cycles
                assert state.chains == reference.chains
                audit_stream(state)

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)])
    def test_insert_by_face_ids_matches_add_simplex(self, field):
        # the CLI inserts through _insert with the reader's face index;
        # it and the checked add_simplex must leave one state, which a
        # last add_simplex on each then extends alike
        values = [0, 0.5, Fraction(2, 3), 1, 1.25, Fraction(7, 4)]
        rng = random.Random(31)
        for _ in range(60):
            *trace, last = random_stream(rng, values)
            filtration = FilteredComplex(trace)
            checked, core = StreamState(field), StreamState(field)
            for n, (vertices, value) in enumerate(trace):
                checked, want = add_simplex(checked, vertices, value)
                core, delta = streaming._insert(
                    core, vertices, value, filtration._faces[n]
                )
                assert (delta.added, delta.removed) == (want.added, want.removed)
            assert current_barcode(core) == current_barcode(checked)
            core, delta = add_simplex(core, *last)
            checked, want = add_simplex(checked, *last)
            assert (delta.added, delta.removed) == (want.added, want.removed)
            for name in (
                "index", "simplices", "keys", "chains", "pairing", "cycles",
                "births", "deaths",
            ):
                assert getattr(core, name) == getattr(checked, name), name
            audit_stream(core)

    def test_audit_after_every_trace_step(self):
        for field in BOTH_FIELDS:
            state = StreamState(field)
            for vertices, value in TRIANGLE_TRACE:
                state, _ = add_simplex(state, vertices, value)
                audit_stream(state)

    def test_sorted_arrival_runs_in_lockstep_with_batch(self):
        rng = random.Random(3)
        for field in BOTH_FIELDS:
            for _ in range(8):
                c = random_filtered_complex(rng)
                ordered = filtration_order(c)
                state = StreamState(field)
                for n, s in enumerate(ordered, start=1):
                    state, _ = add_simplex(state, s.vertices, s.birth)
                    prefix = FilteredComplex(
                        [(x.vertices, x.birth) for x in ordered[:n]]
                    )
                    m = graded_boundary(prefix, field)
                    batch = reduce_boundary(m)
                    pairs = {
                        (ordered[i].vertices, ordered[j].vertices)
                        for i, j in batch.pivots.items()
                    }
                    assert set(named_pairing(state).items()) == pairs
                    assert current_barcode(state) == persistent_homology(
                        prefix, field
                    )


class TestBarcodeDelta:
    def test_equality_ignores_listing_order(self):
        a = Bar(0, 1, 2)
        b = Bar(1, 3, INF)
        assert BarcodeDelta((a, b)) == BarcodeDelta((b, a))
        assert BarcodeDelta((a,), (b,)) != BarcodeDelta((b,), (a,))

    def test_folding_deltas_reproduces_barcode(self):
        for field in BOTH_FIELDS:
            rng = random.Random(19)
            for _ in range(20):
                c = random_filtered_complex(rng)
                state = StreamState(field)
                folded = Counter()
                for s in random_insertion_order(rng, c):
                    state, delta = add_simplex(state, s.vertices, s.birth)
                    for bar in delta.added:
                        folded[bar] += 1
                    for bar in delta.removed:
                        folded[bar] -= 1
                folded = +folded
                assert folded == Counter(current_barcode(state))


class TestCurrentBarcode:
    def test_empty_state(self):
        assert len(current_barcode(StreamState())) == 0

    def test_path_complex(self):
        state, _ = feed(
            StreamState(),
            [((0,), 1), ((1,), 2), ((0, 1), 3)],
        )
        assert bar_triples(current_barcode(state)) == [
            (0, 1, INF), (0, 2, 3),
        ]

    def test_snapshot_survives_later_insertions(self):
        state, _ = feed(StreamState(), TRIANGLE_TRACE[:5])
        snapshot = current_barcode(state)
        frozen = bar_triples(snapshot)
        feed(state, TRIANGLE_TRACE[5:])
        assert bar_triples(snapshot) == frozen


class TestPermutationInvariance:
    def test_random_orders_match_batch(self):
        # 100 randomized trials per field, exact barcode equality
        for field in BOTH_FIELDS:
            rng = random.Random(41)
            for _ in range(100):
                c = random_filtered_complex(rng)
                state = StreamState(field)
                for s in random_insertion_order(rng, c):
                    state, _ = add_simplex(state, s.vertices, s.birth)
                assert current_barcode(state) == persistent_homology(c, field)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        drawn=complexes(),
        rng=st.randoms(use_true_random=False),
        field=st.sampled_from([QQ, PrimeField(2)]),
    )
    def test_drawn_orders_match_batch(self, drawn, rng, field):
        # drawn births tie often, so arrival order breaks many ties
        c = FilteredComplex((s.vertices, s.birth) for s in drawn.simplices)
        state = StreamState(field)
        for s in random_insertion_order(rng, c):
            state, _ = add_simplex(state, s.vertices, s.birth)
        assert current_barcode(state) == persistent_homology(c, field)

    def test_rips_chains_stay_int_over_q(self):
        # boundary chains start at +-1; a Fraction here means Q
        # arithmetic has left its int fast path
        rng = random.Random(47)
        c = rips_complex(rng, 12)
        state = StreamState(QQ)
        for s in random_insertion_order(rng, c):
            state, _ = add_simplex(state, s.vertices, s.birth)
        assert state.chains
        for chain in state.chains.values():
            assert all(type(coeff) is int for coeff in chain.values())

    def test_invariant_holds_after_every_insertion(self):
        for field in BOTH_FIELDS:
            rng = random.Random(43)
            for _ in range(15):
                c = random_filtered_complex(rng)
                state = StreamState(field)
                for s in random_insertion_order(rng, c):
                    state, _ = add_simplex(state, s.vertices, s.birth)
                    audit_stream(state)
