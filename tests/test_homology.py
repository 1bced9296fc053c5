"""Tests for filtered complexes and their homology barcodes.

Worked examples follow two filtrations computed by hand: a four-vertex
complex that closes into two filled triangles, and a filled triangle
whose simplices are all eventually removed.  Property tests compare
bar counts per degree slice against the dense Betti-number oracle in
helpers, and the cohomology pairing against the boundary reduction.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    BOTH_FIELDS,
    ReductionState,
    alive_at,
    betti_numbers,
    boundaries_in_cycles,
    boundary_by_vertices,
    boundary_pairing_barcode,
    complexes,
    cone_barcode,
    cycle_presentation,
    degree,
    dense_homology_dimension,
    element,
    express_in_columns,
    filtration_order,
    matrix_of_columns,
    random_filtered_complex,
    reduce_boundary,
    reference_face_index,
    rips_complex,
    scrambled,
    terms,
    with_component_removals,
)
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
    TorsionChainComplex,
    barcode,
    graded_boundary,
    persistent_homology,
    relative_complex,
    torsion_homology,
    validate_morphism,
)
from persmod.homology import Simplex, _descent_failure, _face_index


def labeled_terms(matrix, label):
    """Terms of the column labeled ``label`` as (row label, scalar, exp)."""
    j = list(matrix.source.labels).index(label)
    return [
        (matrix.target.labels[i], scalar, exponent)
        for i, scalar, exponent in terms(matrix, j)
    ]


def bar_triples(bars):
    return [(b.dim, b.birth, b.death) for b in bars]


def presentation_route_barcode(c, field):
    """The reference route: per dimension, cycles modulo boundaries, then SNF."""
    state = reduce_boundary(graded_boundary(c, field))
    col_dim = [len(s.vertices) - 1 for s in filtration_order(c)]
    bars = []
    for p in range(c.max_dimension + 1):
        cycles = [
            z for z, j in zip(state.Z, state.z_columns) if col_dim[j] == p
        ]
        bounds = [
            b for b, j in zip(state.B, state.b_columns) if col_dim[j] == p + 1
        ]
        module = cycle_presentation(field, cycles, bounds)
        bars.extend(Bar(p, b.birth, b.death) for b in barcode(module))
    return Barcode(bars)


def coarsened(c, step):
    """The same complex with births floor-divided by ``step``.

    Flooring keeps births monotone along faces, and the many simplices
    that now share a birth produce ephemeral bars.
    """
    return FilteredComplex(
        (s.vertices, s.birth // step) for s in c.simplices
    )


@pytest.fixture
def two_triangles():
    """Square on vertices 0..3 closing into triangles 012 and 023.

    Vertices appear at 1, 1, 2, 2; the path edges at 2, the closing
    edges at 3, the diagonal at 4; the triangles fill at 5 and 6.
    """
    return FilteredComplex(
        [
            ((0,), 1),
            ((1,), 1),
            ((2,), 2),
            ((3,), 2),
            ((0, 1), 2),
            ((1, 2), 2),
            ((0, 3), 3),
            ((2, 3), 3),
            ((0, 2), 4),
            ((0, 1, 2), 5),
            ((0, 2, 3), 6),
        ]
    )


@pytest.fixture
def dissolving_triangle():
    """A filled triangle built by degree 6 and fully removed by 13.

    Removal runs in reverse build order: the triangle goes first, then
    the edges, then the vertices.
    """
    return FilteredComplex(
        [
            ((0,), 0, 13),
            ((1,), 1, 12),
            ((2,), 2, 11),
            ((0, 1), 3, 10),
            ((0, 2), 4, 9),
            ((1, 2), 5, 8),
            ((0, 1, 2), 6, 7),
        ]
    )


class TestFilteredComplex:
    def test_accepts_births_and_removals(self):
        c = FilteredComplex(
            [((0,), 0), ((1,), 0), ((1, 0), 0), ((2,), 1, 5)]
        )
        assert len(c) == 4
        assert c.has_removals
        assert c.max_dimension == 1
        assert c.simplices[2].vertices == (0, 1), "vertices are sorted"
        assert c.simplices[2].removal == INF

    def test_empty_complex(self):
        c = FilteredComplex([])
        assert len(c) == 0
        assert c.max_dimension == -1
        assert not c.has_removals

    def test_missing_face_rejected(self):
        with pytest.raises(ValueError, match="missing face"):
            FilteredComplex([((0,), 0), ((0, 1), 1)])

    def test_face_born_after_coface_rejected(self):
        with pytest.raises(ValueError, match="after"):
            FilteredComplex([((0,), 0), ((1,), 3), ((0, 1), 2)])

    def test_face_removed_before_coface_rejected(self):
        with pytest.raises(ValueError, match="removed at"):
            FilteredComplex(
                [((0,), 0, 4), ((1,), 0, 9), ((0, 1), 1, 6)]
            )

    def test_duplicate_simplex_rejected(self):
        with pytest.raises(ValueError, match="listed twice"):
            FilteredComplex([((0,), 0), ((0,), 1)])

    def test_repeated_vertex_rejected(self):
        with pytest.raises(ValueError, match="repeated vertex"):
            FilteredComplex([((0,), 0), ((0, 0), 1)])

    def test_negative_birth_rejected(self):
        with pytest.raises(ValueError, match="< 0"):
            FilteredComplex([((0,), -1)])

    def test_removal_before_birth_rejected(self):
        with pytest.raises(ValueError, match="before\n?.*birth"):
            FilteredComplex([((0,), 4, 2)])

    @pytest.mark.parametrize(
        "at, entry, named",
        [
            (1, ((1,), math.nan), "(1,)"),  # once gave the bar (0, nan, 1)
            (0, ((0,), math.nan), "(0,)"),
            (2, ((1, 0), 1, math.nan), "(0, 1)"),
            (2, ((0, 1), math.nan, 3), "(0, 1)"),
        ],
    )
    def test_nan_time_rejected(self, at, entry, named):
        # NaN compares false with every time, so it breaks no other
        # rule: it is refused by name, births and removals alike
        entries = [((0,), 0), ((1,), 0), ((0, 1), 1)]
        entries[at] = entry
        with pytest.raises(ValueError) as refused:
            FilteredComplex(entries)
        assert str(refused.value) == f"simplex {named} has a NaN time"

    @pytest.mark.parametrize("value", [None, "1"])
    @pytest.mark.parametrize(
        "at, entry, named",
        [
            (0, ((0,), "t"), "(0,)"),
            (2, ((1, 0), 1, "t"), "(0, 1)"),
        ],
    )
    def test_time_that_is_not_a_number_rejected(self, at, entry, named, value):
        # refused by name before the face check, whose comparisons
        # would raise TypeError on it
        entries = [((0,), 0), ((1,), 0), ((0, 1), 1)]
        entries[at] = tuple(value if t == "t" else t for t in entry)
        with pytest.raises(ValueError) as refused:
            FilteredComplex(entries)
        assert str(refused.value) == (
            f"simplex {named} has time {value!r}, which is not a number"
        )

    def test_face_index_matches_reference(self):
        # Seeded lists with up to two faults each, as API callers may
        # pass them: the one face pass must name the simplex and rule
        # the rule-by-rule scan in input order names, so a repeated
        # vertex is reported before a face fault listed earlier.  A NaN
        # birth compares false with everything and breaks no rule; put
        # first, it fails the pass's min() pre-check all the same.
        rng = random.Random(53)
        seen = set()
        for n in range(1500):
            c = random_filtered_complex(
                rng, max_vertices=4, with_removals=n % 2 == 0
            )
            entries = [list(s) for s in c.simplices]
            for _ in range(rng.randint(0, 2)):
                i = rng.randrange(len(entries))
                kind = rng.randrange(6)
                if kind == 0:
                    vertices = entries[i][0]  # (v,) becomes (v, v)
                    entries[i][0] = tuple(sorted(vertices + vertices[:1]))
                elif kind == 1:
                    entries[i][1] = -rng.choice((1, 0.5))
                elif kind == 2:
                    entries.insert(rng.randrange(len(entries)), entries[i][:])
                elif kind == 3:
                    entries[0][1] = float("nan")
                elif kind == 4:
                    entries[i][1 + rng.randrange(2)] = rng.randint(0, 20)
                elif len(entries) > 1:
                    del entries[i]
            simplices = [Simplex(*e) for e in entries]
            faces, broken = _face_index(simplices)
            assert (faces, broken) == reference_face_index(simplices)
            if broken is None:
                first = simplices[0].birth
                seen.add("nan" if first != first else "ok")
            else:
                seen.add(next(rule for rule in (
                    "repeated", "< 0", "its birth", "twice", "missing",
                    "after", "before",
                ) if rule in broken[1]))
        assert seen == {
            "ok", "nan", "repeated", "< 0", "its birth", "twice",
            "missing", "after", "before",
        }

    def test_filtration_order(self, two_triangles):
        # birth first, then dimension, then input order: listed in
        # reverse, the ties come out reversed
        reversed_input = FilteredComplex(reversed(two_triangles.simplices))
        labels = graded_boundary(reversed_input).target.labels
        assert list(labels) == [
            "1", "0", "3", "2", "1.2", "0.1", "2.3", "0.3",
            "0.2", "0.1.2", "0.2.3",
        ]


class TestGradedBoundary:
    def test_single_vertex_is_zero(self):
        m = graded_boundary(FilteredComplex([((7,), 2)]))
        assert len(m.target) == 1 and m.ncols == 1
        assert m.is_zero
        assert list(m.target.labels) == ["7"]
        assert list(m.target.degrees) == [2]

    def test_basis_in_filtration_order(self, two_triangles):
        m = graded_boundary(two_triangles)
        assert m.source == m.target
        assert list(m.target.labels) == [
            "0", "1", "2", "3", "0.1", "1.2", "0.3", "2.3",
            "0.2", "0.1.2", "0.2.3",
        ]
        assert list(m.target.degrees) == [1, 1, 2, 2, 2, 2, 3, 3, 4, 5, 6]

    def test_vertex_columns_are_zero(self, two_triangles):
        m = graded_boundary(two_triangles)
        for j in range(4):
            assert not m.cols[j]

    def test_edge_columns(self, two_triangles):
        m = graded_boundary(two_triangles)
        assert labeled_terms(m, "0.1") == [("0", -1, 1), ("1", 1, 1)]
        assert labeled_terms(m, "1.2") == [("1", -1, 1), ("2", 1, 0)]
        assert labeled_terms(m, "0.3") == [("0", -1, 2), ("3", 1, 1)]
        assert labeled_terms(m, "2.3") == [("2", -1, 1), ("3", 1, 1)]
        assert labeled_terms(m, "0.2") == [("0", -1, 3), ("2", 1, 2)]

    def test_triangle_columns(self, two_triangles):
        m = graded_boundary(two_triangles)
        assert labeled_terms(m, "0.1.2") == [
            ("0.1", 1, 3),
            ("1.2", 1, 3),
            ("0.2", -1, 1),
        ]
        assert labeled_terms(m, "0.2.3") == [
            ("0.3", -1, 3),
            ("2.3", 1, 3),
            ("0.2", 1, 2),
        ]

    def test_squares_to_zero_on_random_complexes(self):
        for field in BOTH_FIELDS:
            rng = random.Random(5)
            for _ in range(10):
                m = graded_boundary(random_filtered_complex(rng), field)
                assert (m @ m).is_zero


class TestReduceBoundary:
    def test_no_edges_all_cycles(self):
        m = graded_boundary(FilteredComplex([((0,), 0), ((1,), 2)]))
        state = reduce_boundary(m)
        assert state.z_columns == (0, 1)
        assert state.b_columns == ()
        assert state.pivots == {}
        assert [terms(z) for z in state.Z] == [
            [(0, 1, 0)],
            [(1, 1, 0)],
        ]

    def test_single_edge_splits(self):
        m = graded_boundary(
            FilteredComplex([((0,), 0), ((1,), 0), ((0, 1), 1)])
        )
        state = reduce_boundary(m)
        assert state.z_columns == (0, 1)
        assert state.b_columns == (2,)
        assert state.pivots == {1: 2}
        assert terms(state.B[0]) == [(0, -1, 1), (1, 1, 1)]

    def test_two_triangles_reduction(self, two_triangles):
        state = reduce_boundary(graded_boundary(two_triangles))
        # vertices plus the closing edge of each triangle yield cycles
        assert state.z_columns == (0, 1, 2, 3, 7, 8)
        # every originally nonzero column records a boundary
        assert state.b_columns == (4, 5, 6, 7, 8, 9, 10)
        assert state.pivots == {1: 4, 2: 5, 3: 6, 8: 9, 7: 10}

    def test_cycle_values(self, two_triangles):
        m = graded_boundary(two_triangles)
        state = reduce_boundary(m)
        labels = m.target.labels
        named = [
            [(labels[i], s, e) for i, s, e in terms(z)] for z in state.Z
        ]
        assert named[:4] == [
            [("0", 1, 0)],
            [("1", 1, 0)],
            [("2", 1, 0)],
            [("3", 1, 0)],
        ]
        # the square closes at degree 3, the triangle boundary at 4
        assert degree(state.Z[4]) == 3
        assert named[4] == [
            ("0.1", 1, 1),
            ("1.2", 1, 1),
            ("0.3", -1, 0),
            ("2.3", 1, 0),
        ]
        assert degree(state.Z[5]) == 4
        assert named[5] == [
            ("0.1", -1, 2),
            ("1.2", -1, 2),
            ("0.2", 1, 0),
        ]

    def test_boundaries_lie_in_cycle_span(self, two_triangles):
        m = graded_boundary(two_triangles)
        state = reduce_boundary(m)
        zmat = matrix_of_columns(
            QQ, m.target, state.Z, [f"c{n}" for n in range(len(state.Z))]
        )
        for b in state.B:
            assert express_in_columns(b, zmat) is not None

    def test_pivot_bookkeeping_random(self):
        for field in BOTH_FIELDS:
            rng = random.Random(17)
            for _ in range(10):
                m = graded_boundary(random_filtered_complex(rng), field)
                state = reduce_boundary(m)
                assert len(state.Z) + len(state.pivots) == m.ncols
                assert set(state.pivots.values()) <= set(state.b_columns)


class TestBoundariesInCycles:
    def test_two_triangles_presentation(self, two_triangles):
        state = reduce_boundary(graded_boundary(two_triangles))
        pres = boundaries_in_cycles(state)
        assert list(pres.gens.labels) == ["z1", "z2", "z3", "z4", "z5", "z6"]
        assert list(pres.gens.degrees) == [1, 1, 2, 2, 3, 4]
        assert list(pres.rels.labels) == [
            "r1", "r2", "r3", "r4", "r5", "r6", "r7",
        ]
        assert list(pres.rels.degrees) == [2, 2, 3, 3, 4, 5, 6]
        bars = barcode(pres)
        assert all(b.dim is None for b in bars)
        assert sorted((b.birth, b.death) for b in bars) == [
            (1, 2), (1, INF), (2, 2), (2, 3), (3, 6), (4, 5),
        ]

    def test_vertices_only_gives_free(self):
        c = FilteredComplex([((0,), 0), ((1,), 1), ((2,), 1)])
        pres = boundaries_in_cycles(reduce_boundary(graded_boundary(c)))
        assert len(pres.gens) == 3
        assert len(pres.rels) == 0

    def test_instant_complex_all_ephemeral(self):
        c = FilteredComplex(
            [((0,), 0), ((1,), 0), ((2,), 0),
             ((0, 1), 0), ((0, 2), 0), ((1, 2), 0), ((0, 1, 2), 0)]
        )
        bars = barcode(boundaries_in_cycles(reduce_boundary(graded_boundary(c))))
        infinite = [b for b in bars if b.death == INF]
        assert len(infinite) == 1 and infinite[0].birth == 0
        assert all(b.ephemeral for b in bars if b.death != INF)

    def test_rejects_non_boundary(self):
        basis = GradedBasis([("a", 0), ("b", 0)])
        state = ReductionState(
            Z=(element(QQ, basis, 0, {0: QQ.one}),),
            B=(element(QQ, basis, 0, {1: QQ.one}),),
            field=QQ,
            pivots={},
            z_columns=(0,),
            b_columns=(1,),
        )
        with pytest.raises(ValueError, match="does not reduce to zero"):
            boundaries_in_cycles(state)


class TestPersistentHomology:
    def test_two_triangles_barcode(self, two_triangles):
        for field in BOTH_FIELDS:
            bars = persistent_homology(two_triangles, field)
            assert bar_triples(bars) == [
                (0, 1, 2),
                (0, 1, INF),
                (0, 2, 2),
                (0, 2, 3),
                (1, 3, 6),
                (1, 4, 5),
            ]

    def test_staggered_triangle(self):
        c = FilteredComplex(
            [
                ((1,), 1), ((2,), 4), ((3,), 2),
                ((1, 2), 6), ((1, 3), 3), ((2, 3), 5),
                ((1, 2, 3), 7),
            ]
        )
        assert bar_triples(persistent_homology(c)) == [
            (0, 1, INF), (0, 2, 3), (0, 4, 5), (1, 6, 7),
        ]

    def test_isolated_vertices(self):
        c = FilteredComplex([((0,), 0), ((1,), 1), ((2,), 2)])
        assert bar_triples(persistent_homology(c)) == [
            (0, 0, INF), (0, 1, INF), (0, 2, INF),
        ]

    def test_empty_complex(self):
        assert len(persistent_homology(FilteredComplex([]))) == 0

    def test_rejects_removals(self, dissolving_triangle):
        with pytest.raises(ValueError, match="removal times"):
            persistent_homology(dissolving_triangle)

    def test_matches_betti_oracle(self):
        for field in BOTH_FIELDS:
            rng = random.Random(7)
            for _ in range(12):
                c = random_filtered_complex(rng)
                bars = persistent_homology(c, field)
                top = max(s.birth for s in c.simplices) + 2
                for d in range(top + 1):
                    alive = [
                        s.vertices for s in c.simplices if s.birth <= d
                    ]
                    want = betti_numbers(alive, field)
                    for p in range(c.max_dimension + 1):
                        got = sum(
                            1 for b in bars if b.dim == p and alive_at(b, d)
                        )
                        assert got == want.get(p, 0), (
                            f"H_{p} at degree {d} over {field}"
                        )

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(drawn=complexes(), field=st.sampled_from([QQ, PrimeField(2)]))
    def test_bars_alive_are_sublevel_betti_numbers(self, drawn, field):
        c = FilteredComplex((s.vertices, s.birth) for s in drawn.simplices)
        bars = persistent_homology(c, field)
        for g in range(max(s.birth for s in c.simplices) + 2):
            want = betti_numbers(
                [s.vertices for s in c.simplices if s.birth <= g], field
            )
            for p in range(c.max_dimension + 1):
                alive = sum(1 for b in bars if b.dim == p and alive_at(b, g))
                assert alive == want.get(p, 0), (p, g)

    def test_pairing_matches_boundary_reduction(self):
        # coboundary with clearing against the homology route, with
        # ties and ephemeral bars from coarsened births and Rips triangles
        rng = random.Random(43)
        ephemeral = 0
        for field in (QQ, PrimeField(5), PrimeField(2)):
            cases = [rips_complex(rng, 20)]
            for n in range(100):
                c = random_filtered_complex(rng, max_vertices=4 + n % 4)
                cases.append(coarsened(c, 3) if n % 2 else c)
            for c in cases:
                bars = persistent_homology(c, field)
                assert bars == boundary_pairing_barcode(c, field)
                ephemeral += sum(b.ephemeral for b in bars)
        assert ephemeral > 0

    def test_face_index_on_scrambled_input(self):
        # FilteredComplex indexes faces by input position, so list the
        # simplices out of filtration order and each vertex tuple out of
        # order ("1 0 ; 2"); the boundary must equal the one rebuilt
        # from vertex tuples, and the barcode the boundary pairing's
        rng = random.Random(47)
        unsorted = 0
        for field in (PrimeField(2), PrimeField(5), QQ):
            cases = [rips_complex(rng, 9)]
            for n in range(60):
                c = random_filtered_complex(rng, max_vertices=4 + n % 4)
                cases.append(coarsened(c, 3) if n % 2 else c)
            for c in cases:
                entries = scrambled(c, rng)
                unsorted += sum(list(e[0]) != sorted(e[0]) for e in entries)
                s = FilteredComplex(entries)
                assert sorted(s.simplices) == sorted(c.simplices)
                assert graded_boundary(s, field) == boundary_by_vertices(s, field)
                bars = persistent_homology(s, field)
                assert bars == boundary_pairing_barcode(s, field)
                assert bars == persistent_homology(c, field)
        assert unsorted > 0

    def test_one_bar_per_cycle(self):
        for field in BOTH_FIELDS:
            rng = random.Random(13)
            for _ in range(10):
                c = random_filtered_complex(rng)
                bars = persistent_homology(c, field)
                state = reduce_boundary(graded_boundary(c, field))
                col_dim = [
                    len(s.vertices) - 1 for s in filtration_order(c)
                ]
                for p in range(c.max_dimension + 1):
                    cycles = sum(
                        1 for j in state.z_columns if col_dim[j] == p
                    )
                    assert (
                        sum(1 for b in bars if b.dim == p) == cycles
                    ), f"one bar per dimension-{p} cycle"

    def test_pairing_matches_presentation_route(self):
        ephemeral = 0
        for field in (*BOTH_FIELDS, PrimeField(2)):
            rng = random.Random(41)
            for n in range(60):
                c = random_filtered_complex(rng, max_vertices=4 + n % 4)
                for case in (c, coarsened(c, 3), coarsened(c, 100)):
                    bars = persistent_homology(case, field)
                    assert bars == presentation_route_barcode(case, field)
                    ephemeral += sum(1 for b in bars if b.ephemeral)
        assert ephemeral > 0

    def test_instant_complex_pairing(self):
        c = FilteredComplex(
            [((0,), 0), ((1,), 0), ((2,), 0),
             ((0, 1), 0), ((0, 2), 0), ((1, 2), 0), ((0, 1, 2), 0)]
        )
        for field in BOTH_FIELDS:
            bars = persistent_homology(c, field)
            assert bars == presentation_route_barcode(c, field)
            assert bar_triples(bars) == [
                (0, 0, 0), (0, 0, 0), (0, 0, INF), (1, 0, 0),
            ]


class TestRelativeComplex:
    def test_dissolving_triangle_chains(self, dissolving_triangle):
        tcc = relative_complex(dissolving_triangle)
        assert list(tcc.chains.gens.labels) == [
            "0", "1", "2", "0.1", "0.2", "1.2", "0.1.2",
        ]
        assert list(tcc.chains.gens.degrees) == [0, 1, 2, 3, 4, 5, 6]
        assert tcc.dims == (0, 0, 0, 1, 1, 1, 2)
        assert tcc.boundary == graded_boundary(dissolving_triangle)
        # one relation per simplex, ordered by removal time
        assert list(tcc.chains.rels.labels) == [
            f"rel{n}" for n in range(7)
        ]
        assert list(tcc.chains.rels.degrees) == [7, 8, 9, 10, 11, 12, 13]
        targets = []
        exponents = []
        for j in range(len(tcc.chains.rels)):
            ((i, _, e),) = terms(tcc.chains.incl, j)
            targets.append(i)
            exponents.append(e)
        assert targets == [6, 5, 4, 3, 2, 1, 0]
        assert exponents == [1, 3, 5, 7, 9, 11, 13]

    def test_no_removals_gives_free_chains(self, two_triangles):
        tcc = relative_complex(two_triangles)
        assert len(tcc.chains.rels) == 0
        assert tcc.max_dimension == 2

    def test_single_vertex_relation(self):
        tcc = relative_complex(FilteredComplex([((0,), 0, 3)]))
        assert list(tcc.chains.rels.degrees) == [3]
        assert terms(tcc.chains.incl, 0) == [(0, QQ.one, 3)]

    def test_descent_rule_matches_validate_morphism(self):
        # the boundary descends to the torsion chains exactly when every
        # removed simplex has the removal time of each of its faces
        for field in BOTH_FIELDS:
            rng = random.Random(73)
            descending = 0
            for _ in range(1000):
                c = random_filtered_complex(rng, with_removals=True)
                tcc = relative_complex(c, field)
                chains = PresentationMorphism(
                    tcc.chains, tcc.chains, tcc.boundary
                )
                descends = _descent_failure(c) is None
                assert descends == validate_morphism(chains), c.simplices
                descending += descends
            assert 100 < descending < 900

    def test_descent_failure_names_first_simplex_and_face(
        self, dissolving_triangle
    ):
        # input order for the simplex, lexicographic order for its face
        assert _descent_failure(dissolving_triangle, str) == (3, (
            "face (0,) of simplex (0, 1) is removed at 13, after (0, 1) at 10"
        ))
        kept = FilteredComplex([((0,), 0, 5), ((1,), 1), ((0, 1), 2, 5)])
        assert _descent_failure(kept) == (2, (
            "face (1,) of simplex (0, 1) is removed at inf, after (0, 1) at 5"
        ))
        whole = FilteredComplex([((0,), 0, 5), ((1,), 1, 5), ((0, 1), 2, 5)])
        assert _descent_failure(whole) is None


class TestTorsionChainComplex:
    def test_boundary_must_square_to_zero(self):
        chains = Presentation.free(QQ, [("a", 0), ("b", 1), ("c", 2)])
        boundary = GradedMatrix.from_entries(
            QQ,
            chains.gens,
            chains.gens,
            {(0, 1): QQ.one, (1, 2): QQ.one},
        )
        with pytest.raises(ValueError, match="square to zero"):
            TorsionChainComplex(chains, boundary, (0, 1, 2))

    def test_boundary_must_drop_dimension_by_one(self):
        chains = Presentation.free(QQ, [("a", 0), ("b", 1)])
        boundary = GradedMatrix.from_entries(
            QQ, chains.gens, chains.gens, {(0, 1): QQ.one}
        )
        with pytest.raises(ValueError, match="drop homological"):
            TorsionChainComplex(chains, boundary, (0, 0))

    def test_dims_must_match_generators(self):
        chains = Presentation.free(QQ, [("a", 0), ("b", 1)])
        boundary = GradedMatrix.zero(QQ, chains.gens, chains.gens)
        with pytest.raises(ValueError, match="per generator"):
            TorsionChainComplex(chains, boundary, (0,))

    def test_boundary_must_be_square(self):
        chains = Presentation.free(QQ, [("a", 0)])
        other = GradedBasis([("w", 0)])
        boundary = GradedMatrix.zero(QQ, other, chains.gens)
        with pytest.raises(ValueError, match="square"):
            TorsionChainComplex(chains, boundary, (0,))


class TestTorsionHomology:
    def test_dissolving_triangle_barcode(self, dissolving_triangle):
        for field in BOTH_FIELDS:
            bars = torsion_homology(relative_complex(dissolving_triangle, field))
            assert bar_triples(bars.without_ephemeral()) == [
                (0, 0, 11), (0, 1, 3), (0, 2, 4), (1, 5, 6),
            ]
            assert bar_triples(bars) == [
                (0, 0, 11), (0, 1, 3), (0, 2, 4),
                (1, 5, 6), (1, 12, 12), (1, 13, 13), (2, 10, 10),
            ]

    def test_non_integral_grade_is_rejected(self):
        # the torsion chains are graded by integers: a birth of 0.5 must
        # be an error, not the bar [0, 2)
        c = FilteredComplex([((0,), 0.5, 2.5)])
        with pytest.raises(ValueError, match="'0' has degree 0.5"):
            torsion_homology(relative_complex(c))

    def test_matches_dense_homology_oracle(self, dissolving_triangle):
        # every dimension at every grade, against K / (K & (Rel_p + B_p))
        # counted by dense slice ranks; most of these boundaries do not
        # descend to the torsion chains
        not_descending = 0
        for field in BOTH_FIELDS:
            rng = random.Random(61)
            cases = [dissolving_triangle] + [
                random_filtered_complex(rng, with_removals=True)
                for _ in range(100)
            ]
            for c in cases:
                tcc = relative_complex(c, field)
                chains = PresentationMorphism(
                    tcc.chains, tcc.chains, tcc.boundary
                )
                not_descending += not validate_morphism(chains)
                bars = torsion_homology(tcc)
                top = max(s.removal for s in c.simplices) + 1
                for p in range(tcc.max_dimension + 1):
                    for g in range(top + 1):
                        alive = sum(
                            1 for b in bars if b.dim == p and alive_at(b, g)
                        )
                        want = dense_homology_dimension(tcc, p, g)
                        assert alive == want, (c.simplices, p, g)
        assert not_descending > 100

    def test_descending_boundary_gives_slice_homology(self, dissolving_triangle):
        # where the boundary descends to the torsion chains, the bars
        # alive at grade g count the homology of the slice complex
        # K_g = {birth <= g < removal}, by dense Betti numbers; the
        # random complexes that descend have no edges, so whole-component
        # removals are added
        descending = 0
        for field in BOTH_FIELDS:
            rng = random.Random(67)
            cases = [dissolving_triangle] + [
                random_filtered_complex(rng, with_removals=True)
                for _ in range(100)
            ] + [
                with_component_removals(rng, random_filtered_complex(rng))
                for _ in range(50)
            ]
            for c in cases:
                tcc = relative_complex(c, field)
                chains = PresentationMorphism(
                    tcc.chains, tcc.chains, tcc.boundary
                )
                if not validate_morphism(chains):
                    continue
                descending += 1
                bars = torsion_homology(tcc)
                top = max(
                    v for s in c.simplices for v in s[1:] if v != INF
                )
                for g in range(top + 2):
                    want = betti_numbers(
                        [s.vertices for s in c.simplices
                         if s.birth <= g < s.removal],
                        field,
                    )
                    for p in range(tcc.max_dimension + 1):
                        alive = sum(
                            1 for b in bars if b.dim == p and alive_at(b, g)
                        )
                        assert alive == want.get(p, 0), (c.simplices, p, g)
        assert descending >= 130

    def test_matches_cone_oracle_where_boundary_descends(self):
        # random_filtered_complex descends only on inputs without edges;
        # whole-component removals add boundaries.  Ephemeral bars agree
        # too, so this checks relative --keep-ephemeral as well.
        checked = 0
        for field in (QQ, PrimeField(2), PrimeField(5)):
            rng = random.Random(71)
            cases = []
            while len(cases) < 110:
                c = random_filtered_complex(rng, with_removals=True)
                if _descent_failure(c) is None:
                    cases.append(c)
            cases += [
                with_component_removals(
                    rng, random_filtered_complex(rng, max_vertices=6)
                )
                for _ in range(100)
            ]
            for c in cases:
                assert _descent_failure(c) is None
                assert torsion_homology(relative_complex(c, field)) == (
                    cone_barcode(c, field)
                ), (c.simplices, field)
            checked += len(cases)
        assert checked == 630

    def test_single_vertex_lifespan(self):
        tcc = relative_complex(FilteredComplex([((0,), 0, 3)]))
        assert bar_triples(torsion_homology(tcc)) == [(0, 0, 3)]

    def test_matches_persistent_homology_without_removals(self):
        for field in BOTH_FIELDS:
            rng = random.Random(23)
            for _ in range(10):
                c = random_filtered_complex(rng)
                tors = torsion_homology(relative_complex(c, field))
                assert tors == persistent_homology(c, field)

    def test_common_removal_time_truncates(self):
        # removing everything at time T cuts each bar off at T
        for field in BOTH_FIELDS:
            rng = random.Random(31)
            for _ in range(10):
                c = random_filtered_complex(rng)
                T = max(s.birth for s in c.simplices) + rng.randint(1, 4)
                removed = FilteredComplex(
                    [(s.vertices, s.birth, T) for s in c.simplices]
                )
                tors = torsion_homology(relative_complex(removed, field))
                pers = persistent_homology(c, field)
                want = sorted(
                    (b.dim, b.birth, min(b.death, T))
                    for b in pers
                    if b.birth < min(b.death, T)
                )
                got = sorted(bar_triples(tors.without_ephemeral()))
                assert got == want

    def test_negative_dimension_keeps_its_bars(self):
        # H is taken on the whole complex, so a dimension label below 0
        # is a dimension like any other
        chains = Presentation.from_terms(
            QQ, [("a", 0), ("b", 1)], [[(1, 2, "a")]]
        )
        boundary = GradedMatrix.zero(QQ, chains.gens, chains.gens)
        tcc = TorsionChainComplex(chains, boundary, (-1, 0))
        assert bar_triples(torsion_homology(tcc)) == [(-1, 0, 2), (0, 1, INF)]

    # Full barcodes, ephemeral bars included, of seeded inputs whose
    # boundary does not descend to the torsion chains.  There the
    # ephemeral bars depend on the presentation, and neither the cone
    # oracle (descending inputs only) nor the dense slice oracle (blind
    # to length-0 bars) pins them.
    PINNED_NON_DESCENDING = {
        81: [
            (0, 2, 21), (0, 3, 3), (0, 3, 4), (0, 4, 6), (0, 4, 6),
            (1, 6, 8), (1, 7, 17), (1, 21, 21), (1, 22, 22), (1, 22, 22),
            (1, 23, 23), (2, 17, 17),
        ],
        83: [
            (0, 0, 19), (0, 1, 3), (0, 3, 3), (0, 3, 4), (1, 4, 5),
            (1, 4, 13), (1, 5, 5), (1, 19, 19), (1, 20, 20), (1, 20, 20),
            (2, 14, 14), (2, 14, 14),
        ],
        93: [
            (0, 0, 0), (0, 0, 18), (0, 2, 5), (0, 4, 4), (1, 5, 14),
            (1, 18, 18), (1, 20, 20), (1, 20, 20),
        ],
    }

    @pytest.mark.parametrize("seed", sorted(PINNED_NON_DESCENDING))
    @pytest.mark.parametrize("field", BOTH_FIELDS, ids=repr)
    def test_pinned_barcodes_with_ephemeral_bars(self, seed, field):
        c = random_filtered_complex(random.Random(seed), with_removals=True)
        assert _descent_failure(c) is not None
        bars = torsion_homology(relative_complex(c, field))
        assert bar_triples(bars) == self.PINNED_NON_DESCENDING[seed]

    def test_mixed_dimension_relation_rejected(self):
        chains = Presentation.from_terms(
            QQ, [("a", 0), ("b", 1)], [[(1, 2, "a"), (1, 1, "b")]]
        )
        boundary = GradedMatrix.zero(QQ, chains.gens, chains.gens)
        with pytest.raises(ValueError, match="mixes homological"):
            TorsionChainComplex(chains, boundary, (0, 1))
