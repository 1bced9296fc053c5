"""Presented modules: barcodes, diagonal forms, morphisms, and the
degreewise oracles."""

import random
from fractions import Fraction

import pytest

from persmod import (
    Bar,
    Barcode,
    GradedBasis,
    GradedMatrix,
    INF,
    Presentation,
    PresentationMorphism,
    PrimeField,
    QQ,
    barcode,
    column_echelon,
    graded_snf,
    snf_form,
    validate_morphism,
)
from helpers import (
    BOTH_FIELDS,
    alive_at,
    degree_bound,
    dimension_at,
    element,
    entry,
    free_rows,
    hand_built_presentations,
    hstack,
    identity_matrix,
    identity_morphism,
    random_change_of_basis,
    random_presentation,
    random_scalar,
    random_valid_morphism,
    rank_t_power,
    slice_rank,
    zero_morphism,
)


def bars(*triples):
    return Barcode(Bar(None, b, d) for b, d in triples)


def snf_route_barcode(p):
    """The reference route: the pairing and free rows of graded_snf."""
    snf = graded_snf(p.incl)
    degs = p.gens.degrees
    out = [
        Bar(None, degs[row], p.rels.degrees[col])
        for row, col in snf.lows.items()
    ]
    out += [Bar(None, degs[row], INF) for row in free_rows(p.incl, snf)]
    return Barcode(out)


@pytest.fixture
def five_gen_module():
    """Generators x, y (deg 1), z (deg 2), u, v (deg 3) with four mixed
    relations; its barcode has one infinite bar, two ephemeral bars, and
    bars of lengths 1 and 3."""
    return Presentation.from_terms(
        QQ,
        [("x", 1), ("y", 1), ("z", 2), ("u", 3), ("v", 3)],
        [
            [(1, 1, "x"), (1, 1, "y"), (1, 0, "z")],
            [(1, 2, "x"), (1, 2, "y"), (1, 0, "u")],
            [(1, 3, "y"), (1, 2, "z"), (1, 1, "v")],
            [(1, 3, "y"), (1, 2, "z"), (1, 1, "u")],
        ],
    )


@pytest.fixture
def two_triangle_module():
    """The cycle/boundary presentation of a small filtration: six cycle
    generators, seven boundary relations, two of them redundant."""
    tgt = GradedBasis(
        [("z1", 1), ("z2", 1), ("z3", 2), ("z4", 2), ("z5", 3), ("z6", 4)]
    )
    src = GradedBasis(
        [("r1", 2), ("r2", 2), ("r3", 3), ("r4", 3), ("r5", 4), ("r6", 5), ("r7", 6)]
    )
    one = Fraction(1)
    entries = {
        (0, 0): -one, (0, 3): -one, (0, 4): -one,
        (1, 0): one, (1, 1): -one,
        (2, 1): one, (2, 2): -one, (2, 4): one,
        (3, 2): one, (3, 3): one,
        (4, 6): one,
        (5, 5): one, (5, 6): -one,
    }
    return Presentation(QQ, GradedMatrix.from_entries(QQ, src, tgt, entries))


class TestBarTypes:
    def test_death_before_birth_rejected(self):
        with pytest.raises(ValueError):
            Bar(None, 3, 2)

    def test_make_and_replace_check_death_before_birth(self):
        with pytest.raises(ValueError):
            Bar(None, 1, 2)._replace(death=0)
        with pytest.raises(ValueError):
            Bar._make((None, 3, 2))
        assert Bar(None, 1, 2)._replace(death=INF) == Bar(None, 1, INF)
        assert type(Bar._make((0, 1, 1))) is Bar

    def test_ephemeral_flag(self):
        assert Bar(None, 2, 2).ephemeral
        assert not Bar(None, 2, 3).ephemeral
        assert not Bar(None, 2, INF).ephemeral

    def test_barcode_is_a_multiset(self):
        a = Barcode([Bar(None, 1, 2), Bar(None, 1, 2), Bar(None, 0, INF)])
        b = Barcode([Bar(None, 0, INF), Bar(None, 1, 2), Bar(None, 1, 2)])
        c = Barcode([Bar(None, 1, 2), Bar(None, 0, INF)])
        assert a == b
        assert a != c

    def test_without_ephemeral(self):
        bc = Barcode([Bar(None, 1, 1), Bar(None, 1, 3)])
        assert bc.without_ephemeral() == Barcode([Bar(None, 1, 3)])

    def test_bars_are_sorted_triples(self):
        bc = Barcode([Bar(1, 0, 2), Bar(0, 3, INF), Bar(0, 3, 4)])
        assert bc == ((0, 3, 4), (0, 3, INF), (1, 0, 2))
        assert hash(Bar(0, 3, 4)) == hash((0, 3, 4))
        # one barcode's dimensions are all ints or all None
        with pytest.raises(TypeError):
            Barcode([Bar(0, 1, 2), Bar(None, 0, 2)])


class TestBarcode:
    def test_five_gen_module(self, five_gen_module):
        assert barcode(five_gen_module) == bars(
            (1, INF), (1, 4), (2, 2), (3, 3), (3, 4)
        )

    def test_two_triangle_module(self, two_triangle_module):
        assert barcode(two_triangle_module) == bars(
            (1, INF), (1, 2), (2, 2), (2, 3), (3, 6), (4, 5)
        )

    def test_free_module(self):
        p = Presentation.free(QQ, [("a", 0), ("b", 3)])
        assert barcode(p) == bars((0, INF), (3, INF))

    def test_pairing_matches_snf_route(self):
        ephemeral = zero_cols = 0
        for field in (*BOTH_FIELDS, PrimeField(2)):
            rng = random.Random(53)
            cases = list(hand_built_presentations(field))
            cases += [random_presentation(field, rng) for _ in range(60)]
            for p in cases:
                lows = column_echelon(p.incl)
                snf_lows = graded_snf(p.incl).lows
                assert list(lows.items()) == list(snf_lows.items())
                assert barcode(p) == snf_route_barcode(p)
                ephemeral += sum(1 for b in barcode(p) if b.ephemeral)
                zero_cols += len(p.rels) - len(lows)
        assert ephemeral > 0 and zero_cols > 0

    def test_invariant_under_change_of_basis(self):
        rng = random.Random(201)
        for field in BOTH_FIELDS:
            for _ in range(40):
                p = random_presentation(field, rng)
                row = random_change_of_basis(field, rng, p.gens)
                col = random_change_of_basis(field, rng, p.rels)
                q = Presentation(field, row @ p.incl @ col)
                assert barcode(q) == barcode(p)


def minimal(p):
    """The diagonal presentation without length-0 pairs."""
    return snf_form(p).presentation


class TestMinimize:
    def test_already_minimal(self):
        p = Presentation.from_terms(
            QQ, [("a", 0), ("b", 2)], [[(1, 3, "a")], [(1, 1, "b")]]
        )
        assert minimal(p) == p

    def test_generator_equal_to_relation_cancels(self):
        p = Presentation.from_terms(QQ, [("a", 0), ("b", 1)], [[(1, 0, "b")]])
        m = minimal(p)
        assert m.gens.labels == ("a",)
        assert len(m.rels) == 0

    def test_seven_generator_kernel_presentation(self):
        # generators of degrees 0,1,2,5,10,12,13; three of the seven
        # relations are instant kills
        p = Presentation.from_terms(
            QQ,
            [(f"k{i}", d) for i, d in enumerate([0, 1, 2, 5, 10, 12, 13])],
            [
                [(1, 5, "k3")],
                [(1, 0, "k4")],
                [(1, 9, "k2")],
                [(1, 11, "k1")],
                [(1, 0, "k5")],
                [(1, 13, "k0")],
                [(1, 0, "k6")],
            ],
        )
        m = minimal(p)
        assert m.gens.labels == ("k0", "k1", "k2", "k3")
        assert barcode(m) == bars((5, 10), (2, 11), (1, 12), (0, 13))

    def test_barcode_preserved_up_to_ephemerals(self):
        rng = random.Random(211)
        for field in BOTH_FIELDS:
            for _ in range(40):
                p = random_presentation(field, rng)
                assert barcode(minimal(p)) == barcode(p).without_ephemeral()

    def test_idempotent(self):
        rng = random.Random(213)
        for _ in range(20):
            p = random_presentation(QQ, rng)
            m = minimal(p)
            assert minimal(m) == m


class TestMorphisms:
    def test_identity_validates(self):
        rng = random.Random(221)
        for _ in range(10):
            p = random_presentation(QQ, rng)
            assert validate_morphism(identity_morphism(p))

    def test_zero_validates(self):
        rng = random.Random(223)
        for _ in range(10):
            p = random_presentation(QQ, rng)
            q = random_presentation(QQ, rng)
            assert validate_morphism(zero_morphism(p, q))

    def test_torsion_to_free_rejected(self):
        src = Presentation.from_terms(QQ, [("x", 0)], [[(1, 1, "x")]])
        dst = Presentation.free(QQ, [("y", 0)])
        phi = GradedMatrix.from_entries(
            QQ, src.gens, dst.gens, {(0, 0): Fraction(1)}
        )
        assert not validate_morphism(PresentationMorphism(src, dst, phi))

    def test_shape_mismatch_rejected(self):
        p = Presentation.free(QQ, [("x", 0)])
        q = Presentation.free(QQ, [("y", 0), ("z", 1)])
        with pytest.raises(
            ValueError, match="^phi target must be the target generators$"
        ):
            PresentationMorphism(p, q, identity_matrix(QQ, p.gens))
        with pytest.raises(
            ValueError, match="^phi source must be the source generators$"
        ):
            PresentationMorphism(q, p, identity_matrix(QQ, p.gens))

    def test_repr_names_both_modules(self):
        p = Presentation.from_terms(QQ, [("x", 0)], [[(1, 2, "x")]])
        q = Presentation.free(PrimeField(5), [("y", 0), ("z", 1)])
        assert repr(p) == "Presentation(1 gens, 1 rels over Q)"
        assert repr(q) == "Presentation(2 gens, 0 rels over Zp:5)"
        assert repr(identity_morphism(p)) == (
            "PresentationMorphism(Presentation(1 gens, 1 rels over Q) -> "
            "Presentation(1 gens, 1 rels over Q))"
        )

    def test_compose(self):
        # composing generator maps composes the morphisms
        p = Presentation.from_terms(QQ, [("x", 0)], [[(1, 2, "x")]])
        f = identity_morphism(p)
        assert PresentationMorphism(p, p, f.phi @ f.phi) == f
        for field in BOTH_FIELDS:
            rng = random.Random(227)
            for _ in range(10):
                g = random_valid_morphism(field, rng)
                h = PresentationMorphism(
                    g.src, g.dst, g.phi @ identity_matrix(field, g.src.gens)
                )
                assert h == g and validate_morphism(h)


def slice_validates(m):
    """``validate_morphism`` by dense slices: relation r of the source,
    of degree d, must be sent into the degree-d slice of the target's
    relation span.  phi(r) is summed with the field's plain add and mul."""
    f = m.phi.field
    rels = m.dst.incl
    for d, col in zip(m.src.rels.degrees, m.src.incl.cols):
        coords = {}
        for k, c in col.items():
            for i, v in m.phi.cols[k].items():
                coords[i] = f.add(coords.get(i, f.zero), f.mul(v, c))
        image = element(f, rels.target, d, coords, "phi(r)")
        if slice_rank(hstack([rels, image]), d) != slice_rank(rels, d):
            return False
    return True


def perturbed(phi, rng):
    """phi with one entry, at a place the degrees allow, moved by a
    nonzero scalar; None when the degrees allow no entry."""
    f = phi.field
    places = [
        (i, j)
        for j, d in enumerate(phi.source.degrees)
        for i, e in enumerate(phi.target.degrees)
        if e <= d
    ]
    if not places:
        return None
    i, j = rng.choice(places)
    cols = [dict(col) for col in phi.cols]
    cols[j][i] = f.add(cols[j].get(i, f.zero), random_scalar(f, rng, nonzero=True))
    return GradedMatrix(f, phi.source, phi.target, cols)


class TestValidateMorphism:
    def test_matches_slice_oracle(self):
        # valid random morphisms, and copies with one phi entry moved:
        # some of those still descend to the quotients, some do not
        for field in BOTH_FIELDS:
            rng = random.Random(229)
            outcomes = []
            for trial in range(40):
                f = random_valid_morphism(field, rng)
                for phi in (f.phi, perturbed(f.phi, rng)):
                    if phi is None:
                        continue
                    m = PresentationMorphism(f.src, f.dst, phi)
                    want = slice_validates(m)
                    assert validate_morphism(m) == want, f"trial {trial}"
                    outcomes.append(want)
            assert outcomes.count(False) >= 5 and outcomes.count(True) >= 40


class TestOracles:
    def test_interval_module_slices(self):
        p = Presentation.from_terms(QQ, [("x", 1)], [[(1, 3, "x")]])
        assert [dimension_at(p, d) for d in range(6)] == [0, 1, 1, 1, 0, 0]

    def test_free_rank_one(self):
        p = Presentation.free(QQ, [("x", 0)])
        assert all(dimension_at(p, d) == 1 for d in range(5))

    def test_five_gen_module_at_three(self, five_gen_module):
        assert dimension_at(five_gen_module, 3) == 3

    def test_rank_zero_power_is_dimension(self):
        rng = random.Random(231)
        for _ in range(20):
            p = random_presentation(QQ, rng)
            for d in range(degree_bound(p)):
                assert rank_t_power(p, d, 0) == dimension_at(p, d)

    def test_rank_of_interval_module(self):
        p = Presentation.from_terms(QQ, [("x", 1)], [[(1, 3, "x")]])
        assert rank_t_power(p, 1, 2) == 1
        assert rank_t_power(p, 1, 3) == 0

    def test_negative_power_rejected(self):
        p = Presentation.free(QQ, [("x", 0)])
        with pytest.raises(ValueError):
            rank_t_power(p, 1, -1)

    def test_dimension_counts_live_bars(self):
        rng = random.Random(233)
        for field in BOTH_FIELDS:
            for _ in range(60):
                p = random_presentation(field, rng, max_gens=6, max_degree=8)
                bc = barcode(p)
                for d in range(degree_bound(p)):
                    expected = sum(1 for b in bc if alive_at(b, d))
                    assert dimension_at(p, d) == expected, f"degree {d}"

    def test_rank_counts_spanning_bars(self):
        rng = random.Random(237)
        for field in BOTH_FIELDS:
            for _ in range(40):
                p = random_presentation(field, rng, max_gens=6, max_degree=8)
                bc = barcode(p)
                bound = degree_bound(p)
                for _ in range(12):
                    d = rng.randrange(bound)
                    j = rng.randrange(bound - d)
                    expected = sum(
                        1 for b in bc if b.birth <= d and d + j < b.death
                    )
                    assert rank_t_power(p, d, j) == expected, f"d={d} j={j}"


class TestFromTerms:
    def test_inconsistent_degrees_rejected(self):
        with pytest.raises(ValueError):
            Presentation.from_terms(
                QQ, [("x", 0), ("y", 1)], [[(1, 0, "x"), (1, 0, "y")]]
            )

    def test_negative_exponent_rejected(self):
        # the first relation at fault is named by its position
        with pytest.raises(ValueError, match="^relation 1: negative exponent$"):
            Presentation.from_terms(
                QQ, [("x", 0)], [[(1, 2, "x")], [(1, -1, "x")]]
            )

    def test_empty_relation_rejected(self):
        with pytest.raises(ValueError):
            Presentation.from_terms(QQ, [("x", 0)], [[]])

    def test_repeated_terms_accumulate(self):
        p = Presentation.from_terms(
            QQ, [("x", 0)], [[(1, 2, "x"), (2, 2, "x")]]
        )
        assert entry(p.incl, 0, 0) == Fraction(3)

    def test_unknown_generator_rejected(self):
        with pytest.raises(KeyError):
            Presentation.from_terms(QQ, [("x", 0)], [[(1, 1, "zz")]])
