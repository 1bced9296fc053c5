"""Graded bases, homogeneous elements, matrices, and column reductions."""

import random
from fractions import Fraction

import pytest

from persmod import (
    GradedBasis,
    GradedMatrix,
    HomogeneousElement,
    PrimeField,
    QQ,
    column_echelon,
    concat_bases,
    express_in_columns,
    free_kernel,
    membership,
)
from helpers import (
    BOTH_FIELDS,
    hstack,
    random_element,
    random_graded_matrix,
    random_scalar,
    slice_rank,
    vstack,
)


@pytest.fixture
def simple_basis():
    return GradedBasis([("a", 0), ("b", 1), ("c", 1), ("d", 3)])


class TestGradedBasis:
    def test_lookup(self, simple_basis):
        assert len(simple_basis) == 4
        assert simple_basis.degree(3) == 3
        assert simple_basis.index("c") == 2
        with pytest.raises(KeyError):
            simple_basis.index("nope")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            GradedBasis([("a", 0), ("a", 1)])

    def test_sorted_indices_stable_on_ties(self):
        b = GradedBasis([("x", 2), ("y", 0), ("z", 2)])
        assert b.sorted_indices() == [1, 0, 2]


class TestHomogeneousElement:
    def test_implied_exponents(self, simple_basis):
        x = HomogeneousElement(
            QQ, simple_basis, 2, {0: Fraction(3), 1: Fraction(-1)}
        )
        assert x.monomial_at(0).exponent == 2
        assert x.monomial_at(1).exponent == 1
        assert list(x.terms()) == [
            (0, Fraction(3), 2),
            (1, Fraction(-1), 1),
        ]

    def test_negative_exponent_rejected(self, simple_basis):
        with pytest.raises(ValueError):
            HomogeneousElement(QQ, simple_basis, 2, {3: Fraction(1)})

    def test_zero_coordinates_dropped(self, simple_basis):
        x = HomogeneousElement(QQ, simple_basis, 2, {0: Fraction(0)})
        assert x.is_zero

    def test_add_same_degree(self, simple_basis):
        x = HomogeneousElement(QQ, simple_basis, 2, {0: Fraction(1)})
        y = HomogeneousElement(QQ, simple_basis, 2, {0: Fraction(-1), 1: Fraction(2)})
        s = x.add(y)
        assert s.coords == {1: Fraction(2)}
        assert x.sub(x).is_zero

    def test_add_degree_mismatch_rejected(self, simple_basis):
        x = HomogeneousElement(QQ, simple_basis, 2, {0: Fraction(1)})
        y = HomogeneousElement(QQ, simple_basis, 3, {0: Fraction(1)})
        with pytest.raises(ValueError):
            x.add(y)

    def test_times_t_shifts_degree_only(self, simple_basis):
        x = HomogeneousElement(QQ, simple_basis, 2, {1: Fraction(5)})
        y = x.times_t(3)
        assert y.degree == 5
        assert y.coords == x.coords
        assert y.monomial_at(1).exponent == 4
        with pytest.raises(ValueError):
            x.times_t(-1)

    def test_low_is_bottom_most_in_degree_order(self, simple_basis):
        x = HomogeneousElement(
            QQ, simple_basis, 3, {0: Fraction(1), 2: Fraction(1), 3: Fraction(1)}
        )
        assert x.low() == 3
        y = HomogeneousElement(QQ, simple_basis, 3, {1: Fraction(1), 2: Fraction(1)})
        assert y.low() == 2
        assert HomogeneousElement.zero(QQ, simple_basis, 1).low() is None

    def test_generator(self, simple_basis):
        g = HomogeneousElement.generator(QQ, simple_basis, "b")
        assert g.degree == 1
        assert g.coords == {1: Fraction(1)}


class TestGradedMatrix:
    def test_entry_monomials(self):
        src = GradedBasis([("r", 3)])
        tgt = GradedBasis([("x", 1), ("y", 3)])
        m = GradedMatrix.from_entries(
            QQ, src, tgt, {(0, 0): Fraction(2), (1, 0): Fraction(-1)}
        )
        assert m.monomial(0, 0).exponent == 2
        assert m.monomial(1, 0).exponent == 0
        assert m.entry(1, 0) == Fraction(-1)

    def test_illegal_entry_rejected(self):
        src = GradedBasis([("r", 1)])
        tgt = GradedBasis([("x", 2)])
        with pytest.raises(ValueError):
            GradedMatrix.from_entries(QQ, src, tgt, {(0, 0): Fraction(1)})

    def test_apply_tracks_exponents(self):
        # f(r) = t^2 x + y with deg r = 3, deg x = 1, deg y = 3;
        # then f(t r) = t^3 x + t y.
        src = GradedBasis([("r", 3)])
        tgt = GradedBasis([("x", 1), ("y", 3)])
        m = GradedMatrix.from_entries(
            QQ, src, tgt, {(0, 0): Fraction(1), (1, 0): Fraction(1)}
        )
        x = HomogeneousElement(QQ, src, 4, {0: Fraction(1)})
        y = m.apply(x)
        assert y.degree == 4
        assert y.monomial_at(0).exponent == 3
        assert y.monomial_at(1).exponent == 1

    def test_apply_is_linear(self):
        rng = random.Random(5)
        for field in BOTH_FIELDS:
            for _ in range(20):
                m = random_graded_matrix(field, rng)
                d = max(m.source.degrees) + rng.randint(0, 3)
                x = random_element(field, rng, m.source, d)
                y = random_element(field, rng, m.source, d)
                c = random_scalar(field, rng)
                lhs = m.apply(x.scale(c).add(y))
                rhs = m.apply(x).scale(c).add(m.apply(y))
                assert lhs == rhs

    def test_matmul_matches_apply_composition(self):
        rng = random.Random(7)
        for field in BOTH_FIELDS:
            for _ in range(20):
                a = random_graded_matrix(field, rng)
                b = random_graded_matrix(
                    field, rng, nrows=a.ncols, ncols=rng.randint(1, 5)
                )
                # rebuild b so its target is a's source
                b = GradedMatrix(
                    field,
                    GradedBasis(
                        (f"w{j}", max(a.source.degrees) + d)
                        for j, d in enumerate(b.source.degrees)
                    ),
                    a.source,
                    [
                        {
                            i: random_scalar(field, rng)
                            for i in range(a.ncols)
                            if rng.random() < 0.5
                        }
                        for _ in range(b.ncols)
                    ],
                )
                composed = a @ b
                x = random_element(field, rng, b.source)
                assert composed.apply(x) == a.apply(b.apply(x))

    def test_identity(self, simple_basis=None):
        basis = GradedBasis([("a", 0), ("b", 2)])
        ident = GradedMatrix.identity(QQ, basis)
        x = HomogeneousElement(QQ, basis, 3, {0: Fraction(2), 1: Fraction(1)})
        assert ident.apply(x) == x

    def test_stacking(self):
        b1 = GradedBasis([("x", 1)])
        b2 = GradedBasis([("y", 2)])
        src = GradedBasis([("r", 2)])
        m1 = GradedMatrix.from_entries(QQ, src, b1, {(0, 0): Fraction(1)})
        m2 = GradedMatrix.from_entries(QQ, src, b2, {(0, 0): Fraction(3)})
        v = vstack([m1, m2])
        assert v.nrows == 2 and v.ncols == 1
        assert v.entry(0, 0) == Fraction(1)
        assert v.entry(1, 0) == Fraction(3)

        h = hstack([m1, GradedMatrix.zero(QQ, GradedBasis([("s", 5)]), b1)])
        assert h.ncols == 2
        assert h.source.labels == ("r", "s")

    def test_concat_bases_requires_unique_labels(self):
        b = GradedBasis([("x", 1)])
        with pytest.raises(ValueError):
            concat_bases(b, b)

    def test_restrict_rows(self):
        src = GradedBasis([("r", 4)])
        tgt = GradedBasis([("x", 1), ("y", 2), ("z", 3)])
        m = GradedMatrix.from_entries(
            QQ, src, tgt, {(0, 0): Fraction(1), (2, 0): Fraction(2)}
        )
        sub = GradedBasis([("x", 1), ("z", 3)])
        r = m.restrict_rows([0, 2], sub)
        assert r.cols == ({0: Fraction(1), 1: Fraction(2)},)


class TestColumnEchelon:
    def test_change_certifies_reduction(self):
        rng = random.Random(13)
        for field in BOTH_FIELDS:
            for _ in range(40):
                m = random_graded_matrix(field, rng)
                ech = column_echelon(m)
                assert m @ ech.change == ech.reduced

    def test_pivot_rows_are_distinct(self):
        rng = random.Random(17)
        for _ in range(40):
            m = random_graded_matrix(QQ, rng)
            ech = column_echelon(m)
            assert len(set(ech.lows.values())) == len(ech.lows)
            for l, c in ech.lows.items():
                col = ech.reduced.column(c)
                assert col.low() == l

    def test_zero_columns_reduced_to_zero(self):
        rng = random.Random(19)
        for _ in range(40):
            m = random_graded_matrix(QQ, rng, nrows=3, ncols=6)
            ech = column_echelon(m)
            for c in ech.zero_cols:
                assert not ech.reduced.cols[c]

    def test_rank_matches_gaussian_oracle(self):
        # at any degree slice, pivots of degree <= d are exactly the rank
        rng = random.Random(21)
        for field in BOTH_FIELDS:
            for _ in range(30):
                m = random_graded_matrix(field, rng, nrows=5, ncols=7)
                ech = column_echelon(m)
                for d in range(0, 10):
                    pivots = sum(
                        1
                        for c in ech.lows.values()
                        if m.source.degrees[c] <= d
                    )
                    assert pivots == slice_rank(m, d), f"slice degree {d}"

    def test_untracked_matches_tracked(self):
        rng = random.Random(29)
        for field in (*BOTH_FIELDS, PrimeField(2)):
            for _ in range(40):
                m = random_graded_matrix(field, rng)
                tracked = column_echelon(m)
                bare = column_echelon(m, change=False)
                assert bare.change is None
                assert bare.lows == tracked.lows
                assert bare.reduced == tracked.reduced
                assert bare.zero_cols == tracked.zero_cols
                assert bare.order == tracked.order

    def test_change_is_unit_triangular(self):
        rng = random.Random(25)
        for _ in range(20):
            m = random_graded_matrix(QQ, rng)
            ech = column_echelon(m)
            position = {c: n for n, c in enumerate(ech.order)}
            for c in range(m.ncols):
                col = ech.change.cols[c]
                assert col.get(c) == QQ.one
                for j in col:
                    assert position[j] <= position[c]


class TestNormalForm:
    def test_columns_reduce_to_zero(self):
        rng = random.Random(29)
        for field in BOTH_FIELDS:
            for _ in range(30):
                m = random_graded_matrix(field, rng)
                ech = column_echelon(m, change=False)
                for j in range(m.ncols):
                    assert membership(m.column(j), ech)

    def test_membership_of_random_images(self):
        rng = random.Random(31)
        for field in BOTH_FIELDS:
            for _ in range(30):
                m = random_graded_matrix(field, rng)
                x = random_element(field, rng, m.source)
                assert membership(m.apply(x), m)

    def test_membership_closed_under_t(self):
        rng = random.Random(37)
        for _ in range(20):
            m = random_graded_matrix(QQ, rng)
            x = m.apply(random_element(QQ, rng, m.source))
            assert membership(x.times_t(rng.randint(1, 3)), m)

    def test_membership_matches_slice_oracle(self):
        # x of degree d is a member iff appending it as a column leaves
        # the rank of the degree-d slice unchanged
        rng = random.Random(43)
        members = 0
        for field in BOTH_FIELDS:
            for _ in range(40):
                m = random_graded_matrix(field, rng)
                x = random_element(field, rng, m.target)
                if rng.random() < 0.5:
                    x = m.apply(random_element(field, rng, m.source, x.degree))
                col = GradedMatrix.from_columns(field, m.target, [x], ["x"])
                d = x.degree
                want = slice_rank(hstack([m, col]), d) == slice_rank(m, d)
                assert membership(x, m) == want
                members += want
        assert 0 < members < 80

    def test_detects_non_members(self):
        # t^2 x is in <t x> but x itself is not in <t x> at degree 1
        src = GradedBasis([("r", 2)])
        tgt = GradedBasis([("x", 1)])
        m = GradedMatrix.from_entries(QQ, src, tgt, {(0, 0): Fraction(1)})
        low = HomogeneousElement(QQ, tgt, 1, {0: Fraction(1)})
        high = HomogeneousElement(QQ, tgt, 2, {0: Fraction(1)})
        assert not membership(low, m)
        assert membership(high, m)

    def test_degree_gate_respects_each_column(self):
        src = GradedBasis([("r1", 1), ("r2", 4)])
        tgt = GradedBasis([("x", 0), ("y", 1)])
        m = GradedMatrix.from_entries(
            QQ,
            src,
            tgt,
            {(0, 0): Fraction(1), (1, 0): Fraction(1), (1, 1): Fraction(1)},
        )
        # y alone enters the span only once the degree-4 column applies
        y2 = HomogeneousElement(QQ, tgt, 2, {1: Fraction(1)})
        y4 = HomogeneousElement(QQ, tgt, 4, {1: Fraction(1)})
        assert not membership(y2, m)
        assert membership(y4, m)


class TestExpressInColumns:
    def test_round_trip(self):
        rng = random.Random(47)
        for field in BOTH_FIELDS:
            for _ in range(40):
                m = random_graded_matrix(field, rng)
                x = m.apply(random_element(field, rng, m.source))
                combo = express_in_columns(x, m)
                assert combo is not None
                assert m.apply(combo) == x

    def test_returns_none_outside_column_space(self):
        src = GradedBasis([("r", 2)])
        tgt = GradedBasis([("x", 1), ("y", 0)])
        m = GradedMatrix.from_entries(QQ, src, tgt, {(0, 0): Fraction(1)})
        stray = HomogeneousElement(QQ, tgt, 2, {1: Fraction(1)})
        assert express_in_columns(stray, m) is None


class TestFreeKernel:
    def test_kernel_columns_map_to_zero(self):
        rng = random.Random(67)
        for field in BOTH_FIELDS:
            for _ in range(40):
                m = random_graded_matrix(field, rng)
                k = free_kernel(m)
                assert k.target == m.source
                for j in range(k.ncols):
                    assert m.apply(k.column(j)).is_zero

    def test_kernel_is_complete_in_every_degree(self):
        # dim ker in degree d must equal #cols(<=d) - rank of the slice,
        # and the kernel columns must be independent there
        rng = random.Random(71)
        for field in BOTH_FIELDS:
            for _ in range(25):
                m = random_graded_matrix(field, rng, nrows=4, ncols=6)
                k = free_kernel(m)
                for d in range(0, 10):
                    cols_at_d = sum(1 for deg in m.source.degrees if deg <= d)
                    expected = cols_at_d - slice_rank(m, d)
                    assert slice_rank(k, d) == expected, f"slice degree {d}"

    def test_kernel_of_injective_map_is_empty(self):
        src = GradedBasis([("r", 2)])
        tgt = GradedBasis([("x", 1)])
        m = GradedMatrix.from_entries(QQ, src, tgt, {(0, 0): Fraction(1)})
        assert free_kernel(m).ncols == 0

    def test_kernel_labels(self):
        src = GradedBasis([("r1", 1), ("r2", 1)])
        tgt = GradedBasis([("x", 1)])
        m = GradedMatrix.from_entries(
            QQ, src, tgt, {(0, 0): Fraction(1), (0, 1): Fraction(1)}
        )
        k = free_kernel(m)
        assert k.source.labels == ("k0",)
        assert k.column(0).coords == {0: Fraction(-1), 1: Fraction(1)}
