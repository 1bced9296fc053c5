"""Graded bases, matrices and their columns, and column reductions."""

import math
import random
import re
from fractions import Fraction

import pytest

from persmod import (
    GradedBasis,
    GradedMatrix,
    PrimeField,
    QQ,
    column_echelon,
    linalg,
    membership,
)
from helpers import (
    BOTH_FIELDS,
    add,
    column,
    columns,
    degree,
    echelon,
    element,
    entry,
    express_in_columns,
    free_kernel,
    hstack,
    identity_matrix,
    low,
    matrix_of_columns,
    random_basis,
    random_element,
    random_graded_matrix,
    random_scalar,
    reference_kernel_step,
    replayed_free_kernel,
    scale,
    slice_rank,
    terms,
    times_t,
    vstack,
)


@pytest.fixture
def simple_basis():
    return GradedBasis([("a", 0), ("b", 1), ("c", 1), ("d", 3)])


class TestGradedBasis:
    def test_lookup(self, simple_basis):
        assert len(simple_basis) == 4
        assert simple_basis.degrees[3] == 3
        assert simple_basis.index("c") == 2
        with pytest.raises(KeyError):
            simple_basis.index("nope")

    def test_duplicate_labels_rejected(self):
        # the message names the first label seen twice, scanning in order
        for elements, label in [
            ([("a", 0), ("a", 1)], "a"),
            ([("a", 0), ("b", 1), ("a", 2)], "a"),
            ([("b", 0), ("a", 1), ("a", 2), ("b", 3)], "a"),
            ([("a", 0), ("b", 1), ("a", 2), ("b", 3)], "a"),
        ]:
            with pytest.raises(ValueError) as err:
                GradedBasis(elements)
            assert str(err.value) == f"duplicate basis label {label!r}"

    def test_degrees_must_be_integers(self):
        # an integral value reads as its int; int() must not truncate
        # any other value
        b = GradedBasis([("x", 1.0), ("y", Fraction(4, 2)), ("z", -3)])
        assert b.degrees == (1, 2, -3)
        assert all(type(d) is int for d in b.degrees)
        for bad in [0.5, Fraction(7, 2), -2.5]:
            message = re.escape(f"'y' has degree {bad!r}")
            with pytest.raises(ValueError, match=message):
                GradedBasis([("x", 1), ("y", bad)])

    def test_unreadable_degrees_rejected(self):
        # a degree int() cannot read is reported like any other
        # non-integer degree, not with int()'s own error
        for bad in [math.inf, -math.inf, math.nan, None, "a", "3"]:
            with pytest.raises(ValueError) as err:
                GradedBasis([("x", 1), ("y", bad)])
            assert str(err.value) == f"'y' has degree {bad!r}, not an integer"

    def test_sorted_indices_stable_on_ties(self):
        b = GradedBasis([("x", 2), ("y", 0), ("z", 2)])
        assert b.sorted_indices() == [1, 0, 2]
        # seeded bases with many ties and negative degrees
        rng = random.Random(61)
        for _ in range(200):
            deg = [rng.randint(-3, 3) for _ in range(rng.randint(0, 12))]
            b = GradedBasis((f"g{i}", d) for i, d in enumerate(deg))
            want = sorted(range(len(deg)), key=lambda i: (deg[i], i))
            assert b.sorted_indices() == want

    def test_repr_lists_label_and_degree(self):
        b = GradedBasis([("x", 1), ("y", -2)])
        assert repr(b) == "GradedBasis(x:1, y:-2)"
        assert repr(GradedBasis([])) == "GradedBasis()"


class TestHomogeneousElement:
    """A homogeneous element is a one-column matrix."""

    def test_implied_exponents(self, simple_basis):
        x = element(QQ, simple_basis, 2, {0: Fraction(3), 1: Fraction(-1)})
        assert terms(x) == [
            (0, Fraction(3), 2),
            (1, Fraction(-1), 1),
        ]

    def test_negative_exponent_rejected(self, simple_basis):
        with pytest.raises(ValueError):
            element(QQ, simple_basis, 2, {3: Fraction(1)})

    def test_zero_coordinates_dropped(self, simple_basis):
        x = element(QQ, simple_basis, 2, {0: Fraction(0)})
        assert x.cols == ({},)

    def test_times_t_shifts_degree_only(self, simple_basis):
        # t^3 x has the scalars of x; each implied exponent rises by 3
        x = element(QQ, simple_basis, 2, {1: Fraction(5)})
        y = times_t(x, 3)
        assert degree(y) == 5 and y.cols == x.cols
        assert terms(x) == [(1, Fraction(5), 1)]
        assert terms(y) == [(1, Fraction(5), 4)]

    def test_low_is_bottom_most_in_degree_order(self, simple_basis):
        # the pivot of a column is its entry of highest (degree, index)
        # in the target: the entry with the least power of t
        src = GradedBasis([("r", 3), ("s", 3)])
        one = Fraction(1)
        m = GradedMatrix(
            QQ, src, simple_basis, [{0: one, 2: one, 3: one}, {1: one, 2: one}]
        )
        assert column_echelon(m) == {3: 0, 2: 1}
        assert [low(x) for x in columns(m)] == [3, 2]
        assert low(element(QQ, simple_basis, 1, {})) is None

    def test_degree_must_be_an_integer(self, simple_basis):
        # an integral value reads as its int, as in GradedBasis; int()
        # must not truncate any other value, or a degree-0.5 element
        # would pass as a member of the span of the identity
        x = element(QQ, simple_basis, 1.0, {1: Fraction(1)})
        assert degree(x) == 1 and type(degree(x)) is int
        for bad in [0.5, Fraction(5, 2), -1.5]:
            message = re.escape(f"'x' has degree {bad!r}, not an integer")
            with pytest.raises(ValueError, match=message):
                element(QQ, simple_basis, bad, {0: Fraction(1)})
        basis = GradedBasis([("x", 0)])
        ident = GradedMatrix(QQ, basis, basis, [{0: QQ.one}])
        with pytest.raises(ValueError, match="0.5"):
            membership(element(QQ, basis, 0.5, {0: 1}), ident)


class TestGradedMatrix:
    def test_entry_monomials(self):
        src = GradedBasis([("r", 3)])
        tgt = GradedBasis([("x", 1), ("y", 3)])
        m = GradedMatrix.from_entries(
            QQ, src, tgt, {(0, 0): Fraction(2), (1, 0): Fraction(-1)}
        )
        assert terms(m, 0) == [
            (0, Fraction(2), 2),
            (1, Fraction(-1), 0),
        ]
        assert entry(m, 1, 0) == Fraction(-1)

    def test_repr_writes_each_column_term_by_term(self):
        src = GradedBasis([("r", 3), ("s", 2)])
        tgt = GradedBasis([("x", 1), ("y", 3)])
        m = GradedMatrix(QQ, src, tgt, [{1: -1, 0: Fraction(1, 2)}, {}])
        assert repr(m) == (
            "GradedMatrix[r -> <1/2t^2*x + -1t^0*y @deg 3>; s -> <0 @deg 2>]"
        )

    def test_illegal_entry_rejected(self):
        src = GradedBasis([("r", 1)])
        tgt = GradedBasis([("x", 2)])
        with pytest.raises(ValueError):
            GradedMatrix.from_entries(QQ, src, tgt, {(0, 0): Fraction(1)})

    def test_first_illegal_entry_is_named(self):
        # column order first, then the order the entries were given in;
        # a zero scalar is dropped before its exponent is looked at
        src = GradedBasis([("r", 3), ("s", 1), ("u", 0)])
        tgt = GradedBasis([("x", 1), ("y", 2), ("z", 4)])
        cases = [
            ({1: 0, 2: 5, 0: 2}, "entry (z, s) implies exponent -3 < 0"),
            ({0: 2, 2: 5, 1: 3}, "entry (z, s) implies exponent -3 < 0"),
            ({1: 3, 2: 5}, "entry (y, s) implies exponent -1 < 0"),
            ({0: 2, 1: Fraction(0), 2: 0},
             "entry (z, u) implies exponent -4 < 0"),
        ]
        for col, message in cases:
            with pytest.raises(ValueError) as caught:
                GradedMatrix(QQ, src, tgt, [{0: 1}, col, {2: 1}])
            assert str(caught.value) == message

    def test_columns_are_copied_and_cleaned(self):
        src = GradedBasis([("r", 3), ("s", 2), ("u", 2)])
        tgt = GradedBasis([("x", 1), ("y", 2)])
        first = {0: 2}
        pairs = [(1, Fraction(1, 2)), (0, Fraction(0)), (0, 3)]
        zeros = {0: 0, 1: 5}
        m = GradedMatrix(QQ, src, tgt, [first, iter(pairs), zeros])
        assert m.cols == ({0: 2}, {1: Fraction(1, 2), 0: 3}, {1: 5})
        assert list(m.cols[1]) == [1, 0]
        assert zeros == {0: 0, 1: 5}
        first[1] = 7
        first[0] = 5
        zeros[1] = 1
        assert m.cols[0] == {0: 2} and m.cols[2] == {1: 5}
        # a later pair for the same row wins, also when it is zero
        m = GradedMatrix(QQ, src, tgt, [[(0, 1), (0, 0)], {}, {}])
        assert m.cols == ({}, {}, {})
        with pytest.raises(ValueError, match="^column count does not match"):
            GradedMatrix(QQ, src, tgt, [{0: 1}])

    def test_apply_tracks_exponents(self):
        # f(r) = t^2 x + y with deg r = 3, deg x = 1, deg y = 3;
        # then f(t r) = t^3 x + t y.
        src = GradedBasis([("r", 3)])
        tgt = GradedBasis([("x", 1), ("y", 3)])
        m = GradedMatrix.from_entries(
            QQ, src, tgt, {(0, 0): Fraction(1), (1, 0): Fraction(1)}
        )
        x = element(QQ, src, 4, {0: Fraction(1)})
        y = m @ x
        assert degree(y) == 4
        assert [e for _, _, e in terms(y)] == [3, 1]

    def test_apply_is_linear(self):
        rng = random.Random(5)
        for field in BOTH_FIELDS:
            for _ in range(20):
                m = random_graded_matrix(field, rng)
                d = max(m.source.degrees) + rng.randint(0, 3)
                x = random_element(field, rng, m.source, d)
                y = random_element(field, rng, m.source, d)
                c = random_scalar(field, rng)
                lhs = m @ add(scale(x, c), y)
                rhs = add(scale(m @ x, c), m @ y)
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
                assert composed @ x == a @ (b @ x)

    def test_identity(self, simple_basis=None):
        basis = GradedBasis([("a", 0), ("b", 2)])
        ident = identity_matrix(QQ, basis)
        x = element(QQ, basis, 3, {0: Fraction(2), 1: Fraction(1)})
        assert ident @ x == x

    def test_stacking(self):
        b1 = GradedBasis([("x", 1)])
        b2 = GradedBasis([("y", 2)])
        src = GradedBasis([("r", 2)])
        m1 = GradedMatrix.from_entries(QQ, src, b1, {(0, 0): Fraction(1)})
        m2 = GradedMatrix.from_entries(QQ, src, b2, {(0, 0): Fraction(3)})
        v = vstack([m1, m2])
        assert len(v.target) == 2 and v.ncols == 1
        assert entry(v, 0, 0) == Fraction(1)
        assert entry(v, 1, 0) == Fraction(3)

        h = hstack([m1, GradedMatrix.zero(QQ, GradedBasis([("s", 5)]), b1)])
        assert h.ncols == 2
        assert h.source.labels == ("r", "s")

    def test_concat_bases_requires_unique_labels(self):
        b = GradedBasis([("x", 1)])
        with pytest.raises(ValueError):
            GradedBasis([*b, *b])

    def test_restrict_rows(self):
        src = GradedBasis([("r", 4)])
        tgt = GradedBasis([("x", 1), ("y", 2), ("z", 3)])
        m = GradedMatrix.from_entries(
            QQ, src, tgt, {(0, 0): Fraction(1), (2, 0): Fraction(2)}
        )
        sub = GradedBasis([("x", 1), ("z", 3)])
        r = m.restrict_rows([0, 2], sub)
        assert r.cols == ({0: Fraction(1), 1: Fraction(2)},)
        with pytest.raises(
            ValueError, match="^row selection does not match new target basis$"
        ):
            m.restrict_rows([0], sub)

    def test_matmul_needs_matching_bases(self):
        a = identity_matrix(QQ, GradedBasis([("x", 1)]))
        b = identity_matrix(QQ, GradedBasis([("y", 1)]))
        with pytest.raises(ValueError, match="^matrix shapes do not compose$"):
            a @ b


class TestColumnEchelon:
    def test_pivot_rows_are_distinct(self):
        # column_echelon keeps only the pairing; the helper's pass of
        # the same loop keeps the reduced columns too
        rng = random.Random(17)
        for _ in range(40):
            m = random_graded_matrix(QQ, rng)
            reduced, lows, _ = echelon(m)
            assert column_echelon(m) == lows
            assert len(set(lows.values())) == len(lows)
            for l, c in lows.items():
                col = column(reduced, c)
                assert low(col) == l

    def test_zero_columns_reduced_to_zero(self):
        rng = random.Random(19)
        for _ in range(40):
            m = random_graded_matrix(QQ, rng, nrows=3, ncols=6)
            reduced, lows, dead = echelon(m)
            assert sorted(dead) == sorted(set(range(m.ncols)) - set(lows.values()))
            for c in dead:
                assert not reduced.cols[c]

    def test_rank_matches_gaussian_oracle(self):
        # at any degree slice, pivots of degree <= d are exactly the rank
        rng = random.Random(21)
        for field in BOTH_FIELDS:
            for _ in range(30):
                m = random_graded_matrix(field, rng, nrows=5, ncols=7)
                lows = column_echelon(m)
                for d in range(0, 10):
                    pivots = sum(
                        1
                        for c in lows.values()
                        if m.source.degrees[c] <= d
                    )
                    assert pivots == slice_rank(m, d), f"slice degree {d}"


class TestNormalForm:
    def test_columns_reduce_to_zero(self):
        rng = random.Random(29)
        for field in BOTH_FIELDS:
            for _ in range(30):
                m = random_graded_matrix(field, rng)
                for j in range(m.ncols):
                    assert membership(column(m, j), m)

    def test_membership_of_random_images(self):
        rng = random.Random(31)
        for field in BOTH_FIELDS:
            for _ in range(30):
                m = random_graded_matrix(field, rng)
                x = random_element(field, rng, m.source)
                assert membership(m @ x, m)

    def test_membership_needs_one_target_basis(self):
        m = identity_matrix(QQ, GradedBasis([("x", 1)]))
        x = identity_matrix(QQ, GradedBasis([("y", 1)]))
        with pytest.raises(
            ValueError, match="^columns are not over the matrix target basis$"
        ):
            membership(x, m)

    def test_membership_closed_under_t(self):
        rng = random.Random(37)
        for _ in range(20):
            m = random_graded_matrix(QQ, rng)
            x = m @ random_element(QQ, rng, m.source)
            assert membership(times_t(x, rng.randint(1, 3)), m)

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
                    x = m @ random_element(field, rng, m.source, degree(x))
                d = degree(x)
                want = slice_rank(hstack([m, x]), d) == slice_rank(m, d)
                assert membership(x, m) == want
                members += want
        assert 0 < members < 80

    def test_membership_of_several_columns(self):
        # x is a member iff each column j of x is a member at its own
        # degree: appending it leaves that slice's rank unchanged
        rng = random.Random(53)
        outcomes = set()
        for field in BOTH_FIELDS:
            for _ in range(40):
                m = random_graded_matrix(field, rng)
                cols = [
                    m @ random_element(field, rng, m.source)
                    if rng.random() < 0.7
                    else random_element(field, rng, m.target)
                    for _ in range(rng.randint(1, 3))
                ]
                x = matrix_of_columns(
                    field, m.target, cols, [f"c{n}" for n in range(len(cols))]
                )
                want = all(
                    slice_rank(hstack([m, column(x, j)]), d) == slice_rank(m, d)
                    for j, d in enumerate(x.source.degrees)
                )
                assert membership(x, m) == want
                outcomes.add(want)
            empty = GradedMatrix.zero(field, GradedBasis([]), m.target)
            assert membership(empty, m)
        assert outcomes == {True, False}

    def test_detects_non_members(self):
        # t^2 x is in <t x> but x itself is not in <t x> at degree 1
        src = GradedBasis([("r", 2)])
        tgt = GradedBasis([("x", 1)])
        m = GradedMatrix.from_entries(QQ, src, tgt, {(0, 0): Fraction(1)})
        low = element(QQ, tgt, 1, {0: Fraction(1)})
        high = element(QQ, tgt, 2, {0: Fraction(1)})
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
        y2 = element(QQ, tgt, 2, {1: Fraction(1)})
        y4 = element(QQ, tgt, 4, {1: Fraction(1)})
        assert not membership(y2, m)
        assert membership(y4, m)


class TestExpressInColumns:
    def test_round_trip(self):
        rng = random.Random(47)
        for field in BOTH_FIELDS:
            for _ in range(40):
                m = random_graded_matrix(field, rng)
                x = m @ random_element(field, rng, m.source)
                combo = express_in_columns(x, m)
                assert combo is not None
                assert m @ combo == x

    def test_returns_none_outside_column_space(self):
        src = GradedBasis([("r", 2)])
        tgt = GradedBasis([("x", 1), ("y", 0)])
        m = GradedMatrix.from_entries(QQ, src, tgt, {(0, 0): Fraction(1)})
        stray = element(QQ, tgt, 2, {1: Fraction(1)})
        assert express_in_columns(stray, m) is None


class TestFreeKernel:
    def test_kernel_columns_map_to_zero(self):
        rng = random.Random(67)
        for field in BOTH_FIELDS:
            for _ in range(40):
                m = random_graded_matrix(field, rng)
                k = free_kernel(m)
                assert k.target == m.source
                assert (m @ k).is_zero

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

    def test_equals_replayed_column_operations(self):
        # reducing [m ; I] makes the same column operations, in the same
        # order, as replaying them onto change columns: same labels,
        # degrees, columns and entry order
        rng = random.Random(89)
        wide = zero_cols = 0
        for field in (QQ, PrimeField(2), PrimeField(5)):
            for _ in range(120):
                nrows, ncols = rng.randint(1, 6), rng.randint(1, 9)
                density = rng.choice((0.0, 0.2, 0.5, 0.9))
                m = random_graded_matrix(field, rng, nrows, ncols, density)
                k, want = free_kernel(m), replayed_free_kernel(m)
                assert k.source == want.source and k.target == want.target
                assert [list(c.items()) for c in k.cols] == [
                    list(c.items()) for c in want.cols
                ]
                wide += ncols > nrows
                zero_cols += sum(not col for col in m.cols)
        assert wide > 100 and zero_cols > 100

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
        assert k.cols == ({0: Fraction(-1), 1: Fraction(1)},)


class TestPreimage:
    @staticmethod
    def random_block(field, rng, target, size, prefix, density):
        source = random_basis(rng, size, prefix, max_degree=5)
        cols = [
            {
                i: random_scalar(field, rng)
                for i, low in enumerate(target.degrees)
                if low <= d and rng.random() < density
            }
            for d in source.degrees
        ]
        return GradedMatrix(field, source, target, cols)

    def test_equals_reference_kernel_step(self):
        # one reduction of [main | -modders], identity rows under main
        # only, against the stacked free kernel it replaced: same
        # labels, degrees, target, and columns including entry order
        rng = random.Random(97)
        seen = dict.fromkeys(("no modders", "zero", "syzygy", "tie"), 0)
        for field in (QQ, PrimeField(2), PrimeField(5)):
            for trial in range(150):
                target = random_basis(rng, rng.randint(1, 5), "y", max_degree=4)
                density = rng.choice((0.0, 0.3, 0.6, 0.9))
                main = self.random_block(
                    field, rng, target, rng.randint(0, 6), "x", density
                )
                size = 0 if trial % 5 == 0 else rng.randint(1, 5)
                modders = self.random_block(field, rng, target, size, "x", density)
                if size > 1 and rng.random() < 0.5:
                    # a syzygy: a combination of two modders, at or
                    # above the degree of both
                    a, b = rng.sample(range(size), 2)
                    d = max(modders.source.degrees[a], modders.source.degrees[b])
                    col = dict(modders.cols[a])
                    field.combine(
                        col, modders.cols[b], random_scalar(field, rng), field.one
                    )
                    labels = list(modders.source) + [("s", d + rng.randint(0, 1))]
                    modders = GradedMatrix(
                        field, GradedBasis(labels), target, [*modders.cols, col]
                    )
                    seen["syzygy"] += 1
                prefix = rng.choice(("k", "rel"))
                got = linalg._preimage(main, modders, prefix)
                want = reference_kernel_step(main, modders, prefix)
                assert got.source == want.source and got.target == want.target
                assert [list(c.items()) for c in got.cols] == [
                    list(c.items()) for c in want.cols
                ]
                seen["no modders"] += not modders.ncols
                seen["zero"] += any(not c for c in (*main.cols, *modders.cols))
                seen["tie"] += bool(
                    set(main.source.degrees) & set(modders.source.degrees)
                )
        assert min(seen.values()) > 60, seen
