"""Graded Smith normal form: worked examples and structural properties."""

import random
from fractions import Fraction

from persmod import (
    GradedBasis,
    GradedMatrix,
    PrimeField,
    QQ,
    column_echelon,
    graded_snf,
    membership,
)
from helpers import (
    BOTH_FIELDS,
    assert_snf_certificate,
    columns,
    entry,
    free_rows,
    identity_matrix,
    random_graded_matrix,
    random_presentation,
    row_operation_snf,
    scale,
    snf_exactly,
    times_t,
)


def one(n=1):
    return Fraction(n)


def exponent(m, p, c):
    """The t-exponent the degrees imply at entry (p, c) of m."""
    return m.source.degrees[c] - m.target.degrees[p]


class TestWorkedExample:
    """A 5-generator, 4-relation matrix that needs both unit-pivot
    cancellation and genuine t-power pivots.

    Generators x, y (degree 1), z (degree 2), u, v (degree 3); relation
    columns of degrees 2, 3, 4, 4, every nonzero entry with scalar 1.
    """

    def matrix(self):
        tgt = GradedBasis([("x", 1), ("y", 1), ("z", 2), ("u", 3), ("v", 3)])
        src = GradedBasis([("r1", 2), ("r2", 3), ("r3", 4), ("r4", 4)])
        entries = {
            (0, 0): one(), (0, 1): one(),
            (1, 0): one(), (1, 1): one(), (1, 2): one(), (1, 3): one(),
            (2, 0): one(), (2, 2): one(), (2, 3): one(),
            (3, 1): one(), (3, 3): one(),
            (4, 2): one(),
        }
        return GradedMatrix.from_entries(QQ, src, tgt, entries)

    def test_diagonal(self):
        m = self.matrix()
        snf = graded_snf(m)
        sm = snf.row_change @ m
        named = [
            (m.target.labels[p], m.source.labels[c], entry(sm, p, c),
             exponent(m, p, c))
            for p, c in snf.lows.items()
        ]
        assert named == [
            ("z", "r1", one(), 0),
            ("u", "r2", one(), 0),
            ("v", "r3", one(), 1),
            ("y", "r4", one(-1), 3),
        ]
        assert free_rows(m, snf) == (0,)  # x survives with no relation
        assert sorted(snf.lows.values()) == [0, 1, 2, 3]

    def test_new_generators(self):
        m = self.matrix()
        snf = graded_snf(m)
        # column j of S^-1 is new generator j, at the degree of row j
        tgt = m.target
        assert snf.row_change_inv == GradedMatrix(QQ, tgt, tgt, [
            {0: one()},  # x itself
            {0: one(2), 1: one()},  # y + 2x
            {0: one(), 1: one(), 2: one()},  # z + ty + tx
            {0: one(), 1: one(), 3: one()},  # u + t^2(y + x)
            {0: one(-1), 4: one()},  # v - t^2 x
        ])

    def test_change_identities(self):
        m = self.matrix()
        assert_snf_certificate(m, graded_snf(m))


class TestCycleRelationExample:
    """The 6 x 7 matrix of boundary columns over a cycle basis for a
    small two-triangle filtration; exercises zero columns and a free
    row alongside mixed pivot exponents.
    """

    def matrix(self):
        tgt = GradedBasis(
            [("z1", 1), ("z2", 1), ("z3", 2), ("z4", 2), ("z5", 3), ("z6", 4)]
        )
        src = GradedBasis(
            [("r1", 2), ("r2", 2), ("r3", 3), ("r4", 3), ("r5", 4), ("r6", 5), ("r7", 6)]
        )
        entries = {
            (0, 0): one(-1), (0, 3): one(-1), (0, 4): one(-1),
            (1, 0): one(), (1, 1): one(-1),
            (2, 1): one(), (2, 2): one(-1), (2, 4): one(),
            (3, 2): one(), (3, 3): one(),
            (4, 6): one(),
            (5, 5): one(), (5, 6): one(-1),
        }
        return GradedMatrix.from_entries(QQ, src, tgt, entries)

    def test_diagonal_and_kernel_structure(self):
        m = self.matrix()
        snf = graded_snf(m)
        named = [
            (m.target.labels[p], m.source.labels[c], exponent(m, p, c))
            for p, c in snf.lows.items()
        ]
        assert named == [
            ("z2", "r1", 1),
            ("z3", "r2", 0),
            ("z4", "r3", 1),
            ("z6", "r6", 1),
            ("z5", "r7", 3),
        ]
        treated = set(snf.lows.values())
        zero_cols = [l for c, l in enumerate(m.source.labels) if c not in treated]
        assert zero_cols == ["r4", "r5"]
        assert [m.target.labels[i] for i in free_rows(m, snf)] == ["z1"]

    def test_reduced_is_diagonal(self):
        m = self.matrix()
        assert_snf_certificate(m, graded_snf(m))


class TestRowOperationOracle:
    """``graded_snf`` changes the matrix by column operations only; the
    row-operation SNF it replaced must give the same S, S^-1 and
    pairing, scalar types included, and the pairing must be
    ``column_echelon``'s, in the same order."""

    def test_equals_row_operation_snf(self):
        rng = random.Random(107)
        fields = (QQ, PrimeField(5), PrimeField(2))
        for k in range(3000):
            field = fields[k % 3]
            if k % 2:
                m = random_graded_matrix(
                    field, rng, rng.randint(1, 24), rng.randint(1, 24),
                    density=rng.choice((0.2, 0.5, 0.9)),
                )
            else:
                m = random_presentation(field, rng, max_gens=14, max_rels=18).incl
            snf = graded_snf(m)
            assert snf_exactly(snf) == snf_exactly(row_operation_snf(m))
            assert list(snf.lows.items()) == list(column_echelon(m).items())


class TestSnfProperties:
    def test_random_matrices(self):
        rng = random.Random(101)
        for field in BOTH_FIELDS:
            for _ in range(60):
                m = random_graded_matrix(field, rng)
                assert_snf_certificate(m, graded_snf(m))

    def test_zero_matrix(self):
        src = GradedBasis([("r1", 2), ("r2", 5)])
        tgt = GradedBasis([("x", 1)])
        m = GradedMatrix.zero(QQ, src, tgt)
        snf = graded_snf(m)
        assert snf.lows == {}
        assert free_rows(m, snf) == (0,)
        assert snf.row_change == identity_matrix(QQ, tgt)

    def test_empty_sides(self):
        m = GradedMatrix.zero(QQ, GradedBasis([]), GradedBasis([("x", 0)]))
        snf = graded_snf(m)
        assert snf.lows == {}
        assert free_rows(m, snf) == (0,)

    def test_new_generators_express_reduced_relations(self):
        # F T = S^-1 D: coeff * t^e * g'_p spans what column c of F T
        # does, so it is a relation and t^(e-1) * g'_p is not
        rng = random.Random(103)
        for field in BOTH_FIELDS:
            for _ in range(30):
                m = random_graded_matrix(field, rng)
                snf = graded_snf(m)
                sm = snf.row_change @ m
                relations = m
                gens = columns(snf.row_change_inv)
                for p, c in snf.lows.items():
                    g, e = gens[p], exponent(m, p, c)
                    assert membership(
                        times_t(scale(g, entry(sm, p, c)), e), relations
                    )
                    if e >= 1:
                        assert not membership(times_t(g, e - 1), relations)
