"""Coefficient fields and monomial arithmetic.

Rational scalars stay ``int`` while integral; the fast-path tests run
kernels, images, Smith forms and streams under ``QQ`` and under
``helpers.FractionQ``, whose scalars are always ``Fraction``, and
require equal results.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    FractionQ,
    free_kernel,
    random_filtered_complex,
    random_graded_matrix,
    random_insertion_order,
    random_presentation,
    random_valid_morphism,
)
from persmod import (
    GradedMatrix,
    Presentation,
    PresentationMorphism,
    PrimeField,
    QQ,
    Rationals,
    StreamState,
    add_simplex,
    current_barcode,
    field_from_string,
    image,
    snf_form,
)
from persmod.fields import _canon, _fraction


class TestRationals:
    def test_parse_and_format_round_trip(self):
        for text in ["0", "1", "-1", "3/4", "-22/7"]:
            assert QQ.format(QQ.parse(text)) == text

    def test_arithmetic_is_exact(self):
        a = QQ.parse("1/3")
        b = QQ.parse("1/6")
        assert QQ.add(a, b) == Fraction(1, 2)
        assert QQ.sub(a, b) == Fraction(1, 6)
        assert QQ.mul(a, b) == Fraction(1, 18)
        assert QQ.div(a, b) == Fraction(2)

    def test_inverse(self):
        assert QQ.inv(Fraction(3, 4)) == Fraction(4, 3)
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            QQ.inv(QQ.zero)

    def test_characteristic_zero(self):
        assert QQ.char == 0

    def test_instances_compare_equal(self):
        assert Rationals() == QQ
        assert hash(Rationals()) == hash(QQ)


SCALARS = st.one_of(
    st.integers(-40, 40), st.fractions(-40, 40, max_denominator=12)
)


class TestRationalScalarTypes:
    def test_inexact_division_of_ints_is_a_fraction(self):
        third = QQ.div(1, 3)
        assert type(third) is Fraction and third == Fraction(1, 3)
        assert type(QQ.div(-6, 4)) is Fraction
        assert QQ.div(-6, 4) == Fraction(-3, 2)

    def test_exact_division_of_ints_is_an_int(self):
        q = QQ.div(6, -3)
        assert type(q) is int and q == -2

    def test_integral_values_are_ints(self):
        assert type(QQ.zero) is int and type(QQ.one) is int
        assert type(QQ.parse("4/2")) is int and QQ.parse("4/2") == 2
        assert type(QQ.scalar(Fraction(6, 3))) is int
        assert QQ.scalar(Fraction(6, 3)) == 2
        assert type(QQ.parse("-3/6")) is Fraction

    def test_inverse_of_an_int(self):
        assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
        assert type(QQ.inv(4)) is Fraction and QQ.inv(4) == Fraction(1, 4)

    @settings(derandomize=True, max_examples=300)
    @given(a=SCALARS, b=SCALARS)
    def test_ops_agree_with_fraction_arithmetic(self, a, b):
        # a drawn Fraction may be integral, so mixed operands occur
        fa, fb = Fraction(a), Fraction(b)
        pairs = [
            (QQ.add(a, b), fa + fb),
            (QQ.sub(a, b), fa - fb),
            (QQ.mul(a, b), fa * fb),
            (QQ.neg(a), -fa),
            (QQ.scalar(a), fa),
            (QQ.parse(str(a)), fa),
        ]
        if b:
            pairs += [(QQ.div(a, b), fa / fb), (QQ.inv(b), 1 / fb)]
        for got, want in pairs:
            assert type(got) in (int, Fraction)
            assert got == want
        if b and type(a) is int and type(b) is int:
            assert (type(QQ.div(a, b)) is int) == (a % b == 0)


def _random_q(rng):
    """An int or a Fraction, which may be integral."""
    if rng.random() < 0.5:
        return rng.randint(-6, 6)
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def _canonical_q(rng):
    """An int when integral, else a Fraction."""
    return QQ.scalar(_random_q(rng))


def _random_column(rng, rows, draw):
    col = {}
    for i in range(rows):
        if rng.random() < 0.6:
            c = draw(rng)
            if c:
                col[i] = c
    return col


class TestCombine:
    """``combine`` is the entry-by-entry ``sub(a, mul(r, c))``."""

    @staticmethod
    def _expected(field, col, other, r):
        want = dict(col)
        for i, c in other.items():
            new = field.sub(want.get(i, field.zero), field.mul(r, c))
            if new:
                want[i] = new
            else:
                want.pop(i, None)
        return want

    @pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=repr)
    def test_matches_entrywise_arithmetic(self, field):
        rng = random.Random(13)
        if field.char:
            draw = lambda g: field.scalar(g.randint(-9, 9))
        else:
            draw = _canonical_q
        cancelled = 0
        for _ in range(400):
            col = _random_column(rng, 8, draw)
            other = _random_column(rng, 8, draw)
            r = draw(rng)
            if not r:
                r = field.neg(field.one)
            if rng.random() < 0.3 and other:
                # make one entry cancel exactly
                i = rng.choice(sorted(other))
                col[i] = field.mul(r, other[i])
            want = self._expected(field, col, other, r)
            cancelled += len(set(col) - set(want))
            field.combine(col, other, r)
            assert col == want
            assert all(col.values())
        assert cancelled > 50

    def test_rational_entries_are_canonical(self):
        rng = random.Random(17)
        for _ in range(400):
            col = _random_column(rng, 8, _canonical_q)
            other = _random_column(rng, 8, _canonical_q)
            r = _canonical_q(rng) or Fraction(-3, 2)
            QQ.combine(col, other, r)
            for c in col.values():
                assert type(c) in (int, Fraction)
                assert (type(c) is int) == (Fraction(c).denominator == 1)

    def test_integral_fraction_operands(self):
        # integral Fractions, which add/mul may make, still give ints
        col = {0: Fraction(3), 1: Fraction(1, 2)}
        QQ.combine(col, {0: Fraction(1), 1: Fraction(1, 2), 2: 2}, Fraction(2))
        assert col == {0: 1, 1: Fraction(-1, 2), 2: -4}
        assert [type(c) for c in col.values()] == [int, Fraction, int]

    def test_fraction_q_stays_fraction(self):
        col = {0: Fraction(1), 1: Fraction(2)}
        FRACTION_Q.combine(col, {0: Fraction(1), 1: Fraction(1)}, Fraction(1))
        assert col == {1: 1} and type(col[1]) is Fraction


class TestFractionBuilder:
    def test_slot_layout(self):
        # fields._fraction sets these two slots directly
        assert Fraction.__slots__ == ("_numerator", "_denominator")

    def test_matches_constructor(self):
        rng = random.Random(19)
        checked = 0
        while checked < 500:
            num = rng.randint(-10**6, 10**6)
            den = rng.randint(2, 10**6)
            if gcd(num, den) != 1:
                continue
            checked += 1
            got, want = _fraction(num, den), Fraction(num, den)
            assert type(got) is Fraction
            assert got == want and hash(got) == hash(want)
            assert repr(got) == repr(want) and str(got) == str(want)
            assert (got.numerator, got.denominator) == (num, den)
            other = Fraction(rng.randint(-50, 50), rng.randint(1, 50))
            assert got + other == want + other
            assert got * other == want * other
            assert got - 1 == want - 1 and -got == -want
            assert (got < other) == (want < other)

    def test_division(self):
        rng = random.Random(23)
        for _ in range(500):
            a, b = _random_q(rng), _random_q(rng)
            if not b:
                b = -rng.randint(1, 6)
            got = QQ.div(a, b)
            want = Fraction(a) / b
            assert got == want
            assert (type(got) is int) == (want.denominator == 1)
            if type(got) is Fraction:
                assert got.denominator > 1
                assert gcd(got.numerator, got.denominator) == 1
        assert QQ.div(Fraction(3, 4), Fraction(-9, 8)) == Fraction(-2, 3)
        assert type(QQ.div(Fraction(3, 4), Fraction(-3, 8))) is int


def _outcome(parse, text):
    """``parse(text)``, or the class of the exception it raises."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as e:
        return type(e)


class TestRationalParse:
    EDGE_TEXTS = [
        "-0", "0/5", "007", "1/0", "3/-4", "+3", "1_0", "1.5", "1e3",
        "-0/0", "-12/0", "-6/4", "6/-4", "-", "/", "3/", "/4", "--3",
        "-/4", "1/2/3", "", " 3", "3 ", "٣", "3/٤", "²", "00/007",
    ]

    def _assert_same(self, text):
        got = _outcome(QQ.parse, text)
        want = _outcome(lambda t: _canon(Fraction(t)), text)
        # a scalar of the same type, or the same exception class
        assert type(got) is type(want) and got == want, text
        if type(got) is Fraction:
            assert got.denominator > 1, text
            assert gcd(got.numerator, got.denominator) == 1, text

    def test_edge_texts(self):
        for text in self.EDGE_TEXTS:
            self._assert_same(text)
        with pytest.raises(ZeroDivisionError, match=r"^Fraction\(-12, 0\)$"):
            QQ.parse("-12/0")

    def test_seeded_texts_match_fraction(self):
        rng = random.Random(29)
        alphabet = "0123456789-/+._e "
        for _ in range(3000):
            kind = rng.randrange(3)
            if kind == 0:
                # well-formed -digits or -digits/digits, zero denominators too
                text = rng.choice(["", "-"]) + str(rng.randint(0, 10**9))
                if rng.random() < 0.7:
                    text += "/" + "0" * rng.randrange(2) + str(
                        rng.randint(0, 10**6)
                    )
            elif kind == 1:
                text = "".join(
                    rng.choice(alphabet) for _ in range(rng.randint(1, 6))
                )
            else:
                # a well-formed text with one character changed
                text = list(f"{rng.randint(-999, 999)}/{rng.randint(1, 999)}")
                text[rng.randrange(len(text))] = rng.choice(alphabet)
                text = "".join(text)
            self._assert_same(text)


FRACTION_Q = FractionQ()


@pytest.fixture
def inexact_divisions(monkeypatch):
    """Records each ``Rationals.div`` of two ints that gave a Fraction."""
    seen = []
    base = Rationals.div

    def div(self, a, b):
        q = base(self, a, b)
        if type(a) is int and type(b) is int and type(q) is Fraction:
            seen.append((a, b))
        return q

    monkeypatch.setattr(Rationals, "div", div)
    return seen


def over(field, m):
    """``m`` with every entry coerced by ``field.scalar``."""
    cols = [{i: field.scalar(c) for i, c in col.items()} for col in m.cols]
    return GradedMatrix(field, m.source, m.target, cols)


def morphism_over(field, f):
    src = Presentation(field, over(field, f.src.incl))
    dst = Presentation(field, over(field, f.dst.incl))
    return PresentationMorphism(src, dst, over(field, f.phi))


class TestIntFastPath:
    """``QQ`` and ``FractionQ`` agree.

    The kernel, image and SNF cases each divide two ints inexactly;
    stream chains start at +-1, and the seeded streams never do.
    """

    def test_free_kernel(self, inexact_divisions):
        rng = random.Random(71)
        for _ in range(80):
            m = random_graded_matrix(QQ, rng)
            assert free_kernel(over(QQ, m)) == free_kernel(over(FRACTION_Q, m))
        assert inexact_divisions

    def test_image(self, inexact_divisions):
        rng = random.Random(72)
        for _ in range(40):
            f = random_valid_morphism(QQ, rng)
            fast = image(morphism_over(QQ, f))
            assert fast == image(morphism_over(FRACTION_Q, f))
        assert inexact_divisions

    def test_snf_form(self, inexact_divisions):
        rng = random.Random(73)
        for _ in range(60):
            p = random_presentation(QQ, rng)
            fast = snf_form(Presentation(QQ, over(QQ, p.incl)))
            slow = snf_form(Presentation(FRACTION_Q, over(FRACTION_Q, p.incl)))
            assert fast.presentation == slow.presentation
            assert fast.to_new == slow.to_new
            assert fast.from_new == slow.from_new
            assert fast.presentation.triples == slow.presentation.triples
        assert inexact_divisions

    def test_stream_replay(self):
        rng = random.Random(74)
        for _ in range(60):
            c = random_filtered_complex(rng)
            order = random_insertion_order(rng, c)
            fast, slow = StreamState(QQ), StreamState(FRACTION_Q)
            for s in order:
                fast, delta = add_simplex(fast, s.vertices, s.birth)
                slow, oracle_delta = add_simplex(slow, s.vertices, s.birth)
                assert delta == oracle_delta
            assert fast.chains == slow.chains
            assert fast.pairing == slow.pairing
            assert current_barcode(fast) == current_barcode(slow)
            assert all(
                type(c) is Fraction
                for chain in slow.chains.values()
                for c in chain.values()
            )


class TestPrimeField:
    def test_rejects_composite_and_small(self):
        for bad in [0, 1, 4, 6, 9, 15, 91]:
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_accepts_primes(self):
        for p in [2, 3, 5, 7, 97, 101, 10**18 + 3]:
            assert PrimeField(p).char == p

    def test_rejects_strong_pseudoprimes(self):
        # the least composites that pass Miller-Rabin on the first 9 and
        # on the first 12 prime bases
        for bad in [3825123056546413051, 318665857834031151167461]:
            with pytest.raises(ValueError, match="not prime"):
                PrimeField(bad)

    def test_modulus_bound(self):
        # the least composite passing all 13 bases, and far beyond it
        for big in [3317044064679887385961981, 10**400]:
            with pytest.raises(ValueError, match="must be below"):
                PrimeField(big)

    def test_scalar_normalizes(self):
        f = PrimeField(7)
        assert f.scalar(10) == 3
        assert f.scalar(-1) == 6

    def test_scalar_rejects_non_integers(self):
        f = PrimeField(5)
        assert f.scalar(Fraction(12, 2)) == 1 and f.scalar(7.0) == 2
        for bad in [Fraction(1, 2), 2.7, -0.5]:
            with pytest.raises(ValueError, match="must be an integer"):
                f.scalar(bad)
        # over Q this presents [0, 1); over Z/5 it must not present a
        # free generator
        with pytest.raises(ValueError, match="must be an integer"):
            Presentation.from_terms(f, [("x", 0)], [[(Fraction(1, 2), 1, "x")]])

    def test_inverse(self):
        f = PrimeField(7)
        for a in range(1, 7):
            assert f.mul(a, f.inv(a)) == f.one
        with pytest.raises(ZeroDivisionError):
            f.inv(0)

    def test_field_axioms_random(self):
        rng = random.Random(11)
        f = PrimeField(13)
        for _ in range(200):
            a = rng.randrange(13)
            b = rng.randrange(13)
            c = rng.randrange(13)
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.sub(a, b) == f.add(a, f.neg(b))
            if b:
                assert f.mul(f.div(a, b), b) == a

    def test_parse_and_format(self):
        f = PrimeField(5)
        assert f.parse("7") == 2
        assert f.format(3) == "3"


class TestFieldFromString:
    def test_rationals(self):
        assert field_from_string("Q") == QQ

    def test_prime_field(self):
        assert field_from_string("Zp:7") == PrimeField(7)

    def test_bad_specs(self):
        for bad in ["R", "Zp:4", "Zp:", "Zp:x", "q", ""]:
            with pytest.raises(ValueError):
                field_from_string(bad)

