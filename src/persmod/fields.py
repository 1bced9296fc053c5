"""Exact scalar arithmetic over a coefficient field.

Every computation in this package is homogeneous, so a ring element
c*t^e of k[t] is stored as its scalar c in the ground field k, and the
degrees imply e.  Two fields are supported: the rationals and the prime
fields Z/p (ints reduced mod p).  A rational scalar is an ``int`` while
it is integral and a ``fractions.Fraction`` once a division leaves a
remainder, so chains that start at +-1 run on int arithmetic.  There
is no floating point anywhere.

Every field has one column operation, ``combine(col, other, r)``: in
place, the sparse column ``col`` (a dict from row to nonzero scalar)
becomes ``col - r*other``, and entries that cancel are dropped.  Every
column update of the reductions and of the graded Smith normal form
goes through it.  Over Z/p it gives ints in [0, p).  Over Q it keeps
the canonical form: on canonical scalars an ``int`` when an entry is
integral and a ``Fraction`` otherwise.

    >>> F = field_from_string("Zp:5")
    >>> F.inv(F.scalar(2))
    3
    >>> Q = field_from_string("Q")
    >>> Q.add(Q.parse("1/2"), Q.parse("1/3"))
    Fraction(5, 6)
    >>> Q.div(6, -3), Q.div(1, 3)
    (-2, Fraction(1, 3))
    >>> col = {0: 1, 1: Q.parse("1/2"), 2: 3}
    >>> Q.combine(col, {0: 2, 1: Q.parse("1/4"), 3: 1}, Q.parse("1/2"))
    >>> col
    {1: Fraction(3, 8), 2: 3, 3: Fraction(-1, 2)}
    >>> col = {0: 4, 1: 2}
    >>> F.combine(col, {0: 2, 2: 1}, 2)
    >>> col
    {1: 2, 2: 3}

Because all elements are homogeneous, a nonzero c*t^e divides another
exactly when its exponent is not larger, so a general extended
Euclidean algorithm is never needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def _canon(q: Fraction):
    """A rational as an ``int`` when it is integral, else unchanged."""
    return q.numerator if q.denominator == 1 else q


_new = object.__new__


def _fraction(num: int, den: int) -> Fraction:
    """The ``Fraction`` num/den of a coprime pair with den > 1.

    Sets the two slots of a bare ``Fraction`` instead of calling the
    constructor, which would run a second gcd and its type dispatch on
    a pair that is already reduced.  ``tests/test_fields.py`` pins the
    slot layout this relies on.
    """
    q = _new(Fraction)
    q._numerator = num
    q._denominator = den
    return q


def _quotient(num: int, den: int):
    """num/den, for den > 0, in canonical form, reduced by one gcd."""
    g = gcd(num, den)
    if g == den:
        return num // g
    return _fraction(num // g, den // g)


class Rationals:
    """The field of rational numbers.

    A scalar is an ``int`` while it is integral and a ``Fraction``
    otherwise; ``scalar``, ``parse`` and ``div`` of two ints return
    that canonical form.  ``add``, ``sub``, ``mul`` and ``neg`` are
    the plain operators: a result they make from a ``Fraction`` may be
    an integral ``Fraction``, which compares, hashes and prints like
    the ``int``.

    ``combine(col, other, r)``, the one column operation, makes each
    entry ``a - r*c`` of ``col - r*other`` with the plain operators
    when ``a``, ``r`` and ``c`` are ints, and otherwise from the raw
    numerators and denominators with one gcd: an ``int`` if the result
    is integral and a reduced ``Fraction`` if not.  ``div`` builds its
    ``Fraction`` results the same way.
    """

    __slots__ = ()

    char = 0
    zero = 0
    one = 1

    def scalar(self, value):
        """Coerce an int (or anything Fraction accepts) to a scalar."""
        if type(value) is int:
            return value
        if type(value) is Fraction:
            return _canon(value)
        return _canon(Fraction(value))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def combine(self, col, other, r):
        """In place: col -= r * other, dropping zeros."""
        get = col.get
        rn = r.numerator
        rd = r.denominator
        for i, c in other.items():
            a = get(i, 0)
            if rd == 1 and type(c) is int and type(a) is int:
                new = a - rn * c
            else:
                if type(a) is int:
                    an, ad = a, 1
                else:
                    an, ad = a._numerator, a._denominator
                if type(c) is int:
                    cn, d = c, rd
                else:
                    cn, d = c._numerator, rd * c._denominator
                num = an * d - rn * cn * ad
                den = ad * d
                g = gcd(num, den)
                if g != den:
                    col[i] = _fraction(num // g, den // g)
                    continue
                new = num // g
            if new:
                col[i] = new
            else:
                col.pop(i, None)

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        # Rationals.div, not self.div: a subclass that wraps div (to
        # count divisions, say) must not see inverses as divisions
        return Rationals.div(self, 1, a)

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        if type(a) is int and type(b) is int:
            # never a / b: on ints that is a float
            q, r = divmod(a, b)
            if not r:
                return q
            num, den = a, b
        else:
            num = a.numerator * b.denominator
            den = a.denominator * b.numerator
        if den < 0:
            num, den = -num, -den
        return _quotient(num, den)

    def parse(self, text: str):
        # -digits and -digits/digits in ASCII skip Fraction's regex and
        # its second normalisation; every other text goes to Fraction
        num, slash, den = text.partition("/")
        if (
            text.isascii()
            and (num[1:] if num[:1] == "-" else num).isdigit()
            and (not slash or den.isdigit())
        ):
            n = int(num)
            if not slash:
                return n
            d = int(den)
            if not d:
                raise ZeroDivisionError(f"Fraction({n}, 0)")
            return _quotient(n, d)
        return _canon(Fraction(text))

    def format(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


# Miller-Rabin on these bases is exact below the bound: the bound is the
# least composite that passes them all (Sorenson and Webster, 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n below the exact bound."""
    if n < 2 or any(n % b == 0 for b in _MILLER_RABIN_BASES):
        return n in _MILLER_RABIN_BASES
    s = ((n - 1) & -(n - 1)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    d = (n - 1) >> s
    return all(
        pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
        for b in _MILLER_RABIN_BASES
    )


class PrimeField:
    """The prime field Z/p; scalars are ints in the range [0, p).

    >>> F = PrimeField(5)
    >>> F.mul(F.scalar(3), F.scalar(4))
    2
    >>> F.neg(F.one)
    4
    """

    __slots__ = ("p",)

    zero = 0
    one = 1

    def __init__(self, p: int):
        if p >= _MILLER_RABIN_EXACT_BELOW:
            limit = _MILLER_RABIN_EXACT_BELOW
            raise ValueError(f"prime modulus must be below {limit}")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    def scalar(self, value) -> int:
        """Reduce an integer (or anything integral that Fraction
        accepts) mod p; a value that is not an integer is an error."""
        if type(value) is int:
            return value % self.p
        q = Fraction(value)
        if q.denominator != 1:
            raise ValueError(f"scalar of {self!r} must be an integer, got {value!r}")
        return q.numerator % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def combine(self, col, other, r):
        """In place: col -= r * other, dropping zeros."""
        p = self.p
        get = col.get
        for i, c in other.items():
            new = (get(i, 0) - r * c) % p
            if new:
                col[i] = new
            else:
                col.pop(i, None)

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def parse(self, text: str) -> int:
        return int(text) % self.p

    def format(self, a) -> str:
        return str(a)

    def __repr__(self):
        return f"Zp:{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Zp", self.p))


#: Shared instance of the rational field.
QQ = Rationals()


def field_from_string(spec: str):
    """Build a field from a selection string: ``Q`` or ``Zp:<p>``.

    >>> field_from_string("Q")
    Q
    >>> field_from_string("Zp:7")
    Zp:7
    """
    if spec == "Q":
        return QQ
    if spec.startswith("Zp:"):
        try:
            p = int(spec[3:])
        except ValueError:
            raise ValueError(f"bad prime in field spec {spec!r}") from None
        return PrimeField(p)
    raise ValueError(f"unknown field spec {spec!r} (expected 'Q' or 'Zp:<p>')")
