"""Exact scalar arithmetic over a coefficient field, and monomials in k[t].

Every computation in this package is homogeneous, so the only ring
elements that ever appear are monomials c*t^e with c in the ground
field k.  Two fields are supported: the rationals (exact ``Fraction``
scalars) and the prime fields Z/p (ints reduced mod p).  There is no
floating point anywhere.

    >>> F = field_from_string("Zp:5")
    >>> F.inv(F.scalar(2))
    3
    >>> Q = field_from_string("Q")
    >>> Q.add(Q.parse("1/2"), Q.parse("1/3"))
    Fraction(5, 6)
    >>> Monomial(Q.scalar(3), 2)
    Monomial(3, 2)
    >>> Monomial(Q.zero, 5)
    Monomial(0, 0)

Because all elements are homogeneous, a nonzero monomial divides
another exactly when its exponent is not larger, so a general extended
Euclidean algorithm is never needed.
"""

from __future__ import annotations

from fractions import Fraction


class Rationals:
    """The field of rational numbers; scalars are ``fractions.Fraction``."""

    __slots__ = ()

    char = 0
    zero = Fraction(0)
    one = Fraction(1)

    def scalar(self, value) -> Fraction:
        """Coerce an int (or anything Fraction accepts) to a scalar."""
        return Fraction(value)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        if not b:
            raise ZeroDivisionError("division by zero")
        return a / b

    def parse(self, text: str) -> Fraction:
        return Fraction(text)

    def format(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """The prime field Z/p; scalars are ints in the range [0, p).

    >>> F = PrimeField(5)
    >>> F.mul(F.scalar(3), F.scalar(4))
    2
    >>> F.neg(F.one)
    4
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def scalar(self, value) -> int:
        return int(value) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

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


class Monomial:
    """A homogeneous element c*t^e of k[t].

    The zero monomial is canonical: a zero coefficient forces exponent 0.
    Sums of monomials only make sense at equal exponents, so no general
    polynomial type exists in this package.
    """

    __slots__ = ("coeff", "exponent")

    def __init__(self, coeff, exponent: int):
        if exponent < 0:
            raise ValueError(f"monomial exponent must be >= 0, got {exponent}")
        if not coeff:
            exponent = 0
        self.coeff = coeff
        self.exponent = exponent

    @property
    def is_zero(self) -> bool:
        return not self.coeff

    def __eq__(self, other):
        return (
            isinstance(other, Monomial)
            and self.coeff == other.coeff
            and self.exponent == other.exponent
        )

    def __hash__(self):
        return hash((self.coeff, self.exponent))

    def __repr__(self):
        return f"Monomial({self.coeff}, {self.exponent})"
