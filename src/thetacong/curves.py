"""The theta-congruent curve family E_{n,theta} over Q.

E_{n,theta}: y^2 = x^3 + 2sn*x^2 - (r^2-s^2)n^2*x, where cos(theta) = s/r.
The cubic factors as x * (x - (r-s)n) * (x + (r+s)n), so the full rational
2-torsion is always present.  Points carry exact Fraction coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize, is_prime

Rat = Fraction | int


@dataclass(frozen=True)
class ThetaParams:
    """The angle data (r, s) with cos(theta) = s/r, 0 <= |s| < r, gcd(r,s)=1."""

    r: int
    s: int
    name: str = ""

    def __post_init__(self):
        import math

        if self.r <= 0 or abs(self.s) >= self.r:
            raise ValueError("need 0 <= |s| < r")
        if math.gcd(self.r, self.s) != 1:
            raise ValueError("need gcd(r, s) = 1")

    @property
    def alpha_sq(self) -> int:
        return self.r * self.r - self.s * self.s


PI_3 = ThetaParams(2, 1, "pi/3")
TWO_PI_3 = ThetaParams(2, -1, "2pi/3")

_THETA_BY_NAME = {"pi/3": PI_3, "2pi/3": TWO_PI_3}


def theta_from_name(name: str) -> ThetaParams:
    key = name.strip().lower().replace(" ", "")
    if key not in _THETA_BY_NAME:
        raise ValueError(f"unknown theta {name!r}; use 'pi/3' or '2pi/3'")
    return _THETA_BY_NAME[key]


@dataclass(frozen=True)
class PointQ:
    """A rational point: affine (x, y) or the point at infinity (x is None)."""

    x: Fraction | None = None
    y: Fraction | None = None

    @staticmethod
    def infinity() -> "PointQ":
        return PointQ(None, None)

    @staticmethod
    def affine(x: Rat, y: Rat) -> "PointQ":
        return PointQ(Fraction(x), Fraction(y))

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self) -> str:
        if self.is_infinity:
            return "O"
        return f"({self.x}, {self.y})"


INFINITY = PointQ.infinity()


@dataclass(frozen=True)
class CurveQ:
    """E_{n,theta}: y^2 = x^3 + a2 x^2 + a4 x, a2 = 2sn, a4 = -(r^2-s^2) n^2.
    ValueError unless n >= 1 and bad_primes lists the primes of disc = 64 r^2
    (r^2-s^2)^2 n^6 ascending; the descent reads every place off them."""

    n: int
    theta: ThetaParams
    bad_primes: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        m = 2 * self.theta.r * self.theta.alpha_sq * self.n
        for p in self.bad_primes:
            if not is_prime(p) or m % p:
                raise ValueError(f"bad_primes of {self.label()} hold {p}, which is not a prime of its disc or comes twice")
            while m % p == 0:
                m //= p
        if m != 1 or list(self.bad_primes) != sorted(self.bad_primes):
            raise ValueError(f"bad_primes {self.bad_primes} of {self.label()} miss a prime of its disc or are not ascending")

    @property
    def a2(self) -> int:
        return 2 * self.theta.s * self.n

    @property
    def a4(self) -> int:
        return -self.theta.alpha_sq * self.n * self.n

    @property
    def disc(self) -> int:
        return 16 * self.a4 * self.a4 * (self.a2 * self.a2 - 4 * self.a4)

    def side(self, dual: bool) -> tuple[int, int]:
        """(a, b) of y^2 = x(x^2 + a x + b): (a2, a4) for E, or (-2 a2,
        a2^2 - 4 a4) for its 2-isogenous curve when dual."""
        return (-2 * self.a2, self.a2 * self.a2 - 4 * self.a4) if dual else (self.a2, self.a4)

    @property
    def two_torsion_x(self) -> tuple[int, int, int]:
        """Roots of the cubic: 0, (r-s)n, -(r+s)n."""
        r, s, n = self.theta.r, self.theta.s, self.n
        return (0, (r - s) * n, -(r + s) * n)

    def rhs(self, x: Rat) -> Fraction:
        x = Fraction(x)
        return x * (x * x + self.a2 * x + self.a4)

    def label(self) -> str:
        return f"E_{{{self.n},{self.theta.name}}}"


def build_curve(n: int, theta: ThetaParams) -> CurveQ:
    """Construct E_{n,theta} for squarefree n >= 1."""
    fac = factorize(n)
    if not fac.is_squarefree():
        raise ValueError(f"n = {n} is not squarefree")
    bad = {2, *fac.primes(), *factorize(theta.r * theta.alpha_sq).primes()}
    return CurveQ(n, theta, tuple(sorted(bad)))


def is_on_curve(P: PointQ, E: CurveQ) -> bool:
    if P.is_infinity:
        return True
    return P.y * P.y == E.rhs(P.x)


def negate(P: PointQ) -> PointQ:
    if P.is_infinity:
        return P
    return PointQ(P.x, -P.y)


def add(P: PointQ, Q: PointQ, E: CurveQ) -> PointQ:
    """Chord-tangent addition; coordinates stay in lowest terms (Fraction)."""
    if P.is_infinity:
        return Q
    if Q.is_infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return INFINITY
        # doubling; y != 0 here since y = -y would have matched above
        lam = (3 * P.x * P.x + 2 * E.a2 * P.x + E.a4) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - E.a2 - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return PointQ(x3, y3)


def scalar_mul(k: int, P: PointQ, E: CurveQ) -> PointQ:
    if k < 0:
        return scalar_mul(-k, negate(P), E)
    R = INFINITY
    Q = P
    while k:
        if k & 1:
            R = add(R, Q, E)
        Q = add(Q, Q, E)
        k >>= 1
    return R


_MAX_TORSION_ORDER = 12


def is_torsion(P: PointQ, E: CurveQ) -> bool:
    """True iff P has finite order.

    By Mazur's theorem rational torsion has order at most 12, so checking the
    first 12 multiples decides the question exactly.  Curves in this
    family usually have torsion exactly (Z/2)^2, but a few tiny n (such as
    n = 1) carry points of order 4 that would otherwise masquerade as rank
    evidence.
    """
    if P.is_infinity:
        return True
    Q = P
    for _ in range(_MAX_TORSION_ORDER - 1):
        Q = add(Q, P, E)
        if Q.is_infinity:
            return True
    return False


def two_torsion(E: CurveQ) -> list[PointQ]:
    """The four 2-torsion points: O and the three (e_i, 0)."""
    return [INFINITY] + [PointQ.affine(e, 0) for e in E.two_torsion_x]


def has_good_reduction(E: CurveQ, p: int) -> bool:
    """For a prime p; E.bad_primes is the support of E.disc."""
    return p not in E.bad_primes


def point_to_strings(P: PointQ) -> list[str]:
    """Serialize as ["num/den", "num/den"] with unit denominators elided."""
    return [] if P.is_infinity else [str(P.x), str(P.y)]


def point_from_strings(coords: list[str]) -> PointQ:
    if not coords:
        return INFINITY
    return PointQ(Fraction(coords[0]), Fraction(coords[1]))
