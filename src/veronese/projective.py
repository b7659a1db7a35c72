"""Exact scalars over Q and prime fields, and projective points.

Rational arithmetic is entrusted to fractions.Fraction (always reduced,
positive denominator).  Prime-field elements are Fp wrappers around a
residue in [0, p) with operator arithmetic, so generic code can mix the two
backends freely; there is deliberately no floating point anywhere.

A ProjectivePoint is an immutable coordinate tuple over one field with at
least one nonzero entry, coerced into the field when the point is built.
Its canonical representative scales the first nonzero coordinate to 1,
which makes exact set operations on points possible (plain point
equality compares canonical tuples).  integer_coords reads a point as
plain ints, the form the membership test, the embedding and the chain
identities compute on.  _search is the one enumeration of the canonical
points of P^m(F_q).
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from random import Random

from .errors import ContractError, Frozen, InvalidPointError


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin with bases 2..37, exact for p < 2**64.
    Larger p raise ContractError: those bases pass composites such as
    318665857834031151167461."""
    if p >= 2**64:
        raise ContractError(f"modulus too large: {p.bit_length()} bits; primality is decided only below 2**64")
    if p < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if p % small == 0:
            return p == small
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class Fp:
    """An element of the prime field with p elements."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        object.__setattr__(self, "value", value % p)
        object.__setattr__(self, "p", p)

    def __setattr__(self, *_):
        raise AttributeError("Fp elements are immutable")

    def __reduce__(self):  # pickle and copy through __init__, not __setattr__
        return Fp, (self.value, self.p)

    def _lift(self, other) -> "Fp":
        if isinstance(other, Fp):
            if other.p != self.p:
                raise ContractError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else Fp(self.value + other.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else Fp(self.value - other.value, self.p)

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else Fp(other.value - self.value, self.p)

    def __mul__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else Fp(self.value * other.value, self.p)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return Fp(pow(self.value, k, self.p), self.p)

    def __truediv__(self, other):
        other = self._lift(other)
        return NotImplemented if other is NotImplemented else self * other.inverse()

    def __neg__(self):
        return Fp(-self.value, self.p)

    def inverse(self) -> "Fp":
        if self.value == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.p}")
        return Fp(pow(self.value, self.p - 2, self.p), self.p)

    def __bool__(self) -> bool:
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, int):
            return self.value == other % self.p
        return isinstance(other, Fp) and self.p == other.p and self.value == other.value

    def __hash__(self):
        return hash((self.value, self.p))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"Fp({self.value}, {self.p})"


Scalar = Fraction | Fp

# CPython's default limit on int <-> str conversion (sys.int_info)
MAX_DIGITS = 4300


class RationalField:
    """The field of exact rationals; a stateless singleton (QQ)."""

    name = "rational"

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def coerce(self, v) -> Fraction:
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise ContractError(f"cannot interpret {v!r} as a rational")

    def parse_scalar(self, text: str) -> Fraction:
        # Fraction expands exponent notation exactly, in time that grows
        # fast with the exponent; refuse what could not be printed anyway.
        mantissa, e, exponent = text.strip().lower().partition("e")
        try:
            size = sum(map(str.isdigit, mantissa)) + abs(int(exponent)) if e else 0
        except ValueError:
            size = 0  # malformed; Fraction reports it
        if size > MAX_DIGITS:
            raise ContractError(f"bad rational {text!r}: expands to more than {MAX_DIGITS} digits")
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ContractError(f"bad rational {text!r}: {exc}") from None

    def format_scalar(self, x: Fraction) -> str:
        try:
            return str(x)
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise ContractError("rational too long to print") from None

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "QQ"


class PrimeField(Frozen):
    """The field F_p for a prime int p; primality is checked at
    construction.  Every point hash and comparison over F_p hashes or
    compares its field, so both are specialized."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ContractError(f"a field size must be an int, got {p!r}")
        if not is_prime(p):
            raise ContractError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.p == other.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p,))

    @property
    def name(self) -> str:
        return f"fp:{self.p}"

    @property
    def zero(self) -> Fp:
        return Fp(0, self.p)

    @property
    def one(self) -> Fp:
        return Fp(1, self.p)

    def from_int(self, k: int) -> Fp:
        return Fp(k, self.p)

    def coerce(self, v) -> Fp:
        if isinstance(v, Fp):
            if v.p != self.p:
                raise ContractError(f"element of F_{v.p} used in F_{self.p}")
            return v
        if isinstance(v, int):
            return Fp(v, self.p)
        raise ContractError(f"cannot interpret {v!r} as an element of F_{self.p}")

    def parse_scalar(self, text: str) -> Fp:
        try:
            return Fp(int(text.strip()), self.p)
        except ValueError as exc:
            raise ContractError(f"bad residue {text!r}: {exc}") from None

    def format_scalar(self, x: Fp) -> str:
        return str(x.value)

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

Field = RationalField | PrimeField


def field_from_name(name: str) -> Field:
    """Parse a CLI field designator: "rational" or "fp:<prime>"."""
    if name == "rational":
        return QQ
    if name.startswith("fp:"):
        try:
            p = int(name[3:])
        except ValueError:
            raise ContractError(f"bad field designator {name!r}") from None
        return PrimeField(p)
    raise ContractError(f"bad field designator {name!r}")


class ProjectivePoint(Frozen):
    """A point of P^m: m+1 exact coordinates over one field, not all zero.

    Construction coerces each coordinate through field.coerce: ints become
    field elements, and anything else that is no element of the field, such
    as a float, raises ContractError, as does a field that is neither QQ
    nor a PrimeField.  Equality compares the field and the coordinates
    exactly (useful for sets of canonical points); use proj_eq for
    equality up to a scalar.  Searches build and hash points by the
    thousand, so construction, equality and hashing are specialized.
    """

    __slots__ = ("field", "coords")

    def __init__(self, field: Field, coords: tuple[Scalar, ...]):
        if not isinstance(field, (RationalField, PrimeField)):
            raise ContractError(f"not a field: {field!r}")
        coords = tuple(map(field.coerce, coords))
        if len(coords) == 0:
            raise InvalidPointError("a point needs at least one coordinate")
        if not any(coords):
            raise InvalidPointError("all coordinates are zero")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.field, self.coords) == (other.field, other.coords)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.coords))

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    def __str__(self):
        return format_point(self)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, k: int) -> Scalar:
        return self.coords[k]


def point(field: Field, values) -> ProjectivePoint:
    """Build a point from any iterable of coordinates."""
    return ProjectivePoint(field, tuple(values))


def normalize(p: ProjectivePoint) -> ProjectivePoint:
    """Scalar multiple of p whose first nonzero coordinate is 1; idempotent."""
    lead = next(c for c in p.coords if c)
    if lead == p.field.one:
        return p
    inv = lead ** -1
    return ProjectivePoint(p.field, tuple(c * inv for c in p.coords))


def integer_coords(x: ProjectivePoint) -> tuple[list[int], int]:
    """x's coordinates as plain ints, with the characteristic c of its field.

    Over F_c they are the residues, to be read mod c.  Over Q (c = 0) they
    are the coordinates scaled by L, the lcm of their denominators: the
    same projective point, so a homogeneous polynomial vanishes at one
    exactly when it vanishes at the other, and an identity between two
    homogeneous polynomials of one degree holds at both or at neither.
    """
    if isinstance(x.field, PrimeField):
        return [c.value for c in x.coords], x.field.p
    L = lcm(*(c.denominator for c in x.coords))
    return [c.numerator * (L // c.denominator) for c in x.coords], 0


def _proportional(u: list[int], v: list[int], p: int) -> bool:
    """Whether the int vectors u and v of one length name one projective
    point, both read mod p if p.  Each needs a nonzero entry, and over F_p
    entries reduced to [0, p), as integer_coords gives them.

    With k the first index of a nonzero v_k, it checks u_j v_k = v_j u_k
    for every j.  If u = c v these hold.  Conversely u_k is nonzero, or
    every u_j v_k would vanish and u with them, so u = (u_k / v_k) v.
    Nothing is inverted or normalized.
    """
    k = next(k for k, c in enumerate(v) if c)
    a, b = u[k], v[k]
    if p:
        return not any((s * b - t * a) % p for s, t in zip(u, v))
    return all(s * b == t * a for s, t in zip(u, v))


def proj_eq(p: ProjectivePoint, q: ProjectivePoint) -> bool:
    """Projective equality: equal canonical representatives."""
    if p.field != q.field:
        raise ContractError(f"field mismatch: {p.field!r} vs {q.field!r}")
    if p.dim != q.dim:
        raise ContractError(f"dimension mismatch: {p.dim} vs {q.dim}")
    return normalize(p).coords == normalize(q).coords


def _search(N: int, q: int, quads=()):
    """Stream the canonical residue vectors of P^N(F_q) at which every quad
    (a, b, c, e) vanishes, v_a v_b = v_c v_e mod q: leading 1 at position N
    first, down to position 0, lexicographic within a position.

    A depth-first search over v_0, ..., v_N checks each quad once its top
    index is assigned, so it cuts a prefix only when a quad fails and stays
    exhaustive.  Until the leading 1 is placed a coordinate takes only 0 or
    1, which with 0 tried first gives the order above."""
    by_top = [[] for _ in range(N + 1)]
    for quad in quads:
        by_top[max(quad)].append(quad)
    v = [0] * (N + 1)

    # every quad in by_top[k] reads only v[0..k], so stale entries beyond k
    # left by an earlier branch are never seen
    def vanishes(k: int) -> bool:
        for ia, ib, ic, ie in by_top[k]:
            if (v[ia] * v[ib] - v[ic] * v[ie]) % q:
                return False
        return True

    # iterative, so the depth N + 1 is not bounded by the recursion limit;
    # v[k] holds the value under trial at depth k, starting below 0, and
    # lead is where the leading 1 was last placed: v[0..k-1] is all zero
    # exactly while lead >= k, so a stale lead needs no reset
    lead = N + 1
    k = 0
    v[0] = -1
    while k >= 0:
        if v[k] == (q - 1 if k > lead else 1):
            k -= 1
            continue
        v[k] += 1
        if v[k] == 1 and lead > k:
            lead = k
        if vanishes(k):
            if k < N:
                k += 1
                v[k] = -1
            elif lead <= N:
                yield tuple(v)


def enumerate_projective_points(m: int, q: int | PrimeField):
    """Stream every point of P^m(F_q) exactly once, canonically, in the
    order of _search; (q^(m+1) - 1)/(q - 1) points in total."""
    field = q if isinstance(q, PrimeField) else PrimeField(q)
    if m < 0:
        raise ContractError(f"ambient dimension must be >= 0, got {m}")
    for v in _search(m, field.p):
        yield ProjectivePoint(field, v)


def count_projective_points(m: int, q: int) -> int:
    """|P^m(F_q)| = (q^(m+1) - 1) / (q - 1); ContractError for q < 2."""
    if q < 2:
        raise ContractError(f"a finite field has at least 2 elements, got q={q}")
    return (q ** (m + 1) - 1) // (q - 1)


def format_point(p: ProjectivePoint) -> str:
    inner = " : ".join(p.field.format_scalar(c) for c in p.coords)
    return f"[{inner}]"


def parse_point(field: Field, text: str) -> ProjectivePoint:
    """Parse "[a : b : c]"; rational entries may be "p/q", prime-field
    entries are decimal residues."""
    body = text.strip() if isinstance(text, str) else ""
    if not (body.startswith("[") and body.endswith("]")):
        raise ContractError(f"point must be bracketed, got {text!r}")
    parts = body[1:-1].split(":")
    if not parts or any(not s.strip() for s in parts):
        raise ContractError(f"malformed point {text!r}")
    return ProjectivePoint(field, tuple(field.parse_scalar(s) for s in parts))


def random_point(rng: Random, field: Field, dim: int, lead_zeros: int = 0) -> ProjectivePoint:
    """Seeded random point of P^dim with a prescribed leading-zero pattern.

    The first lead_zeros coordinates are 0, the next is forced nonzero, and
    the rest are free (zeros allowed).  Rational entries use numerators and
    denominators in [-99, 99] with zero denominators excluded.
    """
    if not 0 <= lead_zeros <= dim:
        raise ContractError(f"lead_zeros {lead_zeros} out of range for dim {dim}")

    def draw(nonzero: bool) -> Scalar:
        if isinstance(field, PrimeField):
            lo = 1 if nonzero else 0
            return Fp(rng.randint(lo, field.p - 1), field.p)
        num = rng.randint(1, 99) * rng.choice((1, -1)) if nonzero else rng.randint(-99, 99)
        den = rng.randint(1, 99) * rng.choice((1, -1))
        return Fraction(num, den)

    coords = [field.zero] * lead_zeros
    coords.append(draw(nonzero=True))
    coords.extend(draw(nonzero=False) for _ in range(dim - lead_zeros))
    return ProjectivePoint(field, tuple(coords))
