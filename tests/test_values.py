"""The hand-written value classes against frozen dataclass twins.

Nine of the ten value classes of the package are the tuples of their
fields (errors.FrozenTuple).  ProjectivePoint is a plain class with
__slots__, since iterating or indexing a point reads its coordinates.
Each twin below is the frozen dataclass definition it replaced, validation
included, under the same name, so reprs can be compared as text.  Field values are drawn from small domains, so that
equal and unequal pairs both occur, and nested values are the package's
own objects in both versions.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError, dataclass, fields

import pytest
from hypothesis import given, strategies as st

from veronese import certificates, matrix, multiindex, oracle, projective
from veronese.errors import ContractError, FrozenTuple, InvalidPointError
from veronese.multiindex import MultiIndex


@dataclass(frozen=True)
class VeroneseContext:
    n: int
    d: int

    def __post_init__(self):
        if self.n < 0:
            raise ContractError(f"n must be >= 0, got {self.n}")
        if self.d < 1:
            raise ContractError(f"d must be >= 1, got {self.d}")


@dataclass(frozen=True)
class SymbolicMatrix:
    ctx: object
    entries: tuple

    def __post_init__(self):
        if len(set(map(len, self.entries))) > 1:
            raise ContractError(f"ragged grid: row lengths {[len(row) for row in self.entries]}")


@dataclass(frozen=True, slots=True)
class Binomial2:
    pos: tuple
    neg: tuple

    def __post_init__(self):
        a, b = self.pos
        c, e = self.neg
        if not (len(a) == len(b) == len(c) == len(e)):
            raise ContractError("mixed-length multi-indices in a binomial")
        if [x + y for x, y in zip(a, b)] != [x + y for x, y in zip(c, e)]:
            raise ContractError(f"unbalanced binomial: {a}*{b} vs {c}*{e}")


@dataclass(frozen=True)
class PrimeField:
    p: int

    def __post_init__(self):
        if not projective.is_prime(self.p):
            raise ContractError(f"{self.p} is not prime")

    def __repr__(self):
        return f"GF({self.p})"


@dataclass(frozen=True)
class ProjectivePoint:
    field: object
    coords: tuple

    def __post_init__(self):
        if not isinstance(self.field, (projective.RationalField, projective.PrimeField)):
            raise ContractError(f"not a field: {self.field!r}")
        coords = tuple(map(self.field.coerce, self.coords))
        object.__setattr__(self, "coords", coords)
        if len(coords) == 0:
            raise InvalidPointError("a point needs at least one coordinate")
        if not any(coords):
            raise InvalidPointError("all coordinates are zero")


@dataclass(frozen=True)
class EqualityReport:
    ctx: object
    q: int
    kind: str
    variety_count: int
    image_count: int
    expected_count: int
    equal: bool
    witnesses: tuple


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    diagnostic: str | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class PropagationStep:
    target: object
    minor: object
    prerequisites: tuple


@dataclass(frozen=True)
class ZeroPropagationCertificate:
    ctx: object
    steps: tuple


@dataclass(frozen=True)
class RewriteChain:
    ctx: object
    chart: int
    target: object
    steps: tuple


REAL = {
    VeroneseContext: multiindex.VeroneseContext,
    SymbolicMatrix: matrix.SymbolicMatrix,
    Binomial2: matrix.Binomial2,
    PrimeField: projective.PrimeField,
    ProjectivePoint: projective.ProjectivePoint,
    EqualityReport: oracle.EqualityReport,
    VerifyResult: certificates.VerifyResult,
    PropagationStep: certificates.PropagationStep,
    ZeroPropagationCertificate: certificates.ZeroPropagationCertificate,
    RewriteChain: certificates.RewriteChain,
}

small = st.integers(0, 2)
degrees = st.integers(1, 2)
indices = st.tuples(small, small, small).map(MultiIndex)
contexts = st.builds(multiindex.VeroneseContext, small, degrees)
QUADRICS = matrix.sorted_binomials(matrix.toric_quadrics(multiindex.VeroneseContext(2, 2)))
binomials = st.sampled_from(QUADRICS[:4])
pairs = st.sampled_from(QUADRICS[:3]).flatmap(
    lambda b: st.sampled_from([(b.pos, b.neg), (b.neg, b.pos)])
)
field_values = st.sampled_from([projective.QQ, projective.PrimeField(2), projective.PrimeField(3)])
coordinates = st.tuples(st.just(1), st.integers(-2, 2), st.integers(-2, 2))
points = st.builds(projective.ProjectivePoint, field_values, coordinates)


def tuples_of(values, min_size=0, max_size=2):
    return st.lists(values, min_size=min_size, max_size=max_size).map(tuple)


# rectangular grids: rows of one length, which SymbolicMatrix requires
grids = st.integers(0, 2).flatmap(lambda cols: tuples_of(tuples_of(indices, cols, cols)))


# positional constructor arguments per class
ARGUMENTS = {
    VeroneseContext: st.tuples(small, degrees),
    SymbolicMatrix: st.tuples(contexts, grids),
    Binomial2: pairs,
    PrimeField: st.tuples(st.sampled_from([2, 3, 101])),
    ProjectivePoint: st.tuples(field_values, coordinates),
    EqualityReport: st.tuples(
        contexts, st.sampled_from([2, 3]), st.sampled_from(["veronese-image", "toric-quadrics"]),
        small, small, small, st.booleans(), tuples_of(points),
    ),
    VerifyResult: st.tuples(st.booleans(), st.sampled_from([None, "", "step 0: bad"])),
    PropagationStep: st.tuples(indices, binomials, tuples_of(indices)),
    ZeroPropagationCertificate: st.tuples(
        contexts, tuples_of(st.builds(certificates.PropagationStep, indices, binomials, tuples_of(indices)))
    ),
    RewriteChain: st.tuples(contexts, small, indices, tuples_of(binomials)),
}

TWINS = list(REAL)


def names(twin) -> list[str]:
    return [f.name for f in fields(twin)]


def field_names(real) -> list[str]:
    """A FrozenTuple is the tuple of its fields, named by _fields, and
    leaves __slots__ empty.  The other classes slot their fields."""
    if issubclass(real, tuple):
        assert real.__slots__ == ()
        return list(real._fields)
    return list(real.__slots__)


@pytest.mark.parametrize("twin", TWINS, ids=lambda t: t.__name__)
def test_fields_in_constructor_order(twin):
    assert field_names(REAL[twin]) == names(twin)
    assert REAL[twin].__qualname__ == twin.__qualname__


@pytest.mark.parametrize("twin", TWINS, ids=lambda t: t.__name__)
@given(data=st.data())
def test_same_value_semantics(twin, data):
    real = REAL[twin]
    args1, args2 = data.draw(ARGUMENTS[twin]), data.draw(ARGUMENTS[twin])
    x, y = real(*args1), real(*args2)
    tx, ty = twin(*args1), twin(*args2)
    assert (x == y) is (tx == ty)
    assert (x != y) is (tx != ty)
    assert hash(x) == hash(tx) and hash(y) == hash(ty)
    assert repr(x) == repr(tx)
    assert bool(x) is bool(tx)
    # keywords name the same fields, and a rebuilt value is equal
    assert real(**dict(zip(names(twin), args1))) == x
    # never equal to the plain tuple of its fields
    values = tuple(getattr(tx, name) for name in names(twin))
    assert (x == values) is (tx == values) is False
    assert (x != values) is (tx != values) is True
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.copy(x) == x == copy.deepcopy(x)


@pytest.mark.parametrize("twin", TWINS, ids=lambda t: t.__name__)
@given(data=st.data())
def test_frozen(twin, data):
    args = data.draw(ARGUMENTS[twin])
    x, tx = REAL[twin](*args), twin(*args)
    for name in names(twin):
        assert frozen_messages(x, name) == frozen_messages(tx, name)
    # not compared: the slots dataclass twin raises TypeError here on Python 3.11
    assert frozen_messages(x, "extra") == ("cannot assign to field 'extra'", "cannot delete field 'extra'")
    assert x == REAL[twin](*args)


def frozen_messages(obj, name: str) -> tuple[str, str]:
    with pytest.raises(FrozenInstanceError) as assign:
        setattr(obj, name, None)
    with pytest.raises(FrozenInstanceError) as delete:
        delattr(obj, name)
    return str(assign.value), str(delete.value)


TUPLE_TWINS = [twin for twin in TWINS if twin is not ProjectivePoint]
# the values the generators build in bulk with tuple.__new__
BULK_TWINS = [Binomial2, PropagationStep, RewriteChain]


def test_tuple_twins_are_the_tuple_classes():
    assert [twin for twin in TWINS if issubclass(REAL[twin], tuple)] == TUPLE_TWINS
    assert all(issubclass(REAL[twin], FrozenTuple) for twin in TUPLE_TWINS)


@given(points)
def test_point_iterates_and_indexes_its_coordinates(P):
    # not its fields (field, coords), as a FrozenTuple would
    assert not isinstance(P, tuple)
    assert list(P) == list(P.coords)
    assert all(P[k] == P.coords[k] for k in range(-len(P.coords), len(P.coords)))


@pytest.mark.parametrize("twin", BULK_TWINS, ids=lambda t: t.__name__)
def test_tuple_value_has_no_dict(twin):
    # as built by the public constructor and by the generators' tuple.__new__
    ctx = multiindex.VeroneseContext(2, 3)
    made = {
        Binomial2: QUADRICS,
        PropagationStep: certificates.zero_propagation_certificate(ctx).steps,
        RewriteChain: list(certificates.all_rewrite_chains(ctx)),
    }[twin]
    assert made
    for x in made:
        assert type(x) is REAL[twin]
        assert not hasattr(x, "__dict__")
        assert not hasattr(REAL[twin](*x), "__dict__")


@pytest.mark.parametrize("twin", TUPLE_TWINS, ids=lambda t: t.__name__)
@given(data=st.data())
def test_tuple_value_is_its_field_tuple(twin, data):
    # hashed as the tuple of its fields, yet never equal to it and
    # unordered, as the dataclass twin
    args = tuple(data.draw(ARGUMENTS[twin]))
    x, tx = REAL[twin](*args), twin(*args)
    assert tuple(x) == args and len(x) == len(names(twin))
    assert hash(x) == hash(args) == hash(tx)
    assert x != args and args != x
    assert not x == args
    assert refusal(lambda: x < x)[0] is refusal(lambda: tx < tx)[0] is TypeError
    assert refusal(lambda: x >= x) == refusal(lambda: tx >= tx)
    assert not hasattr(x, "__dict__")


@given(st.booleans(), st.sampled_from([None, "", "step 0: bad"]))
def test_verify_result_default_and_truth(ok, diagnostic):
    assert certificates.VerifyResult(ok).diagnostic is VerifyResult(ok).diagnostic is None
    assert certificates.VerifyResult(ok) == certificates.VerifyResult(ok, None)
    assert bool(certificates.VerifyResult(ok, diagnostic)) is bool(VerifyResult(ok, diagnostic)) is ok


def refusal(make):
    with pytest.raises(Exception) as exc:
        make()
    return type(exc.value), str(exc.value)


m20, m11, m02 = MultiIndex((2, 0)), MultiIndex((1, 1)), MultiIndex((0, 2))


@pytest.mark.parametrize("twin,args", [
    (VeroneseContext, (-1, 2)),
    (VeroneseContext, (1, -2)),
    (VeroneseContext, (1, 0)),
    (SymbolicMatrix, (multiindex.VeroneseContext(1, 2), ((m20, m11), (m02,)))),
    (Binomial2, ((m20, m11), (m20, m20))),
    (Binomial2, ((m20, m02), (m11, MultiIndex((1, 1, 0))))),
    (PrimeField, (9,)),
    (PrimeField, (1,)),
    (ProjectivePoint, (projective.QQ, ())),
    (ProjectivePoint, (projective.QQ, (0, 0))),
    (ProjectivePoint, (projective.PrimeField(3), (3, 6))),
    (ProjectivePoint, ("QQ", (1,))),
    (ProjectivePoint, (projective.QQ, (1, 0.5))),
], ids=repr)
def test_same_refusals(twin, args):
    assert refusal(lambda: REAL[twin](*args)) == refusal(lambda: twin(*args))
