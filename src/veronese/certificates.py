"""Symbolic certificates behind the two halves of the isomorphism proof.

Zero-propagation certificates show the affine charts cover the variety: if
every pure-power coordinate z_{d e_i} vanished at a point satisfying all
2-minors, the recorded cascade of minors would force every coordinate to
vanish, which no projective point allows.  Each step names a target
coordinate and a minor of the shape z_a z_b - z_target^2 whose factor z_a
is already known zero, so the vanishing minor forces the target to zero.

Rewrite chains certify, one coordinate at a time, that composing the
embedding with its chartwise inverse is the identity on the variety: for a
chart i and a degree-d vector m, a chain of minor rewrites turns the
product of chart-column coordinates prod_j z_{(d-1)e_i + e_j}^{m_j} into
z_{d e_i}^{d-1} z_m.  Every minor used keeps three of its four entries on
row i and the column of z_{d e_i}.

Certificates are generated symbolically once per context, independent of
any point; verification is structural (membership, ordering, shape) plus,
for chains, an exact numeric check at a supplied variety point.

Membership is decided in closed form by matrix.is_matrix_minor, without
building the minor set.  Column beta of the matrix holds z_{beta+e_i} on
row i, so the minor on rows i, j and columns beta, gamma is
z_{beta+e_i} z_{gamma+e_j} - z_{gamma+e_i} z_{beta+e_j}.  Hence a
canonical balanced binomial with degree-d entries is a 2-minor exactly
when an entry on one side and an entry on the other differ by a unit move
e_i - e_j, i != j: given such a pair a = c + e_i - e_j, the columns
beta = a - e_i and gamma = e - e_i realize it.  The verifiers therefore
never call minors2, and the two derivations of "2-minor" check each other.
"""

from __future__ import annotations

from collections import Counter

from .errors import ContractError, Frozen
from .matrix import Binomial2, is_matrix_minor, parse_binomial, require_matrix
from .multiindex import (
    MultiIndex,
    VeroneseContext,
    parse_coordinate_name,
    pure_power,
)
from .morphism import chart_column, coordinate_index
from .projective import ProjectivePoint, integer_coords


class VerifyResult(Frozen):
    """Truthy verification outcome; diagnostic locates the first failure."""

    __slots__ = ("ok", "diagnostic")

    def __init__(self, ok: bool, diagnostic: str | None = None):
        self._assign(ok, diagnostic)

    def __bool__(self) -> bool:
        return self.ok


class PropagationStep(Frozen):
    __slots__ = ("target", "minor", "prerequisites")

    def __init__(self, target: MultiIndex, minor: Binomial2, prerequisites: tuple[MultiIndex, ...]):
        self._assign(target, minor, prerequisites)


class ZeroPropagationCertificate(Frozen):
    """Ordered cascade zeroing every coordinate from vanishing pure powers."""

    __slots__ = ("ctx", "steps")

    def __init__(self, ctx: VeroneseContext, steps: tuple[PropagationStep, ...]):
        self._assign(ctx, steps)

    def targets(self) -> tuple[MultiIndex, ...]:
        return tuple(s.target for s in self.steps)


class RewriteChain(Frozen):
    """Minor rewrites certifying one coordinate identity on chart `chart`.

    The claimed identity: prod_j z_{(d-1)e_i + e_j}^{target_j} equals
    z_{d e_i}^(d-1) * z_target, with i = chart.
    """

    __slots__ = ("ctx", "chart", "target", "steps")

    def __init__(self, ctx: VeroneseContext, chart: int, target: MultiIndex, steps: tuple[Binomial2, ...]):
        self._assign(ctx, chart, target, steps)


def zero_propagation_certificate(ctx: VeroneseContext) -> ZeroPropagationCertificate:
    """Generate the cascade.

    Rows t = 0..n-1 are processed in order; on row t the targets are the
    entries after the pure power z_{d e_t}, i.e. the degree-d vectors
    supported on {t..n} with a positive t-th exponent, in lex-descending
    order.  The minor for target j moves one unit between positions t and
    k (k the last positive exponent):

        z_{j + e_t - e_k} z_{j - e_t + e_k} - z_j^2

    Its first factor precedes j on row t, so it is already zero when the
    step runs.  Entries before the pure power on later rows repeat earlier
    rows and need no step of their own; for d < 2 every coordinate is a
    pure power and the cascade is empty.
    """
    if ctx.d < 2:
        return ZeroPropagationCertificate(ctx, ())
    known = set(ctx.pure_powers())
    steps = []
    for t in range(ctx.n):
        for j in ctx.monomials():
            if j[t] < 1 or any(j[s] for s in range(t)) or j == pure_power(ctx.n, ctx.d, t):
                continue
            k = max(s for s in range(ctx.n + 1) if j[s] > 0)
            first = j.bump(t).drop(k)
            other = j.drop(t).bump(k)
            minor = Binomial2.canonical((first, other), (j, j))
            assert minor is not None
            prereqs = (first,) + ((other,) if other in known else ())
            steps.append(PropagationStep(j, minor, prereqs))
            known.add(j)
    return ZeroPropagationCertificate(ctx, tuple(steps))


def verify_zero_propagation(ctx: VeroneseContext, cert: ZeroPropagationCertificate) -> VerifyResult:
    """Check the cascade: minors genuine, zero-forcing shape, prerequisites
    established before use, and full coordinate coverage."""
    if cert.ctx != ctx:
        return VerifyResult(False, f"certificate built for {cert.ctx}, verified against {ctx}")
    known = set(ctx.pure_powers())
    for pos, step in enumerate(cert.steps):
        where = f"step {pos} (target {step.target.coordinate_name()})"
        if not is_matrix_minor(ctx, step.minor):
            return VerifyResult(False, f"{where}: {step.minor} is not a 2-minor of the matrix")
        t = step.target
        in_pos, in_neg = t in step.minor.pos, t in step.minor.neg
        if in_pos == in_neg:
            return VerifyResult(False, f"{where}: minor must contain the target on exactly one side")
        target_side, other_side = (
            (step.minor.pos, step.minor.neg) if in_pos else (step.minor.neg, step.minor.pos)
        )
        if other_side[0] not in known and other_side[1] not in known:
            return VerifyResult(False, f"{where}: no factor of {_pair_str(other_side)} is known zero")
        partner = target_side[1] if target_side[0] == t else target_side[0]
        if partner != t and partner not in known:
            return VerifyResult(
                False, f"{where}: partner {partner.coordinate_name()} is neither the target nor known zero"
            )
        for p in step.prerequisites:
            if p not in known:
                return VerifyResult(False, f"{where}: prerequisite {p.coordinate_name()} not yet established")
        known.add(t)
    missing = [m for m in ctx.monomials() if m not in known]
    if missing:
        return VerifyResult(
            False, f"coverage incomplete: {len(missing)} coordinates never zeroed, first {missing[0].coordinate_name()}"
        )
    return VerifyResult(True)


def _pair_str(pair) -> str:
    return f"{{{pair[0].coordinate_name()}, {pair[1].coordinate_name()}}}"


def rewrite_chain(ctx: VeroneseContext, i: int, m: MultiIndex) -> RewriteChain:
    """Generate the chain for chart i and coordinate z_m.

    Nonzero exponents of m away from position i are consumed last position
    first.  Each step exchanges one chart-column factor against the working
    coordinate w:

        z_{d e_i} z_{w - e_i + e_j} - z_w z_{(d-1)e_i + e_j}

    which moves a unit of weight from position i to position j.  The first
    consumed factor seeds w, so a chain has sum(m_j, j != i) - 1 steps and
    is empty whenever m_i >= d - 1.
    """
    if ctx.d < 1:
        raise ContractError("chains need d >= 1")
    if not 0 <= i <= ctx.n:
        raise ContractError(f"chart index {i} out of range for n={ctx.n}")
    if len(m) != ctx.n + 1 or m.degree != ctx.d:
        raise ContractError(f"{m} is not a degree-{ctx.d} multi-index in {ctx.n + 1} variables")
    column = chart_column(ctx, i)
    P = column[i]
    steps: list[Binomial2] = []
    w: MultiIndex | None = None
    for j in range(ctx.n, -1, -1):
        if j == i or m[j] == 0:
            continue
        count = m[j]
        if w is None:
            w = column[j]
            count -= 1
        for _ in range(count):
            w_next = w.drop(i).bump(j)
            minor = Binomial2.canonical((P, w_next), (w, column[j]))
            assert minor is not None
            steps.append(minor)
            w = w_next
    return RewriteChain(ctx, i, m, tuple(steps))


def _realizes_row_and_column(ctx: VeroneseContext, i: int, b: Binomial2) -> bool:
    """Whether the minor has a 2x2 realization on row i and the column of
    z_{d e_i}, i.e. three of four entries in that row and column."""
    P = chart_column(ctx, i)[i]
    if P in b.pos:
        p_pair, o_pair = b.pos, b.neg
    elif P in b.neg:
        p_pair, o_pair = b.neg, b.pos
    else:
        return False
    x = p_pair[1] if p_pair[0] == P else p_pair[0]
    for cj, y in ((o_pair[0], o_pair[1]), (o_pair[1], o_pair[0])):
        if cj[i] != ctx.d - 1:
            continue
        rest = [s for s in range(ctx.n + 1) if s != i and cj[s] > 0]
        if len(rest) != 1 or cj[rest[0]] != 1:
            continue
        j = rest[0]
        if y[i] >= 1 and x == y.drop(i).bump(j):
            return True
    return False


def verify_rewrite_chain(ctx: VeroneseContext, chain: RewriteChain, Q: ProjectivePoint) -> VerifyResult:
    """Check a chain structurally and numerically at Q.

    Structural: every minor is genuine, satisfies the row/column rule, and
    the rewrites telescope exactly from the chart-column product to
    z_{d e_i}^(d-1) z_m at the exponent level.  Numeric: the claimed
    identity holds exactly at Q, whose chart must be available.
    """
    res = _chain_structure(ctx, chain)
    if not res:
        return res
    return _chain_identity(ctx, chain, *integer_coords(Q))


def _chain_structure(ctx: VeroneseContext, chain: RewriteChain) -> VerifyResult:
    """The point-free half of verify_rewrite_chain."""
    if chain.ctx != ctx:
        return VerifyResult(False, f"chain built for {chain.ctx}, verified against {ctx}")
    i, m = chain.chart, chain.target
    if not 0 <= i <= ctx.n or len(m) != ctx.n + 1 or m.degree != ctx.d:
        return VerifyResult(False, "chain chart or target malformed for this context")
    require_matrix(ctx)
    column = chart_column(ctx, i)
    P = column[i]

    state = Counter()
    for j in range(ctx.n + 1):
        if m[j]:
            state[column[j]] += m[j]
    for pos, minor in enumerate(chain.steps):
        where = f"step {pos}"
        if not is_matrix_minor(ctx, minor):
            return VerifyResult(False, f"{where}: {minor} is not a 2-minor of the matrix")
        if not _realizes_row_and_column(ctx, i, minor):
            return VerifyResult(
                False, f"{where}: {minor} has no realization on row {i} and the column of {P.coordinate_name()}"
            )
        if _consumable(state, minor.neg):
            consumed, produced = minor.neg, minor.pos
        elif _consumable(state, minor.pos):
            consumed, produced = minor.pos, minor.neg
        else:
            return VerifyResult(False, f"{where}: neither side of {minor} occurs in the running product")
        for f in consumed:
            state[f] -= 1
            if not state[f]:
                del state[f]
        for f in produced:
            state[f] += 1
    goal = Counter({P: ctx.d - 1})
    goal[m] += 1
    if +state != +goal:
        return VerifyResult(False, "telescoping ended away from the claimed product")
    return VerifyResult(True)


def _chain_identity(ctx: VeroneseContext, chain: RewriteChain, z: list[int], p: int) -> VerifyResult:
    """The numeric half of verify_rewrite_chain, for a chain whose structure
    holds, at the point whose projective.integer_coords are (z, p).  Both
    sides of the identity are homogeneous of degree d, so it holds at the
    scaled point exactly when it holds at the point; over F_p it is tested
    mod p."""
    if len(z) != ctx.N + 1:
        return VerifyResult(False, f"point has dimension {len(z) - 1}, expected {ctx.N}")
    i, m = chain.chart, chain.target
    idx = coordinate_index(ctx)
    column = chart_column(ctx, i)
    zP = z[idx[column[i]]]
    if not zP:
        return VerifyResult(False, f"precondition violated: chart {i} pure power is zero at the point")
    lhs = 1
    for j, e in enumerate(m):
        if e:
            lhs *= z[idx[column[j]]] ** e
    diff = lhs - zP ** (ctx.d - 1) * z[idx[m]]
    if (diff % p) if p else diff:
        return VerifyResult(False, "claimed identity fails numerically at the supplied point")
    return VerifyResult(True)


def _consumable(state: Counter, pair) -> bool:
    a, b = pair
    if a == b:
        return state[a] >= 2
    return state[a] >= 1 and state[b] >= 1


def all_rewrite_chains(ctx: VeroneseContext):
    """Yield the chain for every chart and every degree-d coordinate."""
    for i in range(ctx.n + 1):
        for m in ctx.monomials():
            yield rewrite_chain(ctx, i, m)


# ---------------------------------------------------------------------------
# serialization (multi-indices rendered as coordinate names, stable order)

def propagation_to_doc(cert: ZeroPropagationCertificate) -> dict:
    return {
        "schema_version": 1,
        "kind": "zero-propagation",
        "n": cert.ctx.n,
        "d": cert.ctx.d,
        "pure_powers": [p.coordinate_name() for p in cert.ctx.pure_powers()],
        "steps": [
            {
                "target": s.target.coordinate_name(),
                "minor": str(s.minor),
                "prerequisites": [p.coordinate_name() for p in s.prerequisites],
            }
            for s in cert.steps
        ],
    }


def propagation_from_doc(doc: dict) -> ZeroPropagationCertificate:
    try:
        ctx = VeroneseContext(int(doc["n"]), int(doc["d"]))
        steps = tuple(
            PropagationStep(
                parse_coordinate_name(s["target"]),
                parse_binomial(s["minor"]),
                tuple(parse_coordinate_name(p) for p in s["prerequisites"]),
            )
            for s in doc["steps"]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"malformed certificate document: {exc}") from None
    return ZeroPropagationCertificate(ctx, steps)


def chain_to_doc(chain: RewriteChain) -> dict:
    return {
        "schema_version": 1,
        "kind": "rewrite-chain",
        "n": chain.ctx.n,
        "d": chain.ctx.d,
        "chart": chain.chart,
        "target": chain.target.coordinate_name(),
        "steps": [str(b) for b in chain.steps],
    }


def chain_from_doc(doc: dict) -> RewriteChain:
    try:
        ctx = VeroneseContext(int(doc["n"]), int(doc["d"]))
        return RewriteChain(
            ctx,
            int(doc["chart"]),
            parse_coordinate_name(doc["target"]),
            tuple(parse_binomial(s) for s in doc["steps"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"malformed chain document: {exc}") from None
