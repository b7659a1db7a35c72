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
row i and the column of z_{d e_i}.  The chains of a chart form a forest:
its n + 1 roots are the chart-column coordinates, with empty chains, and
every other chain is its parent's plus one edge, N - n edges per chart.
With psi_i(z) the chart-i column of z, chart i's identities read
nu_d(psi_i(z)) = z_P^(d-1) z, P = d e_i.  verify_rewrite_chain checks one
identity as one product; _chart_failures checks a point's along the
forest, each edge checked once by its shape z_P z_k - z_parent z_{col_j},
each node below a parent whose identity holds by its edge minor, and by its
own product only below a parent whose identity fails.

Certificates are generated symbolically on coordinate indices: a step is
the quad (a, b, c, e) of z_a z_b - z_c z_e, canonical when a <= b, c <= e
and a < c (the index is the rank, which reverses lex order).  Verification
is structural, by the unit-move test matrix.is_minor_quad, plus, for
chains, an exact numeric check at a variety point.  Each minor is built
with tuple.__new__, balanced by construction: a cascade step's, since
(j + e_t - e_k) + (j - e_t + e_k) = 2j, and a chain edge's, since
d e_i + (w - e_i + e_j) = w + ((d-1)e_i + e_j).  PropagationStep and
RewriteChain are errors.FrozenTuples, like Binomial2, so the generators
make each step and chain with one tuple.__new__ too.

The symbolic checks decide on packed exponent codes, code(m) = sum_j m_j
w_j with w_j = (2d+1)^j, through one matrix.CodeIndex `at` made per
public call (no cache, so a cold build stays cold).  A coordinate one
unit move from k is at[code(k) + w_i - w_j]: a forest parent, a cascade
factor.  is_minor_quad tests a quad with two sums and two lookups in the
n(n+1) unit-move codes.  Chart columns come from matrix.chart_indices, so
this module loads no morphism.
"""

from __future__ import annotations

from math import prod

from .errors import ContractError, FrozenTuple
from .matrix import (Binomial2, _canonical_quad, CodeIndex, binomial_quad, chart_indices, is_minor_quad,
                     parse_binomial)
from .multiindex import MultiIndex, VeroneseContext, coordinate_index, parse_coordinate_name
from .projective import ProjectivePoint, integer_coords


class VerifyResult(FrozenTuple):
    """Truthy verification outcome; diagnostic locates the first failure."""

    __slots__ = ()
    _fields = ("ok", "diagnostic")

    def __new__(cls, ok: bool, diagnostic: str | None = None):
        return tuple.__new__(cls, (ok, diagnostic))

    def __bool__(self) -> bool:
        return self.ok


class PropagationStep(FrozenTuple):
    """One cascade step: minor, with target on one side, forces it to zero."""

    __slots__ = ()
    _fields = ("target", "minor", "prerequisites")

    def __new__(cls, target: MultiIndex, minor: Binomial2, prerequisites: tuple[MultiIndex, ...]):
        return tuple.__new__(cls, (target, minor, prerequisites))


class ZeroPropagationCertificate(FrozenTuple):
    """Ordered cascade zeroing every coordinate from vanishing pure powers."""

    __slots__ = ()
    _fields = ("ctx", "steps")

    def __new__(cls, ctx: VeroneseContext, steps: tuple[PropagationStep, ...]):
        return tuple.__new__(cls, (ctx, steps))


class RewriteChain(FrozenTuple):
    """Minor rewrites certifying one coordinate identity on chart `chart`.

    The claimed identity: prod_j z_{(d-1)e_i + e_j}^{target_j} equals
    z_{d e_i}^(d-1) * z_target, with i = chart.
    """

    __slots__ = ()
    _fields = ("ctx", "chart", "target", "steps")

    def __new__(cls, ctx: VeroneseContext, chart: int, target: MultiIndex, steps: tuple[Binomial2, ...]):
        return tuple.__new__(cls, (ctx, chart, target, steps))


def zero_propagation_certificate(ctx: VeroneseContext) -> ZeroPropagationCertificate:
    """Generate the cascade.

    Rows t = 0..n-1 are processed in order; on row t the targets are the
    entries after the pure power z_{d e_t}, i.e. the degree-d vectors
    supported on {t..n} with a positive t-th exponent, in lex-descending
    order.  The minor for target j moves one unit between positions t and
    k (k the last positive exponent):

        z_{j + e_t - e_k} z_{j - e_t + e_k} - z_j^2

    Its first factor precedes j on row t, so it is already zero when the
    step runs, and its second follows j: the quad is canonical as it
    stands, and balanced, its factors summing to 2j.  Entries before the
    pure power on later rows repeat earlier rows and need no step of their
    own; for d = 1 every coordinate is a pure power and the cascade is
    empty.

    In lex-descending order the vectors whose first positive exponent is
    at t come in one block, t rising, so the rows' targets are the
    coordinates that are no pure power, in index order, each on the row
    of its first positive exponent; its factors are at[code(j) +- (w_t -
    w_k)].
    """
    monos = ctx.monomials()
    at = CodeIndex(ctx)
    codes, w, d = at.codes, at.w, ctx.d
    known = {at[d * u] for u in w}  # the pure powers d e_i
    steps, new = [], tuple.__new__
    t = 0
    for target, j in enumerate(monos):
        while not j[t]:
            t += 1
        if j[t] == d:
            continue
        k = ctx.n
        while not j[k]:
            k -= 1
        move = w[t] - w[k]
        first, other = at[codes[target] + move], at[codes[target] - move]
        prereqs = (monos[first],) + ((monos[other],) if other in known else ())
        minor = new(Binomial2, ((monos[first], monos[other]), (j, j)))
        steps.append(new(PropagationStep, (j, minor, prereqs)))
        known.add(target)
    return ZeroPropagationCertificate(ctx, tuple(steps))


def verify_zero_propagation(ctx: VeroneseContext, cert: ZeroPropagationCertificate) -> VerifyResult:
    """Check the cascade: minors genuine, zero-forcing shape (the target
    squared on one side, a known-zero factor on the other), prerequisites
    established before use, and full coordinate coverage."""
    if cert.ctx != ctx:
        return VerifyResult(False, f"certificate built for {cert.ctx}, verified against {ctx}")
    monos, idx = ctx.monomials(), coordinate_index(ctx)
    at = CodeIndex(ctx)
    known = {at[ctx.d * u] for u in at.w}  # the pure powers d e_i
    for pos, step in enumerate(cert.steps):
        why = _step_fault(ctx, monos, at, idx, known, step)
        if why is not None:  # the step is named only when it fails
            return VerifyResult(False, f"step {pos} (target {step.target.coordinate_name()}): {why}")
        known.add(idx[step.target])
    missing = [k for k in range(len(monos)) if k not in known]
    if missing:
        return VerifyResult(False, f"coverage incomplete: {len(missing)} coordinates never zeroed, "
                                   f"first {monos[missing[0]].coordinate_name()}")
    return VerifyResult(True)


def _step_fault(ctx: VeroneseContext, monos, at: CodeIndex, idx: dict, known: set,
                step: PropagationStep) -> str | None:
    """Why step does not force its target to zero given the known zeros; None if it does."""
    q = binomial_quad(ctx, step.minor)
    if q is None or not is_minor_quad(at, *q):
        return f"{step.minor} is not a 2-minor of the matrix"
    t = idx.get(step.target)
    in_pos, in_neg = t in q[:2], t in q[2:]
    if in_pos == in_neg:
        return "minor must contain the target on exactly one side"
    target_side, other_side = (q[:2], q[2:]) if in_pos else (q[2:], q[:2])
    if other_side[0] not in known and other_side[1] not in known:
        pair = ", ".join(monos[f].coordinate_name() for f in other_side)
        return f"no factor of {{{pair}}} is known zero"
    partner = target_side[1] if target_side[0] == t else target_side[0]
    if partner != t:
        # z_a z_b - z_t z_x with z_x = 0 vanishes whatever z_t is
        why = ("is known zero, so the minor does not force the target" if partner in known
               else "is neither the target nor known zero")
        return f"partner {monos[partner].coordinate_name()} {why}"
    for p in step.prerequisites:
        if idx.get(p) not in known:
            return f"prerequisite {p.coordinate_name()} not yet established"
    return None


def _edge(monos, at: CodeIndex, col: tuple[int, ...], i: int, k: int) -> tuple[int, tuple[int, int, int, int]]:
    """(parent, quad) of node k (d - k_i >= 2) in chart i's forest, at =
    CodeIndex(ctx) and col = chart_indices(ctx, i): the parent is
    k + e_i - e_j, at[code(k) + w_i - w_j], j the least index but i with
    k_j > 0, and the quad is that of z_P z_k - z_parent z_{col_j}."""
    for j, e in enumerate(monos[k]):
        if e and j != i:
            break
    w = at.w
    p = at[at.codes[k] + w[i] - w[j]]
    return p, _canonical_quad(col[i], k, p, col[j])


def _forest(ctx: VeroneseContext, at: CodeIndex, i: int, col: tuple[int, ...]) -> list[tuple[int, int, tuple]]:
    """The N - n edges (k, parent, quad) of chart i's forest, parents first:
    nodes by falling k_i, after the n + 1 roots col, whose k_i >= d - 1,
    each edge from _edge on the code index at = CodeIndex(ctx)."""
    monos = ctx.monomials()
    order = sorted(range(len(monos)), key=[m[i] for m in monos].__getitem__, reverse=True)
    return [(k, *_edge(monos, at, col, i, k)) for k in order[ctx.n + 1:]]


def _names_chain(ctx: VeroneseContext, i, m) -> bool:  # i an int chart, no bool; m a coordinate
    return (isinstance(i, int) and type(i) is not bool and 0 <= i <= ctx.n
            and isinstance(m, MultiIndex) and len(m) == ctx.n + 1 and m.degree == ctx.d)


def rewrite_chain(ctx: VeroneseContext, i: int, m: MultiIndex) -> RewriteChain:
    """Generate the chain for chart i and coordinate z_m: the edges on the
    root path of m in chart i's forest, root first.  A step z_{d e_i}
    z_{w - e_i + e_j} - z_w z_{(d-1)e_i + e_j} moves a unit of weight from
    position i to j of the working coordinate w, so a chain has
    sum(m_j, j != i) - 1 steps and is empty whenever m_i >= d - 1."""
    if not _names_chain(ctx, i, m):
        raise ContractError(f"chart {i!r} and target {m!r} name no rewrite chain of {ctx}")
    monos = ctx.monomials()
    at = CodeIndex(ctx)
    col, k, quads = chart_indices(ctx, i), coordinate_index(ctx)[m], []
    while monos[k][i] < ctx.d - 1:
        k, q = _edge(monos, at, col, i, k)
        quads.append(q)
    return RewriteChain(ctx, i, m, tuple(tuple.__new__(Binomial2, ((monos[a], monos[b]), (monos[c], monos[e])))
                                         for a, b, c, e in reversed(quads)))


def verify_rewrite_chain(ctx: VeroneseContext, chain: RewriteChain, Q: ProjectivePoint) -> VerifyResult:
    """Check a chain structurally (_chain_fault on the steps as quads, a
    step that is no Binomial2 being no minor), and numerically: the claimed
    identity, homogeneous of degree d, holds exactly at integer_coords(Q),
    whose chart must be available."""
    if chain.ctx != ctx:
        return VerifyResult(False, f"chain built for {chain.ctx}, verified against {ctx}")
    i, m = chain.chart, chain.target
    if not (_names_chain(ctx, i, m) and isinstance(chain.steps, tuple)):
        return VerifyResult(False, "chain chart, target or steps malformed for this context")
    idx, col = coordinate_index(ctx), chart_indices(ctx, i)
    quads = [binomial_quad(ctx, b) if isinstance(b, Binomial2) else None for b in chain.steps]
    fault = _chain_fault(ctx, CodeIndex(ctx), col, i, idx[m], quads)
    if fault is not None:
        pos, why = fault
        if pos < len(chain.steps):
            P = ctx.monomials()[col[i]].coordinate_name()
            why = f"step {pos}: " + why.format(minor=chain.steps[pos], i=i, P=P)
        return VerifyResult(False, why)
    z, p = integer_coords(Q)
    if len(z) != ctx.N + 1:
        return VerifyResult(False, f"point has dimension {len(z) - 1}, expected {ctx.N}")
    if not z[col[i]]:
        return VerifyResult(False, f"precondition violated: chart {i} pure power is zero at the point")
    diff = prod(map(pow, (z[c] for c in col), m)) - z[col[i]] ** (ctx.d - 1) * z[idx[m]]
    if diff % p if p else diff:
        return VerifyResult(False, "claimed identity fails numerically at the supplied point")
    return VerifyResult(True)


def _chain_fault(ctx: VeroneseContext, at: CodeIndex, col: tuple[int, ...], i: int, k: int,
                 quads) -> tuple[int, str] | None:
    """The first failing check, as (step, diagnostic template), of the
    quads (None: no minor) of the chart-i chain of coordinate index k, col
    = chart_indices(ctx, i); None when all pass.

    A step is a minor with P = z_{d e_i} among its entries, and every such
    minor z_P z_x - z_y z_w is realized on row i and the column of P.  Its
    unit move pairs P or x with, say, y: then y = P - e_i + e_j, or
    |x_i - y_i| <= 1 and w_i = d + x_i - y_i >= d - 1.  Either way the other
    side holds a chart-column entry (d-1)e_i + e_j, j != i, and balance
    makes its partner x + e_i - e_j.  A step turns one side of the running
    product, the negative side first, into the other, from prod_j
    z_{col_j}^{k_j} to z_P^(d-1) z_k (else a fault at len(quads)).
    """
    P = col[i]
    state = {f: e for f, e in zip(col, ctx.monomials()[k]) if e}
    for pos, q in enumerate(quads):
        if q is None or not is_minor_quad(at, *q):
            return pos, "{minor} is not a 2-minor of the matrix"
        if P not in q:
            return pos, "{minor} has no realization on row {i} and the column of {P}"
        a, b, c, e = q
        if state.get(c, 0) >= 2 if c == e else c in state and e in state:
            consumed, produced = (c, e), (a, b)
        elif state.get(a, 0) >= 2 if a == b else a in state and b in state:
            consumed, produced = (a, b), (c, e)
        else:
            return pos, "neither side of {minor} occurs in the running product"
        for f in consumed:
            state[f] -= 1
            if not state[f]:
                del state[f]
        for f in produced:
            state[f] = state.get(f, 0) + 1
    goal = {P: ctx.d - 1} if ctx.d > 1 else {}
    goal[k] = goal.get(k, 0) + 1
    return None if state == goal else (len(quads), "telescoping ended away from the claimed product")


def _sound_edge(at: CodeIndex, col: tuple[int, ...], P: int, k: int, parent: int, q) -> bool:
    """Whether quad q (None: no minor) is a 2-minor z_P z_k - z_parent
    z_{col_j}, up to order, of the chart with column col and pure power P.
    Balance makes k - parent = e_j - e_i, so the step takes k's chart
    product over the parent's, z_P^(d-2) z_parent z_{col_j}, to z_P^(d-1) z_k."""
    if q is None or not is_minor_quad(at, *q):
        return False
    side, (a, b, c, e) = (P, k) if P < k else (k, P), q
    x, y = (c, e) if (a, b) == side else (a, b) if (c, e) == side else (None, None)
    return x == parent and y in col or y == parent and x in col


def _chart_failures(ctx: VeroneseContext, at: CodeIndex, i: int, points) -> int:
    """Failed (chain, point) pairs of verify_rewrite_chain over every chain
    of chart i and the points' integer_coords (z, p), any iterable read
    once, on chart i's forest, each edge checked once by _sound_edge.

    A sound edge's quad is z_P z_k - z_parent z_{col_j}.  When the parent's
    identity holds at z, z_P^(d-2) z_parent z_{col_j} is k's chart product
    at z, so, z_P being nonzero, k's identity holds iff the edge minor
    vanishes there.  Below a parent whose identity fails, k's own product
    decides: k can still hold there, say when z_{col_j} = 0 for some j with
    k_j > 0 and z_k = 0.  Roots hold; a chain below an unsound edge fails
    at every point.
    """
    col, monos = chart_indices(ctx, i), ctx.monomials()
    P = col[i]
    sound = [True] * ctx.num_coords  # a root's empty chain telescopes
    edges = []  # (k, parent, quad) of the sound non-roots, parents first
    for k, parent, q in _forest(ctx, at, i, col):
        sound[k] = sound[parent] and _sound_edge(at, col, P, k, parent, q)
        if sound[k]:
            edges.append((k, parent, q))
    failures = 0
    for z, p in points:
        if not z[P]:  # the precondition fails every chain
            failures += len(sound)
            continue
        holds = sound[:]
        for k, parent, (a, b, c, e) in edges:
            if holds[parent]:
                diff = z[a] * z[b] - z[c] * z[e]
            else:
                diff = prod(map(pow, (z[f] for f in col), monos[k])) - z[P] ** (ctx.d - 1) * z[k]
            holds[k] = not (diff % p if p else diff)
        failures += holds.count(False)
    return failures


def all_rewrite_chains(ctx: VeroneseContext):
    """Yield rewrite_chain(ctx, i, m) for each chart i, then coordinate m; a
    chart's chains are built parents first, one Binomial2 per forest edge."""
    monos, new = ctx.monomials(), tuple.__new__
    at = CodeIndex(ctx)
    for i in range(ctx.n + 1):
        steps = [()] * len(monos)
        for k, parent, (a, b, c, e) in _forest(ctx, at, i, chart_indices(ctx, i)):
            steps[k] = (*steps[parent], new(Binomial2, ((monos[a], monos[b]), (monos[c], monos[e]))))
        for m, s in zip(monos, steps):
            yield new(RewriteChain, (ctx, i, m, s))


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
    """Inverse of propagation_to_doc; ContractError for any other document,
    including a schema_version or kind it does not write."""
    try:
        version, kind = doc["schema_version"], doc["kind"]
        if type(version) is not int or version != 1 or kind != "zero-propagation":
            raise ValueError("not a schema_version 1 zero-propagation certificate")
        try:
            ctx = VeroneseContext(doc["n"], doc["d"])
        except ContractError as exc:
            raise ValueError(exc) from None
        steps = tuple(
            PropagationStep(
                parse_coordinate_name(s["target"]),
                parse_binomial(s["minor"]),
                tuple(parse_coordinate_name(p) for p in s["prerequisites"]),
            )
            for s in doc["steps"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"malformed certificate document: {exc}") from None
    return ZeroPropagationCertificate(ctx, steps)

