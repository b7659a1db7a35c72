"""Command-line surface.

Subcommands:
    matrix   print the monomial grid L and coordinate grid M
    minors   list the canonical 2-minor quadrics
    eval     apply the degree-d embedding to a point of P^n
    invert   recover the preimage of a variety point of P^N
    member   test whether a point of P^N lies on the variety
    verify   roundtrips, chart agreement and both certificate families
    oracle   exhaustive finite-field set-equality reports

Common flags: --n, --d, --field rational|fp:<prime>, --format text|json,
--seed (default 0), --budget (default 5000000).  main refuses a context
whose 2-minor candidate count C(n+1, 2) * C(cols, 2), or C(d, 2) or
C(n+1, 2) if larger, exceeds the budget before it dispatches, so before
any point, field or file argument is read; oracle then also bounds each
search by points x quadrics.  oracle accepts --workers (>= 1)
for compatibility and ignores it.  Identical configuration and seed
produce byte-identical output; JSON documents carry schema_version 1 and
sort their keys.

Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 budget
refusal.

verify runs its round trip and chart agreement on the ints of each image
(morphism._verify_point), so it builds and normalizes no image point;
member and invert answer a member by the rank-one test and read the
minor table only to name a non-member's failing minor.

Each process imports only what its subcommand runs: the modules imported
at the top serve every subcommand, verify imports certificates and oracle
imports oracle inside their handlers, so matrix, minors, eval, invert and
member load neither.
"""

from __future__ import annotations

import argparse
import json
import sys
from random import Random

from .errors import BudgetError, ContractError, InvalidPointError, VeroneseError
from .matrix import DEFAULT_BUDGET, build_matrix, check_minor_budget
from .morphism import (
    _integer_image,
    _minor_table,
    _verify_point,
    failing_minor,
    inverse_map,
    is_on_variety,
    veronese_eval,
)
from .multiindex import VeroneseContext
from .projective import (
    PrimeField,
    field_from_name,
    format_point,
    parse_point,
    random_point,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SCHEMA_VERSION = 1

VERIFY_POINTS = 48
CHAIN_POINTS_PER_CHART = 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="veronese",
        description="Exact construction and verification of the degree-d "
        "embedding as a determinantal variety.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_field=True):
        p.add_argument("--n", type=int, required=True, help="source space dimension (>= 0)")
        p.add_argument("--d", type=int, required=True, help="embedding degree (>= 1)")
        if needs_field:
            p.add_argument("--field", default="rational", help="rational or fp:<prime>")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=0, help="seed for random test points")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="cost limit on the 2-minor candidates C(n+1,2)*C(cols,2), "
                       "or C(d,2) or C(n+1,2) if larger; oracle also bounds points x quadrics")

    common(sub.add_parser("matrix", help="print the L and M grids"), needs_field=False)
    common(sub.add_parser("minors", help="list canonical 2-minors"), needs_field=False)

    p_eval = sub.add_parser("eval", help="apply the embedding to a point")
    common(p_eval)
    p_eval.add_argument("point", help='point of P^n, e.g. "[1 : 2]"')

    p_inv = sub.add_parser("invert", help="invert a variety point")
    common(p_inv)
    p_inv.add_argument("point", help='point of P^N, e.g. "[1 : 2 : 4 : 8]"')

    p_mem = sub.add_parser("member", help="variety membership test")
    common(p_mem)
    p_mem.add_argument("point", help="point of P^N")

    p_ver = sub.add_parser("verify", help="roundtrips and certificates")
    common(p_ver)
    p_ver.add_argument("--propagation-cert", metavar="FILE", default=None,
                       help="verify this zero-propagation certificate file "
                       "instead of a freshly generated one")
    p_ver.add_argument("--emit-propagation-cert", metavar="FILE", default=None,
                       help="write the generated zero-propagation certificate")

    p_orc = sub.add_parser("oracle", help="exhaustive finite-field reports")
    common(p_orc)
    p_orc.add_argument("--workers", type=int, default=1,
                       help="ignored; accepted for compatibility (>= 1)")

    return parser


def _emit(doc: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _grid_lines(rows: list[list[str]], label: str) -> list[str]:
    widths = [max(len(r[k]) for r in rows) for k in range(len(rows[0]))]
    lines = [f"{label} ="]
    for r in rows:
        lines.append("  [ " + "  ".join(s.ljust(w) for s, w in zip(r, widths)) + " ]")
    return lines


def cmd_matrix(args, ctx) -> int:
    matrix = build_matrix(ctx)
    doc = {"schema_version": SCHEMA_VERSION, **matrix.to_doc()}
    mono = [[m.monomial_name() for m in row] for row in matrix.entries]
    coord = [[m.coordinate_name() for m in row] for row in matrix.entries]
    lines = _grid_lines(mono, "L") + [""] + _grid_lines(coord, "M")
    nrows, ncols = matrix.shape
    if nrows < 2 or ncols < 2:
        lines.append("note: no 2-minors")
    _emit(doc, args.format, lines)
    return EXIT_OK


def cmd_minors(args, ctx) -> int:
    listing = [str(b) for b, _ in _minor_table(ctx)]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "minors",
        "n": ctx.n,
        "d": ctx.d,
        "count": len(listing),
        "minors": listing,
    }
    _emit(doc, args.format, listing + [f"count: {len(listing)}"])
    return EXIT_OK


def cmd_eval(args, ctx) -> int:
    field = field_from_name(args.field)
    x = parse_point(field, args.point)
    if x.dim != ctx.n:
        raise ContractError(f"eval expects a point of P^{ctx.n}, got dimension {x.dim}")
    image = veronese_eval(ctx, x)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "eval",
        "n": ctx.n,
        "d": ctx.d,
        "field": field.name,
        "input": format_point(x),
        "output": format_point(image),
    }
    _emit(doc, args.format, [format_point(image)])
    return EXIT_OK


def _membership(args, ctx, command: str):
    """Parse and test the point of a member or invert run; returns the
    point and the JSON document, whose "member" says whether every minor
    vanishes and which otherwise names the failing minor."""
    field = field_from_name(args.field)
    Q = parse_point(field, args.point)
    # a member needs no minor table; only a non-member's report reads it
    fail = None if is_on_variety(ctx, Q) else failing_minor(ctx, Q)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "n": ctx.n,
        "d": ctx.d,
        "field": field.name,
        "member": fail is None,
    }
    if fail is not None:
        minor, value = fail
        doc["value"] = field.format_scalar(value)
        doc["failing_minor"] = str(minor)
    doc["point"] = format_point(Q)
    return Q, doc


def _failure_line(prefix: str, doc: dict) -> str:
    return f"{prefix} (minor {doc['failing_minor']} evaluates to {doc['value']})"


def cmd_member(args, ctx) -> int:
    _, doc = _membership(args, ctx, "member")
    if doc["member"]:
        _emit(doc, args.format, ["true"])
        return EXIT_OK
    _emit(doc, args.format, [_failure_line("false", doc)])
    return EXIT_CHECK_FAILED


def cmd_invert(args, ctx) -> int:
    Q, doc = _membership(args, ctx, "invert")
    if not doc["member"]:
        _emit(doc, args.format, [_failure_line("not on the variety", doc)])
        return EXIT_CHECK_FAILED
    doc["preimage"] = format_point(inverse_map(ctx, Q))
    _emit(doc, args.format, [doc["preimage"]])
    return EXIT_OK


def _verify_checks(ctx, field, seed: int, external_cert=None):
    """Run the composite verification; returns a list of check dicts."""
    from . import certificates as certs

    checks = []
    rng = Random(seed)

    def record(name: str, ok: bool, detail: str):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    # embedding/inverse roundtrip across every leading-zero pattern, and
    # chartwise inverses agree wherever several charts are available
    bad = multi = disagreements = 0
    for k in range(VERIFY_POINTS):
        x = random_point(rng, field, ctx.n, lead_zeros=k % (ctx.n + 1))
        ok, charts, agree = _verify_point(ctx, x)
        bad += not ok
        multi += charts > 1
        disagreements += not agree
    record("roundtrip-inverse-of-embedding", bad == 0,
           f"{VERIFY_POINTS} seeded points, {bad} failures")
    record("chart-agreement", disagreements == 0,
           f"{multi} multi-chart points, {disagreements} disagreements")

    cert = external_cert if external_cert is not None else certs.zero_propagation_certificate(ctx)
    res = certs.verify_zero_propagation(ctx, cert)
    record("zero-propagation-certificate", res.ok,
           res.diagnostic or f"{len(cert.steps)} steps, full coverage")

    # verify_rewrite_chain for every chain and point, on quads and ints
    chain_failures = 0
    for i in range(ctx.n + 1):
        points = [_chart_point(rng, field, ctx, i) for _ in range(CHAIN_POINTS_PER_CHART)]
        chain_failures += certs._chart_failures(ctx, i, points)
    total = (ctx.n + 1) * CHAIN_POINTS_PER_CHART * ctx.num_coords
    record("rewrite-chains", chain_failures == 0,
           f"{total} chain verifications, {chain_failures} failures")
    return checks


def _chart_point(rng: Random, field, ctx, i: int) -> tuple[list[int], int]:
    """Seeded image point guaranteed to lie on chart i, as the ints (z, p)
    of projective.integer_coords."""
    x = random_point(rng, field, ctx.n, lead_zeros=0)
    if not x.coords[i]:
        coords = list(x.coords)
        coords[i] = field.one
        x = type(x)(field, tuple(coords))
    return _integer_image(ctx, x)


def cmd_verify(args, ctx) -> int:
    from . import certificates as certs

    field = field_from_name(args.field)
    external = None
    if args.propagation_cert:
        with open(args.propagation_cert, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise ContractError("malformed certificate document: nested too deeply") from None
            except (json.JSONDecodeError, UnicodeDecodeError):
                raise  # main reports these with their own messages
            except ValueError:  # what else json.load raises: an int past str's limit
                raise ContractError("malformed certificate document: an integer "
                                    "has more digits than the interpreter converts") from None
        external = certs.propagation_from_doc(doc)
    if args.emit_propagation_cert:
        doc = certs.propagation_to_doc(certs.zero_propagation_certificate(ctx))
        with open(args.emit_propagation_cert, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    checks = _verify_checks(ctx, field, args.seed, external)
    ok = all(c["ok"] for c in checks)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "config": {"n": ctx.n, "d": ctx.d, "field": field.name, "seed": args.seed},
        "checks": checks,
        "ok": ok,
    }
    lines = [
        f"{'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}" for c in checks
    ]
    lines.append("all checks passed" if ok else "verification FAILED")
    _emit(doc, args.format, lines)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_oracle(args, ctx) -> int:
    from . import oracle as orc

    field = field_from_name(args.field)
    if not isinstance(field, PrimeField):
        raise ContractError("oracle runs need --field fp:<prime>")
    reports = orc.census(ctx, field.p, args.budget)
    ok = all(r.equal for r in reports)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "oracle",
        "config": {"n": ctx.n, "d": ctx.d, "field": field.name, "budget": args.budget},
        "reports": [orc.report_to_doc(r) for r in reports],
        "ok": ok,
    }
    lines = []
    for r in reports:
        lines.append(
            f"{r.kind}: variety {r.variety_count}, comparison {r.image_count}, "
            f"expected {r.expected_count}, equal: {str(r.equal).lower()}"
        )
        for w in r.witnesses[:10]:
            lines.append(f"  witness {w}")
    lines.append("equal" if ok else "NOT EQUAL")
    _emit(doc, args.format, lines)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


_HANDLERS = {
    "matrix": cmd_matrix,
    "minors": cmd_minors,
    "eval": cmd_eval,
    "invert": cmd_invert,
    "member": cmd_member,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.n < 0 or args.d < 1:
        parser.error("require --n >= 0 and --d >= 1")
    if args.budget < 0:
        parser.error("require --budget >= 0")
    if getattr(args, "workers", 1) < 1:
        parser.error("require --workers >= 1")
    try:
        ctx = VeroneseContext(args.n, args.d)
        check_minor_budget(ctx, args.budget)
        return _HANDLERS[args.command](args, ctx)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ContractError, InvalidPointError, OSError, UnicodeDecodeError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except VeroneseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
