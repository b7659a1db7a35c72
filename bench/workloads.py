"""The benchmark's four workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Work comes in passes (a fixed list of
operations made from the workload seed and the pass index) so that every
timed run and every traced run covers whole passes.

A workload provides:
  pass_ops(seed, index)  the operations of one pass, made from the seed
  run(op)                (Cost, output) of one untraced operation
  check(op, output)      whether the output is correct
  describe(output)       a comparable rendering of the output
  traced(ops)            Costs, descriptions and the merged trace of
                         the same operations run with the tracer installed
  peak_rss_mb()          peak resident memory of the processes doing the work
  setup_probe            arguments of setup_probe.py for this workload
  pass_seconds           nominal length of one untraced pass
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import NamedTuple

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Integer literal: argparse refuses "1e9" for --budget (exit 2).
ORACLE_BUDGET = 1_000_000_000


@dataclass(frozen=True)
class Op:
    label: str
    payload: object


def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


class Cost(NamedTuple):
    """What one operation cost, in seconds.

    cpu is user plus system time of the processes doing the work; unlike
    wall time it leaves out the time the virtual CPU was stolen by other
    guests of the host.
    """

    wall: float
    cpu: float


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(argv: list[str]) -> tuple[Cost, tuple[int, str, str]]:
    """Cost of one fresh interpreter from spawn to exit, and its output."""
    cpu, start = _children_cpu(), time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], env=child_env(), cwd=ROOT,
        capture_output=True, text=True, timeout=170,
    )
    cost = Cost(time.perf_counter() - start, _children_cpu() - cpu)
    return cost, (proc.returncode, proc.stdout, proc.stderr)


def measure(fn, *args):
    """Cost of one in-process call, and its result."""
    cpu, start = time.process_time(), time.perf_counter()
    result = fn(*args)
    return Cost(time.perf_counter() - start, time.process_time() - cpu), result


def _options(argv: list[str]) -> dict[str, str]:
    """Flag values of a CLI argv made of a subcommand and flag/value pairs."""
    return dict(zip(argv[1::2], argv[2::2]))


def _derived_seed(*parts) -> int:
    return Random(":".join(str(p) for p in parts)).randrange(2**31)


# ---------------------------------------------------------------------------
# CLI workloads: every operation is a fresh `python -m veronese.cli` process


class CliWorkload:
    rss_of = "the CLI child processes"

    def prepare(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    def run(self, op: Op):
        return run_child(["-m", "veronese.cli", *op.payload])

    def describe(self, output) -> str:
        return output[1]

    def traced(self, ops: list[Op]):
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"{self.name}.child-spans.json"
        costs, described, dumps = [], [], []
        for op_id, op in enumerate(ops):
            cost, output = run_child(
                [str(BENCH / "traced_cli.py"), str(spans_file), str(op_id), "--", *op.payload]
            )
            costs.append(cost)
            described.append(self.describe(output))
            with open(spans_file, encoding="utf-8") as fh:
                dumps.append(json.load(fh))
        spans_file.unlink()
        return costs, described, tracing.merge(dumps)

    @staticmethod
    def _document(output) -> dict | None:
        code, stdout, stderr = output
        if code != 0 or stderr:
            return None
        try:
            return json.loads(stdout)
        except json.JSONDecodeError:
            return None


class VerifySweep(CliWorkload):
    """`veronese verify` over several contexts and fields.

    (2,3) and (3,4) over F_101 run twice per pass, so that as many
    operations fall below the (3,4) F_101 runs as above them and the median
    falls in the middle of that configuration rather than between two."""

    name = "verify-sweep"
    FULL = ((2, 3, "rational"), (2, 3, "rational"), (3, 4, "rational"),
            (3, 4, "fp:101"), (3, 4, "fp:101"), (4, 4, "rational"))
    TINY = ((1, 2, "rational"), (2, 2, "fp:101"))

    def __init__(self, size: str):
        self.configs = self.FULL if size == "full" else self.TINY
        self.pass_seconds = 3.9 if size == "full" else 0.4
        pairs = sorted({f"{n},{d}" for n, d, _ in self.configs})
        self.setup_probe = ["minors", *pairs]

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        ops = []
        for k, (n, d, field) in enumerate(self.configs):
            run_seed = _derived_seed(self.name, seed, index, k)
            argv = ["verify", "--n", str(n), "--d", str(d), "--field", field,
                    "--seed", str(run_seed), "--format", "json"]
            ops.append(Op(f"verify {n},{d} {field}", argv))
        return ops

    def check(self, op: Op, output) -> bool:
        doc = self._document(output)
        if doc is None:
            return False
        opts = _options(op.payload)
        config = {"n": int(opts["--n"]), "d": int(opts["--d"]), "field": opts["--field"],
                  "seed": int(opts["--seed"])}
        return (
            doc.get("command") == "verify"
            and doc.get("config") == config
            and doc.get("ok") is True
            and len(doc.get("checks", ())) == 4
            and all(c.get("ok") is True for c in doc["checks"])
        )


class OracleCensus(CliWorkload):
    """`veronese oracle --workers 2` over small prime fields; seed-invariant."""

    name = "oracle-census"
    FULL = ((2, 3, 3), (3, 3, 2), (2, 3, 5))
    TINY = ((1, 2, 2), (1, 2, 3))

    def __init__(self, size: str):
        self.configs = self.FULL if size == "full" else self.TINY
        self.pass_seconds = 6.0 if size == "full" else 0.4
        pairs = sorted({f"{n},{d}" for n, d, _ in self.configs})
        self.setup_probe = ["toric", *pairs]

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        return [
            Op(f"oracle {n},{d} q={q}",
               ["oracle", "--n", str(n), "--d", str(d), "--field", f"fp:{q}",
                "--workers", "2", "--budget", str(ORACLE_BUDGET),
                "--seed", str(seed), "--format", "json"])
            for n, d, q in self.configs
        ]

    def check(self, op: Op, output) -> bool:
        doc = self._document(output)
        if doc is None:
            return False
        opts = _options(op.payload)
        n, d, q = int(opts["--n"]), int(opts["--d"]), int(opts["--field"][len("fp:"):])
        expected = (q ** (n + 1) - 1) // (q - 1)
        reports = doc.get("reports", ())
        return (
            doc.get("command") == "oracle"
            and doc.get("config") == {"n": n, "d": d, "field": f"fp:{q}", "budget": ORACLE_BUDGET}
            and doc.get("ok") is True
            and [r.get("comparison") for r in reports] == ["veronese-image", "toric-quadrics"]
            and all(
                r.get("equal") is True
                and r.get("variety_count") == r.get("image_count") == r.get("expected_count") == expected
                for r in reports
            )
        )


# ---------------------------------------------------------------------------
# In-process workloads: one library caller in this interpreter


class InProcessWorkload:
    rss_of = "this process"

    def __init__(self):
        import veronese

        self.V = veronese

    def prepare(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def traced(self, ops: list[Op]):
        tracer = tracing.Tracer()
        tracer.install()
        costs, described = [], []
        for op_id, op in enumerate(ops):
            tracer.op = op_id
            cost, output = self.run(op)
            costs.append(cost)
            described.append(self.describe(output))
        tracer.op = None
        return costs, described, tracer.dump()


def _scalar(rng: Random, field, nonzero: bool):
    """Bench-side scalar draw: rationals with numerator and denominator
    below 100, residues mod p."""
    if field.name == "rational":
        num = rng.randint(1, 99) * rng.choice((1, -1)) if nonzero else rng.randint(-99, 99)
        return Fraction(num, rng.randint(1, 99))
    return field.from_int(rng.randrange(1 if nonzero else 0, field.p))


class MembershipStream(InProcessWorkload):
    """A seeded stream of points of P^N through failing_minor; members also
    go through inverse_map, veronese_eval and proj_eq.

    Each pass is a block that holds, for every (context, field) pair, one
    random point (exit at the first minor), one image point with a
    coordinate perturbed (exit at a varied depth) and IMAGES image points
    (a full scan of the minor table), shuffled.  The image counts put as
    many operations below the (3,4) rational full scans as above them, so
    the median falls in the middle of that class.  A median among the
    random points would show a per-point cost best, but those 10 us
    operations move by a fifth between runs on a shared machine, even
    after calibration; their median is printed per class in the report."""

    name = "membership-stream"
    FULL = ((3, 4), (4, 4))
    TINY = ((2, 2), (1, 3))
    # image points per block by (n, d, field); 1 for contexts not listed
    IMAGES = {(3, 4, "rational"): 6, (3, 4, "fp:101"): 2,
              (4, 4, "rational"): 4, (4, 4, "fp:101"): 4}

    def __init__(self, size: str):
        super().__init__()
        V = self.V
        self.contexts = [V.VeroneseContext(n, d) for n, d in (self.FULL if size == "full" else self.TINY)]
        self.fields = [V.QQ, V.PrimeField(101)]
        self.pass_seconds = 0.3 if size == "full" else 0.01
        self.setup_probe = ["lazy", *(f"{c.n},{c.d}" for c in self.contexts)]
        self._index = {ctx: {m: k for k, m in enumerate(ctx.monomials())} for ctx in self.contexts}

    def prepare(self) -> None:
        """The lazy table build on the first call, kept out of the timed phase."""
        for ctx in self.contexts:
            self.V.failing_minor(ctx, self._ones(ctx))

    def _ones(self, ctx):
        return self.V.ProjectivePoint(self.V.QQ, (Fraction(1),) * (ctx.N + 1))

    def _source_point(self, rng: Random, field, n: int):
        zeros = rng.randrange(n + 1)
        coords = [field.zero] * zeros + [_scalar(rng, field, True)]
        coords += [_scalar(rng, field, False) for _ in range(n - zeros)]
        return self.V.ProjectivePoint(field, tuple(coords))

    def _random_point(self, rng: Random, field, N: int):
        while True:
            coords = tuple(_scalar(rng, field, False) for _ in range(N + 1))
            if any(coords):
                return self.V.ProjectivePoint(field, coords)

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        V = self.V
        rng = Random(f"{self.name}:{seed}:{index}")
        ops = []
        for ctx in self.contexts:
            for field in self.fields:
                where = f"{ctx.n},{ctx.d} {field.name}"
                for _ in range(self.IMAGES.get((ctx.n, ctx.d, field.name), 1)):
                    Q = V.veronese_eval(ctx, self._source_point(rng, field, ctx.n))
                    ops.append(Op(f"image {where}", (ctx, Q)))
                Q = V.veronese_eval(ctx, self._source_point(rng, field, ctx.n))
                while True:
                    coords = list(Q.coords)
                    k = rng.randrange(len(coords))
                    coords[k] = coords[k] + _scalar(rng, field, True)
                    if any(coords):
                        break
                ops.append(Op(f"perturbed {where}", (ctx, V.ProjectivePoint(field, tuple(coords)))))
                ops.append(Op(f"random {where}", (ctx, self._random_point(rng, field, ctx.N))))
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        return measure(self._membership, *op.payload)

    def _membership(self, ctx, Q):
        V = self.V
        failing = V.failing_minor(ctx, Q)
        if failing is None:
            preimage = V.inverse_map(ctx, Q)
            return (True, preimage, V.proj_eq(V.veronese_eval(ctx, preimage), Q))
        return (False, *failing)

    def describe(self, output) -> tuple:
        if output[0]:
            return (True, tuple(str(c) for c in output[1].coords), output[2])
        return (False, str(output[1]), str(output[2]))

    def _reference_member(self, ctx, Q) -> bool:
        """Membership without minors: Q is projectively equal to the image of
        its chart-i inverse on some available chart; no chart, no member."""
        V = self.V
        index = self._index[ctx]
        for i in range(ctx.n + 1):
            if Q.coords[index[V.pure_power(ctx.n, ctx.d, i)]]:
                if V.proj_eq(V.veronese_eval(ctx, V.inverse_on_chart(ctx, Q, i)), Q):
                    return True
        return False

    def check(self, op: Op, output) -> bool:
        V = self.V
        ctx, Q = op.payload
        if output[0] != self._reference_member(ctx, Q):
            return False
        if output[0]:
            _, preimage, round_trip = output
            return round_trip is True and V.proj_eq(V.veronese_eval(ctx, preimage), Q)
        _, minor, value = output
        index, z = self._index[ctx], Q.coords
        (a, b), (c, e) = minor.pos, minor.neg
        recomputed = z[index[a]] * z[index[b]] - z[index[c]] * z[index[e]]
        return bool(recomputed) and value == recomputed


class TablesCold(InProcessWorkload):
    """Cold table and certificate builds, one context per operation; the
    package's caches are cleared before each operation, outside its time."""

    name = "tables-cold"
    # (n, d): (minors, balanced quadrics, propagation steps, chains, chain steps),
    # recorded from the seed commit's output.
    EXPECTED = {
        (2, 3): (36, 36, 7, 30, 33),
        (3, 3): (210, 210, 16, 80, 104),
        (2, 5): (285, 402, 18, 63, 150),
        (3, 4): (990, 1221, 31, 140, 284),
        (3, 5): (3270, 5160, 52, 224, 620),
        (4, 4): (5275, 6815, 65, 350, 775),
        (4, 5): (22575, 39625, 121, 630, 1895),
        (1, 2): (1, 1, 1, 6, 2),
        (1, 3): (3, 3, 2, 8, 6),
        (2, 2): (6, 6, 3, 18, 9),
    }
    FULL = ((2, 3), (3, 3), (2, 5), (3, 4), (3, 5), (4, 4), (4, 5))
    TINY = ((1, 2), (1, 3), (2, 2))

    def __init__(self, size: str):
        super().__init__()
        V = self.V
        self.contexts = [V.VeroneseContext(n, d) for n, d in (self.FULL if size == "full" else self.TINY)]
        self.pass_seconds = 2.4 if size == "full" else 0.01
        self.setup_probe = ["minors", *(f"{c.n},{c.d}" for c in self.contexts)]
        # held before any tracer is installed, so these are the cache objects
        self._caches = (V.enumerate_monomials, V.matrix.cached_matrix, V.matrix.cached_minors,
                        V.morphism.coordinate_index, V.morphism._minor_table)

    def pass_ops(self, seed: int, index: int) -> list[Op]:
        rng = Random(f"{self.name}:{seed}:{index}")
        ops = [Op(f"tables {ctx.n},{ctx.d}", (ctx, rng.randrange(2**31))) for ctx in self.contexts]
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        for cache in self._caches:
            cache.cache_clear()
        return measure(self._build, op.payload[0])

    def _build(self, ctx):
        V = self.V
        minors = V.minors2(V.build_matrix(ctx))
        quadrics = V.toric_quadrics(ctx)
        cert = V.zero_propagation_certificate(ctx)
        verdict = V.verify_zero_propagation(ctx, cert)
        chains = list(V.all_rewrite_chains(ctx))
        return minors, quadrics, cert, verdict, chains

    def describe(self, output) -> tuple:
        minors, quadrics, cert, verdict, chains = output
        digest = hashlib.sha256()
        for text in sorted(str(b) for b in minors | quadrics):
            digest.update(text.encode())
        for step in cert.steps:
            digest.update(f"{step.target}{step.minor}".encode())
        for chain in chains:
            digest.update(" ".join(str(b) for b in chain.steps).encode())
        return (len(minors), len(quadrics), verdict.ok, digest.hexdigest())

    def check(self, op: Op, output) -> bool:
        V = self.V
        ctx, point_seed = op.payload
        minors, quadrics, cert, verdict, chains = output
        counts = (len(minors), len(quadrics), len(cert.steps), len(chains),
                  sum(len(c.steps) for c in chains))
        if counts != self.EXPECTED[(ctx.n, ctx.d)] or not verdict.ok or not minors <= quadrics:
            return False
        # every chain verifies at a seeded point of its chart
        rng = Random(point_seed)
        field = V.QQ
        points = []
        for i in range(ctx.n + 1):
            coords = [_scalar(rng, field, k == i) for k in range(ctx.n + 1)]
            points.append(V.veronese_eval(ctx, V.ProjectivePoint(field, tuple(coords))))
        return all(V.verify_rewrite_chain(ctx, c, points[c.chart]).ok for c in chains)


WORKLOADS = {w.name: w for w in (VerifySweep, OracleCensus, MembershipStream, TablesCold)}
