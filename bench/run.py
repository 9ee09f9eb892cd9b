"""Seeded benchmark of beliefprop inference, end to end and per layer.

    python3 bench/run.py --workload polytree --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):

  polytree  auto_infer on already-loaded, warmed polytrees and deep chains
  loopy     auto_infer on multiply-connected networks (cutset conditioning)
  cli       one `beliefprop` command per fresh subprocess, timed spawn to exit
  all       each of the above in its own child process, one row each

Every workload is one client in a closed loop: the next operation starts
when the previous one has returned.  Operations run in rounds (one per
network or command) until --seconds have passed, so every run covers the
same mix.  After the timed loop every answer is checked against an
independent reference (bench/refinfer.py).  With --trace 0 the run is split
into PARTS processes one after another, each setting up once and running
its share of the loop; their operations are pooled, and every time is
scaled by a host-speed probe (host_probe).  The last line of stdout is a
JSON object with the end-to-end metrics.  With --trace 1 the
engine's public functions are wrapped (bench/spans.py), every operation also
runs once untraced to measure the tracing overhead, the per-layer metrics
are printed, and all spans are written to one JSON file.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("polytree", "loopy", "cli")

#: processes an untraced run is split into, one after another; each sets up
#: once and runs 1/PARTS of the timed loop, and setup_s is their median
PARTS = 3
#: spacing of round numbers and operation indices between parts
PART_STRIDE = 1_000_000
#: queries checked against the reference per API operation (plus log P(e))
CHECKED_QUERIES = 3
#: beliefs and log P(e) must match the reference within this
TOLERANCE = 1e-9
#: half a unit in the last place of the CLI's `{:.6f}` belief output
BELIEF_PRINT_STEP = 5e-7
#: relative half unit of the CLI's `{:.12g}` P(e) output
LIKELIHOOD_PRINT_STEP = 5e-12
#: fraction of variables observed in each operation's evidence
EVIDENCE_FRACTION = 0.1
#: import-only subprocesses timed for cli.import_s
IMPORT_SAMPLES = 5
#: iterations of the host-speed probe (about 10 ms of pure-Python work)
PROBE_LOOPS = 100_000
#: probe time of the nominal host that end-to-end times are scaled to
PROBE_REFERENCE_S = 0.010
#: probes taken right before each set-up and after the last one
SETUP_PROBES = 3

# Network slots per size.  Cost per operation depends on the slot, not the
# seed: see netgen.  Chains of 1000 or more variables hit Python's recursion
# limit in evidence_log_likelihood on the seed code and count as failures.
# Slot costs are close together, so the median and the tail sit among many
# similar operations instead of on a step between two slots.
POLYTREE_SLOTS = {
    "full": [("bushy", n) for n in range(200, 280, 10)] + [("chain", 400), ("chain", 1100)],
    "smoke": [("bushy", 12), ("bushy", 16), ("chain", 8), ("chain", 1000)],
}
# (variables, states per variable, loops) -> cases = states ** loops
LOOPY_SLOTS = {
    "full": [(70, 3, 2), (90, 3, 2), (130, 2, 2), (50, 2, 4), (60, 2, 4), (150, 2, 2),
             (100, 2, 3), (50, 3, 3)],
    "smoke": [(10, 2, 2), (12, 3, 1)],
}
CLI_SIZES = {
    "full": {"mid": 200, "big": 3000, "dense": 16, "paths": (2600, 3000)},
    "smoke": {"mid": 12, "big": 40, "dense": 7, "paths": (4, 40)},
}

if not (SRC / "beliefprop" / "__init__.py").is_file():
    sys.exit(f"bench: {SRC / 'beliefprop'} not found; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import beliefprop  # noqa: E402
from beliefprop import cli, conditioning, netformat  # noqa: E402

import netgen  # noqa: E402
import refinfer  # noqa: E402
import spans  # noqa: E402

if Path(beliefprop.__file__).resolve().parent != SRC / "beliefprop":
    sys.exit(f"bench: imported beliefprop from {beliefprop.__file__}, not from {SRC}")


class CommandFailed(Exception):
    """A CLI command exited with a non-zero code."""


class Op:
    """One operation: its inputs, and after it ran, its latency and result."""

    def __init__(self, index: int, job: int, payload) -> None:
        self.index = index
        self.job = job
        self.payload = payload
        self.latency: float | None = None
        self.untraced_latency: float | None = None
        self.result = None
        self.error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


# ----------------------------------------------------------------------
# API workloads: polytree and loopy
# ----------------------------------------------------------------------


class ApiWorkload:
    """auto_infer on networks loaded through serialize -> parse; one job per
    network, fresh seeded evidence for every operation."""

    def __init__(self, name: str, seed: int, size: str) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.nets: list = []
        self.labels: list[str] = []
        self.loops: list[int] = []
        self.kinds: list[str] = []
        self._references: dict[int, refinfer.Reference] = {}

    def _generate(self):
        if self.name == "polytree":
            for i, (kind, n) in enumerate(POLYTREE_SLOTS[self.size]):
                rng = random.Random(f"polytree/{self.seed}/{i}")
                make = netgen.bushy_polytree if kind == "bushy" else netgen.chain
                yield kind, f"{kind}{n}", 0, make(rng, n)
        else:
            for i, (n, card, loops) in enumerate(LOOPY_SLOTS[self.size]):
                rng = random.Random(f"loopy/{self.seed}/{i}")
                yield "loopy", f"loopy{n}x{card}^{loops}", loops, netgen.hubbed_loopy(
                    rng, n, card, loops
                )

    def setup(self) -> None:
        self.nets, self.labels, self.loops, self.kinds = [], [], [], []
        for kind, label, loops, net in self._generate():
            self.kinds.append(kind)
            self.labels.append(label)
            self.loops.append(loops)
            self.nets.append(netformat.parse(netformat.serialize(net)))
        for job in range(len(self.nets)):
            try:  # warm each network's caches once, as a user's first query would
                self.execute(self.payload(job, -1))
            except Exception:
                pass  # a failing network fails again, and is counted, in the timed loop

    def payload(self, job: int, round_no: int):
        net = self.nets[job]
        rng = random.Random(f"{self.name}/{self.seed}/{job}/{round_no}")
        kind = self.kinds[job]
        if kind == "loopy":
            evidence = netgen.loopy_evidence(rng, net, self.loops[job], EVIDENCE_FRACTION)
        elif kind == "chain":
            evidence = netgen.chain_evidence(rng, net, EVIDENCE_FRACTION)
        else:
            spine = netgen.spine_size(netgen.BUSHY_DEPTH)
            evidence = netgen.random_evidence(rng, net, EVIDENCE_FRACTION, spine)
        return job, evidence, [v for v in net.var_names() if v not in evidence]

    def execute(self, payload):
        job, evidence, queries = payload
        return conditioning.auto_infer(self.nets[job], evidence, queries)

    def check(self, op: Op) -> str | None:
        """Compare a sample of beliefs and log P(e) with the reference."""
        job, evidence, queries = op.payload
        result = op.result
        if list(result.beliefs) != queries:
            return "beliefs do not cover exactly the queries"
        if job not in self._references:
            self._references[job] = refinfer.Reference(self.nets[job])
        rng = random.Random(f"check/{self.seed}/{op.index}")
        sample = rng.sample(queries, min(CHECKED_QUERIES, len(queries)))
        ref_beliefs, ref_log_p = self._references[job].answer(evidence, sample)
        if ref_log_p is None or abs(result.log_likelihood - ref_log_p) > TOLERANCE:
            return f"log P(e) {result.log_likelihood!r}, reference {ref_log_p!r}"
        for q in sample:
            diff = float(np.max(np.abs(result.beliefs[q] - ref_beliefs[q])))
            if diff > TOLERANCE:
                return f"belief of {q} off by {diff:.3g}"
        return None

    def cleanup(self) -> None:
        pass


# ----------------------------------------------------------------------
# CLI workload
# ----------------------------------------------------------------------


class CliWorkload:
    """A fixed rotation of four commands, each run in a fresh interpreter
    (or, in the traced run, through cli.run in this process)."""

    def __init__(self, seed: int, size: str, workdir: Path, in_process: bool) -> None:
        self.name = "cli"
        self.seed = seed
        self.size = size
        self.dir = workdir / f"cli-{seed}-{os.getpid()}"
        self.in_process = in_process
        self.commands: list[list[str]] = []
        self.labels = ["infer-fig1", "infer-mid", "validate-big", "dsep-dense"]
        self.texts: dict[str, str] = {}
        self._expected: dict[int, object] = {}

    def _dense(self, sizes):
        low, high = sizes["paths"]
        n = sizes["dense"]
        x, y = "d00", f"d{n - 1:02d}"
        # Only the tables depend on the seed: the arcs and `given` set the
        # cost of the dsep command, the search sets the cost of set-up, and
        # neither should vary with the seed.
        for attempt in range(10_000):
            arcs = random.Random(f"cli/dense/{attempt}")
            net = netgen.dense_dag(arcs, n, 0.3, tables=random.Random(f"cli/{self.seed}/dense"))
            if low <= netgen.count_paths(net, x, y) <= high:
                given = sorted(arcs.sample(net.var_names()[1:-1], 2))
                return net, x, y, given
        raise RuntimeError("no dense network with the wanted path count")

    def setup(self) -> None:
        sizes = CLI_SIZES[self.size]
        mid = netgen.bushy_polytree(random.Random(f"cli/{self.seed}/mid"), sizes["mid"])
        big = netgen.bushy_polytree(
            random.Random(f"cli/{self.seed}/big"), sizes["big"], max_card=3
        )
        dense, x, y, given = self._dense(sizes)
        self.texts = {
            "fig1.bn": netgen.FIG1_TEXT,
            "mid.bn": netformat.serialize(mid),
            "big.bn": netformat.serialize(big),
            "dense.bn": netformat.serialize(dense),
        }
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, text in self.texts.items():
            (self.dir / name).write_text(text, encoding="utf-8")
        rng = random.Random(f"cli/{self.seed}/mid-evidence")
        evidence = netgen.random_evidence(
            rng, mid, EVIDENCE_FRACTION, netgen.spine_size(netgen.BUSHY_DEPTH)
        )
        flags = []
        for v, s in evidence.items():
            flags += ["-e", f"{v}={mid.variable(v).states[s]}"]
        path = lambda name: str(self.dir / name)  # noqa: E731
        self.commands = [
            ["infer", path("fig1.bn"), "-e", "x6=1", "--likelihood"],
            ["infer", path("mid.bn"), *flags, "--likelihood"],
            ["validate", path("big.bn")],
            ["dsep", path("dense.bn"), "--x", x, "--y", y, "--given", ",".join(given)],
        ]
        import_time(samples=1)  # compiles the bytecode a fresh interpreter loads

    def payload(self, job: int, round_no: int):
        return job

    def execute(self, job: int):
        argv = self.commands[job]
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(argv, out, err)
            out, err = out.getvalue(), err.getvalue()
        else:
            proc = subprocess.run(
                [sys.executable, "-c", "from beliefprop.cli import main; main()", *argv],
                capture_output=True, text=True, env=engine_env(), cwd=ROOT, timeout=120,
            )
            code, out, err = proc.returncode, proc.stdout, proc.stderr
        if code != 0:
            raise CommandFailed(f"exit {code}: {err.strip()[:200]}")
        return out

    def _expectation(self, job: int):
        if job not in self._expected:
            argv = self.commands[job]
            net = netformat.parse(self.texts[Path(argv[1]).name])
            if argv[0] == "infer":
                evidence = netformat.parse_evidence(argv[3:-1:2], net)
                queries = [v for v in net.var_names() if v not in evidence]
                beliefs, log_p = refinfer.Reference(net).answer(evidence, queries)
                self._expected[job] = (net, queries, beliefs, log_p)
            elif argv[0] == "dsep":
                x, y, given = argv[3], argv[5], argv[7].split(",")
                separated = refinfer.d_separated_reference(net, x, y, given)
                self._expected[job] = (separated, netgen.count_paths(net, x, y))
            else:
                self._expected[job] = None
        return self._expected[job]

    def check(self, op: Op) -> str | None:
        out = op.result
        command = self.commands[op.job][0]
        expected = self._expectation(op.job)
        lines = out.splitlines()
        if command == "validate":
            return None if lines == ["ok"] else f"validate printed {out[:80]!r}"
        if command == "dsep":
            separated, n_paths = expected
            if lines[:1] != ["d-separated" if separated else "connected"]:
                return f"dsep answered {lines[:1]}, reference separated={separated}"
            path_lines = lines[1:]
            if len(path_lines) != n_paths or not all(p.startswith("path ") for p in path_lines):
                return f"dsep listed {len(path_lines)} paths, reference {n_paths}"
            if any(p.endswith(": open") for p in path_lines) == separated:
                return "dsep path labels disagree with its verdict"
            return None
        net, queries, beliefs, log_p = expected
        if len(lines) != len(queries) + 1:
            return f"infer printed {len(lines)} lines for {len(queries)} queries"
        for q, line in zip(queries, lines):
            head, *pairs = line.split(" ")
            if head != f"BEL({q})" or len(pairs) != net.card(q):
                return f"unexpected belief line {line!r}"
            for pair, state, ref in zip(pairs, net.variable(q).states, beliefs[q]):
                label, _, value = pair.partition("=")
                if label != state or abs(float(value) - ref) > BELIEF_PRINT_STEP + TOLERANCE:
                    return f"BEL({q}) {pair}, reference {ref:.9f}"
        head, _, value = lines[-1].partition(" = ")
        if head != "P(e)" or float(value) <= 0.0:
            return f"unexpected likelihood line {lines[-1]!r}"
        if abs(math.log(float(value)) - log_p) > LIKELIHOOD_PRINT_STEP + TOLERANCE:
            return f"P(e) = {value}, reference log {log_p!r}"
        return None

    def cleanup(self) -> None:
        for name in self.texts:
            (self.dir / name).unlink(missing_ok=True)
        if self.dir.exists():
            self.dir.rmdir()


def engine_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    return env


# ----------------------------------------------------------------------
# the timed loop and the metrics
# ----------------------------------------------------------------------


def run_rounds(
    workload, seconds: float, tracer=None, probes=None, base: int = 0
) -> tuple[list[Op], float]:
    """Closed loop, whole rounds, until `seconds` have passed; returns the
    operations and the wall time they took.

    With a tracer, each operation runs twice on the same inputs: traced
    (its latency, result and spans are the operation's) and untraced (its
    latency goes to `untraced_latency`), alternating which goes first, so
    the overhead ratio compares runs made under the same machine load.
    With a `probes` list, a host-speed probe runs after every operation and
    its time is appended there and left out of the returned wall time.
    Round numbers and operation indices start at `base`."""
    ops: list[Op] = []
    start = time.perf_counter()
    deadline = start + seconds
    probing = 0.0
    round_no = base
    while True:
        for job in range(len(workload.labels)):
            op = Op(base + len(ops), job, workload.payload(job, round_no))
            ops.append(op)
            if tracer is None:
                timed(workload, op)
                if probes is not None:
                    probes.append(host_probe())
                    probing += probes[-1]
                continue
            shadow = Op(op.index, job, op.payload)
            if op.index % 2:
                timed(workload, shadow)
            with spans.installed(tracer):
                tracer.op = op.index
                timed(workload, op)
                tracer.op = None
            if not op.index % 2:
                timed(workload, shadow)
            op.untraced_latency = shadow.latency
        round_no += 1
        if time.perf_counter() >= deadline:
            return ops, time.perf_counter() - start - probing


def host_probe() -> float:
    """Wall time of a fixed pure-Python loop.

    The benchmark shares a host whose speed drifts by a third within
    minutes, for every process alike (a fixed loop slows as much as the
    engine does, and thread CPU time slows with it).  The probe is not
    engine code, so no change to the engine moves it; scaling a run's times
    by PROBE_REFERENCE_S / (median probe time) takes the host's speed out of
    them and leaves the engine's."""
    t0 = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
    return time.perf_counter() - t0


def timed(workload, op: Op) -> None:
    t0 = time.perf_counter()
    try:
        op.result = workload.execute(op.payload)
    except Exception as exc:  # an engine failure is a measured outcome
        op.error = f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        op.latency = time.perf_counter() - t0


def check_all(workload, ops: list[Op]) -> int:
    """Mark failed operations; returns how many gave a wrong answer."""
    wrong = 0
    for op in ops:
        if op.ok:
            problem = workload.check(op)
            if problem is not None:
                op.error = f"wrong answer: {problem}"
                wrong += 1
    return wrong


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples beyond it (the maximum
    when there are too few samples): (value, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n


def peak_rss_mib(of_children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if of_children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def make_workload(name: str, seed: int, size: str, workdir: Path, traced: bool):
    if name == "cli":
        return CliWorkload(seed, size, workdir, in_process=traced)
    return ApiWorkload(name, seed, size)


def detail_lines(labels: list[str], ops: list[Op]) -> list[str]:
    """Median latency per job, then each distinct failure with its count."""
    lines = []
    for job, label in enumerate(labels):
        done = [op.latency for op in ops if op.job == job and op.ok]
        failed = sum(op.job == job and not op.ok for op in ops)
        p50 = f"{statistics.median(done):.4f} s" if done else "-"
        lines.append(f"  {label:<16} p50 {p50}  ok {len(done)}  failed {failed}")
    errors: dict[str, int] = {}
    for op in ops:
        if not op.ok:
            errors[op.error] = errors.get(op.error, 0) + 1
    lines += [f"  failed x{count}: {error}" for error, count in errors.items()]
    return lines


def run_part(args, workdir: Path) -> dict:
    """One part of an untraced run, in its own process: set up, run
    1/PARTS of the timed loop, check the answers.  Times are unscaled."""
    probes = [host_probe() for _ in range(SETUP_PROBES)]
    workload = make_workload(args.workload, args.seed, args.size, workdir, traced=False)
    t0 = time.perf_counter()
    workload.setup()
    setup = time.perf_counter() - t0
    probes += [host_probe() for _ in range(SETUP_PROBES)]
    try:
        ops, wall = run_rounds(
            workload, args.seconds / PARTS, probes=probes, base=args.part * PART_STRIDE
        )
        rss = peak_rss_mib(of_children=args.workload == "cli")
        wrong = check_all(workload, ops)
    finally:
        workload.cleanup()
    return {
        "labels": workload.labels,
        "setup_s": setup,
        "wall_s": wall,
        "probes_s": probes,
        "peak_rss_mb": rss,
        "wrong": wrong,
        "ops": [[op.job, op.latency, op.error] for op in ops],
    }


def run_untraced(args, workdir: Path) -> dict:
    """PARTS processes one after another, pooled.  On the same inputs one
    process runs several percent faster or slower than the next, more than
    the host probe accounts for (memory layout, say), so pooling parts
    averages that out, as it averages set-up over PARTS fresh processes.
    Each part's times are scaled by its own host probe (see host_probe)."""
    parts = []
    for part in range(PARTS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--size", args.size, "--workdir", str(workdir), "--part", str(part)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: part {part} failed:\n{proc.stdout}{proc.stderr}")
        parts.append(json.loads(lines[-1]))
    labels = parts[0]["labels"]
    ops, latencies, raw_latencies, setups = [], [], [], []
    ok_count, wall = 0, 0.0
    for part in parts:
        scale = PROBE_REFERENCE_S / statistics.median(part["probes_s"])
        setups.append(part["setup_s"] * scale)
        wall += part["wall_s"] * scale
        for job, latency, error in part["ops"]:
            op = Op(len(ops), job, None)
            op.latency, op.error = latency, error
            ops.append(op)
            if error is None:
                ok_count += 1
                latencies.append(latency * scale)
                raw_latencies.append(latency)
    detail = detail_lines(labels, ops)
    if not latencies:
        sys.exit("bench: every operation failed\n" + "\n".join(detail))
    failed = len(ops) - ok_count
    tail_value, tail_pct, n = tail(latencies)
    rss = max(part["peak_rss_mb"] for part in parts)
    metrics = {
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (tail_value, "s"),
        "ops_per_s": (ok_count / wall, "1/s"),
        "success_ratio": (ok_count / len(ops), "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    print(
        f"{args.workload:<9} latency_p50_s={metrics['latency_p50_s'][0]:.4f} s  "
        f"latency_tail_s={tail_value:.4f} s (p{tail_pct:.1f} of {n})  "
        f"ops_per_s={metrics['ops_per_s'][0]:.3f} 1/s  "
        f"failed_ratio={failed / len(ops):.4f} ({failed}/{len(ops)})  "
        f"setup_s={metrics['setup_s'][0]:.3f} s  peak_rss_mb={rss:.1f} MiB"
    )
    probes = ", ".join(f"{statistics.median(part['probes_s']) * 1e3:.2f}" for part in parts)
    print(
        f"  host probe per part {probes} ms (scaled to {PROBE_REFERENCE_S * 1e3:.0f} ms); "
        f"unscaled latency_p50_s={statistics.median(raw_latencies):.4f} s; "
        f"per-network medians below are unscaled"
    )
    for line in detail:
        print(line)
    return {
        "correct": all(part["wrong"] == 0 for part in parts),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def import_time(samples: int = IMPORT_SAMPLES) -> float:
    """Median wall time of a fresh interpreter that only imports the CLI."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import beliefprop.cli"],
            check=True, env=engine_env(), cwd=ROOT, timeout=120,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_traced(args, workdir: Path) -> dict:
    workload = make_workload(args.workload, args.seed, args.size, workdir, traced=True)
    tracer = spans.Tracer()
    try:
        with spans.installed(tracer):
            workload.setup()
        ops, _ = run_rounds(workload, args.seconds, tracer)
        wrong = check_all(workload, ops)
    finally:
        workload.cleanup()
    good = [op for op in ops if op.ok]
    if not good:
        sys.exit("bench: every operation failed\n" + "\n".join(detail_lines(workload.labels, ops)))
    per_op = spans.per_operation(tracer.spans, [op.index for op in good])
    declared = load_manifest()["per_layer"]
    names = [m["name"] for m in declared]
    units = {m["name"]: m["unit"] for m in declared}
    layer = spans.per_layer(per_op, names)
    layer["cli.import_s"] = import_time() if args.workload == "cli" else 0
    layer["trace.overhead_ratio"] = (
        statistics.median(op.latency for op in good)
        / statistics.median(op.untraced_latency for op in good)
    )
    out_path = workdir / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "size": args.size,
                "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "counts"],
                "spans": tracer.spans,
                "ops": [
                    {"op": op.index, "job": workload.labels[op.job],
                     "latency_s": op.latency, "error": op.error}
                    for op in ops
                ],
                "per_op": {str(k): v for k, v in per_op.items()},
                "per_layer": layer,
                "trace.overhead_ratio": layer["trace.overhead_ratio"],
            },
            fh,
        )
    print(f"{args.workload:<9} traced {len(good)}/{len(ops)} operations; spans in {out_path}")
    for name in names:
        print(f"  {name:<32} {layer[name]:.6g} {units[name]}")
    for line in detail_lines(workload.labels, ops):
        print(line)
    return {
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": {name: {"value": layer[name], "unit": units[name]} for name in names},
    }


def load_manifest() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_all(args) -> dict:
    """Each workload in its own child process, so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--workdir", str(args.workdir)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} failed:\n{proc.stdout}{proc.stderr}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny networks, for the benchmark's own tests")
    parser.add_argument("--workdir", default=str(ROOT / ".bench_run"),
                        help="where CLI input files and trace files go")
    parser.add_argument("--part", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workdir = Path(args.workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "all":
        result = run_all(args)
    elif args.part is not None:
        result = run_part(args, workdir)
    elif args.trace:
        result = run_traced(args, workdir)
    else:
        result = run_untraced(args, workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
