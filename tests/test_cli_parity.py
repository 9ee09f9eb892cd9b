"""A standing byte-parity check of the command line.

One sha256 digest covers the stdout, stderr, exit code and `--trace` file
of in-process `infer --likelihood` runs under `auto`, `polytree` and
`conditioning` on the three fixtures, on 10 seeded bushy polytrees (many
messages per tree depth) with and without their evidence, and on 10
random loopy networks with and without evidence on a cutset member.  The
digest was captured before the two-pass schedule was batched by tree
depth; CLI output must not move, so this digest is never updated to
follow a change in the engine.

`PYTHONPATH=src python tests/test_cli_parity.py` prints the current digest.
"""

from __future__ import annotations

import hashlib
import io
import random
from pathlib import Path

from beliefprop.cli import run
from beliefprop.cutset import greedy_cutset
from beliefprop.netformat import serialize

from helpers import bushy_polytree, random_loopy

DIGEST = "6a362f8693af3a11c3e76a3bda907ec1724626af71faa0d3d0e442722d09bacb"

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_EVIDENCE = {
    "chain.bn": [[], ["B=f"]],
    "fig1.bn": [[], ["x6=1"], ["x1=1", "x6=1"]],
    "deterministic.bn": [[], ["B=t"], ["A=f", "B=t"]],
}
METHODS = ("auto", "polytree", "conditioning")


def _flags(net, evidence) -> list[str]:
    return [f"{v}={net.variable(v).states[s]}" for v, s in evidence.items()]


def _corpus(tmp_path: Path):
    """(network path, evidence arguments) of every command line."""
    for name, sets in FIXTURE_EVIDENCE.items():
        for evidence in sets:
            yield str(FIXTURES / name), evidence
    for seed in range(10):
        net, evidence = bushy_polytree(seed)
        path = tmp_path / f"bushy{seed}.bn"
        path.write_text(serialize(net))
        yield str(path), []
        yield str(path), _flags(net, evidence)
    for seed in range(10):
        net, evidence = random_loopy(seed)
        path = tmp_path / f"loopy{seed}.bn"
        path.write_text(serialize(net))
        members = greedy_cutset(net)
        free = {v: s for v, s in evidence.items() if v not in members}
        yield str(path), _flags(net, free)
        pinned = {**free, members[0]: random.Random(seed).randrange(net.card(members[0]))}
        yield str(path), _flags(net, pinned)


def cli_digest(tmp_path: Path) -> str:
    h = hashlib.sha256()
    trace = tmp_path / "trace.log"
    for path, evidence in _corpus(tmp_path):
        for method in METHODS:
            trace.unlink(missing_ok=True)
            out, err = io.StringIO(), io.StringIO()
            argv = ["infer", path, "--likelihood", "--method", method, "--trace", str(trace)]
            for flag in evidence:
                argv += ["-e", flag]
            code = run(argv, out=out, err=err)
            written = trace.read_bytes() if trace.exists() else b"(no trace)"
            for part in (Path(path).name, method, *evidence, str(code),
                         out.getvalue(), err.getvalue()):
                h.update(part.encode() + b"\x00")
            h.update(written + b"\x00")
    return h.hexdigest()


def test_cli_bytes_are_unchanged(tmp_path):
    assert cli_digest(tmp_path) == DIGEST


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        print(cli_digest(Path(scratch)))
