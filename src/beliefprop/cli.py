"""Command-line front end: validate, infer, dsep, cutset.

Exit codes: 0 success, 1 usage, 2 parse error, 3 validation error,
4 impossible evidence, 5 internal non-convergence.

Each command imports the engine modules it uses when it runs, so
`validate` loads none of them and `dsep` only `dsep`.  numpy is loaded by
`infer`, and by the other commands only to screen a table whose rows
`parse` could not certify (see `netformat`).
"""

from __future__ import annotations

import argparse
import math
import signal
import sys

from . import model, netformat
from .errors import ConvergenceError, ImpossibleEvidenceError, SizeError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_IMPOSSIBLE = 4
EXIT_NO_CONVERGENCE = 5


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="beliefprop", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a network file")
    p.add_argument("file")

    p = sub.add_parser("infer", help="posterior beliefs given evidence")
    p.add_argument("file")
    p.add_argument("-e", "--evidence", action="append", default=[],
                   metavar="Var=state")
    p.add_argument("-q", "--query", action="append", default=[], metavar="Var")
    p.add_argument("--method", default="auto",
                   choices=["auto", "polytree", "conditioning", "exact"])
    p.add_argument("--trace", metavar="PATH", help="write message updates here")
    p.add_argument("--likelihood", action="store_true",
                   help="also print the evidence probability")

    p = sub.add_parser("dsep", help="d-separation query")
    p.add_argument("file")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--given", default="", metavar="A,B,...")

    p = sub.add_parser("cutset", help="find a loop cutset")
    p.add_argument("file")
    p.add_argument("--exhaustive", action="store_true",
                   help="smallest cutset by subset enumeration")
    return parser


def _read_network(path: str) -> model.Network:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise _UsageError(f"{path} is not UTF-8 text: {exc}") from None
    return netformat.parse(text)


def _load_network(path: str) -> model.Network:
    net = _read_network(path)
    problems = model.validate(net)
    if problems:
        raise _ValidationFailure(problems)
    return net


class _ValidationFailure(Exception):
    def __init__(self, problems):
        super().__init__("validation failed")
        self.problems = problems


def _fmt_probability(p: float, log_p: float) -> str:
    """`p` to 12 significant digits; below the smallest normal float, where
    `p` has lost precision or underflowed to 0, the same digits are taken
    from `log_p` as a mantissa and a power of ten."""
    if p >= sys.float_info.min:
        return format(p, ".12g")
    exponent, fraction = divmod(log_p / math.log(10), 1)
    mantissa = format(10**fraction, ".12g")
    if mantissa == "10":  # fraction rounded up to a whole power
        mantissa, exponent = "1", exponent + 1
    return f"{mantissa}e{int(exponent)}"


def _fmt_vec(vec) -> str:
    return ",".join(format(x, ".12g") for x in vec)


class _TraceWriter:
    def __init__(self, fh):
        self.fh = fh

    def __call__(self, assignment, rec):
        prefix = ""
        if assignment:
            keys = " ".join(f"{k}={v}" for k, v in sorted(assignment.items()))
            prefix = f"run {keys} "
        self.fh.write(
            f"{prefix}sweep={rec.sweep} dir={rec.direction} "
            f"arc={rec.parent}->{rec.child} "
            f"old={_fmt_vec(rec.old)} new={_fmt_vec(rec.new)}\n"
        )


def _cmd_validate(args, out) -> int:
    problems = model.validate(_read_network(args.file))
    if problems:
        for line in problems:
            print(line, file=out)
        return EXIT_VALIDATION
    print("ok", file=out)
    return EXIT_OK


def _belief_lines(net, beliefs, queries, out) -> None:
    for q in queries:
        states = net.variable(q).states
        pairs = " ".join(
            f"{label}={value:.6f}" for label, value in zip(states, beliefs[q])
        )
        print(f"BEL({q}) {pairs}", file=out)


def _cmd_infer(args, out) -> int:
    net = _load_network(args.file)
    try:
        evidence = netformat.parse_evidence(args.evidence, net)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    queries = args.query or [v for v in net.var_names() if v not in evidence]
    for q in queries:
        if q not in net.vars_by_name:
            raise _UsageError(f"unknown query variable {q!r}")

    if args.method == "polytree" and not net.is_singly_connected():
        raise _UsageError(
            "--method polytree requires a singly connected network; "
            "use auto or conditioning"
        )

    try:
        trace_fh = open(args.trace, "w", encoding="utf-8") if args.trace else None
    except OSError as exc:
        raise _UsageError(str(exc)) from None
    on_update = _TraceWriter(trace_fh) if trace_fh else None
    try:
        if args.method == "exact":
            from . import oracle

            try:
                beliefs, likelihood, log_likelihood = oracle._infer(net, evidence, queries)
            except ValueError as exc:  # the oracle's state-space guard
                raise _UsageError(f"--method exact: {exc}") from None
        else:  # a polytree is conditioning's empty-cutset case
            from . import conditioning

            try:
                mixed = conditioning.auto_infer(net, evidence, queries, on_update=on_update)
            except SizeError as exc:  # the engine's size guard
                raise _UsageError(str(exc)) from None
            beliefs, log_likelihood = mixed.beliefs, mixed.log_likelihood
            likelihood = math.exp(log_likelihood)
    finally:
        if trace_fh:
            trace_fh.close()

    _belief_lines(net, beliefs, queries, out)
    if args.likelihood:
        print(f"P(e) = {_fmt_probability(likelihood, log_likelihood)}", file=out)
    return EXIT_OK


def _cmd_dsep(args, out) -> int:
    from . import dsep

    net = _load_network(args.file)
    given = [g for g in args.given.split(",") if g]
    for name in [args.x, args.y, *given]:
        if name not in net.vars_by_name:
            raise _UsageError(f"unknown variable {name!r}")
    try:
        paths = dsep.explain(net, args.x, args.y, given)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print("d-separated" if all(blockers for _, blockers in paths) else "connected", file=out)
    for path, blockers in paths:
        label = f"blocked at {', '.join(blockers)}" if blockers else "open"
        print(f"path {'-'.join(path.nodes)}: {label}", file=out)
    return EXIT_OK


def _cmd_cutset(args, out) -> int:
    from . import cutset

    net = _load_network(args.file)
    if args.exhaustive:
        try:
            members = cutset.min_cutset_exhaustive(net)
        except ValueError as exc:  # the search's size limit
            raise _UsageError(f"--exhaustive: {exc}") from None
    else:
        members = cutset.greedy_cutset(net)
    print(f"members: {' '.join(members) if members else '(none)'}", file=out)
    print(f"assignments: {math.prod(net.card(m) for m in members)}", file=out)
    return EXIT_OK


def run(argv, out=None, err=None) -> int:
    """Execute one command line; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "validate": _cmd_validate,
            "infer": _cmd_infer,
            "dsep": _cmd_dsep,
            "cutset": _cmd_cutset,
        }[args.command]
        return handler(args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    except netformat.ParseError as exc:
        print(f"parse error at {exc.span.line}:{exc.span.column}: {exc.message}",
              file=err)
        return EXIT_PARSE
    except _ValidationFailure as exc:
        for line in exc.problems:
            print(line, file=err)
        return EXIT_VALIDATION
    except ImpossibleEvidenceError as exc:
        print(f"impossible evidence: {exc}", file=err)
        return EXIT_IMPOSSIBLE
    except ConvergenceError as exc:
        print(f"internal error: {exc}", file=err)
        return EXIT_NO_CONVERGENCE


def main() -> None:
    # a reader that closes the pipe early (`| head`) ends the command
    # silently, as it ends `cat`, instead of in a BrokenPipeError
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
