import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from beliefprop.cli import run
from beliefprop.conditioning import auto_infer
from beliefprop.netformat import parse, parse_evidence, serialize
from beliefprop.plan import RUN_FLOATS_GUARD

from helpers import (
    binary_star,
    faint_evidence_net,
    lost_state_net,
    random_loopy,
    random_polytree,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import netgen  # noqa: E402

FIXTURES = Path(__file__).parent / "fixtures"
CHAIN = str(FIXTURES / "chain.bn")
FIG1 = str(FIXTURES / "fig1.bn")
DETERMINISTIC = str(FIXTURES / "deterministic.bn")

# --trace files of `infer fig1.bn -e x6=1`, `infer fig1.bn -e x1=1 -e x6=1`
# (evidence on the cutset member leaves one live case) and `infer chain.bn
# -e B=f`: the two-pass order and the message values, byte for byte
FIG1_TRACE = (
    "run x1=0 sweep=1 dir=pi arc=x3->x5 old=0.5,0.5 new=0.9,0.1\n"
    "run x1=0 sweep=1 dir=lambda arc=x5->x6 old=0.5,0.5 new=0.157894736842,0.842105263158\n"
    "run x1=0 sweep=1 dir=lambda arc=x2->x5 old=0.5,0.5 new=0.281052631579,0.718947368421\n"
    "run x1=0 sweep=1 dir=pi arc=x2->x5 old=0.5,0.5 new=0.95,0.05\n"
    "run x1=0 sweep=1 dir=pi arc=x5->x6 old=0.5,0.5 new=0.788,0.212\n"
    "run x1=0 sweep=1 dir=lambda arc=x3->x5 old=0.5,0.5 new=0.253684210526,0.746315789474\n"
    "run x1=0 sweep=1 dir=pi arc=x2->x4 old=0.5,0.5 new=0.881341209173,0.118658790827\n"
    "run x1=1 sweep=1 dir=pi arc=x3->x5 old=0.5,0.5 new=0.1,0.9\n"
    "run x1=1 sweep=1 dir=lambda arc=x5->x6 old=0.5,0.5 new=0.157894736842,0.842105263158\n"
    "run x1=1 sweep=1 dir=lambda arc=x2->x5 old=0.5,0.5 new=0.718947368421,0.281052631579\n"
    "run x1=1 sweep=1 dir=pi arc=x2->x5 old=0.5,0.5 new=0.05,0.95\n"
    "run x1=1 sweep=1 dir=pi arc=x5->x6 old=0.5,0.5 new=0.788,0.212\n"
    "run x1=1 sweep=1 dir=lambda arc=x3->x5 old=0.5,0.5 new=0.746315789474,0.253684210526\n"
    "run x1=1 sweep=1 dir=pi arc=x2->x4 old=0.5,0.5 new=0.118658790827,0.881341209173\n"
)
FIG1_X1_TRACE = (
    "run x1=1 sweep=1 dir=pi arc=x3->x5 old=0.5,0.5 new=0.1,0.9\n"
    "run x1=1 sweep=1 dir=lambda arc=x5->x6 old=0.5,0.5 new=0.157894736842,0.842105263158\n"
    "run x1=1 sweep=1 dir=lambda arc=x2->x5 old=0.5,0.5 new=0.718947368421,0.281052631579\n"
    "run x1=1 sweep=1 dir=pi arc=x2->x5 old=0.5,0.5 new=0.05,0.95\n"
    "run x1=1 sweep=1 dir=pi arc=x5->x6 old=0.5,0.5 new=0.788,0.212\n"
    "run x1=1 sweep=1 dir=lambda arc=x3->x5 old=0.5,0.5 new=0.746315789474,0.253684210526\n"
    "run x1=1 sweep=1 dir=pi arc=x2->x4 old=0.5,0.5 new=0.118658790827,0.881341209173\n"
)
CHAIN_TRACE = (
    "sweep=1 dir=lambda arc=A->B old=0.5,0.5 new=0.818181818182,0.181818181818\n"
    "sweep=1 dir=pi arc=A->B old=0.5,0.5 new=0.3,0.7\n"
)


def cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def write_chain(path, n):
    """An n-variable binary chain v0 -> v1 -> ... (names zero-padded) as a
    .bn file; returns the path as a string and the variable names."""
    width = len(str(n - 1))
    names = [f"v{i:0{width}d}" for i in range(n)]
    lines = [f"var {v} : f t" for v in names]
    lines.append(f"cpt {names[0]} :\n  0.5 0.5")
    for prev, v in zip(names, names[1:]):
        lines.append(f"cpt {v} | {prev} :\n  f : 0.9 0.1\n  t : 0.2 0.8")
    path.write_text("\n".join(lines) + "\n")
    return str(path), names


class TestValidate:
    def test_ok(self):
        code, out, _ = cli("validate", CHAIN)
        assert (code, out) == (0, "ok\n")

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.bn"
        bad.write_text("var A : f t\ncpt A :\n  0.5 0.6\n")
        code, _, err = cli("validate", str(bad))
        assert code == 2
        assert "3:3" in err and "row sum" in err

    def test_validation_error_exit_3(self, tmp_path):
        cyclic = tmp_path / "cyclic.bn"
        cyclic.write_text(
            "var A : f t\nvar B : f t\n"
            "cpt A | B :\n  f : 0.5 0.5\n  t : 0.5 0.5\n"
            "cpt B | A :\n  f : 0.5 0.5\n  t : 0.5 0.5\n"
        )
        code, out, _ = cli("validate", str(cyclic))
        assert code == 3
        assert "cycle" in out

    def test_missing_file_is_usage(self):
        code, _, err = cli("validate", "no-such-file.bn")
        assert code == 1

    def test_non_utf8_file_is_usage(self, tmp_path):
        latin1 = tmp_path / "latin1.bn"
        latin1.write_bytes("var caf\xe9 : f t\ncpt caf\xe9 :\n  0.5 0.5\n".encode("latin-1"))
        for command, *extra in (
            ["validate"], ["infer"], ["cutset"], ["dsep", "--x", "A", "--y", "B"]
        ):
            code, out, err = cli(command, str(latin1), *extra)
            assert (code, out) == (1, ""), command
            assert err.startswith("usage error: ") and "UTF-8" in err

    def test_infer_on_invalid_net_exit_3(self, tmp_path):
        partial = tmp_path / "partial.bn"
        partial.write_text("var A : f t\nvar B : f t\ncpt A :\n  0.5 0.5\n")
        code, _, err = cli("infer", str(partial))
        assert code == 3
        assert "no cpt" in err


class TestInfer:
    def test_chain_posterior_line(self):
        code, out, _ = cli("infer", CHAIN, "-e", "B=f")
        assert code == 0
        assert out == "BEL(A) f=0.658537 t=0.341463\n"

    def test_default_queries_in_declaration_order(self):
        code, out, _ = cli("infer", FIG1, "-e", "x6=1")
        lines = out.splitlines()
        assert [ln.split()[0] for ln in lines] == [
            "BEL(x1)", "BEL(x2)", "BEL(x3)", "BEL(x4)", "BEL(x5)",
        ]

    def test_likelihood_line(self):
        code, out, _ = cli("infer", CHAIN, "-e", "B=f", "--likelihood")
        assert code == 0
        assert out.splitlines()[-1] == "P(e) = 0.41"

    def test_methods_agree_byte_for_byte(self):
        outs = set()
        for method in ("auto", "conditioning", "exact"):
            code, out, _ = cli("infer", FIG1, "-e", "x6=1", "--method", method)
            assert code == 0
            outs.add(out)
        assert len(outs) == 1

    def test_polytree_method_on_chain(self):
        code, out, _ = cli("infer", CHAIN, "-e", "B=f", "--method", "polytree")
        assert code == 0
        assert out == "BEL(A) f=0.658537 t=0.341463\n"

    def test_polytree_method_on_loopy_net_is_usage_error(self):
        code, _, err = cli("infer", FIG1, "--method", "polytree")
        assert code == 1
        assert "singly connected" in err

    def test_runs_are_deterministic(self):
        first = cli("infer", FIG1, "-e", "x6=1", "--likelihood")
        second = cli("infer", FIG1, "-e", "x6=1", "--likelihood")
        assert first == second

    def test_bad_evidence_is_usage(self):
        assert cli("infer", CHAIN, "-e", "B=zebra")[0] == 1
        assert cli("infer", CHAIN, "-e", "nope=f")[0] == 1
        assert cli("infer", CHAIN, "-e", "Bf")[0] == 1

    def test_unknown_query_is_usage(self):
        assert cli("infer", CHAIN, "-q", "Z")[0] == 1

    def test_impossible_evidence_exit_4(self):
        code, _, err = cli("infer", DETERMINISTIC, "-e", "A=f", "-e", "B=t")
        assert code == 4
        assert "impossible" in err

    @pytest.mark.parametrize("method", ["auto", "polytree", "conditioning"])
    def test_query_belief_without_mass_exit_4(self, tmp_path, method):
        # P(e) = 1e-400 > 0, but r's belief lost every state (the oracle
        # keeps it); this used to end in a KeyError traceback
        path = tmp_path / "lost.bn"
        path.write_text(serialize(lost_state_net()))
        code, out, err = cli("infer", str(path), "-e", "c0=f", "-e", "c1=f", "--method", method)
        assert (code, out) == (4, "")
        assert err == "impossible evidence: evidence is impossible: belief of r has zero mass\n"
        code, out, _ = cli("infer", str(path), "-e", "c0=f", "-e", "c1=f", "--method", "exact")
        assert (code, out) == (0, "BEL(r) f=0.000000 t=1.000000\n")

    @pytest.mark.parametrize("method", ["auto", "polytree", "conditioning"])
    def test_evidence_of_probability_1e_400(self, tmp_path, method):
        path = tmp_path / "faint.bn"
        path.write_text(serialize(faint_evidence_net()))
        evidence = ["-e", "c0=f", "-e", "c1=f", "-e", "c2=f", "-e", "c3=f"]
        code, out, err = cli("infer", str(path), *evidence, "--likelihood", "--method", method)
        assert (code, out, err) == (0, "BEL(r) f=0.500000 t=0.500000\nP(e) = 1e-400\n", "")

    def test_star_with_1100_children_exit_0(self, tmp_path):
        # its lambda product underflowed to "impossible evidence" (exit 4)
        path = tmp_path / "star.bn"
        path.write_text(serialize(binary_star(1100, random.Random(3))[0]))
        code, out, err = cli("infer", str(path), "-q", "R", "--likelihood")
        assert (code, err) == (0, "")
        belief, likelihood = out.splitlines()
        assert belief == "BEL(R) f=0.350000 t=0.650000"
        assert float(likelihood.removeprefix("P(e) = ")) == pytest.approx(1.0, abs=1e-9)

    def test_non_convergence_exit_5(self, monkeypatch):
        from beliefprop import conditioning
        from beliefprop.errors import ConvergenceError

        def explode(*args, **kwargs):
            raise ConvergenceError("forced for the exit-code contract")

        # the infer command imports `conditioning` when it runs
        monkeypatch.setattr(conditioning, "auto_infer", explode)
        code, _, err = cli("infer", CHAIN, "-e", "B=f")
        assert code == 5
        assert "internal error" in err

    def test_likelihood_agrees_across_methods(self):
        values = []
        for method in ("auto", "conditioning", "exact"):
            _, out, _ = cli("infer", FIG1, "-e", "x6=1", "--likelihood",
                            "--method", method)
            values.append(float(out.splitlines()[-1].split("=")[1]))
        assert max(values) - min(values) <= 1e-9

    def test_exact_above_state_space_guard_is_usage(self, tmp_path):
        chain, _ = write_chain(tmp_path / "chain30.bn", 30)
        code, out, err = cli("infer", chain, "-e", "v29=t", "--method", "exact")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and "guard" in err
        assert cli("infer", chain, "-e", "v29=t")[0] == 0

    def test_cases_above_the_run_guard_are_usage(self, tmp_path):
        # 26 binary loops: 2^26 cutset cases, refused before any is built
        net = netgen.hubbed_loopy(random.Random(1), 200, 2, 26)
        path = tmp_path / "hubbed26.bn"
        path.write_text(serialize(net))
        code, out, err = cli("infer", str(path))
        assert (code, out) == (1, "")
        assert err.startswith("usage error: 67108864 cutset cases would need about ")
        assert err.endswith(f" above the {RUN_FLOATS_GUARD} guard\n") and err.count("\n") == 1

    def test_wide_cutset_member_above_the_run_guard_is_usage(self, tmp_path):
        # a diamond a -> b, a -> c, b -> d, c -> d whose cutset member a has
        # 40,000 states: each case would hold rows 40,000 states wide
        states = 40_000
        lines = [f"var a : {' '.join(f's{k}' for k in range(states))}"]
        lines += [f"var {v} : f t" for v in "bcd"]
        lines.append(f"cpt a :\n  {' '.join([repr(1 / states)] * states)}")
        for v in "bc":
            rows = "\n".join(f"  s{k} : 0.5 0.5" for k in range(states))
            lines.append(f"cpt {v} | a :\n{rows}")
        lines.append("cpt d | b c :\n" + "\n".join(
            f"  {x} {y} : 0.3 0.7" for x in "ft" for y in "ft"))
        path = tmp_path / "diamond.bn"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = cli("infer", str(path), "-q", "d")
        assert (code, out) == (1, "")
        assert err.startswith(f"usage error: {states} cutset cases would need about ")

    def test_likelihood_below_float_range_prints_from_log(self, tmp_path):
        chain, names = write_chain(tmp_path / "chain2000.bn", 2000)
        tokens = [f"{v}={'ft'[i % 2]}" for i, v in enumerate(names[1::2])]
        net = parse(Path(chain).read_text())
        log_p = auto_infer(net, parse_evidence(tokens, net), []).log_likelihood
        assert log_p < math.log(sys.float_info.min)
        argv = ["infer", chain, "-q", names[0], "--likelihood"]
        for token in tokens:
            argv += ["-e", token]
        code, out, _ = cli(*argv)
        assert code == 0
        mantissa, exponent = out.splitlines()[-1].removeprefix("P(e) = ").split("e")
        assert 1 <= float(mantissa) < 10
        assert abs(math.log10(float(mantissa)) + int(exponent) - log_p / math.log(10)) <= 1e-9
        _, out, _ = cli("infer", CHAIN, "-e", "B=f", "--likelihood")
        assert out.splitlines()[-1] == "P(e) = 0.41"

    def test_exact_keeps_evidence_below_float_range_possible(self, tmp_path):
        # every observation has probability 1e-19, so P(e) = 1e-342, which
        # the joint cannot hold unscaled
        names = [f"X{i}" for i in range(18)]
        lines = [f"var {v} : a b" for v in names + ["Y"]]
        lines.append("cpt X0 :\n  1e-19 1")
        for prev, v in zip(names, names[1:]):
            lines.append(f"cpt {v} | {prev} :\n  a : 1e-19 1\n  b : 1e-19 1")
        lines.append("cpt Y | X17 :\n  a : 0.3 0.7\n  b : 0.6 0.4")
        path = tmp_path / "underflow.bn"
        path.write_text("\n".join(lines) + "\n")
        argv = ["infer", str(path), "--likelihood"]
        for v in names:
            argv += ["-e", f"{v}=a"]
        results = {m: cli(*argv, "--method", m) for m in ("auto", "exact")}
        for code, out, err in results.values():
            assert (code, err) == (0, "")
            assert out.splitlines()[0] == "BEL(Y) a=0.300000 b=0.700000"
        (_, auto, _), (_, exact, _) = results.values()
        log10s = []
        for out in (auto, exact):
            mantissa, exponent = out.splitlines()[1].removeprefix("P(e) = ").split("e")
            log10s.append(math.log10(float(mantissa)) + int(exponent))
        assert log10s[0] == pytest.approx(-342, abs=1e-9)
        assert log10s[1] == pytest.approx(log10s[0], abs=1e-9)

    def test_explicit_query_subset(self):
        code, out, _ = cli("infer", FIG1, "-e", "x6=1", "-q", "x2")
        assert code == 0
        assert out.startswith("BEL(x2) ") and len(out.splitlines()) == 1

    def test_trace_file(self, tmp_path):
        trace = tmp_path / "trace.log"
        code, _, _ = cli("infer", CHAIN, "-e", "B=f", "--trace", str(trace))
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines
        assert all("arc=" in ln and "dir=" in ln for ln in lines)

    def test_exact_builds_the_joint_once(self, monkeypatch):
        from beliefprop import oracle

        calls = []
        build = oracle._masked_joint
        monkeypatch.setattr(
            oracle, "_masked_joint", lambda net, ev: calls.append(1) or build(net, ev)
        )
        code, out, _ = cli("infer", FIG1, "-e", "x6=1", "--likelihood", "--method", "exact")
        assert code == 0 and out.splitlines()[-1].startswith("P(e) = ")
        assert len(calls) == 1

    def test_conditioning_on_polytree_reports_zero_probability(self):
        for method in ("auto", "polytree", "conditioning"):
            code, out, err = cli("infer", DETERMINISTIC, "-e", "A=f", "-e", "B=t",
                                 "--method", method)
            assert (code, out) == (4, "")
            assert err == "impossible evidence: evidence has probability zero\n"

    def test_trace_with_conditioning_tags_runs(self, tmp_path):
        trace = tmp_path / "trace.log"
        cli("infer", FIG1, "-e", "x6=1", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        assert lines and all(ln.startswith("run x1=") for ln in lines)

    @pytest.mark.parametrize(
        "path, evidence, golden",
        [
            (FIG1, ["x6=1"], FIG1_TRACE),
            (FIG1, ["x1=1", "x6=1"], FIG1_X1_TRACE),
            (CHAIN, ["B=f"], CHAIN_TRACE),
        ],
        ids=["fig1", "fig1-member-observed", "chain"],
    )
    def test_trace_bytes_are_pinned(self, tmp_path, path, evidence, golden):
        trace = tmp_path / "trace.log"
        flags = [arg for e in evidence for arg in ("-e", e)]
        code, _, _ = cli("infer", path, *flags, "--trace", str(trace))
        assert code == 0 and trace.read_text() == golden

    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_trace_path_that_cannot_be_opened_is_usage(self, tmp_path, where):
        target = tmp_path / "missing" / "t.log" if where == "missing directory" else tmp_path
        code, out, err = cli("infer", CHAIN, "--trace", str(target))
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and str(target) in err


def _seeded_network(tmp_path, kind, seed):
    """A seeded random network written as a .bn file, plus its evidence as
    -e arguments."""
    net, evidence = (random_polytree if kind == "polytree" else random_loopy)(seed)
    path = tmp_path / f"{kind}{seed}.bn"
    path.write_text(serialize(net))
    args = []
    for var, state in evidence.items():
        args += ["-e", f"{var}={net.variable(var).states[state]}"]
    return str(path), args


@pytest.mark.parametrize(
    "source",
    [("fixture", FIG1, ["-e", "x6=1"]), ("fixture", CHAIN, ["-e", "B=f"]),
     ("fixture", DETERMINISTIC, ["-e", "B=t"])]
    + [("polytree", seed) for seed in range(4)]
    + [("loopy", seed) for seed in range(4)],
)
def test_inference_methods_share_one_path(tmp_path, source):
    """auto, conditioning and (on a polytree) polytree print the same bytes
    and write the same trace: they run the same conditioning code."""
    if source[0] == "fixture":
        path, evidence = source[1], source[2]
    else:
        path, evidence = _seeded_network(tmp_path, *source)
    net = parse(Path(path).read_text())
    methods = ["auto", "conditioning"] + (["polytree"] if net.is_singly_connected() else [])
    results = set()
    for method in methods:
        trace = tmp_path / f"trace-{method}.log"
        code, out, err = cli("infer", path, *evidence, "--likelihood", "--method", method,
                             "--trace", str(trace))
        results.add((code, out, err, trace.read_text()))
    assert len(results) == 1


class TestDsep:
    def test_separated(self):
        code, out, _ = cli("dsep", FIG1, "--x", "x2", "--y", "x3", "--given", "x1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d-separated"
        assert any(ln.startswith("path x2-x1-x3:") and "blocked" in ln for ln in lines)

    def test_connected(self):
        code, out, _ = cli("dsep", FIG1, "--x", "x2", "--y", "x3", "--given", "x1,x6")
        assert out.splitlines()[0] == "connected"
        assert any("path x2-x5-x3: open" in ln for ln in out.splitlines())

    def test_no_given(self):
        code, out, _ = cli("dsep", CHAIN, "--x", "A", "--y", "B")
        assert code == 0
        assert out.splitlines()[0] == "connected"

    def test_unknown_name_is_usage(self):
        assert cli("dsep", FIG1, "--x", "zzz", "--y", "x3")[0] == 1

    def test_endpoint_in_given_is_usage(self):
        assert cli("dsep", FIG1, "--x", "x2", "--y", "x3", "--given", "x2")[0] == 1

    def test_path_longer_than_recursion_limit(self, tmp_path):
        chain, names = write_chain(tmp_path / "chain5000.bn", 5000)
        code, out, _ = cli("dsep", chain, "--x", names[0], "--y", names[-1])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "connected"
        assert lines[1:] == [f"path {'-'.join(names)}: open"]


class TestCutset:
    def test_fig1(self):
        code, out, _ = cli("cutset", FIG1)
        assert code == 0
        assert out == "members: x1\nassignments: 2\n"

    def test_exhaustive(self):
        code, out, _ = cli("cutset", FIG1, "--exhaustive")
        assert out == "members: x1\nassignments: 2\n"

    def test_exhaustive_above_size_limit_is_usage(self, tmp_path):
        chain, _ = write_chain(tmp_path / "chain17.bn", 17)
        code, out, err = cli("cutset", chain, "--exhaustive")
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and "limited to 16 variables" in err

    def test_polytree_has_empty_cutset(self):
        code, out, _ = cli("cutset", CHAIN)
        assert out == "members: (none)\nassignments: 1\n"


class TestUsage:
    def test_no_command(self):
        assert cli()[0] == 1

    def test_unknown_command(self):
        assert cli("frobnicate")[0] == 1

    def test_unknown_method(self):
        assert cli("infer", CHAIN, "--method", "quantum")[0] == 1


def test_console_script_entry_point():
    proc = subprocess.run(
        ["beliefprop", "infer", CHAIN, "-e", "B=f"],
        capture_output=True,
        text=True,
        env=dict(os.environ),
    )
    assert proc.returncode == 0
    assert proc.stdout == "BEL(A) f=0.658537 t=0.341463\n"


@pytest.mark.parametrize("module", ["beliefprop", "beliefprop.cli"])
def test_python_dash_m_entry_points(module):
    src = str(Path(__file__).parent.parent / "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", module, "infer", CHAIN, "-e", "B=f"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "BEL(A) f=0.658537 t=0.341463\n"


ENGINE = {"conditioning", "cutset", "dsep", "oracle", "plan", "polytree"}


def engine_modules_after(code: str) -> set[str]:
    """The engine modules that a fresh interpreter holds after `code`."""
    src = str(Path(__file__).parent.parent / "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code += "\nimport sys\nprint(*(m.split('.')[-1] for m in sys.modules" \
            " if m.startswith('beliefprop.')))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return set(proc.stdout.split()) & ENGINE


@pytest.mark.parametrize(("argv", "loaded"), [
    (["validate", FIG1], set()),
    (["dsep", FIG1, "--x", "x2", "--y", "x3"], {"dsep"}),
    (["cutset", FIG1], {"cutset"}),
])
def test_commands_load_only_the_engine_modules_they_use(argv, loaded):
    code = f"import io\nfrom beliefprop import cli\nassert cli.run({argv!r}, io.StringIO()) == 0"
    assert engine_modules_after(code) == loaded


def test_every_exported_name_resolves():
    code = "\n".join([
        "import importlib, beliefprop",
        "assert not hasattr(beliefprop, 'no_such_name')",
        "names = {name: getattr(beliefprop, name) for name in beliefprop.__all__}",
        "star = {}",
        "exec('from beliefprop import *', star)",
        "assert all(star[name] is value for name, value in names.items())",
        "homes = [importlib.import_module(f'beliefprop.{m}') for m in beliefprop._HOMES]",
        "assert all(any(getattr(h, name, None) is value for h in homes)"
        " for name, value in names.items())",
        "assert set(beliefprop.__all__) <= set(dir(beliefprop))",
        "assert beliefprop.cli is importlib.import_module('beliefprop.cli')",
    ])
    assert engine_modules_after(code) == ENGINE
