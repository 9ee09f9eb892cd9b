import math
import random
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from beliefprop import conditioning, cutset, model, polytree
from beliefprop import plan as plan_module
from beliefprop.conditioning import (
    auto_infer,
    condition_network,
    infer_conditioned,
)
from beliefprop.errors import ImpossibleEvidenceError
from beliefprop.model import validate
from beliefprop.oracle import oracle_evidence_probability, oracle_marginal
from beliefprop.polytree import evidence_log_likelihood, fuse_belief, propagate

from helpers import (
    binary_star,
    build_net,
    chain_net,
    diamond_net,
    faint_evidence_net,
    fig1_fixed,
    fig1_net,
    lost_state_net,
    random_loopy,
    random_polytree,
    random_table,
)

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import netgen  # noqa: E402


class TestConditionNetwork:
    def test_children_lose_the_cutset_parent(self):
        net = fig1_net(seed=9)
        reduced, evidence = condition_network(net, ["x1"], {"x1": 0})
        assert reduced.parents("x2") == ()
        assert reduced.parents("x3") == ()
        assert reduced.parents("x4") == ("x2",)
        assert evidence == {"x1": 0}
        assert reduced.is_singly_connected()
        assert validate(reduced) == []

    def test_rows_are_slices_at_the_assigned_state(self):
        net = fig1_net(seed=9)
        for value in (0, 1):
            reduced, _ = condition_network(net, ["x1"], {"x1": value})
            np.testing.assert_array_equal(
                reduced.cpts["x2"].table[0], net.cpts["x2"].table[value]
            )
            # x4 had parents (x1, x2); slicing x1 keeps the x2-indexed rows
            np.testing.assert_array_equal(
                reduced.cpts["x4"].table, net.cpt_tensor("x4")[value]
            )

    def test_member_keeps_own_cpt_and_parents(self):
        net = fig1_net(seed=9)
        reduced, _ = condition_network(net, ["x2"], {"x2": 1})
        assert reduced.parents("x2") == ("x1",)
        np.testing.assert_array_equal(
            reduced.cpts["x2"].table, net.cpts["x2"].table
        )

    def test_original_evidence_carries_over(self):
        net = fig1_net(seed=9)
        _, evidence = condition_network(net, ["x1"], {"x1": 0}, {"x6": 1})
        assert evidence == {"x6": 1, "x1": 0}

    def test_conflicting_evidence(self):
        net = fig1_net(seed=9)
        with pytest.raises(ImpossibleEvidenceError):
            condition_network(net, ["x1"], {"x1": 0}, {"x1": 1})
        _, evidence = condition_network(net, ["x1"], {"x1": 0}, {"x1": 0})
        assert evidence == {"x1": 0}

    def test_empty_cutset_is_identity(self):
        net = chain_net()
        reduced, evidence = condition_network(net, [], {})
        assert reduced is net
        assert evidence == {}
        assert reduced.cpts is not None
        np.testing.assert_array_equal(
            reduced.cpts["B"].table, net.cpts["B"].table
        )

    def test_invalid_cutset_rejected(self):
        with pytest.raises(ValueError, match=r"^not a valid cutset: \['x5'\]$"):
            condition_network(fig1_net(), ["x5"], {"x5": 0})

    def test_reduced_network_keeps_its_forest_proof(self, monkeypatch):
        reduced, _ = condition_network(fig1_net(), ["x1"], {"x1": 0})
        monkeypatch.setattr(model, "is_forest", None)  # any further proof fails
        assert reduced.is_singly_connected()
        assert polytree.two_pass_plan(reduced, [])

    def test_incomplete_assignment_rejected(self):
        with pytest.raises(ValueError, match="cover"):
            condition_network(fig1_net(), ["x1"], {})

    @pytest.mark.parametrize("seed", [None, *range(8)])
    def test_plan_tensors_are_the_sliced_tables(self, seed):
        # each case row of a plan tensor is the table this function slices
        # (which the reduced network's Cpt renormalizes, to within an ulp)
        net = fig1_net(seed=5) if seed is None else random_loopy(seed)[0]
        members = cutset.greedy_cutset(net)
        plan = polytree.two_pass_plan(net, members)
        for k, combo in enumerate(plan.cases.tolist()):
            reduced, _ = condition_network(net, members, dict(zip(members, combo)))
            for v, tensor in zip(plan.names, plan.tensors):
                if any(p in members for p in net.parents(v)):
                    np.testing.assert_allclose(tensor[k], reduced.cpt_tensor(v), rtol=0, atol=1e-15)
                else:
                    assert tensor is net.cpt_tensor(v)
                    np.testing.assert_array_equal(tensor, reduced.cpt_tensor(v))


class TestInferConditioned:
    def test_invalid_cutset_raises_before_any_message(self):
        records = []
        with pytest.raises(ValueError, match=r"^not a valid cutset: \['x5'\]$"):
            infer_conditioned(fig1_net(), {}, ["x5"], ["x1"], on_update=records.append)
        assert records == []

    def test_fig1_matches_oracle_with_evidence(self):
        net = fig1_net(seed=21)
        evidence = {"x6": 1}
        queries = [v for v in net.var_names() if v not in evidence]
        mixed, runs = infer_conditioned(net, evidence, ["x1"], queries)
        assert len(runs) == 2
        for q in queries:
            np.testing.assert_allclose(
                mixed.beliefs[q], oracle_marginal(net, evidence, q), atol=1e-9
            )
        assert math.exp(mixed.log_likelihood) == pytest.approx(
            oracle_evidence_probability(net, evidence), abs=1e-9
        )

    def test_no_evidence_weights_equal_cutset_prior(self):
        net = fig1_net(seed=4)
        mixed, runs = infer_conditioned(net, {}, ["x1"], ["x1"])
        prior = net.cpts["x1"].table[0]
        weights = _normalized_weights(runs)
        np.testing.assert_allclose(weights, prior, atol=1e-12)
        np.testing.assert_allclose(mixed.beliefs["x1"], prior, atol=1e-12)

    def test_weight_sum_equals_oracle_evidence_probability(self):
        net = fig1_net(seed=33)
        evidence = {"x4": 0, "x6": 1}
        _, runs = infer_conditioned(net, evidence, ["x1"], ["x2"])
        total = sum(math.exp(r.log_weight) for r in runs if r.log_weight is not None)
        assert total == pytest.approx(
            oracle_evidence_probability(net, evidence), abs=1e-9
        )

    def test_query_inside_cutset(self):
        net = fig1_net(seed=21)
        evidence = {"x6": 1}
        mixed, _ = infer_conditioned(net, evidence, ["x1"], ["x1"])
        np.testing.assert_allclose(
            mixed.beliefs["x1"], oracle_marginal(net, evidence, "x1"), atol=1e-9
        )

    def test_repeated_member_counts_once(self):
        net = fig1_net(seed=3)
        evidence = {"x6": 1}
        mixed, runs = infer_conditioned(net, evidence, ["x1", "x1"], ["x2"])
        assert len(runs) == 2
        assert mixed.log_likelihood == pytest.approx(
            math.log(oracle_evidence_probability(net, evidence)), abs=1e-9
        )
        np.testing.assert_allclose(
            mixed.beliefs["x2"], oracle_marginal(net, evidence, "x2"), atol=1e-9
        )

    def test_repeated_query_counts_once_in_one_shared_tuple(self):
        net = fig1_net(seed=3)
        mixed, runs = infer_conditioned(net, {"x6": 1}, ["x1"], ["x3", "x2", "x3"])
        results = [mixed.beliefs] + [run.beliefs for run in runs]
        assert None not in results
        assert all(list(beliefs) == ["x3", "x2"] for beliefs in results)
        assert len({id(beliefs._queries) for beliefs in results}) == 1

    @pytest.mark.parametrize("var", ["x1", "x2"])  # a cutset member, then not
    def test_out_of_range_evidence_is_a_range_error(self, var):
        with pytest.raises(ValueError, match=f"^state 5 out of range for variable '{var}'$"):
            auto_infer(fig1_net(seed=3), {var: 5}, ["x3"])

    def test_unknown_query_then_evidence_then_cutset(self):
        """An unknown query is reported before bad evidence, and bad
        evidence before an invalid cutset."""
        net, bad_evidence, bad_cutset = fig1_net(), {"x2": 5}, ["x5"]
        with pytest.raises(KeyError, match="unknown variable 'nobody'"):
            infer_conditioned(net, bad_evidence, bad_cutset, ["x1", "nobody", "ghost"])
        with pytest.raises(KeyError, match="unknown variable 'nobody'"):
            auto_infer(net, bad_evidence, ["x1", "nobody"])
        with pytest.raises(ValueError, match="^state 5 out of range for variable 'x2'$"):
            infer_conditioned(net, bad_evidence, bad_cutset, ["x1"])
        with pytest.raises(ValueError, match=r"^not a valid cutset: \['x5'\]$"):
            infer_conditioned(net, {"x2": 1}, bad_cutset, ["x1"])

    def test_two_binary_members_enumerate_four_runs(self):
        left = diamond_net(prefix="l", seed=1)
        right = diamond_net(prefix="r", seed=2)
        from beliefprop.model import Network

        net = Network(left.variables + right.variables, left.cpt_list + right.cpt_list)
        members = ["lA", "rA"]
        mixed, runs = infer_conditioned(net, {}, members, ["lD", "rD"])
        assert len(runs) == 4
        for q in ("lD", "rD"):
            np.testing.assert_allclose(
                mixed.beliefs[q], oracle_marginal(net, {}, q), atol=1e-9
            )

    def test_evidence_on_cutset_member_skips_conflicting_runs(self):
        net = fig1_net(seed=21)
        evidence = {"x1": 1, "x6": 0}
        mixed, runs = infer_conditioned(net, evidence, ["x1"], ["x2"])
        impossible = [r for r in runs if r.log_weight is None]
        assert len(impossible) == 1 and impossible[0].assignment == {"x1": 0}
        np.testing.assert_allclose(
            mixed.beliefs["x2"], oracle_marginal(net, evidence, "x2"), atol=1e-9
        )

    def test_all_runs_impossible(self):
        net = build_net(
            [("A", ("f", "t")), ("B", ("f", "t")), ("C", ("f", "t")), ("D", ("f", "t"))],
            [
                ("A", (), [[0.5, 0.5]]),
                ("B", ("A",), [[1.0, 0.0], [0.0, 1.0]]),
                ("C", ("A",), [[1.0, 0.0], [0.0, 1.0]]),
                ("D", ("B", "C"), [[1, 0], [1, 0], [1, 0], [0, 1]]),
            ],
        )
        # B=t forces A=t forces C=t forces D=t; D=f contradicts
        with pytest.raises(ImpossibleEvidenceError):
            infer_conditioned(net, {"B": 1, "D": 0}, ["A"], ["C"])


def _normalized_weights(runs):
    live = [r for r in runs if r.log_weight is not None]
    top = max(r.log_weight for r in live)
    raw = [math.exp(r.log_weight - top) for r in live]
    return np.array(raw) / sum(raw)


def count_calls(monkeypatch, *names, callers=None):
    """Count the calls of each function in `names` (by default the forest
    proofs) in the engine's modules and numpy; with `callers`, also append
    the module and function name of each call's caller to it."""
    names = names or ("is_forest", "_cycle_nodes")
    calls = dict.fromkeys(names, 0)

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if callers is not None:
                frame = sys._getframe(1)
                callers.append((frame.f_globals["__name__"], frame.f_code.co_name))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for owner in (model, cutset, plan_module, polytree, conditioning, np):
        for name in names:
            if hasattr(owner, name):
                counted(owner, name)
    return calls


class TestForestProofs:
    """Each network proves once that it is a forest: the input network for
    the cutset search, the compiled plan for its cutset."""

    count = staticmethod(count_calls)

    def test_warm_polytree_proves_nothing_again(self, monkeypatch):
        net, _ = random_polytree(8, max_nodes=10)
        auto_infer(net, {}, net.var_names())
        calls = self.count(monkeypatch)
        auto_infer(net, {}, net.var_names())
        assert calls == {"is_forest": 0, "_cycle_nodes": 0}

    @pytest.mark.parametrize("evidence", [{"x6": 1}, {"x1": 0}], ids=["two-live", "one-live"])
    def test_loopy_network_proves_its_cutset_once(self, monkeypatch, evidence):
        net = fig1_net(seed=2)
        calls = self.count(monkeypatch)
        auto_infer(net, evidence, ["x5"])
        assert calls == {"is_forest": 2, "_cycle_nodes": 2}
        calls.update(is_forest=0, _cycle_nodes=0)
        auto_infer(net, evidence, ["x5"])  # the network and its plan are warm now
        assert calls == {"is_forest": 0, "_cycle_nodes": 0}

    def test_warm_loopy_network_runs_every_case_in_one_pass(self, monkeypatch):
        net = fig1_net(seed=2)
        queries = ["x2", "x5"]
        auto_infer(net, {"x6": 1}, queries)
        calls = self.count(
            monkeypatch, "condition_network", "propagate", "is_forest", "_cycle_nodes", "einsum"
        )
        passes, compute = [0], polytree.TwoPassRun._compute

        def counted(run, unit, *args):
            passes[0] += 1
            return compute(run, unit, *args)

        monkeypatch.setattr(polytree.TwoPassRun, "_compute", counted)
        counts = []
        for evidence in ({"x6": 1}, {"x1": 0, "x6": 1}):  # two live cases, then one
            calls["einsum"], passes[0] = 0, 0
            auto_infer(net, evidence, queries)
            counts.append((calls.pop("einsum"), passes[0]))
        assert calls == {"condition_network": 0, "propagate": 0, "is_forest": 0, "_cycle_nodes": 0}
        # one einsum per step and one kernel pass per phase, whatever the cases
        assert counts[0] == counts[1] and min(counts[0]) > 0


class TestAutoInfer:
    def test_polytree_route_matches_direct_propagation(self):
        net, evidence = random_polytree(8, max_nodes=10)
        if oracle_evidence_probability(net, evidence) == 0:
            evidence = {}
        queries = [v for v in net.var_names() if v not in evidence]
        mixed = auto_infer(net, evidence, queries)
        state, _ = propagate(net, evidence, schedule="two-pass")
        for q in queries:
            np.testing.assert_array_equal(mixed.beliefs[q], fuse_belief(net, state, q))

    def test_fig1_goes_through_conditioning(self):
        net = fig1_net(seed=2)
        assert not net.is_singly_connected()
        mixed = auto_infer(net, {"x6": 1}, ["x2"])
        np.testing.assert_allclose(
            mixed.beliefs["x2"], oracle_marginal(net, {"x6": 1}, "x2"), atol=1e-9
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_random_loopy_matches_oracle(self, seed):
        net, evidence = random_loopy(seed, max_nodes=12)
        if oracle_evidence_probability(net, evidence) == 0:
            evidence = {}
        queries = [v for v in net.var_names() if v not in evidence]
        mixed = auto_infer(net, evidence, queries)
        for q in queries:
            np.testing.assert_allclose(
                mixed.beliefs[q], oracle_marginal(net, evidence, q), atol=1e-9
            )

    def test_impossible_evidence_raises(self):
        net = build_net(
            [("A", ("f", "t")), ("B", ("f", "t"))],
            [("A", (), [[1.0, 0.0]]), ("B", ("A",), [[1.0, 0.0], [0.0, 1.0]])],
        )
        with pytest.raises(ImpossibleEvidenceError, match="^evidence has probability zero$"):
            auto_infer(net, {"A": 0, "B": 1}, ["A"])

    def test_builds_no_per_case_results(self, monkeypatch):
        net = netgen.hubbed_loopy(random.Random(1), 80, 2, 12)  # 4,096 cases
        evidence = {net.var_names()[5]: 1}
        queries = net.var_names()
        expected = infer_conditioned(net, evidence, cutset.greedy_cutset(net), queries)[0]
        built = []
        run_type, beliefs_init = conditioning.ConditionedRun, conditioning.Beliefs.__init__

        def counted_run(*args):
            built.append("run")
            return run_type(*args)

        def counted_beliefs(self, *args):
            built.append("beliefs")
            beliefs_init(self, *args)

        monkeypatch.setattr(conditioning, "ConditionedRun", counted_run)
        monkeypatch.setattr(conditioning.Beliefs, "__init__", counted_beliefs)
        mixed = auto_infer(net, evidence, queries)
        assert built == ["beliefs"]  # the mixed belief's alone
        assert mixed.beliefs.values.tobytes() == expected.beliefs.values.tobytes()
        assert list(mixed.beliefs) == list(expected.beliefs)
        assert repr(mixed.log_likelihood) == repr(expected.log_likelihood)

    def test_star_with_1100_children_keeps_its_priors(self):
        # the product of the children's lambdas is 2^-1100 at the root
        net, prior, tables = binary_star(1100, random.Random(3))
        mixed = auto_infer(net, {}, net.var_names())
        assert mixed.log_likelihood == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(mixed.beliefs["R"], prior, atol=1e-9)
        for c, table in zip(net.children("R"), tables):
            np.testing.assert_allclose(mixed.beliefs[c], prior @ table, atol=1e-9)

    def test_star_with_1000_children_takes_under_a_second(self):
        # 0.97 s warm before messages were computed a tree depth at a time
        net, prior, _ = binary_star(1000, random.Random(3))
        auto_infer(net, {}, net.var_names())
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            mixed = auto_infer(net, {}, net.var_names())
            elapsed.append(time.perf_counter() - start)
        np.testing.assert_allclose(mixed.beliefs["R"], prior, atol=1e-9)
        assert min(elapsed) < 0.97

    def test_wide_hub_with_1024_cases_keeps_step_memory_bounded(self):
        # the pi messages of a 100-child hub gather 100 x 100 lambdas of
        # 1,024 cases each, 160 MiB in one step; the steps are chunked
        rng = random.Random(5)
        prior = np.array([0.35, 0.65])
        tables = [random_table(rng, 2, 2) for _ in range(100)]
        variables = [("H", ("f", "t"))] + [(f"c{i:02d}", ("f", "t")) for i in range(100)]
        cpts = [("H", (), [prior])] + [(f"c{i:02d}", ("H",), t) for i, t in enumerate(tables)]
        for k in range(10):  # ten diamonds: one binary cutset member each
            a, b, c, d = (f"d{k}{x}" for x in "abcd")
            variables += [(v, ("f", "t")) for v in (a, b, c, d)]
            cpts += [(a, (), random_table(rng, 1, 2)), (b, (a,), random_table(rng, 2, 2)),
                     (c, (a,), random_table(rng, 2, 2)), (d, (b, c), random_table(rng, 4, 2))]
        net = build_net(variables, cpts)
        assert len(polytree.two_pass_plan(net, cutset.greedy_cutset(net)).cases) == 1024
        tracemalloc.start()
        try:
            mixed = auto_infer(net, {}, net.var_names())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20
        assert mixed.log_likelihood == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(mixed.beliefs["H"], prior, atol=1e-9)
        for i, table in enumerate(tables):
            np.testing.assert_allclose(mixed.beliefs[f"c{i:02d}"], prior @ table, atol=1e-9)

    def test_evidence_of_probability_1e_400_keeps_the_root_uniform(self):
        net = faint_evidence_net()
        evidence = {"c0": 0, "c1": 0, "c2": 0, "c3": 0}
        mixed = auto_infer(net, evidence, ["r"])
        np.testing.assert_allclose(mixed.beliefs["r"], [0.5, 0.5], atol=1e-9)
        assert mixed.log_likelihood == pytest.approx(-400 * math.log(10), abs=1e-9)

    @pytest.mark.parametrize("method", ["auto", "empty cutset"])
    def test_query_belief_without_mass_raises(self, method):
        # a possible case whose belief of r lost every state used to be
        # mixed as all-zero and read back as a missing query (KeyError)
        net, evidence = lost_state_net(), {"c0": 0, "c1": 0}
        message = "^evidence is impossible: belief of r has zero mass$"
        with pytest.raises(ImpossibleEvidenceError, match=message) as info:
            if method == "auto":
                auto_infer(net, evidence, ["c1", "r"])
            else:
                infer_conditioned(net, evidence, [], ["r"])
        assert info.value.variable == "r"
        assert auto_infer(net, evidence, ["c1"]).log_likelihood == pytest.approx(
            -400 * math.log(10), abs=1e-9
        )

    def test_polytree_is_one_empty_case_of_weight_one(self):
        net, evidence = random_polytree(4, max_nodes=10)
        if oracle_evidence_probability(net, evidence) == 0:
            evidence = {}
        queries = net.var_names()
        mixed, runs = infer_conditioned(net, evidence, [], queries)
        assert [(r.assignment, r.log_weight) for r in runs] == [({}, mixed.log_likelihood)]
        for q in queries:
            np.testing.assert_array_equal(mixed.beliefs[q], runs[0].beliefs[q])
        np.testing.assert_array_equal(mixed.beliefs.values, runs[0].beliefs.values)

    def test_beliefs_map_exactly_the_queries(self):
        for net, evidence, queries in (
            (chain_net(), {"B": 0}, ["A"]),
            (fig1_net(seed=2), {"x6": 1}, ["x5", "x1", "x2"]),
        ):
            beliefs = auto_infer(net, evidence, queries).beliefs
            assert list(beliefs) == queries and len(beliefs) == len(queries)
            assert "x6" not in beliefs and "B" not in beliefs and "nope" not in beliefs
            with pytest.raises(KeyError):
                beliefs["nope"]
            with pytest.raises(ValueError):
                beliefs[queries[0]][0] = 0.5

    @pytest.mark.parametrize("net", [chain_net(), fig1_net(seed=2)], ids=["polytree", "loopy"])
    def test_result_is_compact_and_owns_its_vector(self, net):
        mixed = auto_infer(net, {}, net.var_names())
        assert not hasattr(mixed, "__dict__") and not hasattr(mixed.beliefs, "__dict__")
        assert mixed.beliefs.values.base is None  # not a view of the per-case rows

    def test_deep_chain_matches_forward_backward(self):
        # 5,000 links: deeper than the interpreter's recursion limit
        n, rng = 5000, random.Random(5)
        names = [f"c{i:04d}" for i in range(n)]
        tables = [random_table(rng, 1, 3)] + [random_table(rng, 3, 3) for _ in range(n - 1)]
        net = build_net(
            [(v, ("a", "b", "c")) for v in names],
            [(names[0], (), tables[0])]
            + [(names[i], (names[i - 1],), tables[i]) for i in range(1, n)],
        )
        evidence = {names[i]: rng.randrange(3) for i in range(3, n, 7)}
        observed = [np.ones(3) for _ in range(n)]
        for i, v in enumerate(names):
            if v in evidence:
                observed[i] = np.eye(3)[evidence[v]]

        # forward: alpha_i = P(x_i, e_<=i), rescaled each step
        alpha = tables[0][0] * observed[0]
        log_p = 0.0
        for i in range(1, n):
            log_p += math.log(alpha.sum())
            alpha = (alpha / alpha.sum()) @ tables[i] * observed[i]
        log_p += math.log(alpha.sum())
        # backward: beta_i = P(e_>i | x_i), rescaled each step
        beta = np.ones(3)
        for i in range(n - 1, 0, -1):
            beta = tables[i] @ (observed[i] * beta)
            beta = beta / beta.sum()
        first = tables[0][0] * observed[0] * beta

        mixed = auto_infer(net, evidence, [names[0], names[-1]])
        assert mixed.log_likelihood == pytest.approx(log_p, rel=1e-12)
        assert evidence_log_likelihood(net, evidence) == pytest.approx(log_p, rel=1e-12)
        np.testing.assert_allclose(mixed.beliefs[names[0]], first / first.sum(), atol=1e-9)
        np.testing.assert_allclose(mixed.beliefs[names[-1]], alpha / alpha.sum(), atol=1e-9)


def premixed_network(net, member):
    """The wrong way: average the member out of its children's tables by its
    prior *before* propagating, instead of running one case per value."""
    from beliefprop.model import Cpt, Network

    prior = net.cpts[member].table[0]
    new_cpts = []
    for v in net.variables:
        cpt = net.cpts[v.name]
        if member not in cpt.parents:
            new_cpts.append(cpt)
            continue
        axis = cpt.parents.index(member)
        tensor = net.cpt_tensor(v.name)
        mixed = np.tensordot(prior, tensor, axes=(0, axis))
        kept = tuple(p for p in cpt.parents if p != member)
        new_cpts.append(Cpt(v.name, kept, mixed.reshape(-1, v.card)))
    return Network(net.variables, new_cpts)


def test_premixing_priors_disagrees_with_oracle():
    # mixing the conditioned messages before propagation counts the cutset
    # prior twice; the per-run mixture must match the oracle instead
    net = fig1_fixed()
    evidence = {"x6": 1}
    wrong_net = premixed_network(net, "x1")
    assert wrong_net.is_singly_connected()
    state, _ = propagate(wrong_net, evidence)
    wrong = fuse_belief(wrong_net, state, "x2")
    truth = oracle_marginal(net, evidence, "x2")
    assert np.max(np.abs(wrong - truth)) > 1e-3
    mixed = auto_infer(net, evidence, ["x2"])
    np.testing.assert_allclose(mixed.beliefs["x2"], truth, atol=1e-9)
