import itertools
import math
import random

import numpy as np
import pytest

from beliefprop.model import (
    ROW_SUM_RENORM_TOL,
    Cpt,
    Network,
    Variable,
    all_assignments,
    forest_walks,
    is_forest,
    joint_probability,
    validate,
)

from helpers import (
    binary_star,
    build_net,
    bushy_polytree,
    chain_net,
    diamond_net,
    fig1_net,
    markov_chain,
    random_loopy,
    random_polytree,
)


def all_sources_diameter(net) -> int:
    """The diameter by a breadth-first search from every node."""
    best = 0
    for v in net.var_names():
        dist, frontier = {v: 0}, [v]
        while frontier:
            reached = []
            for n in frontier:
                for m in net.neighbors(n):
                    if m not in dist:
                        dist[m] = dist[n] + 1
                        reached.append(m)
            frontier = reached
        best = max(best, max(dist.values()))
    return best


def forest_of_chains(*lengths):
    """Disjoint binary chains of the given numbers of variables."""
    var_defs, cpt_defs = [], []
    for k, n in enumerate(lengths):
        names = [f"t{k}v{i}" for i in range(n)]
        var_defs += [(v, ("f", "t")) for v in names]
        cpt_defs += [(names[0], (), [[0.5, 0.5]])]
        cpt_defs += [(v, (u,), [[0.5, 0.5], [0.5, 0.5]]) for u, v in zip(names, names[1:])]
    return build_net(var_defs, cpt_defs)


def single_var_net():
    return build_net([("A", ("f", "t"))], [("A", (), [[0.3, 0.7]])])


class TestValidate:
    def test_minimal_net_is_clean(self):
        assert validate(single_var_net()) == []

    def test_cycle_is_reported(self):
        net = build_net(
            [("A", ("f", "t")), ("B", ("f", "t"))],
            [
                ("A", ("B",), [[0.5, 0.5], [0.5, 0.5]]),
                ("B", ("A",), [[0.5, 0.5], [0.5, 0.5]]),
            ],
        )
        assert any("cycle" in p for p in validate(net))

    def test_bad_row_sum_is_reported(self):
        net = build_net([("A", ("f", "t"))], [("A", (), [[0.5, 0.6]])])
        report = validate(net)
        assert len(report) == 1 and "sums to" in report[0] and "cpt A" in report[0]

    def test_nearly_good_row_is_renormalized(self):
        cpt = Cpt("A", (), [[0.3, 0.7 + 5e-7]])
        assert cpt.table.sum() == pytest.approx(1.0, abs=1e-15)
        assert validate(build_net([("A", ("f", "t"))], [])) != []  # missing cpt

    def test_missing_cpt(self):
        net = Network([Variable("A", ("f", "t"))], [])
        assert validate(net) == ["variable A: no cpt"]

    def test_duplicate_cpt(self):
        net = Network(
            [Variable("A", ("f", "t"))],
            [Cpt("A", (), [[0.5, 0.5]]), Cpt("A", (), [[0.4, 0.6]])],
        )
        assert any("duplicate table" in p for p in validate(net))

    def test_unknown_parent(self):
        net = Network(
            [Variable("A", ("f", "t"))],
            [Cpt("A", ("Z",), [[0.5, 0.5], [0.5, 0.5]])],
        )
        assert any("unknown parent 'Z'" in p for p in validate(net))

    def test_single_state_variable(self):
        net = Network([Variable("A", ("only",))], [Cpt("A", (), [[1.0]])])
        assert any("at least 2 states" in p for p in validate(net))

    def test_wrong_row_count(self):
        net = build_net(
            [("A", ("f", "t")), ("B", ("f", "t"))],
            [("A", (), [[0.5, 0.5]]), ("B", ("A",), [[0.5, 0.5]])],
        )
        assert any("1 rows, expected 2" in p for p in validate(net))

    def test_negative_entry(self):
        net = build_net([("A", ("f", "t"))], [("A", (), [[1.5, -0.5]])])
        assert any("negative" in p for p in validate(net))

    @pytest.mark.parametrize("variables, cpts, problem", [
        ([("A", "ft"), ("A", "ft")], [("A", (), [[0.5, 0.5]])],
         "variable A: duplicate declaration"),
        ([("A", "ff")], [("A", (), [[0.5, 0.5]])], "variable A: duplicate state labels"),
        ([("A", "ft")], [("A", (), [[0.5, 0.5]]), ("Z", (), [[0.5, 0.5]])],
         "cpt Z: child is not a declared variable"),
        ([("A", "ft"), ("B", "ft")], [("A", (), [[0.5, 0.5]]), ("B", ("A", "A"), [[0.5, 0.5]] * 4)],
         "cpt B: duplicate parent in parent list"),
    ])
    def test_networks_that_parse_would_refuse(self, variables, cpts, problem):
        # built in Python, so only `validate` stands between them and the engines
        assert validate(build_net(variables, cpts)) == [problem]


class TestJointProbability:
    def test_chain_example(self):
        assert joint_probability(chain_net(), {"A": 0, "B": 0}) == pytest.approx(
            0.27, abs=1e-12
        )

    def test_deterministic_chain_is_one(self):
        net = build_net(
            [("A", ("f", "t")), ("B", ("f", "t"))],
            [("A", (), [[1.0, 0.0]]), ("B", ("A",), [[1.0, 0.0], [0.0, 1.0]])],
        )
        assert joint_probability(net, {"A": 0, "B": 0}) == 1.0

    def test_missing_assignment(self):
        with pytest.raises(ValueError, match="missing"):
            joint_probability(chain_net(), {"A": 0})

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            joint_probability(chain_net(), {"A": 0, "B": 5})

    def test_fig1_factorizes_into_six_terms(self):
        net = fig1_net(seed=11)
        rng = np.random.default_rng(0)
        for _ in range(20):
            asg = {n: int(rng.integers(2)) for n in net.var_names()}
            expect = 1.0
            for child in net.var_names():
                cpt = net.cpts[child]
                row = net.row_index(child, tuple(asg[p] for p in cpt.parents))
                expect *= cpt.table[row, asg[child]]
            assert joint_probability(net, asg) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_joint_sums_to_one(self, seed):
        net, _ = random_polytree(seed, max_nodes=6, max_card=3)
        total = sum(joint_probability(net, a) for a in all_assignments(net))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_joint_sums_to_one_loopy(self):
        net, _ = random_loopy(2, max_nodes=8)
        total = sum(joint_probability(net, a) for a in all_assignments(net))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestTopology:
    def test_fig1_parents_and_descendants(self):
        net = fig1_net()
        assert net.parents("x5") == ("x2", "x3")
        assert net.descendants("x5") == {"x6"}
        assert net.descendants("x1") == {"x2", "x3", "x4", "x5", "x6"}

    def test_children_in_declaration_order(self):
        net = fig1_net()
        assert net.children("x1") == ("x2", "x3", "x4")
        assert net.children("x6") == ()

    def test_unknown_variable(self):
        with pytest.raises(KeyError, match="unknown variable"):
            fig1_net().parents("nope")

    def test_neighbors_sorted_and_cached(self):
        net = fig1_net()
        assert net.neighbors("x2") == ("x1", "x4", "x5")
        assert net.neighbors("x2") is net.neighbors("x2")
        with pytest.raises(KeyError, match="unknown variable"):
            net.neighbors("nope")

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_chain_diameter(self, n):
        names = [f"c{i}" for i in range(n)]
        var_defs = [(m, ("f", "t")) for m in names]
        cpt_defs = [(names[0], (), [[0.5, 0.5]])]
        cpt_defs += [
            (names[i], (names[i - 1],), [[0.5, 0.5], [0.5, 0.5]])
            for i in range(1, n)
        ]
        assert build_net(var_defs, cpt_defs).underlying_diameter() == n - 1

    def test_fig1_diameter(self):
        assert fig1_net().underlying_diameter() == 3

    @pytest.mark.parametrize("make", [
        *(lambda seed=seed: random_polytree(seed, max_nodes=20)[0] for seed in range(10)),
        *(lambda seed=seed: bushy_polytree(seed, n=60)[0] for seed in range(4)),
        *(lambda seed=seed: random_loopy(seed)[0] for seed in range(10)),
        lambda: markov_chain(40, [0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]]),
        lambda: binary_star(200, random.Random(1))[0],
        lambda: forest_of_chains(3, 7, 1),
        fig1_net,
        diamond_net,
    ])
    def test_diameter_is_the_all_sources_search(self, make):
        net = make()
        assert net.underlying_diameter() == all_sources_diameter(net)

    def test_edges_match_parent_lists(self):
        net = fig1_net()
        assert set(net.edges()) == {
            ("x1", "x2"), ("x1", "x3"), ("x1", "x4"),
            ("x2", "x4"), ("x2", "x5"), ("x3", "x5"), ("x5", "x6"),
        }


class TestSinglyConnected:
    def test_chain_is_singly_connected(self):
        assert chain_net().is_singly_connected()

    def test_fig1_is_not(self):
        assert not fig1_net().is_singly_connected()

    def test_diamond_is_not(self):
        assert not diamond_net().is_singly_connected()

    def test_forest_counts(self):
        net = build_net(
            [("A", ("f", "t")), ("B", ("f", "t")), ("C", ("f", "t"))],
            [
                ("A", (), [[0.5, 0.5]]),
                ("B", (), [[0.5, 0.5]]),
                ("C", ("A",), [[0.5, 0.5], [0.5, 0.5]]),
            ],
        )
        assert net.is_singly_connected()

    @pytest.mark.parametrize("seed", range(8))
    def test_forest_edge_count_characterization(self, seed):
        net, _ = random_polytree(seed, max_nodes=10)
        undirected = {tuple(sorted(e)) for e in net.edges()}
        walks = forest_walks(net.var_names(), net.neighbors)
        assert len(undirected) == len(net.variables) - len(walks)

    def test_is_forest_stops_at_the_arc_closing_a_loop(self):
        arcs = [("A", "B"), ("B", "C"), ("A", "C")]
        assert is_forest(arcs[:2], "ABC")
        assert not is_forest(arcs, "ABC")


class TestTreeWalks:
    def forest(self):
        # declared C, R, S, T, U: trees {R, S, T, C} (R -> S, R -> T -> C) and {U}
        return build_net(
            [("C", ("f", "t")), ("R", ("f", "t")), ("S", ("f", "t")),
             ("T", ("f", "t")), ("U", ("f", "t"))],
            [
                ("C", ("T",), [[0.5, 0.5]] * 2),
                ("R", (), [[0.5, 0.5]]),
                ("S", ("R",), [[0.5, 0.5]] * 2),
                ("T", ("R",), [[0.5, 0.5]] * 2),
                ("U", (), [[0.5, 0.5]]),
            ],
        )

    def test_smallest_name_roots_each_tree_in_declaration_order(self):
        # depth-first pre-order; the stack pops the largest neighbor name first
        net = self.forest()
        assert forest_walks(net.var_names(), net.neighbors) == (
            ("C", (("T", "C"), ("R", "T"), ("S", "R"))),
            ("U", ()),
        )


def test_immutable_tables():
    net = chain_net()
    with pytest.raises(ValueError):
        net.cpts["A"].table[0, 0] = 0.9


def test_row_index_is_row_major():
    net = fig1_net()
    cards = [net.card(p) for p in net.parents("x5")]
    expect = 0
    for config in itertools.product(*(range(c) for c in cards)):
        assert net.row_index("x5", config) == expect
        expect += 1


def renormalized_by_masks(table) -> np.ndarray:
    """The table as `Cpt` first renormalized it, with vectorized masks:
    every row divided by its sum if that is positive and within
    ROW_SUM_RENORM_TOL of 1, else by 1.0.  The reference for `Cpt`'s bits."""
    arr = np.array(table, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    sums = arr.sum(axis=1)
    fixable = (np.abs(sums - 1.0) <= ROW_SUM_RENORM_TOL) & (sums > 0)
    arr /= np.where(fixable, sums, 1.0)[:, None]
    return arr


def awkward_row(rng: np.random.Generator, width: int) -> np.ndarray:
    """A row summing to 1 exactly, within 1e-6 of it, 2e-6 off, to 0, or
    with a negative, NaN or inf entry."""
    row = rng.random(width) ** 2
    row /= row.sum()
    kind = rng.integers(7)
    if kind == 0:
        row = np.zeros(width)
        row[rng.integers(width)] = 1.0
    elif kind == 1:
        row *= 1 + rng.uniform(-1e-6, 1e-6)
    elif kind == 2:
        row *= 1 + rng.choice([-2e-6, 2e-6])
    elif kind == 3:
        row[:] = 0.0
    elif kind > 3:
        row[rng.integers(width)] = [-0.25, np.nan, np.inf][kind - 4]
    return row


def test_cpt_tables_are_bitwise_the_masked_renormalization():
    rng = np.random.default_rng(17)
    for n_rows in range(1, 65):
        for width in (1, 2, 3, 5, 8, 13):
            rows = [awkward_row(rng, width) for _ in range(n_rows)]
            for table in (np.array(rows), [row.tolist() for row in rows]):
                got = Cpt("A", (), table).table
                want = renormalized_by_masks(table)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    for row in ([0.3, 0.7 + 5e-7], [0.3, 0.7 + 2e-6], [0.0, 0.0], [np.nan, 1.0], [0.5, 0.5]):
        got = Cpt("A", (), row).table  # a 1-D row is a one-row table
        assert np.array_equal(got.view(np.uint64), renormalized_by_masks(row).view(np.uint64))
