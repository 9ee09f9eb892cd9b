import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beliefprop.dsep import (
    CONVERGING,
    DIVERGING,
    SERIAL,
    UndirectedPath,
    blocking_nodes,
    d_separated,
    is_blocked,
    list_paths,
)
from beliefprop.oracle import oracle_conditional_independence

from helpers import build_net, chain_net, fig1_net, random_loopy, random_polytree


def chain3():
    return build_net(
        [("A", ("f", "t")), ("B", ("f", "t")), ("C", ("f", "t"))],
        [
            ("A", (), [[0.3, 0.7]]),
            ("B", ("A",), [[0.9, 0.1], [0.2, 0.8]]),
            ("C", ("B",), [[0.6, 0.4], [0.1, 0.9]]),
        ],
    )


class TestListPaths:
    def test_chain_has_one_path(self):
        assert [p.nodes for p in list_paths(chain3(), "A", "C")] == [("A", "B", "C")]

    def test_fig1_paths_between_x2_x3(self):
        nodes = {p.nodes for p in list_paths(fig1_net(), "x2", "x3")}
        assert ("x2", "x1", "x3") in nodes
        assert ("x2", "x5", "x3") in nodes

    def test_disconnected_pair(self):
        net = build_net(
            [("A", ("f", "t")), ("B", ("f", "t"))],
            [("A", (), [[0.5, 0.5]]), ("B", (), [[0.5, 0.5]])],
        )
        assert list_paths(net, "A", "B") == []

    def test_lexicographic_order(self):
        paths = [p.nodes for p in list_paths(fig1_net(), "x2", "x3")]
        assert paths == sorted(paths)

    def test_same_endpoint_rejected(self):
        with pytest.raises(ValueError):
            list_paths(chain3(), "A", "A")


class TestKinds:
    def test_serial_diverging_converging(self):
        net = fig1_net()
        assert UndirectedPath(("x2", "x1", "x3")).kinds(net) == (DIVERGING,)
        assert UndirectedPath(("x2", "x5", "x3")).kinds(net) == (CONVERGING,)
        assert UndirectedPath(("x1", "x5", "x6"))  # not adjacent; kinds unused
        assert UndirectedPath(("x1", "x3", "x5")).kinds(net) == (SERIAL,)


class TestIsBlocked:
    def test_diverging_node_in_s(self):
        net = fig1_net()
        assert is_blocked(net, UndirectedPath(("x2", "x1", "x3")), {"x1"})

    def test_head_to_head_blocks_by_default(self):
        net = fig1_net()
        assert is_blocked(net, UndirectedPath(("x2", "x5", "x3")), set())

    def test_observed_descendant_unblocks(self):
        net = fig1_net()
        assert not is_blocked(net, UndirectedPath(("x2", "x5", "x3")), {"x6"})

    def test_invalid_path_rejected(self):
        with pytest.raises(ValueError):
            is_blocked(fig1_net(), UndirectedPath(("x1", "x6")), set())

    def test_path_through_a_node_twice_rejected(self):
        with pytest.raises(ValueError, match="^not a simple path$"):
            blocking_nodes(chain_net(), UndirectedPath(("A", "B", "A")), set())


class TestDSeparated:
    def test_fig1_claims(self):
        net = fig1_net()
        assert d_separated(net, "x2", "x3", {"x1"})
        assert d_separated(net, "x2", "x3", {"x1", "x4"})
        assert not d_separated(net, "x2", "x3", {"x1", "x6"})

    def test_endpoint_in_s_rejected(self):
        with pytest.raises(ValueError):
            d_separated(fig1_net(), "x2", "x3", {"x2"})

    def test_equal_endpoints_rejected(self):
        with pytest.raises(ValueError):
            d_separated(fig1_net(), "x2", "x2", set())

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(KeyError, match="unknown variable"):
            d_separated(fig1_net(), "x2", "nope", set())

    def test_stops_at_the_first_open_path(self, monkeypatch):
        import beliefprop.dsep as dsep_mod

        net = fig1_net()
        assert len(list_paths(net, "x2", "x3")) > 1
        made = []
        monkeypatch.setattr(
            dsep_mod, "UndirectedPath", lambda nodes: made.append(nodes) or UndirectedPath(nodes)
        )
        assert not d_separated(net, "x2", "x3", set())
        assert made == [("x2", "x1", "x3")]  # the first path is open


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 1_000))
def test_symmetry(seed, pick_seed):
    net, _ = random_loopy(seed, max_nodes=8)
    rng = random.Random(pick_seed)
    names = net.var_names()
    x, y = rng.sample(names, 2)
    rest = [n for n in names if n not in (x, y)]
    s = set(rng.sample(rest, rng.randint(0, len(rest))))
    assert d_separated(net, x, y, s) == d_separated(net, y, x, s)


@pytest.mark.parametrize("seed", range(5))
def test_soundness_against_oracle(seed):
    net, _ = random_polytree(seed, max_nodes=8, max_card=2)
    names = net.var_names()
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            rest = [n for n in names if n not in (x, y)]
            subsets = [set()] + [{a} for a in rest]
            subsets += [{a, b} for a in rest for b in rest if a < b]
            for s in subsets:
                if d_separated(net, x, y, s):
                    assert oracle_conditional_independence(net, x, y, s, 1e-9), (
                        x, y, s,
                    )


def test_removing_non_collider_never_makes_it_the_blocker():
    rng = random.Random(5)
    for seed in range(20):
        net, _ = random_loopy(seed, max_nodes=7)
        names = net.var_names()
        x, y = rng.sample(names, 2)
        for path in list_paths(net, x, y):
            interior = list(path.interior())
            kinds = path.kinds(net)
            rest = [n for n in names if n not in (x, y)]
            s = set(rng.sample(rest, min(2, len(rest))))
            for node, kind in zip(interior, kinds):
                if kind != CONVERGING and node in s:
                    assert node not in blocking_nodes(net, path, s - {node})
