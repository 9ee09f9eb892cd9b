import pytest

from beliefprop import cutset
from beliefprop.cutset import greedy_cutset, is_valid_cutset, min_cutset_exhaustive
from beliefprop.model import Cpt, Network, Variable

from helpers import build_net, chain_net, diamond_net, fig1_net, random_loopy


def two_diamonds():
    left = diamond_net(prefix="l", seed=1)
    right = diamond_net(prefix="r", seed=2)
    return Network(
        left.variables + right.variables, left.cpt_list + right.cpt_list
    )


class TestIsValidCutset:
    def test_fig1_x1_is_valid(self):
        assert is_valid_cutset(fig1_net(), {"x1"})

    def test_fig1_x2_is_valid(self):
        assert is_valid_cutset(fig1_net(), {"x2"})

    def test_fig1_x5_is_not(self):
        assert not is_valid_cutset(fig1_net(), {"x5"})

    def test_empty_set_on_loopy_net(self):
        assert not is_valid_cutset(fig1_net(), set())

    def test_empty_set_on_polytree(self):
        assert is_valid_cutset(chain_net(), set())

    def test_unknown_member(self):
        with pytest.raises(KeyError):
            is_valid_cutset(chain_net(), {"zzz"})


class TestGreedyCutset:
    def test_polytree_gives_empty(self):
        assert greedy_cutset(chain_net()) == []

    def test_fig1_single_node(self):
        members = greedy_cutset(fig1_net())
        assert members == ["x1"]  # highest degree on a cycle, lexicographic tie
        assert is_valid_cutset(fig1_net(), members)

    def test_two_diamonds_need_two(self):
        net = two_diamonds()
        members = greedy_cutset(net)
        assert len(members) == 2
        assert {m[0] for m in members} == {"l", "r"}  # one per diamond
        assert is_valid_cutset(net, members)
        assert len(min_cutset_exhaustive(net)) == 2

    def test_search_runs_once_per_network(self, monkeypatch):
        net = two_diamonds()
        first = greedy_cutset(net)
        calls = []
        search = cutset._cycle_nodes
        monkeypatch.setattr(cutset, "_cycle_nodes", lambda *a: calls.append(1) or search(*a))
        first.append("lA")  # the caller owns the list it gets
        second = greedy_cutset(net)
        assert calls == [] and second == first[:-1] and second is not first

    @pytest.mark.parametrize("seed", range(30))
    def test_always_valid_and_near_optimal(self, seed):
        net, _ = random_loopy(seed, max_nodes=10)
        greedy = greedy_cutset(net)
        assert is_valid_cutset(net, greedy)
        best = min_cutset_exhaustive(net)
        assert len(greedy) <= 2 * len(best)

    @pytest.mark.parametrize("seed", range(10))
    def test_reduced_graph_is_forest_sized(self, seed):
        net, _ = random_loopy(seed + 50, max_nodes=10)
        members = set(greedy_cutset(net))
        remaining = {
            tuple(sorted(e)) for e in net.edges() if e[0] not in members
        }
        assert len(remaining) <= len(net.variables) - 1


class TestExhaustive:
    def test_fig1(self):
        assert min_cutset_exhaustive(fig1_net()) == ["x1"]

    def test_polytree(self):
        assert min_cutset_exhaustive(chain_net()) == []

    def test_diamond(self):
        members = min_cutset_exhaustive(diamond_net())
        assert len(members) == 1
        assert is_valid_cutset(diamond_net(), members)

    def test_size_guard(self):
        n = 17
        variables = [Variable(f"r{i}", ("f", "t")) for i in range(n)]
        cpts = [Cpt(f"r{i}", (), [[0.5, 0.5]]) for i in range(n)]
        with pytest.raises(ValueError, match="exhaustive"):
            min_cutset_exhaustive(Network(variables, cpts))

    def test_lexicographic_tie_break(self):
        # A, B, and C each break the diamond alone; expect the smallest name
        net = build_net(
            [("B", ("f", "t")), ("A", ("f", "t")), ("C", ("f", "t")), ("D", ("f", "t"))],
            [
                ("B", (), [[0.5, 0.5]]),
                ("A", ("B",), [[0.5, 0.5]] * 2),
                ("C", ("B",), [[0.5, 0.5]] * 2),
                ("D", ("A", "C"), [[0.5, 0.5]] * 4),
            ],
        )
        for single in ("A", "B", "C"):
            assert is_valid_cutset(net, {single})
        assert min_cutset_exhaustive(net) == ["A"]
