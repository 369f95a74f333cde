import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import panel_from_rates
from helpers import (
    aligned_train_rates_oracle,
    bfs_oracle,
    parent_loop_oracle,
    pearson_oracle,
    ragged_panels,
    train_correlation_oracle,
)
from hiergru.errors import (
    AllZeroWeightsWarning,
    CycleDetectedError,
    HierarchyError,
    MissingRootError,
    MultipleRootsError,
    NegativeWeightError,
    NoChildrenError,
    SingularDesignWarning,
    UnknownParentError,
)
from hiergru.hierarchy import (
    build_hierarchy,
    child_weights,
    impute_weights,
    load_hierarchy,
    precision_schedule,
    train_correlations,
)


def us_shaped_rows():
    """350 nodes spread over levels 0..8, mimicking a national CPI tree."""
    rows = [("n0", None, 100.0)]
    level_nodes = {0: ["n0"]}
    count = 1
    level = 0
    while count < 350:
        level += 1
        level_nodes[level] = []
        parents = level_nodes[level - 1]
        want = min(350 - count, max(len(parents), 43 if level < 8 else 350))
        for i in range(want):
            node = f"n{count}"
            rows.append((node, parents[i % len(parents)], 1.0))
            level_nodes[level].append(node)
            count += 1
            if level == 8 and count == 350:
                break
    return rows


@st.composite
def random_tree_rows(draw):
    """Rows of a random tree in random order; ids are a random relabelling,
    so id order and insertion order disagree."""
    size = draw(st.integers(1, 40))
    ids = [f"n{k}" for k in draw(st.permutations(range(size)))]
    rows = [(ids[0], None, 1.0)]
    rows += [(ids[i], ids[draw(st.integers(0, i - 1))], 1.0) for i in range(1, size)]
    return draw(st.permutations(rows))


# node ids, "" among them; a parent may also be unknown ("Z"), empty or None
_IDS = ["A", "B", "C", "D", ""]


@st.composite
def hostile_rows(draw):
    """Up to six (node_id, parent_id, weight) rows over four letters and
    the empty id: duplicates, self-parents, unknown or empty parents, and
    missing, negative or non-finite weights."""
    weights = st.sampled_from(
        [None, 0.0, 1.0, 2.5, -1.0, math.nan, math.inf, -math.inf]
    )
    row = st.tuples(
        st.sampled_from(_IDS), st.sampled_from([*_IDS, "Z", None]), weights
    )
    return draw(st.lists(row, max_size=6))


def well_formed(rows) -> bool:
    """Unique non-empty ids, known parents and finite weights >= 0: every
    rule but the tree-shape rules (one root, no parent loop)."""
    ids = [n for n, _, _ in rows]
    return (
        all(ids) and len(set(ids)) == len(ids)
        and all(not p or p in ids for _, p, _ in rows)
        and all(w is None or 0.0 <= w < math.inf for _, _, w in rows)
    )


def assert_levels_match_bfs(rows):
    h = build_hierarchy(rows)
    root = next(n for n, p, _ in rows if not p)
    order, level = bfs_oracle(root, {n: p for n, p, _ in rows if p})
    depth = max(level.values())
    assert h.levels == tuple(
        tuple(n for n in order if level[n] == lv) for lv in range(depth + 1)
    )
    assert h.level == level
    assert h.bfs_order() == tuple(order)
    assert h.non_root_nodes() == tuple(order[1:])
    assert h.depth() == depth


class TestBuildAndLoad:
    def test_three_node_tree(self, three_node_tree):
        h = three_node_tree
        assert h.root == "A"
        assert h.level == {"A": 0, "B": 1, "C": 1}
        assert h.children["A"] == ("B", "C")

    def test_load_csv_roundtrip(self, tmp_path):
        path = tmp_path / "hierarchy.csv"
        path.write_text(
            "node_id,parent_id,weight\nA,,1.0\nB,A,0.6\nC,A,0.4\nD,B,\n"
        )
        h = load_hierarchy(path)
        assert h.level["D"] == 2
        assert "D" not in h.weight  # empty weight stays missing

    def test_cycle_detected(self):
        with pytest.raises(CycleDetectedError, match="B.*C|C.*B"):
            build_hierarchy([("B", "C", 1.0), ("C", "B", 1.0)])

    def test_cycle_beside_valid_root(self):
        with pytest.raises(CycleDetectedError):
            build_hierarchy([("A", None, 1.0), ("B", "C", 1.0), ("C", "B", 1.0)])

    def test_missing_root(self):
        with pytest.raises(MissingRootError):
            build_hierarchy([])

    def test_multiple_roots(self):
        with pytest.raises(MultipleRootsError, match="A.*B"):
            build_hierarchy([("A", None, 1.0), ("B", None, 1.0)])

    def test_unknown_parent(self):
        with pytest.raises(UnknownParentError, match="ghost"):
            build_hierarchy([("A", None, 1.0), ("B", "ghost", 1.0)])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeightError, match="B"):
            build_hierarchy([("A", None, 1.0), ("B", "A", -0.1)])

    @pytest.mark.parametrize("w", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight(self, w):
        with pytest.raises(HierarchyError, match="'B'.*not finite"):
            build_hierarchy([("A", None, 1.0), ("B", "A", w)])

    def test_duplicate_node(self):
        with pytest.raises(HierarchyError, match="duplicate"):
            build_hierarchy([("A", None, 1.0), ("A", None, 1.0)])

    def test_us_shaped_fixture_has_nine_levels(self):
        h = build_hierarchy(us_shaped_rows())
        assert len(h.nodes) == 350
        assert h.depth() == 8
        assert sorted(set(h.level.values())) == list(range(9))


class TestLevels:
    def test_us_shaped_fixture_matches_bfs(self):
        assert_levels_match_bfs(us_shaped_rows())

    @settings(max_examples=200, deadline=None)
    @given(random_tree_rows())
    def test_random_tree_matches_bfs(self, rows):
        assert_levels_match_bfs(rows)

    @settings(max_examples=500, deadline=None)
    @given(hostile_rows())
    def test_hostile_rows_give_a_tree_or_a_hierarchy_error(self, rows):
        parent = {n: p for n, p, _ in rows if p}
        loop = well_formed(rows) and parent_loop_oracle(parent)
        try:
            h = build_hierarchy(rows)
        except HierarchyError as exc:
            assert isinstance(exc, CycleDetectedError) == loop
            return
        assert well_formed(rows) and not loop
        listed = [n for ns in h.levels for n in ns]
        assert sorted(listed) == sorted(n for n, _, _ in rows) == list(h.nodes)
        assert h.levels[0] == (h.root,) and h.root not in h.parent
        for lv, ns in enumerate(h.levels[1:], start=1):
            assert all(h.level[parent[n]] == lv - 1 for n in ns)

    def test_cycle_message_names_nodes_below_the_loop(self):
        rows = [("A", None, 1.0), ("B", "C", 1.0), ("C", "B", 1.0),
                ("E", "B", 1.0), ("D", "A", 1.0)]
        with pytest.raises(CycleDetectedError, match=r": B, C, E$"):
            build_hierarchy(rows)


class TestAlignedTrainRates:
    @settings(max_examples=200, deadline=None)
    @given(ragged_panels())
    def test_matches_period_intersection(self, panel):
        nodes = list(panel.nodes)
        node_sets = [[a, b] for a in nodes for b in nodes if a != b] + [nodes]
        for ns in node_sets:
            first, columns = panel.train_overlap(ns)
            got = np.column_stack(columns)
            want = aligned_train_rates_oracle(panel, ns)
            assert (got.shape, got.dtype) == (want.shape, want.dtype)
            assert got.tobytes() == want.tobytes()
            if want.shape[0]:
                start = int(panel.periods[ns[0]][0])
                assert columns[0][0] == panel.rates[ns[0]][first - start]


class TestTrainCorrelations:
    @settings(max_examples=200, deadline=None)
    @given(ragged_panels(), st.data())
    def test_every_ordered_pair_matches_pearson_over_its_overlap(self, panel, data):
        nodes = list(panel.nodes)
        pairs = [(a, b) for a in nodes for b in nodes if a != b]
        got = train_correlations(panel, pairs)
        want = {}
        for a, b in pairs:
            r = train_correlation_oracle(panel, a, b)
            if r is not None:
                want[a, b] = r.hex()
        assert {pair: r.hex() for pair, r in got.items()} == want
        # a tree over the same nodes: each node's parent drawn from before it
        rows = [(nodes[0], None, 1.0)] + [
            (n, data.draw(st.sampled_from(nodes[:i])), 1.0)
            for i, n in enumerate(nodes[1:], start=1)
        ]
        h = build_hierarchy(rows)
        sched = precision_schedule(panel, h, alpha=0.0)
        assert {n: c.hex() for n, c in sched.correlation.items()} == {
            n: want.get((n, h.parent[n]), (0.0).hex()) for n in h.non_root_nodes()
        }


class TestParentCorrelation:
    """A node's parent correlation C, read from its precision schedule."""

    @staticmethod
    def parent_correlation(panel, h, n):
        return precision_schedule(panel, h, alpha=0.0).correlation[n]

    def test_identical_child(self):
        rates = np.sin(np.arange(40) / 3.0)
        panel = panel_from_rates({"A": rates, "B": rates})
        h = build_hierarchy([("A", None, 1.0), ("B", "A", 1.0)])
        assert self.parent_correlation(panel, h, "B") == pytest.approx(1.0)

    def test_sign_flip(self):
        rates = np.sin(np.arange(40) / 3.0)
        panel = panel_from_rates({"A": rates, "B": -rates})
        h = build_hierarchy([("A", None, 1.0), ("B", "A", 1.0)])
        assert self.parent_correlation(panel, h, "B") == pytest.approx(-1.0)

    def test_matches_sum_formula_oracle(self):
        child = [1.0, 2.0, 3.0, 5.0]
        parent = [1.0, 2.0, 3.0, 4.0]
        panel = panel_from_rates(
            {"A": np.array(parent), "B": np.array(child)}, train_fraction=0.99
        )
        h = build_hierarchy([("A", None, 1.0), ("B", "A", 1.0)])
        assert self.parent_correlation(panel, h, "B") == pytest.approx(
            pearson_oracle(child, parent), abs=1e-12
        )

    def test_training_split_only(self):
        # series agree on the training window and diverge wildly afterwards;
        # the correlation must not see the test segment
        base = np.sin(np.arange(40) / 3.0)
        child = base.copy()
        child[30:] += 100.0
        panel = panel_from_rates({"A": base, "B": child})  # split at 30
        h = build_hierarchy([("A", None, 1.0), ("B", "A", 1.0)])
        assert self.parent_correlation(panel, h, "B") == pytest.approx(1.0)

    def test_insufficient_overlap(self):
        panel = panel_from_rates({"A": np.arange(40.0)})
        panel.rates["B"] = np.array([1.0, 2.0])
        panel.periods["B"] = np.array([38, 39])
        panel.split_index["B"] = 2
        h = build_hierarchy([("A", None, 1.0), ("B", "A", 1.0)])
        assert self.parent_correlation(panel, h, "B") == 0.0

    def test_degenerate_variance(self):
        panel = panel_from_rates({"A": np.ones(20), "B": np.arange(20.0)})
        h = build_hierarchy([("A", None, 1.0), ("B", "A", 1.0)])
        assert self.parent_correlation(panel, h, "B") == 0.0

    def test_root_rejected(self):
        panel = panel_from_rates({"A": np.arange(20.0)})
        h = build_hierarchy([("A", None, 1.0)])
        sched = precision_schedule(panel, h, alpha=0.0)
        assert "A" not in sched.correlation and "A" not in sched.tau


class TestPrecisionSchedule:
    @pytest.mark.parametrize(
        "alpha,corr,expected",
        [
            (1.5, 1.0, 12.18249),
            (1.5, 0.0, 4.48169),
            (0.5, -1.0, 0.60653),
        ],
    )
    def test_exponential_rule(self, alpha, corr, expected):
        # direct evaluation of exp(alpha + C)
        assert math.exp(alpha + corr) == pytest.approx(expected, abs=5e-6)

    def test_schedule_values(self):
        rates = np.sin(np.arange(40) / 3.0)
        panel = panel_from_rates({"A": rates, "B": rates, "C": -rates})
        h = build_hierarchy([("A", None, 1.0), ("B", "A", 1.0), ("C", "A", 1.0)])
        sched = precision_schedule(panel, h, alpha=1.5)
        assert set(sched.tau) == {"B", "C"}  # no entry for the root
        assert sched.tau["B"] == pytest.approx(math.exp(1.5 + 1.0), rel=1e-12)
        assert sched.tau["C"] == pytest.approx(math.exp(1.5 - 1.0), rel=1e-12)

    def test_monotone_in_correlation(self):
        # fixed alpha: tau strictly increases with the correlation
        alphas = 1.5
        cs = np.linspace(-1, 1, 21)
        taus = [math.exp(alphas + c) for c in cs]
        assert all(a < b for a, b in zip(taus, taus[1:]))

    def test_fallback_neutral(self):
        panel = panel_from_rates({"A": np.ones(20), "B": np.arange(20.0)})
        h = build_hierarchy([("A", None, 1.0), ("B", "A", 1.0)])
        sched = precision_schedule(panel, h, alpha=1.5)
        assert sched.correlation["B"] == 0.0
        assert sched.tau["B"] == pytest.approx(math.exp(1.5), rel=1e-12)


class TestImputeWeights:
    def _tree(self, weights):
        rows = [("P", None, 1.0)]
        rows += [(k, "P", w) for k, w in weights.items()]
        return build_hierarchy(rows)

    def test_exact_mixture_recovered(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=60)
        b = rng.normal(size=60)
        parent = 0.7 * a + 0.3 * b
        panel = panel_from_rates({"P": parent, "A": a, "B": b})
        h = self._tree({"A": None, "B": None})
        out = impute_weights(panel, h)
        assert out.weight["A"] == pytest.approx(0.7, abs=1e-9)
        assert out.weight["B"] == pytest.approx(0.3, abs=1e-9)

    def test_single_child(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=40)
        panel = panel_from_rates({"P": a, "A": a})
        h = self._tree({"A": None})
        out = impute_weights(panel, h)
        assert out.weight["A"] == pytest.approx(1.0)

    def test_identical_children_fall_back_uniform(self):
        """Identical children, and the other two designs that give no
        shares: one warning each, naming its reason, and uniform shares."""
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 40))
        short = np.array([1.0, 2.0, 3.0, 4.0])
        cases = [
            ({"P": 2 * a, "A": a, "B": a}, 0.75, "collinear child series"),
            # one training row for two children
            ({"P": short, "A": short, "B": short[::-1]}, 0.25,
             "too few aligned observations"),
            ({"P": -a - b, "A": a, "B": b}, 0.75,
             "all regression coefficients non-positive"),
        ]
        h = self._tree({"A": None, "B": None})
        for series, fraction, reason in cases:
            panel = panel_from_rates(series, fraction)
            with pytest.warns(SingularDesignWarning) as record:
                out = impute_weights(panel, h)
            assert [str(w.message) for w in record] == [
                f"group under 'P': {reason}, using uniform weights"
            ]
            assert out.weight["A"] == 0.5 and out.weight["B"] == 0.5

    def test_idempotent_on_fully_weighted(self, small_synth):
        h, panel = small_synth
        assert impute_weights(panel, h) is h

    def test_existing_weights_untouched(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=60)
        b = rng.normal(size=60)
        parent = 0.5 * a + 0.5 * b
        panel = panel_from_rates({"P": parent, "A": a, "B": b})
        h = self._tree({"A": 0.9, "B": None})
        out = impute_weights(panel, h)
        assert out.weight["A"] == 0.9
        assert out.weight["B"] == pytest.approx(0.5, abs=1e-9)

    def test_negative_coefficients_clamped(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=80)
        b = rng.normal(size=80)
        parent = 1.0 * a - 0.4 * b  # negative loading on B
        panel = panel_from_rates({"P": parent, "A": a, "B": b})
        h = self._tree({"A": None, "B": None})
        out = impute_weights(panel, h)
        assert out.weight["B"] == 0.0
        assert out.weight["A"] == pytest.approx(1.0)


class TestChildWeights:
    def test_normalization(self, three_node_tree):
        w = child_weights(three_node_tree, "A")
        assert w == {"B": pytest.approx(0.6), "C": pytest.approx(0.4)}
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)

    def test_three_one(self):
        h = build_hierarchy([("P", None, 1.0), ("A", "P", 3.0), ("B", "P", 1.0)])
        w = child_weights(h, "P")
        assert w["A"] == pytest.approx(0.75)
        assert w["B"] == pytest.approx(0.25)

    def test_single_child(self):
        h = build_hierarchy([("P", None, 1.0), ("A", "P", 42.0)])
        assert child_weights(h, "P") == {"A": pytest.approx(1.0)}

    def test_all_zero_falls_back_uniform(self):
        h = build_hierarchy([("P", None, 1.0), ("A", "P", 0.0), ("B", "P", 0.0)])
        with pytest.warns(AllZeroWeightsWarning):
            w = child_weights(h, "P")
        assert w == {"A": 0.5, "B": 0.5}

    def test_no_children(self, three_node_tree):
        with pytest.raises(NoChildrenError):
            child_weights(three_node_tree, "B")
