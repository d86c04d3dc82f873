"""Tree growth, splitting rules, pruning, selection, CRD, serialization."""

import itertools
import json
import math
import warnings

import numpy as np
import pytest

from coastrank.cells import Cell
from coastrank.consensus import AGGREGATOR_KINDS, exact_kemeny, make_aggregator
from coastrank.errors import (
    InadmissiblePairError,
    RejectedInputError,
    TreeStateError,
)
from coastrank.models import (
    MallowsParams,
    MixtureSpec,
    random_mallows_mixture_spec,
    sample_mixture,
)
from coastrank.perms import (
    DiscreteRankingDistribution,
    Permutation,
    RankingSample,
    num_pairs,
    pair_list,
    pairwise_marginals,
)
from coastrank.tree import (
    CRD,
    CoastTree,
    GrowthTrace,
    choose_split_balanced,
    choose_split_min_distortion,
    grow,
    prune_sequence,
    select_subtree,
)

from conftest import random_sample
from oracles import (
    brute_v_hat,
    mask_leaf_counts,
    partition_criterion,
    route_one,
    v_hat_of_indices,
)


def brute_best_split(s, cell=None):
    """Exhaustive criterion evaluation over sample-separating admissible pairs."""
    cell = cell or Cell.root(s.n)
    idx = np.nonzero(cell.membership_mask(s))[0]
    ranks = s.ranks_matrix
    best = None
    for (i, j) in sorted(cell.admissible_pairs()):
        mask = ranks[idx, i] < ranks[idx, j]
        i0, i1 = idx[mask], idx[~mask]
        if len(i0) == 0 or len(i1) == 0:
            continue
        crit = (
            len(i0) * brute_v_hat(s, i0) + len(i1) * brute_v_hat(s, i1)
        ) / len(s)
        if best is None or crit < best[0] - 1e-12:
            best = (crit, (i, j))
    return best


def mixture_sample(n=8, k=4, phi=1.0, seed=5, size=600):
    return sample_mixture(random_mallows_mixture_spec(n=n, k=k, phi=phi, seed=seed), size)


# --- split choice -------------------------------------------------------------


def test_split_separates_point_masses():
    a, b = Permutation.identity(4), Permutation.reverse(4)
    s = RankingSample((a,) * 10 + (b,) * 10)
    for chooser in (choose_split_min_distortion, choose_split_balanced):
        pair = chooser(Cell.root(4), s)
        # any pair separates these two rankings and zeroes the criterion
        i, j = pair
        c0, c1 = Cell.root(4).split(pair)
        idx0 = np.nonzero(c0.membership_mask(s))[0]
        idx1 = np.nonzero(c1.membership_mask(s))[0]
        assert {len(idx0), len(idx1)} == {10}
        assert v_hat_of_indices(s, idx0) == 0.0
        assert v_hat_of_indices(s, idx1) == 0.0


def test_min_distortion_matches_exhaustive(rng):
    for _ in range(20):
        s = random_sample(rng, 4, int(rng.integers(6, 25)))
        got = choose_split_min_distortion(Cell.root(4), s)
        crit, pair = brute_best_split(s)
        # equal-criterion ties resolve lexicographically; accept any pair
        # achieving the brute minimum, and require the lexicographic least
        ranks = s.ranks_matrix
        mask = ranks[:, got[0]] < ranks[:, got[1]]
        idx0, idx1 = np.nonzero(mask)[0], np.nonzero(~mask)[0]
        got_crit = (
            len(idx0) * brute_v_hat(s, idx0) + len(idx1) * brute_v_hat(s, idx1)
        ) / len(s)
        assert got_crit == pytest.approx(crit, abs=1e-12)
        assert got <= pair


def test_split_identical_rankings_lexicographic():
    s = RankingSample((Permutation.from_ordering((2, 0, 1)),) * 8)
    assert choose_split_min_distortion(Cell.root(3), s) == (0, 1)
    assert choose_split_balanced(Cell.root(3), s) == (0, 1)


def test_min_distortion_never_above_parent(rng):
    # chosen split's criterion never exceeds the parent's own contribution
    for _ in range(50):
        s = random_sample(rng, 5, int(rng.integers(4, 40)))
        pair = choose_split_min_distortion(Cell.root(5), s)
        c0, c1 = Cell.root(5).split(pair)
        i0 = np.nonzero(c0.membership_mask(s))[0]
        i1 = np.nonzero(c1.membership_mask(s))[0]
        child = len(i0) * v_hat_of_indices(s, i0) + len(i1) * v_hat_of_indices(s, i1)
        parent = len(s) * v_hat_of_indices(s, np.arange(len(s)))
        assert child <= parent + 1e-9


def test_balanced_picks_closest_to_half():
    a = Permutation.from_ordering((0, 1, 2))  # contributes to p01, p02, p12
    b = Permutation.from_ordering((1, 0, 2))  # flips only the (0,1) pair
    s = RankingSample((a,) * 11 + (b,) * 9)  # p01 = 0.55, p02 = p12 = 1.0
    assert choose_split_balanced(Cell.root(3), s) == (0, 1)


def test_balanced_all_half_tiebreak():
    s = RankingSample((Permutation.identity(3), Permutation.reverse(3)) * 4)
    assert choose_split_balanced(Cell.root(3), s) == (0, 1)


def test_split_preconditions():
    s1 = RankingSample((Permutation.identity(3),))
    with pytest.raises(RejectedInputError):
        choose_split_min_distortion(Cell.root(3), s1)
    chain = Cell(3, frozenset({(0, 1), (1, 2)}))  # single-permutation cell
    s = RankingSample((Permutation.identity(3),) * 4)
    with pytest.raises(InadmissiblePairError):
        choose_split_min_distortion(chain, s)


# --- growth endpoints ---------------------------------------------------------


def test_epsilon_large_gives_root_only(rng):
    s = mixture_sample(n=6, k=3, phi=0.8, seed=7, size=300)
    root_v = v_hat_of_indices(s, np.arange(len(s)))
    tree, trace = grow(s, epsilon=root_v, rule="min-distortion", aggregator="exact")
    assert tree.leaf_count == 1
    assert len(trace.steps) == 1
    crd = tree.crd()
    assert crd.k == 1
    w, med, cell = crd.atoms[0]
    assert w == pytest.approx(1.0)
    assert cell.constraints == frozenset()
    # the single atom sits at a global empirical median
    d = DiscreteRankingDistribution.empirical(s)
    assert med in exact_kemeny(d).medians


def test_epsilon_zero_reproduces_empirical(rng):
    perms = tuple(
        Permutation(tuple(int(v) for v in rng.permutation(4))) for _ in range(12)
    )
    s = RankingSample(perms + perms[:5])  # include duplicates
    tree, _ = grow(s, epsilon=0.0, rule="min-distortion", aggregator="exact")
    crd = tree.crd()
    got = crd.to_distribution()
    want = DiscreteRankingDistribution.empirical(s)
    assert got.support == want.support
    assert np.allclose(got.weights, want.weights, atol=1e-12)
    # every leaf holds exactly one distinct ranking
    assert tree.leaf_count == len(set(perms))


def test_point_mass_mixture_recovery_both_rules():
    spec = random_mallows_mixture_spec(n=10, k=4, phi=50.0, seed=101)
    s = sample_mixture(spec, 400)
    centers = {p.center for p, _ in spec.components}
    for rule in ("min-distortion", "balanced"):
        tree, trace = grow(s, epsilon=0.0, rule=rule)
        assert tree.leaf_count == 4
        crd = tree.crd()
        assert {m for _, m, _ in crd.atoms} == centers
        for w, _, _ in crd.atoms:
            assert abs(w - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / 400)
        assert trace.criteria[-1] == 0.0


# --- growth structure ----------------------------------------------------------


def test_trace_monotone_on_mixture_data():
    s = mixture_sample(n=8, k=4, phi=1.0, seed=5, size=600)
    root_v = v_hat_of_indices(s, np.arange(len(s)))
    for rule in ("min-distortion", "balanced"):
        _, trace = grow(s, epsilon=0.1 * root_v, rule=rule)
        crits = trace.criteria
        assert len(crits) >= 2
        for a, b in zip(crits, crits[1:]):
            assert b <= a + 1e-9, f"{rule}: criterion rose {a} -> {b}"


def test_rule_comparability_soft():
    s = mixture_sample(n=8, k=4, phi=0.7, seed=9, size=500)
    root_v = v_hat_of_indices(s, np.arange(len(s)))
    t_min, _ = grow(s, epsilon=0.25 * root_v, rule="min-distortion")
    t_bal, _ = grow(s, epsilon=0.25 * root_v, rule="balanced")
    if t_bal.criterion > 2 * t_min.criterion + 1e-9:
        warnings.warn(
            f"balanced rule criterion {t_bal.criterion:.4f} exceeds twice the "
            f"min-distortion criterion {t_min.criterion:.4f}"
        )


def test_tree_structural_invariants():
    s = mixture_sample(n=7, k=3, phi=0.8, seed=11, size=300)
    tree, _ = grow(s, epsilon=0.05, rule="min-distortion")
    assert tree.leaf_count >= 3
    for node in tree.nodes:
        assert node.depth <= num_pairs(tree.n)
        if node.children is not None:
            c0, c1 = (tree.node(c) for c in node.children)
            assert c0.count + c1.count == node.count
            assert c0.weight + c1.weight == pytest.approx(node.weight, abs=1e-12)
            # split pair admissible in the parent, consumed in both children
            assert node.cell.is_admissible(*node.split)
            assert not c0.cell.is_admissible(*node.split)
            assert not c1.cell.is_admissible(*node.split)
            assert c0.depth == c1.depth == node.depth + 1
    # no ancestor pair reused along any root-to-leaf path
    def walk(nid, used):
        node = tree.node(nid)
        if node.children is None or nid in set(tree.frontier):
            return
        assert node.split not in used
        for c in node.children:
            walk(c, used | {node.split})
    walk(0, frozenset())


def test_leaf_cells_tile_sample_and_criterion_identity():
    s = mixture_sample(n=6, k=3, phi=0.9, seed=2, size=240)
    tree, _ = grow(s, epsilon=0.2, rule="balanced")
    cells = [leaf.cell for leaf in tree.leaves]
    # raises PartitionIntegrityError on any overlap or gap
    crit = partition_criterion(s, cells)
    assert crit == pytest.approx(tree.criterion, abs=1e-9)


def test_routing_consistency():
    s = mixture_sample(n=6, k=3, phi=0.9, seed=2, size=240)
    tree, _ = grow(s, epsilon=0.2, rule="min-distortion")
    routed = tree.route_sample(s)
    for row, perm in enumerate(s.rankings):
        nid = route_one(tree, perm)
        assert nid == routed[row]
        assert tree.node(nid).cell.contains(perm)
        assert nid in set(tree.frontier)


def test_max_leaves_halts_before_exceeding():
    s = mixture_sample(n=8, k=4, phi=1.2, seed=3, size=400)
    tree, _ = grow(s, epsilon=0.0, rule="min-distortion", max_leaves=3)
    assert tree.leaf_count <= 3
    # one-split mode fills the budget exactly when data allows
    tree1, trace1 = grow(
        s, epsilon=0.0, rule="min-distortion", max_leaves=6, one_split_per_iter=True
    )
    assert tree1.leaf_count == 6
    for step in trace1.steps[1:]:
        assert len(step.splits) == 1
    assert [st.leaf_count for st in trace1.steps] == [1, 2, 3, 4, 5, 6]


def test_grow_validation():
    s = random_sample(np.random.default_rng(0), 4, 10)
    with pytest.raises(RejectedInputError):
        grow(s, epsilon=-0.1)
    with pytest.raises(RejectedInputError):
        grow(s, rule="sideways")
    with pytest.raises(RejectedInputError):
        grow(s, max_leaves=0)


def test_grow_deterministic_and_thread_invariant():
    s = mixture_sample(n=8, k=4, phi=0.8, seed=13, size=500)
    a, _ = grow(s, epsilon=0.1, rule="min-distortion")
    b, _ = grow(s, epsilon=0.1, rule="min-distortion")
    assert json.dumps(a.to_json_obj()) == json.dumps(b.to_json_obj())


def test_leaf_medians_match_injected_aggregator():
    s = mixture_sample(n=5, k=2, phi=1.0, seed=4, size=80)
    tree, _ = grow(s, epsilon=0.1, rule="min-distortion", aggregator="exact", seed=3)
    routed = tree.route_sample(s)
    for nid in tree.frontier:
        sub = s.subset(np.nonzero(routed == nid)[0])
        want = exact_kemeny(DiscreteRankingDistribution.empirical(sub)).median
        assert tree.node(nid).median == want


def descendant_leaves(tree, nid):
    stack, out = [nid], set()
    while stack:
        node = tree.node(stack.pop())
        if node.children is None:
            out.add(node.node_id)
        else:
            stack.extend(node.children)
    return out


@pytest.mark.parametrize("rule", ["min-distortion", "balanced"])
@pytest.mark.parametrize("chunks", [1, 4])
def test_node_counts_are_column_sums_of_routed_rows(monkeypatch, rule, chunks):
    import coastrank.tree as tree_mod

    s = mixture_sample(n=7, k=4, phi=0.8, seed=17, size=500)
    # the root Gram matrix is summed over this many row chunks
    monkeypatch.setattr(tree_mod, "_GRAM_ROWS", -(-s.size // chunks))
    tree, _ = grow(s, epsilon=0.0, rule=rule, max_leaves=10)
    assert len(tree.nodes) > 10
    leaf_of = tree.route_sample(s)
    for node in tree.nodes:
        rows = s.comparisons[np.isin(leaf_of, list(descendant_leaves(tree, node.node_id)))]
        assert node.count == len(rows)
        assert node.counts.dtype == np.int64
        assert np.array_equal(node.counts, rows.sum(axis=0))
        assert node.v_hat == brute_v_hat_of_rows(rows)


def brute_v_hat_of_rows(rows):
    """Sum of Hamming distances over all pairs of comparison rows, over m(m-1)."""
    m = len(rows)
    total = int((rows[:, None, :] != rows[None, :, :]).sum()) // 2
    return total / (m * (m - 1)) if m >= 2 else 0.0


def rebuilt_median(kind, seed, sub, node_id):
    """A cell median from a rebuilt sub-sample: its empirical distribution
    for the exact route, its own marginals otherwise."""
    if kind == "exact" or (kind == "auto" and sub.n <= 7):
        return exact_kemeny(DiscreteRankingDistribution.empirical(sub)).median
    return make_aggregator(kind, seed)(pairwise_marginals(sub), node_id)


@pytest.mark.parametrize("kind", AGGREGATOR_KINDS)
@pytest.mark.parametrize("n", [5, 7, 9])
def test_medians_match_rebuilt_subsample_oracle(kind, n):
    s = mixture_sample(n=n, k=3, phi=0.5, seed=n, size=240)
    grown, _ = grow(s, epsilon=0.0, max_leaves=6, aggregator=kind, seed=2)
    # loaded before pruning, so only its leaves carry medians
    loaded = CoastTree.from_json_obj(grown.to_json_obj(), aggregator=make_aggregator(kind, 2))
    checked = 0
    for tree in (grown, loaded):
        seq = prune_sequence(tree, s)
        assert len(seq) == tree.leaf_count
        medians = {nid for t in seq for nid in t.frontier}
        if tree is loaded:
            medians -= set(tree.frontier)  # loaded from the document
        for nid in medians:
            sub = s.subset(np.flatnonzero(tree.node(nid).cell.membership_mask(s)))
            assert tree.node(nid).median == rebuilt_median(kind, 2, sub, nid), (kind, nid)
            checked += 1
    assert checked >= 2 * grown.leaf_count - 1


# --- CRD ------------------------------------------------------------------------


def test_crd_requires_aggregated_medians():
    doc = {
        "n": 3,
        "nodes": [
            {"id": 0, "constraints": [], "weight": 1.0, "v_hat": 0.5,
             "split": None, "children": None, "median": None},
        ],
    }
    tree = CoastTree.from_json_obj(doc)
    with pytest.raises(TreeStateError):
        tree.crd()


def test_crd_merging_and_json():
    cell0 = Cell(3, frozenset({(0, 1)}))
    cell1 = Cell(3, frozenset({(1, 0)}))
    med = Permutation.identity(3)
    crd = CRD(3, ((0.6, med, cell0), (0.4, med, cell1)))
    d = crd.to_distribution()
    assert d.support == (med,)
    assert d.weights[0] == pytest.approx(1.0)
    blob = json.dumps(crd.to_json_obj())
    back = CRD.from_json_obj(json.loads(blob))
    assert back.n == 3 and back.k == 2
    assert back.atoms[0][0] == pytest.approx(0.6)
    assert back.atoms[0][1] == med
    with pytest.raises(RejectedInputError):
        CRD(3, ((0.5, med, cell0),))  # weights must sum to 1


# --- serialization --------------------------------------------------------------


def test_tree_json_roundtrip():
    s = mixture_sample(n=6, k=3, phi=1.0, seed=8, size=200)
    tree, _ = grow(s, epsilon=0.1, rule="min-distortion")
    obj = tree.to_json_obj()
    back = CoastTree.from_json_obj(json.loads(json.dumps(obj)))
    assert back.n == tree.n
    assert back.leaf_count == tree.leaf_count
    assert back.criterion == pytest.approx(tree.criterion, abs=1e-12)
    assert np.array_equal(back.route_sample(s), tree.route_sample(s))
    assert back.to_json_obj() == obj  # stable renumbering
    for nid in back.frontier:
        assert back.node(nid).median == tree.node(nid).median
    with pytest.raises(RejectedInputError):
        CoastTree.from_json_obj({"n": 3, "nodes": []})


# --- pruning and selection ------------------------------------------------------


def test_prune_sequence_nested_and_monotone():
    s = mixture_sample(n=8, k=4, phi=1.0, seed=5, size=600)
    tree, _ = grow(s, epsilon=0.05, rule="min-distortion")
    assert tree.leaf_count >= 5
    seq = prune_sequence(tree, s)
    assert len(seq) == tree.leaf_count
    assert [t.leaf_count for t in seq] == list(range(tree.leaf_count, 0, -1))
    # nesting: every later frontier's cells are unions of earlier leaf cells,
    # equivalently each collapse swaps two sibling leaves for their parent
    for bigger, smaller in zip(seq, seq[1:]):
        gone = set(bigger.frontier) - set(smaller.frontier)
        added = set(smaller.frontier) - set(bigger.frontier)
        assert len(gone) == 2 and len(added) == 1
        parent = smaller.node(next(iter(added)))
        assert set(parent.children) == gone
    # criteria non-decreasing on mixture data; root criterion = global v_hat
    crits = [t.criterion for t in seq]
    for a, b in zip(crits, crits[1:]):
        assert b >= a - 1e-9
    assert crits[-1] == pytest.approx(v_hat_of_indices(s, np.arange(len(s))), abs=1e-9)
    # every pruned tree can produce a CRD (lazy median aggregation)
    for t in seq:
        assert t.crd().k == t.leaf_count


@pytest.mark.parametrize("gram_rows", [1024, 7])
@pytest.mark.parametrize("float64", [False, True])
def test_leaf_counts_equal_per_leaf_mask_sums(monkeypatch, gram_rows, float64):
    import coastrank.tree as tree_mod

    s = mixture_sample(n=7, k=4, phi=0.8, seed=17, size=500)
    tree, _ = grow(s, epsilon=0.0, max_leaves=10)
    subtrees = prune_sequence(tree, s)[::3]
    monkeypatch.setattr(tree_mod, "_GRAM_ROWS", gram_rows)
    if float64:
        monkeypatch.setattr(tree_mod, "_FLOAT32_ROWS", 1)
    # the 5-row sample leaves most leaves without rows
    for sample in (s, s.subset(np.arange(5))):
        for sub in subtrees:
            leaf_of, rows, counts = sub.leaf_counts(sample)
            want_rows, want_counts = mask_leaf_counts(sub, sample)
            assert np.array_equal(leaf_of, sub.route_sample(sample))
            assert counts.dtype == np.int64 and counts.shape == want_counts.shape
            assert np.array_equal(rows, want_rows) and np.array_equal(counts, want_counts)
    assert (mask_leaf_counts(tree, s.subset(np.arange(5)))[0] == 0).any()


def test_prune_sequence_does_not_depend_on_count_chunks(monkeypatch):
    import coastrank.tree as tree_mod

    s = mixture_sample(n=7, k=4, phi=0.8, seed=17, size=500)
    doc = grow(s, epsilon=0.0, max_leaves=10)[0].to_json_obj()
    assert any(node["median"] is None for node in doc["nodes"])  # prune aggregates these
    whole = [tree_json(t) for t in prune_sequence(CoastTree.from_json_obj(doc), s)]
    monkeypatch.setattr(tree_mod, "_GRAM_ROWS", 7)
    chunked = [tree_json(t) for t in prune_sequence(CoastTree.from_json_obj(doc), s)]
    assert chunked == whole and len(whole) > 4


def test_prune_rejects_collapsing_a_node_without_rows():
    node = {"weight": 0.5, "v_hat": 0.5, "split": None, "children": None, "median": [1, 2, 3]}
    tree = CoastTree.from_json_obj({"n": 3, "nodes": [
        dict(node, id=0, constraints=[], split=[1, 2], children=[1, 2], median=None, weight=1.0),
        dict(node, id=1, constraints=[[1, 2]], split=[2, 3], children=[3, 4], median=None),
        dict(node, id=2, constraints=[[2, 1]], median=[2, 1, 3]),
        dict(node, id=3, constraints=[[1, 2], [2, 3]], weight=0.25),
        dict(node, id=4, constraints=[[1, 2], [3, 2]], median=[1, 3, 2], weight=0.25),
    ]})
    # every row ranks item 2 before item 1, so node 1, collapsed first, holds none
    s = RankingSample((Permutation.from_one_based([2, 1, 3]), Permutation.from_one_based([3, 1, 2])))
    with pytest.raises(RejectedInputError):
        prune_sequence(tree, s)


def three_node_doc(weight, v_hat):
    node = {"weight": weight, "v_hat": v_hat, "split": None, "children": None}
    return {"n": 3, "nodes": [
        dict(node, id=0, constraints=[], split=[1, 2], children=[1, 2]),
        dict(node, id=1, constraints=[[1, 2]]),
        dict(node, id=2, constraints=[[2, 1]]),
    ]}


def test_tree_document_needs_finite_non_negative_weights():
    doc = three_node_doc(0.5, 0.25)
    doc["nodes"][0]["weight"] = 1.0
    assert CoastTree.from_json_obj(doc).criterion == pytest.approx(0.25)
    # all NaN: every weight-sum check compares NaN, so only this check catches it
    with pytest.raises(RejectedInputError, match=r"tree node 0: weight must be finite and >= 0, got nan"):
        CoastTree.from_json_obj(three_node_doc(math.nan, math.nan))
    for key in ("weight", "v_hat"):
        for value in (math.nan, math.inf, -0.25):
            bad = json.loads(json.dumps(doc))
            bad["nodes"][2][key] = value
            with pytest.raises(RejectedInputError, match=f"tree node 2: {key} must be finite"):
                CoastTree.from_json_obj(bad)


def test_prune_root_only():
    s = random_sample(np.random.default_rng(1), 4, 20)
    tree, _ = grow(s, epsilon=10.0)
    seq = prune_sequence(tree, s)
    assert len(seq) == 1 and seq[0] is tree


def test_select_subtree_rules():
    spec = random_mallows_mixture_spec(n=10, k=4, phi=50.0, seed=101)
    s = sample_mixture(spec, 400)
    tree, _ = grow(s, epsilon=0.0, rule="min-distortion")
    # force extra structure so the sequence is longer than 4
    tree_fine, _ = grow(s, epsilon=0.0, rule="min-distortion", max_leaves=400)
    seq = prune_sequence(tree_fine, s)
    root_v = v_hat_of_indices(s, np.arange(len(s)))
    assert select_subtree(seq, 0.0).leaf_count == 4  # smallest zero-criterion tree
    assert select_subtree(seq, root_v).leaf_count == 1
    assert select_subtree(seq, root_v / 10).leaf_count == 4
    with pytest.raises(RejectedInputError):
        select_subtree(seq, -1.0)
    with pytest.raises(RejectedInputError):
        select_subtree([], 0.0)


@pytest.mark.parametrize("one_split", [False, True])
def test_grow_plans_no_split_past_the_leaf_budget(monkeypatch, one_split):
    import coastrank.tree as tree_mod

    s = mixture_sample(n=8, k=4, phi=1.2, seed=3, size=400)
    want, _ = grow(s, epsilon=0.0, max_leaves=6, one_split_per_iter=one_split)
    calls = []
    plan = tree_mod._plan_min_distortion

    def counting(gram, node, candidates, pairs):
        calls.append(node.node_id)
        return plan(gram, node, candidates, pairs)

    monkeypatch.setattr(tree_mod, "_plan_min_distortion", counting)
    tree, trace = grow(s, epsilon=0.0, max_leaves=6, one_split_per_iter=one_split)
    assert json.dumps(tree.to_json_obj()) == json.dumps(want.to_json_obj())

    def eligible(nid):
        return tree.node(nid).v_hat > 0 and tree.node(nid).count >= 2

    # the budget binds: growth stops with leaves still eligible to split
    assert tree.leaf_count <= 6 and any(map(eligible, tree.frontier))
    # replay growth: each applied round planned the leaves eligible then that
    # no earlier round planned, so every leaf is planned at most once, and the
    # round that would pass the budget planned nothing
    frontier, planned = {0}, []
    for step in trace.steps[1:]:
        planned += sorted(nid for nid in frontier if eligible(nid) and nid not in planned)
        for nid, _ in step.splits:
            frontier.remove(nid)
            frontier.update(tree.node(nid).children)
    assert frontier == set(tree.frontier)
    assert sorted(calls) == sorted(planned)
    if not one_split:
        assert len(planned) == sum(len(step.splits) for step in trace.steps)


def test_reversed_split_routes_alike():
    s = mixture_sample(n=4, k=2, phi=1.0, seed=6, size=120)
    tree, _ = grow(s, epsilon=0.0, max_leaves=4)
    doc = tree.to_json_obj()
    for node in doc["nodes"]:
        if node["split"] is not None:
            node["split"] = node["split"][::-1]
            node["children"] = node["children"][::-1]
    flipped = CoastTree.from_json_obj(doc)
    assert json.dumps(flipped.to_json_obj()) == json.dumps(tree.to_json_obj())
    probes = [Permutation.identity(4)] + list(s.rankings[:30])
    routed = flipped.route_sample(RankingSample(tuple(probes)))
    for sigma, leaf in zip(probes, routed):
        assert route_one(flipped, sigma) == leaf
        assert flipped.node(leaf).cell.contains(sigma)


def test_gram_chunks_do_not_change_the_tree(monkeypatch):
    import coastrank.tree as tree_mod

    s = mixture_sample(n=8, k=4, phi=1.0, seed=9, size=500)
    whole, _ = grow(s, epsilon=0.0, max_leaves=8)
    monkeypatch.setattr(tree_mod, "_GRAM_ROWS", 7)
    chunked, _ = grow(s, epsilon=0.0, max_leaves=8)
    assert json.dumps(chunked.to_json_obj()) == json.dumps(whole.to_json_obj())


def tree_json(tree):
    return json.dumps(tree.to_json_obj())


@pytest.mark.parametrize("one_split", [False, True])
@pytest.mark.parametrize("chunks", [1, 2])
def test_sibling_gram_matrices_equal_direct_builds(monkeypatch, one_split, chunks):
    import coastrank.tree as tree_mod

    s = mixture_sample(n=8, k=4, phi=1.0, seed=9, size=500)
    # the root Gram matrix is summed over this many row chunks
    monkeypatch.setattr(tree_mod, "_GRAM_ROWS", -(-s.size // chunks))
    x = s.comparisons
    checked, built = [], []
    plan, gram_of = tree_mod._plan_min_distortion, tree_mod._gram

    def checking(gram, node, candidates, pairs):
        xf = x[node.indices].astype(np.float64)
        assert np.array_equal(gram, xf.T @ xf)  # entry for entry, whatever the dtype
        checked.append(node.node_id)
        return plan(gram, node, candidates, pairs)

    def counting(x_, rows):
        built.append(len(rows))
        return gram_of(x_, rows)

    monkeypatch.setattr(tree_mod, "_plan_min_distortion", checking)
    monkeypatch.setattr(tree_mod, "_gram", counting)
    tree, _ = grow(s, epsilon=0.0, max_leaves=8, one_split_per_iter=one_split)
    assert len(checked) >= 7
    # children of a split node were derived: fewer rows multiplied than planned
    assert sum(built) < sum(tree.node(nid).count for nid in checked)


def test_trees_do_not_depend_on_kept_gram_matrices(monkeypatch):
    import coastrank.tree as tree_mod

    s = mixture_sample(n=8, k=4, phi=1.0, seed=9, size=500)
    for one_split in (False, True):
        kept, _ = grow(s, epsilon=0.0, max_leaves=8, one_split_per_iter=one_split)
        with monkeypatch.context() as mp:
            mp.setattr(tree_mod, "_GRAM_KEEP_BYTES", 0)
            direct, _ = grow(s, epsilon=0.0, max_leaves=8, one_split_per_iter=one_split)
        assert tree_json(direct) == tree_json(kept)


def test_float64_gram_matrices_give_the_same_tree(monkeypatch):
    import coastrank.tree as tree_mod

    s = mixture_sample(n=8, k=4, phi=1.0, seed=9, size=500)
    want, _ = grow(s, epsilon=0.0, max_leaves=8)
    monkeypatch.setattr(tree_mod, "_FLOAT32_ROWS", 1)
    assert tree_mod._gram(s.comparisons, np.arange(3)).dtype == np.float64
    got, _ = grow(s, epsilon=0.0, max_leaves=8)
    assert tree_json(got) == tree_json(want)


def test_split_sums_equal_the_column_count_formula(rng, monkeypatch):
    import coastrank.tree as tree_mod

    monkeypatch.setattr(tree_mod, "_SCORE_ROWS", 5)  # several blocks
    for _ in range(20):
        n = int(rng.integers(3, 9))
        x = random_sample(rng, n, int(rng.integers(2, 60))).comparisons
        rows = np.flatnonzero(rng.random(len(x)) < 0.7)
        if len(rows) < 2:
            continue
        m, t = len(rows), x[rows].sum(axis=0, dtype=np.int64)
        candidates = np.nonzero((t > 0) & (t < m))[0]
        gram = np.rint(tree_mod._gram(x, rows)).astype(np.int64)
        c0 = gram[candidates, :]
        want_m0 = t[candidates][:, None]
        c1, want_m1 = t[None, :] - c0, m - want_m0
        m0, m1, s0, s1 = tree_mod._split_sums(tree_mod._gram(x, rows), t, m, candidates)
        assert s0.dtype == s1.dtype == np.int64
        assert np.array_equal(m0, want_m0[:, 0]) and np.array_equal(m1, want_m1[:, 0])
        assert np.array_equal(s0, (c0 * (want_m0 - c0)).sum(axis=1))
        assert np.array_equal(s1, (c1 * (want_m1 - c1)).sum(axis=1))
