"""Depths, anomaly scores, smoothing, homogeneity testing, chain factorization."""

import csv
import json

import numpy as np
import pytest
import scipy.stats

from coastrank.analysis import (
    SmoothMethod,
    anomaly_scores,
    chain_pmf,
    co_membership,
    co_membership_to_csv,
    anomaly_table_to_csv,
    ddplot_table,
    depth_table_to_csv,
    homogeneity_test,
    local_depths,
    smooth_cell,
    uniform_cell_marginals,
    uniform_marginal_discrepancy,
)
from coastrank.cells import Cell
from coastrank.consensus import SstKind, copeland_median, sst_status
from coastrank.errors import (
    CapacityError,
    DimensionMismatchError,
    RejectedInputError,
)
from coastrank.models import (
    MallowsParams,
    mallows_distribution,
    random_mallows_mixture_spec,
    sample_mallows,
    sample_mixture,
)
from coastrank.perms import (
    DiscreteRankingDistribution,
    Permutation,
    RankingSample,
    enumerate_permutations,
    kendall_tau,
    num_pairs,
    pairwise_marginals,
    ranking_risk,
)
from coastrank.tree import CoastTree, grow

from conftest import random_permutation, random_rational_distribution, random_sample
from oracles import (
    brute_local_depths,
    condition,
    dict_smooth_json,
    discrepancy_to_csv,
    enumerate_members,
    hamming_depths,
    loop_smooth_scores,
    loop_uniform_marginals,
    members_by_contains,
    members_of,
    route_one,
    row_writer_anomaly_csv,
    row_writer_depth_csv,
)
from test_cells import seeded_cells


def two_leaf_tree(n, pair):
    """Hand-built tree with a single split, medians left unset."""
    i, j = pair
    return CoastTree.from_json_obj(
        {
            "n": n,
            "nodes": [
                {
                    "id": 0,
                    "constraints": [],
                    "weight": 1.0,
                    "v_hat": 1.0,
                    "split": [i + 1, j + 1],
                    "children": [1, 2],
                    "median": None,
                },
                {
                    "id": 1,
                    "constraints": [[i + 1, j + 1]],
                    "weight": 0.5,
                    "v_hat": 0.5,
                    "split": None,
                    "children": None,
                    "median": None,
                },
                {
                    "id": 2,
                    "constraints": [[j + 1, i + 1]],
                    "weight": 0.5,
                    "v_hat": 0.5,
                    "split": None,
                    "children": None,
                    "median": None,
                },
            ],
        }
    )


def root_tree(n):
    return CoastTree.from_json_obj(
        {
            "n": n,
            "nodes": [
                {
                    "id": 0,
                    "constraints": [],
                    "weight": 1.0,
                    "v_hat": 1.0,
                    "split": None,
                    "children": None,
                    "median": None,
                }
            ],
        }
    )


# --- local depths ------------------------------------------------------------------


def test_root_tree_local_equals_global(rng):
    s_fit = random_sample(rng, 5, 40)
    s_query = random_sample(rng, 5, 15)
    table = local_depths(root_tree(5), s_fit, s_query)
    assert len(table) == 15
    assert table.local_depth == pytest.approx(table.global_depth, abs=1e-12)
    assert ((0.0 <= table.local_depth) & (table.local_depth <= num_pairs(5))).all()
    assert (table.cell == 0).all() and table.labels is None


def test_leaf_median_has_maximal_local_depth():
    spec = random_mallows_mixture_spec(n=6, k=2, phi=1.2, seed=21)
    s = sample_mixture(spec, 300)
    tree, _ = grow(s, epsilon=0.2, rule="min-distortion", aggregator="exact")
    checked = 0
    for nid in tree.frontier:
        node = tree.node(nid)
        if node.median is None or not node.cell.contains(node.median):
            continue  # an unconstrained median may fall outside its own cell
        members = enumerate_members(node.cell)
        table = local_depths(tree, s, RankingSample(tuple(members)))
        med_depth = next(
            d for d, q in zip(table.local_depth, members) if q == node.median
        )
        assert (table.local_depth[table.cell == nid] <= med_depth + 1e-9).all()
        checked += 1
    assert checked >= 1


def test_empty_leaf_gets_zero_depth():
    tree = two_leaf_tree(4, (0, 1))
    fit = RankingSample((Permutation.identity(4),) * 6)  # all in leaf "0 first"
    far = Permutation.from_ordering((1, 0, 2, 3))  # routes to the other leaf
    table = local_depths(tree, fit, RankingSample((far, Permutation.identity(4))))
    assert len(set(table.cell.tolist())) == 2
    assert table.local_depth[0] == 0.0  # the empty leaf
    assert table.local_depth[1] == num_pairs(4)  # identical to all fit points


def _depth_arrays(table):
    return table.local_depth, table.global_depth


@pytest.mark.parametrize("q", [1, 40])
def test_depths_match_hamming_oracle(q):
    spec = random_mallows_mixture_spec(n=7, k=3, phi=1.0, seed=11)
    s_fit = sample_mixture(spec, 300)
    s_query = sample_mixture(spec.with_seed(12), q)
    tree, _ = grow(s_fit, epsilon=0.0, rule="min-distortion", max_leaves=6)
    local, global_depth = _depth_arrays(local_depths(tree, s_fit, s_query))
    want_local, want_global = brute_local_depths(tree, s_fit, s_query)
    assert np.array_equal(local, want_local)
    assert np.array_equal(global_depth, want_global)
    top = float(num_pairs(7))
    for leaf in tree.frontier:
        table = ddplot_table(tree, s_fit, s_query, leaf)
        ref_rows = s_fit.comparisons[tree.route_sample(s_fit) == leaf]
        local, global_depth = _depth_arrays(table)
        assert np.array_equal(local, hamming_depths(s_query.comparisons, ref_rows, top))
        assert np.array_equal(global_depth, want_global)


def test_depths_match_oracle_with_empty_leaf():
    tree = two_leaf_tree(4, (0, 1))
    rng = np.random.default_rng(5)
    # every fit row puts item 0 first, so leaf 2 ("1 before 0") holds none
    fit = RankingSample(
        tuple(Permutation((0,) + tuple(int(v) + 1 for v in rng.permutation(3))) for _ in range(9))
    )
    query = random_sample(rng, 4, 12)
    local, global_depth = _depth_arrays(local_depths(tree, fit, query))
    want_local, want_global = brute_local_depths(tree, fit, query)
    assert np.array_equal(local, want_local)
    assert np.array_equal(global_depth, want_global)
    assert (tree.route_sample(query) == 2).any()
    empty = _depth_arrays(ddplot_table(tree, fit, query, 2))[0]
    assert np.array_equal(empty, np.zeros(12))
    single = _depth_arrays(local_depths(tree, fit, query.subset([0])))
    assert np.array_equal(single[0], want_local[:1])
    assert np.array_equal(single[1], want_global[:1])


def test_chunked_depths_match_oracle_with_empty_leaf(monkeypatch):
    import coastrank.analysis as analysis_mod
    import coastrank.tree as tree_mod

    spec = random_mallows_mixture_spec(n=7, k=3, phi=1.0, seed=11)
    s = sample_mixture(spec, 300)
    s_query = sample_mixture(spec.with_seed(12), 40)
    tree, _ = grow(s, epsilon=0.0, rule="min-distortion", max_leaves=6)
    empty = tree.frontier[0]
    # the fit sample leaves out every row of one leaf
    s_fit = s.subset(np.flatnonzero(tree.route_sample(s) != empty))
    assert (tree.route_sample(s_query) == empty).any()
    monkeypatch.setattr(tree_mod, "_GRAM_ROWS", 7)
    monkeypatch.setattr(analysis_mod, "_QUERY_ROWS", 5)
    table = local_depths(tree, s_fit, s_query)
    want_local, want_global = brute_local_depths(tree, s_fit, s_query)
    assert np.array_equal(table.local_depth, want_local)
    assert np.array_equal(table.global_depth, want_global)
    assert (table.local_depth[table.cell == empty] == 0.0).all()
    top = float(num_pairs(7))
    for leaf in tree.frontier:
        ref_rows = s_fit.comparisons[tree.route_sample(s_fit) == leaf]
        table = ddplot_table(tree, s_fit, s_query, leaf)
        assert np.array_equal(table.local_depth, hamming_depths(s_query.comparisons, ref_rows, top))
        assert np.array_equal(table.global_depth, want_global)


def test_depths_invariant_under_relabeling(rng):
    n = 5
    pi = tuple(int(v) for v in rng.permutation(n))

    def relabel_perm(p):
        ranks = [0] * n
        for item in range(n):
            ranks[pi[item]] = p.ranks[item]
        return Permutation(tuple(ranks))

    s_fit = random_sample(rng, n, 30)
    s_query = random_sample(rng, n, 12)
    tree = two_leaf_tree(n, (0, 1))
    # child ids may swap under relabeling, but each query's depth is taken
    # against its own leaf's fit rows, so per-query depths are unaffected
    tree_rel = two_leaf_tree(n, tuple(sorted((pi[0], pi[1]))))
    fit_rel = RankingSample(tuple(relabel_perm(p) for p in s_fit.rankings))
    query_rel = RankingSample(tuple(relabel_perm(p) for p in s_query.rankings))
    base = local_depths(tree, s_fit, s_query)
    rel = local_depths(tree_rel, fit_rel, query_rel)
    assert base.local_depth == pytest.approx(rel.local_depth, abs=1e-12)
    assert base.global_depth == pytest.approx(rel.global_depth, abs=1e-12)


def test_anomaly_scores_are_negated_depths(rng):
    s_fit = random_sample(rng, 5, 30)
    s_query = random_sample(rng, 5, 10)
    tree = root_tree(5)
    scores = anomaly_scores(tree, s_fit, s_query)
    table = local_depths(tree, s_fit, s_query)
    assert np.allclose(scores, -table.local_depth)


def test_anomaly_center_vs_outlier():
    spec = random_mallows_mixture_spec(n=8, k=2, phi=50.0, seed=3, min_separation=10)
    s = sample_mixture(spec, 200)
    tree, _ = grow(s, epsilon=0.0)
    centers = [p.center for p, _ in spec.components]
    probe = np.random.default_rng(7)
    outlier = None
    for _ in range(200):
        cand = Permutation(tuple(int(v) for v in probe.permutation(8)))
        if all(kendall_tau(cand, c) >= 8 for c in centers):
            outlier = cand
            break
    assert outlier is not None
    scores = anomaly_scores(tree, s, RankingSample((centers[0], outlier)))
    assert scores[0] == pytest.approx(-num_pairs(8))  # center depth is maximal
    assert scores[1] > scores[0] + 5


def test_depth_csv_roundtrip(tmp_path, rng):
    s_fit = random_sample(rng, 4, 20)
    s_query = RankingSample(tuple(s_fit.rankings[:5]), labels=("a", "b", "c", "d", "e"))
    table = local_depths(root_tree(4), s_fit, s_query)
    path = tmp_path / "depths.csv"
    depth_table_to_csv(table, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5
    for k, row in enumerate(rows):
        assert int(row["index"]) == table.index[k]
        assert float(row["local_depth"]) == pytest.approx(table.local_depth[k], abs=1e-9)
        assert row["label"] == table.labels[k]


@pytest.mark.parametrize("labels", [None, "ints", "strings"])
def test_depth_csvs_equal_the_row_writers_byte_for_byte(tmp_path, monkeypatch, rng, labels):
    import coastrank.analysis as analysis_mod

    monkeypatch.setattr(analysis_mod, "_CSV_ROWS", 4)
    tree = two_leaf_tree(4, (0, 1))
    # every fit row puts item 0 first, so leaf 2 holds none: depth 0, score -0
    fit = RankingSample(tuple(Permutation((0,) + tuple(int(v) + 1 for v in rng.permutation(3)))
                              for _ in range(9)))
    perms = random_sample(rng, 4, 11).rankings
    names = ["a,b", 'q"x', "plain", "", "two\nlines", " pad "]
    query = RankingSample(perms, labels={
        None: None,
        "ints": [k % 3 for k in range(11)],
        "strings": [names[k % len(names)] for k in range(11)],
    }[labels])
    for table in (local_depths(tree, fit, query), ddplot_table(tree, fit, query, 2)):
        assert (table.local_depth == 0.0).any()
        for write, oracle in ((depth_table_to_csv, row_writer_depth_csv),
                              (anomaly_table_to_csv, row_writer_anomaly_csv)):
            write(table, tmp_path / "columns.csv")
            oracle(table, tmp_path / "rows.csv")
            got = (tmp_path / "columns.csv").read_bytes()
            assert got == (tmp_path / "rows.csv").read_bytes()
    assert b",-0,2," in got


# --- ddplot ------------------------------------------------------------------------


def test_ddplot_reference_separation():
    spec = random_mallows_mixture_spec(n=8, k=2, phi=50.0, seed=31, min_separation=10)
    s = sample_mixture(spec, 300)
    tree, _ = grow(s, epsilon=0.0)
    assert tree.leaf_count == 2
    queries = sample_mixture(spec.with_seed(99), 100)
    ref = tree.frontier[0]
    table = ddplot_table(tree, s, queries, ref)
    assert len(table) == 100
    centers = [p.center for p, _ in spec.components]
    ref_component = next(
        k for k, c in enumerate(centers) if route_one(tree, c) == ref
    )
    top = num_pairs(8)
    in_ref = np.array([queries.labels[k] == ref_component for k in table.index])
    in_depths, out_depths = table.local_depth[in_ref], table.local_depth[~in_ref]
    assert min(in_depths) > max(out_depths)
    assert min(in_depths) >= top - 1.0  # near-point-mass component hugs its center
    assert (table.cell == ref).all()


def test_ddplot_validation(rng):
    s = random_sample(rng, 4, 10)
    tree = two_leaf_tree(4, (0, 1))
    with pytest.raises(RejectedInputError):
        ddplot_table(tree, s, s, reference_cell=0)  # root is not a leaf
    with pytest.raises(DimensionMismatchError):
        ddplot_table(tree, s, random_sample(rng, 5, 3), tree.frontier[0])


# --- co-membership -----------------------------------------------------------------


def test_co_membership_root_tree(rng):
    s = random_sample(rng, 4, 12)
    m = co_membership(root_tree(4), s)
    assert m.all()


def test_co_membership_blocks_match_labels(tmp_path):
    spec = random_mallows_mixture_spec(n=10, k=4, phi=50.0, seed=11, min_separation=8)
    s = sample_mixture(spec, 160)
    tree, _ = grow(s, epsilon=0.0)
    m = co_membership(tree, s)
    labels = np.array(s.labels)
    assert np.array_equal(m, labels[:, None] == labels[None, :])
    assert np.array_equal(m, m.T)
    assert m.diagonal().all()
    path = tmp_path / "co.csv"
    co_membership_to_csv(m, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 161  # header + one row per ranking
    assert rows[0][:2] == ["index", "0"]
    assert [int(v) for v in rows[1][1:]] == [int(v) for v in m[0]]


# --- uniform cell marginals ---------------------------------------------------------


def test_uniform_marginals_root_cell():
    m = uniform_cell_marginals(Cell.root(4), "enumeration")
    assert np.allclose(m.p, 0.5)
    f = uniform_cell_marginals(Cell.root(4), "factorized")
    assert np.allclose(f.p, 0.5)


def test_uniform_marginals_single_constraint():
    cell = Cell(3, frozenset({(0, 1)}))  # item 0 before item 1
    m = uniform_cell_marginals(cell, "enumeration")
    assert m.entry(0, 1) == 1.0
    assert m.entry(0, 2) == pytest.approx(2 / 3)  # 2 of the 3 member orderings
    assert m.entry(1, 2) == pytest.approx(1 / 3)
    assert m.entry(2, 1) == pytest.approx(2 / 3)
    f = uniform_cell_marginals(cell, "factorized")
    assert f.entry(0, 1) == 1.0
    assert f.entry(0, 2) == pytest.approx(1 / 3)  # the table's verbatim value
    assert f.entry(1, 2) == pytest.approx(1 / 3)  # agrees with enumeration here


@pytest.mark.parametrize("n", range(1, 9))
def test_uniform_marginals_equal_loop_oracle(n):
    for cell in seeded_cells(n):
        got = uniform_cell_marginals(cell, "enumeration")
        assert np.array_equal(got.p, loop_uniform_marginals(cell).p)


def test_uniform_marginal_discrepancy_flags_conflict(tmp_path):
    cell = Cell(4, frozenset({(0, 1)}))
    rows = uniform_marginal_discrepancy(cell)
    assert len(rows) == 6
    flagged = {(r["item_a"], r["item_b"]) for r in rows if r["diverges"]}
    # every pair with item 1 leading (other than the constrained one) conflicts
    assert flagged == {(1, 3), (1, 4)}
    for r in rows:
        got = uniform_cell_marginals(cell, "enumeration").entry(
            r["item_a"] - 1, r["item_b"] - 1
        )
        assert r["enumeration"] == pytest.approx(got, abs=1e-12)
    path = tmp_path / "disc.csv"
    discrepancy_to_csv(rows, path)
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 6
    assert sum(int(r["diverges"]) for r in back) == 2


def test_uniform_marginals_validation():
    chain = Cell(3, frozenset({(0, 1), (1, 2)}))  # item 1 used twice
    with pytest.raises(RejectedInputError):
        uniform_cell_marginals(chain, "factorized")
    with pytest.raises(CapacityError):
        uniform_cell_marginals(Cell.root(12), "enumeration")
    with pytest.raises(RejectedInputError):
        uniform_cell_marginals(Cell.root(3), "sideways")


def test_uniform_marginals_disjoint_cells_both_routes(rng):
    # on item-disjoint cells both routes produce valid matrices; agreement is
    # checked pair by pair through the discrepancy table, never assumed
    for n in (4, 5, 6):
        items = list(range(n))
        rng.shuffle(items)
        cons = frozenset({(items[0], items[1]), (items[2], items[3])})
        cell = Cell(n, cons)
        rows = uniform_marginal_discrepancy(cell)
        assert len(rows) == num_pairs(n)
        for r in rows:
            if not r["diverges"]:
                assert r["enumeration"] == pytest.approx(r["factorized"], abs=1e-9)
        # pairs untouched by any constraint are exactly uniform on both routes
        touched = {v for pair in cons for v in pair}
        for r in rows:
            a, b = r["item_a"] - 1, r["item_b"] - 1
            if a not in touched and b not in touched:
                assert r["enumeration"] == pytest.approx(0.5, abs=1e-12)
                assert r["factorized"] == 0.5


# --- smoothing ----------------------------------------------------------------------


def test_smooth_uniform_sample_is_uniform():
    sample = RankingSample(tuple(enumerate_permutations(3)))
    sm = smooth_cell(sample, Cell.root(3), "enumeration")
    assert len(sm.scores) == 6
    for score in sm.scores:
        assert score == pytest.approx(1.5, abs=1e-12)
    assert sm.z == pytest.approx(9.0, abs=1e-12)
    for prob in sm.to_json_obj().values():
        assert prob == pytest.approx(1 / 6, abs=1e-12)


def test_smooth_point_mass_scores():
    center = Permutation.from_ordering((2, 0, 1))
    sample = RankingSample((center,) * 5)
    sm = smooth_cell(sample, Cell.root(3), "enumeration")
    for perm, score in zip(members_of(sm), sm.scores):
        assert score == pytest.approx(3 - kendall_tau(perm, center), abs=1e-12)
    assert members_of(sm)[int(np.argmax(sm.scores))] == center


def test_smoothing_depth_identity(rng):
    # score(sigma) = C(n,2) - ranking_risk(cell conditional, sigma), exactly
    for _ in range(10):
        s = random_sample(rng, 4, 25)
        i, j = sorted(int(v) for v in rng.choice(4, size=2, replace=False))
        cell = Cell(4, frozenset({(i, j)}))
        if not cell.membership_mask(s).any():
            continue
        sm = smooth_cell(s, cell, "enumeration")
        cond = DiscreteRankingDistribution.empirical(
            s.subset(np.flatnonzero(cell.membership_mask(s)))
        )
        for perm in enumerate_permutations(4):
            want = num_pairs(4) - ranking_risk(cond, perm)
            assert sm.score_of(perm) == pytest.approx(want, abs=1e-12)
        total = sum(sm.scores)
        assert total == pytest.approx(sm.z, abs=1e-9)
        assert sum(v / sm.z for v in sm.scores) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", range(1, 9))
def test_smooth_scores_equal_loop_oracle(n):
    # the same float additions in the same order: equal to the last bit
    rng = np.random.default_rng(n)
    for cell in seeded_cells(n):
        members = members_by_contains(cell)
        picks = tuple(members[int(k)] for k in rng.integers(len(members), size=5))
        s = RankingSample(picks + random_sample(rng, n, 20).rankings)
        sm = smooth_cell(s, cell, "enumeration")
        want = loop_smooth_scores(sm.marginals, cell)
        assert np.array_equal(sm.members, [p.ranks for p in want])
        assert np.array_equal(sm.scores, list(want.values()))
        assert sm.z == float(sum(want.values()))


def test_smooth_json_equals_the_dict_writer(rng):
    # the keys come out in the S_n table's order, which is the sorted order the writer used
    s = random_sample(rng, 5, 200)
    tree, _ = grow(s, epsilon=0.0, max_leaves=6)
    cases = [(s, tree.node(nid).cell) for nid in tree.frontier]
    cases.append((random_sample(rng, 7, 300), Cell.root(7)))
    for sample, cell in cases:
        sm = smooth_cell(sample, cell, "enumeration")
        want = dict_smooth_json(loop_smooth_scores(sm.marginals, cell), sm.z)
        assert json.dumps(sm.to_json_obj(), indent=2) == json.dumps(want, indent=2)
    assert len(cases) == tree.leaf_count + 1 >= 4


def test_smooth_json_keys_for_few_items_and_one_member(rng):
    # two items give one field per key; a fully ordered cell has a single member
    cases = [(random_sample(rng, n, 30), Cell.root(n)) for n in (2, 3)]
    ordered = RankingSample((Permutation.identity(4),) * 3 + random_sample(rng, 4, 30).rankings)
    cases.append((ordered, Cell(4, frozenset({(0, 1), (1, 2), (2, 3)}))))
    for sample, cell in cases:
        sm = smooth_cell(sample, cell, "enumeration")
        want = dict_smooth_json(loop_smooth_scores(sm.marginals, cell), sm.z)
        assert json.dumps(sm.to_json_obj(), indent=2) == json.dumps(want, indent=2)
    assert list(sm.to_json_obj()) == ["1,2,3,4"]


def test_smooth_one_item_has_no_probabilities_to_export():
    sm = smooth_cell(RankingSample((Permutation.identity(1),) * 3), Cell.root(1))
    assert sm.z == 0.0 and sm.scores.tolist() == [0.0]
    with pytest.raises(RejectedInputError, match="normalizer"):
        sm.to_json_obj()


def test_smooth_marginals_equal_sub_sample_marginals(rng):
    # column counts of the masked rows give the rebuilt sub-sample's marginals, bit for bit
    for n, size in [(4, 25), (6, 300), (7, 41)]:
        s = random_sample(rng, n, size)
        cell = Cell(n, frozenset({(0, 1), (2, 3)}))
        mask = cell.membership_mask(s)
        if not mask.any():
            continue
        want = pairwise_marginals(s.subset(np.flatnonzero(mask)))
        got = smooth_cell(s, cell, "enumeration").marginals
        assert (got.p == want.p).all()


def test_smooth_argmax_is_copeland_under_sst(rng):
    hits = 0
    for seed in range(30):
        s = sample_mallows(
            MallowsParams(center=random_permutation(rng, 5), phi=0.9),
            201,
            np.random.default_rng(seed),
        )
        sm = smooth_cell(s, Cell.root(5), "enumeration")
        status = sst_status(sm.marginals)
        if status.kind is not SstKind.STRICT:
            continue
        cop = copeland_median(sm.marginals)
        best = max(sm.scores)
        assert sm.scores[members_of(sm).index(cop)] == pytest.approx(best, abs=1e-12)
        hits += 1
        if hits >= 10:
            break
    assert hits >= 5


def test_smooth_factorized_normalizer():
    sample = RankingSample(tuple(enumerate_permutations(3)) * 2)
    cell = Cell(3, frozenset({(0, 1)}))
    sm_enum = smooth_cell(sample, cell, "enumeration")
    sm_fact = smooth_cell(sample, cell, SmoothMethod.FACTORIZED)
    assert sm_enum.method is SmoothMethod.ENUMERATION
    assert sm_fact.z == sm_fact.z_factorized
    assert sm_enum.z_factorized == pytest.approx(sm_fact.z, abs=1e-12)
    assert sm_enum.z != pytest.approx(sm_fact.z)  # the two normalizers disagree
    assert np.array_equal(sm_enum.members, sm_fact.members)
    assert np.array_equal(sm_enum.scores, sm_fact.scores)
    # closed-form normalizer from the conditional marginals and factorized uniforms
    marg = sm_enum.marginals
    uni = uniform_cell_marginals(cell, "factorized")
    want = sum(
        marg.p[a, b] * (1 - uni.p[a, b])
        for a, b in [(0, 1), (0, 2), (1, 2)]
    )
    assert sm_fact.z == pytest.approx(want, abs=1e-12)


def test_smooth_validation(rng):
    s3 = random_sample(rng, 3, 10)
    chain = Cell(3, frozenset({(0, 1), (1, 2)}))
    with pytest.raises(RejectedInputError):
        smooth_cell(s3, chain, "factorized")  # item 1 reused
    with pytest.raises(CapacityError):
        smooth_cell(random_sample(rng, 12, 5), Cell.root(12), "enumeration")
    with pytest.raises(DimensionMismatchError):
        smooth_cell(s3, Cell.root(4))
    lonely = RankingSample((Permutation.identity(3),) * 4)
    missing = Cell(3, frozenset({(1, 0)}))  # nobody puts item 1 first
    with pytest.raises(RejectedInputError):
        smooth_cell(lonely, missing)


# --- homogeneity test ----------------------------------------------------------------


def test_homogeneity_identical_samples(rng):
    vals = rng.normal(size=25)
    res = homogeneity_test(vals, vals)
    assert res.p_value > 0.9
    assert res.u_statistic == pytest.approx(25 * 25 / 2)


def test_homogeneity_separated_30_30():
    a = [float(v) for v in range(100, 130)]
    b = [float(v) for v in range(30)]
    res = homogeneity_test(a, b)
    assert res.p_value < 1e-6
    assert res.z == pytest.approx(6.645, abs=0.01)
    swapped = homogeneity_test(b, a)
    assert swapped.p_value == pytest.approx(res.p_value, abs=1e-15)


def test_homogeneity_matches_scipy(rng):
    for _ in range(20):
        a = rng.integers(0, 8, size=int(rng.integers(5, 40))).astype(float)
        b = rng.integers(0, 8, size=int(rng.integers(5, 40))).astype(float)
        res = homogeneity_test(a, b)
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="asymptotic")
        assert res.u_statistic == pytest.approx(float(ref.statistic), abs=1e-9)
        assert res.p_value == pytest.approx(float(ref.pvalue), abs=1e-9)


def test_homogeneity_exact_validates_normal(rng):
    for _ in range(15):
        a = rng.integers(0, 5, size=int(rng.integers(4, 10))).astype(float)
        b = rng.integers(0, 5, size=int(rng.integers(4, 10))).astype(float)
        exact = homogeneity_test(a, b, method="exact")
        approx = homogeneity_test(a, b)
        assert exact.method == "exact" and exact.z is None
        assert 0.0 <= exact.p_value <= 1.0
        assert approx.p_value == pytest.approx(exact.p_value, abs=0.06)


def test_homogeneity_exact_tiny_case():
    # two singletons: the smaller value's side is one of two equally likely
    # assignments, so the two-sided exact p-value is 1
    res = homogeneity_test([1.0], [2.0], method="exact")
    assert res.p_value == 1.0


def test_homogeneity_degenerate_and_validation():
    res = homogeneity_test([3.0] * 10, [3.0] * 7)
    assert res.p_value == 1.0 and res.z == 0.0
    with pytest.raises(RejectedInputError):
        homogeneity_test([], [1.0])
    with pytest.raises(RejectedInputError):
        homogeneity_test([1.0], [2.0], method="bootstrap")
    with pytest.raises(CapacityError):
        homogeneity_test(list(range(15)), list(range(15)), method="exact")


def test_homogeneity_calibration():
    # same generating distribution on both sides: rejection at 5% stays near 5%
    spec = random_mallows_mixture_spec(n=6, k=2, phi=0.6, seed=17)
    fit = sample_mixture(spec, 120)
    tree, _ = grow(fit, epsilon=0.2)
    master = np.random.default_rng(424242)
    rejections = 0
    reps = 200
    for _ in range(reps):
        seeds = master.integers(0, 2**31, size=2)
        qa = sample_mixture(spec.with_seed(int(seeds[0])), 60)
        qb = sample_mixture(spec.with_seed(int(seeds[1])), 60)
        da = local_depths(tree, fit, qa).local_depth.tolist()
        db = local_depths(tree, fit, qb).local_depth.tolist()
        if homogeneity_test(da, db).p_value < 0.05:
            rejections += 1
    assert 0.01 * reps <= rejections <= 0.12 * reps


# --- sst preservation under conditioning ---------------------------------------------


def random_strict_sst_distribution(rng, n):
    """Noisy Mallows pmf, resampled until its marginals are strictly SST."""
    perms = list(enumerate_permutations(n))
    for _ in range(50):
        params = MallowsParams(
            center=random_permutation(rng, n), phi=float(rng.uniform(0.5, 1.6))
        )
        base = mallows_distribution(params)
        noise = rng.uniform(0.5, 1.5, size=len(perms))
        w = base.weights * noise
        w = w / w.sum()
        dist = DiscreteRankingDistribution(n, base.support, w)
        if sst_status(dist.marginals()).kind is SstKind.STRICT:
            return dist
    raise AssertionError("could not draw a strictly SST distribution")


def test_sst_preserved_by_argmax_conditioning(rng):
    checked = 0
    for _ in range(200):
        n = int(rng.integers(3, 6))
        dist = random_strict_sst_distribution(rng, n)
        p = dist.marginals().p
        off = p - np.eye(n) * 10.0
        a, b = np.unravel_index(int(off.argmax()), off.shape)
        cell = Cell(n, frozenset({(int(a), int(b))}))
        mask = np.array([cell.contains(q) for q in dist.support])
        mass, cond = condition(dist, mask)
        assert mass > 0
        status = sst_status(cond.marginals())
        assert status.kind is not SstKind.NOT_TRANSITIVE, (
            f"conditioning on argmax pair {(a, b)} broke transitivity"
        )
        checked += 1
    assert checked == 200


# --- chain factorization --------------------------------------------------------------


def test_chain_point_mass():
    sigma = Permutation.from_ordering((1, 3, 0, 2))
    dist = DiscreteRankingDistribution.from_pairs([(sigma, 1.0)])
    assert chain_pmf(dist, sigma) == pytest.approx(1.0)
    assert chain_pmf(dist, Permutation.identity(4)) == 0.0


def test_chain_uniform_third():
    dist = DiscreteRankingDistribution.from_pairs(
        [(p, 1 / 6) for p in enumerate_permutations(3)]
    )
    for perm in enumerate_permutations(3):
        assert chain_pmf(dist, perm) == pytest.approx(1 / 6, abs=1e-12)


def test_chain_equals_mass_exhaustively(rng):
    for _ in range(12):
        n = int(rng.integers(2, 6))
        dist = random_rational_distribution(rng, n, max_support=10)
        for perm in enumerate_permutations(n):
            assert chain_pmf(dist, perm) == pytest.approx(
                dist.prob_of(perm), abs=1e-12
            )


def test_chain_accepts_samples(rng):
    s = random_sample(rng, 4, 30)
    dist = DiscreteRankingDistribution.empirical(s)
    for perm in list(dict.fromkeys(s.rankings))[:5]:
        assert chain_pmf(s, perm) == pytest.approx(dist.prob_of(perm), abs=1e-12)


def test_chain_validation(rng):
    dist = random_rational_distribution(rng, 3, max_support=4)
    with pytest.raises(DimensionMismatchError):
        chain_pmf(dist, Permutation.identity(4))
    # the chain walks the support's own comparison columns, so n has no cap
    point = random_permutation(rng, 12)
    big = DiscreteRankingDistribution.from_pairs([(point, 1.0)])
    assert chain_pmf(big, point) == 1.0
    other = Permutation.from_ordering(reversed(point.ordering()))
    assert chain_pmf(big, other) == 0.0
