"""The public API: the names ``coastrank`` exports, and the ones it no longer does."""

import importlib

import pytest

import coastrank

PUBLIC = [
    "CRD", "Cell", "CoastNode", "CoastTree", "DepthTable", "DiscreteRankingDistribution",
    "DistortionReport", "ENUMERATION_LIMIT", "GrowthTrace", "HomogeneityResult",
    "MallowsParams", "MedianResult", "MixtureSpec", "PairwiseMatrix", "Permutation",
    "PlackettLuceParams", "RankingFileFormat", "RankingSample", "RunManifest", "SmoothMethod",
    "SmoothedCellDistribution", "SplitRule", "SstStatus", "TransportPlan", "anomaly_scores",
    "chain_pmf", "co_membership", "copeland_median", "ddplot_table", "depth_climb_median",
    "dispersion_v", "dispersion_v_prime", "distortion_report", "distortion_reports",
    "exact_kemeny", "exponential_worths", "grow", "homogeneity_test", "kendall_tau",
    "load_rankings", "local_depths", "make_aggregator", "mallows_distribution",
    "mallows_normalizer", "mallows_pmf", "num_pairs", "pair_list", "prune_sequence",
    "random_mallows_mixture_spec", "random_plackett_luce_mixture_spec", "ranking_risk",
    "sample_mallows", "sample_mixture", "sample_plackett_luce", "select_subtree", "sha256_of",
    "smooth_cell", "sst_status", "uniform_cell_marginals", "uniform_marginal_discrepancy",
    "wasserstein", "write_manifest", "write_rankings",
]

#: Test-only helpers dropped from the package, by the module that held them.
DROPPED = {
    "coastrank.tree": ["_choose_split", "choose_split_min_distortion", "choose_split_balanced"],
    "coastrank.perms": ["enumerate_permutations", "pairwise_marginals"],
}
DROPPED_MEMBERS = [
    ("coastrank.tree", "GrowthTrace", "criteria"),
    ("coastrank.tree", "CRD", "to_distribution"),
    ("coastrank.transport", "TransportPlan", "row_sums"),
    ("coastrank.transport", "TransportPlan", "col_sums"),
    ("coastrank.perms", "Permutation", "reverse"),
    ("coastrank.perms", "Permutation", "compose"),
    ("coastrank.perms", "RankingSample", "comparisons"),
    ("coastrank.cells", "Cell", "admissible_pairs"),
    ("coastrank.tree", "CRD", "from_json_obj"),
    ("coastrank.fileio", "RunManifest", "from_json_obj"),
    ("coastrank.tree", "CoastNode", "indices"),
    ("coastrank.cells", "Cell", "comparison_mask"),
]


def test_all_is_pinned():
    assert sorted(coastrank.__all__) == PUBLIC
    assert len(set(coastrank.__all__)) == len(coastrank.__all__)


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from coastrank import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(coastrank, name), name


@pytest.mark.parametrize("module", sorted(DROPPED))
def test_dropped_helpers_are_gone(module):
    mod = importlib.import_module(module)
    for name in DROPPED[module]:
        assert not hasattr(mod, name), f"{module}.{name}"
        assert not hasattr(coastrank, name), name


@pytest.mark.parametrize("module, cls, member", DROPPED_MEMBERS)
def test_dropped_members_are_gone(module, cls, member):
    assert not hasattr(getattr(importlib.import_module(module), cls), member)
