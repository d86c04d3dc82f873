"""Generators: exact pmf agreement, limit behavior, mixtures, presets."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from coastrank.consensus import SstKind, copeland_median, sst_status
from coastrank.errors import RejectedInputError
from coastrank.models import (
    MallowsParams,
    MixtureSpec,
    PlackettLuceParams,
    exponential_worths,
    mallows_distribution,
    mallows_normalizer,
    mallows_pmf,
    random_mallows_mixture_spec,
    random_plackett_luce_mixture_spec,
    sample_mallows,
    sample_mixture,
    sample_plackett_luce,
)
from coastrank.perms import (
    Permutation,
    comparison_matrix,
    enumerate_permutations,
    kendall_tau,
    pairwise_marginals,
    symmetric_group,
)

from conftest import (
    malformed_spec_documents,
    random_permutation,
    record_permutation_builds,
    spec_document,
)
from oracles import loop_mallows_distribution, naive_kendall, pl_pmf


# --- parameter validation -----------------------------------------------------


def test_params_validation():
    c = Permutation.identity(4)
    for bad_phi in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(RejectedInputError):
            MallowsParams(c, bad_phi)
    with pytest.raises(RejectedInputError):
        PlackettLuceParams(())
    with pytest.raises(RejectedInputError):
        PlackettLuceParams((1.0, 0.0))
    with pytest.raises(RejectedInputError):
        PlackettLuceParams((1.0, -2.0))
    with pytest.raises(RejectedInputError):
        exponential_worths(4, rho=1.0)
    assert exponential_worths(4) == (1.0, 0.5, 0.25, 0.125)


def test_draw_args_validation(rng):
    p = MallowsParams(Permutation.identity(3), 1.0)
    with pytest.raises(RejectedInputError):
        sample_mallows(p, 0, rng)
    with pytest.raises(RejectedInputError):
        sample_mallows(p, 5, None)  # explicit generator is mandatory


# --- normalizer and pmf -------------------------------------------------------


def test_normalizer_matches_enumeration():
    for n, phi in ((3, 0.25), (4, 1.0), (5, 0.7)):
        brute = sum(
            math.exp(-phi * naive_kendall(p, Permutation.identity(n)))
            for p in enumerate_permutations(n)
        )
        assert mallows_normalizer(n, phi) == pytest.approx(brute, rel=1e-12)


def test_pmf_center_and_two_items():
    params = MallowsParams(Permutation.from_ordering((2, 0, 1)), 0.8)
    z = mallows_normalizer(3, 0.8)
    assert mallows_pmf(params, params.center) == pytest.approx(1 / z, rel=1e-12)
    # two items, phi = ln 2: masses 2/3 and 1/3
    p2 = MallowsParams(Permutation.identity(2), math.log(2))
    assert mallows_pmf(p2, Permutation.identity(2)) == pytest.approx(2 / 3, rel=1e-12)
    assert mallows_pmf(p2, Permutation.reverse(2)) == pytest.approx(1 / 3, rel=1e-12)


def test_pmf_sums_to_one():
    params = MallowsParams(Permutation.from_ordering((1, 2, 0)), 0.7)
    total = sum(mallows_pmf(params, p) for p in enumerate_permutations(3))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_distribution_object_consistent(rng):
    params = MallowsParams(random_permutation(rng, 5), 0.6)
    dist = mallows_distribution(params)
    assert sum(dist.weights) == pytest.approx(1.0, abs=1e-10)
    for p, w in zip(dist.support[:40], dist.weights[:40]):
        assert w == pytest.approx(mallows_pmf(params, p), rel=1e-12)
    # the center is the unique mode
    assert dist.prob_of(params.center) == pytest.approx(max(dist.weights), rel=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_mallows_distribution_equals_loop_oracle(rng, n):
    params = MallowsParams(random_permutation(rng, n), float(rng.uniform(0.05, 2.0)))
    got, want = mallows_distribution(params), loop_mallows_distribution(params)
    assert got.support == want.support
    assert np.array_equal(got.weights, want.weights)


@pytest.mark.parametrize("n", [1, 2, 5, 7])
def test_mallows_support_comparisons_come_from_the_table(rng, n):
    params = MallowsParams(random_permutation(rng, n), 0.4)
    dist = mallows_distribution(params)
    x = dist.support_comparisons
    ranks = np.array([p.ranks for p in dist.support], dtype=np.int32)
    assert np.array_equal(x, comparison_matrix(ranks))
    # the layout weighted from_comparisons needs for bit-identical sums
    assert x.dtype == bool and x.flags.f_contiguous and not x.flags.writeable
    rebuilt = loop_mallows_distribution(params)  # comparison rows built from its support
    assert np.array_equal(dist.marginals().p, rebuilt.marginals().p)


def test_mallows_distribution_builds_no_permutation(rng, monkeypatch):
    params = MallowsParams(random_permutation(rng, 9), 0.5)
    built = record_permutation_builds(monkeypatch)
    dist = mallows_distribution(params)
    assert built == []
    # its state is the S_n table itself, uint8 and uncopied
    assert dist.ranks is symmetric_group(9)[0] and dist.ranks.dtype == np.uint8
    assert dist.size == math.factorial(9)


# --- sampler vs pmf -----------------------------------------------------------


def test_mallows_sampler_matches_pmf_chi2(rng):
    for n, phi in ((3, 0.8), (4, 0.5)):
        params = MallowsParams(random_permutation(rng, n), phi)
        dist = mallows_distribution(params)
        size = 50 * math.factorial(n)
        s = sample_mallows(params, size, rng)
        counts = {p.ranks: 0 for p in dist.support}
        for perm in s.rankings:
            counts[perm.ranks] += 1
        observed = np.array([counts[p.ranks] for p in dist.support])
        expected = np.array(dist.weights) * size
        _, pval = stats.chisquare(observed, expected)
        assert pval > 1e-3, f"n={n} phi={phi}: chi-square p={pval}"


def test_mallows_point_mass_at_large_phi(rng):
    center = random_permutation(rng, 5)
    s = sample_mallows(MallowsParams(center, 50.0), 100, rng)
    assert all(p == center for p in s.rankings)


def test_mallows_uniform_limit(rng):
    params = MallowsParams(Permutation.identity(3), 1e-9)
    s = sample_mallows(params, 6000, rng)
    m = pairwise_marginals(s)
    off = m.p[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off - 0.5) < 0.05)


def test_mallows_mode_frequency(rng):
    center = Permutation.reverse(4)
    params = MallowsParams(center, 2.0)
    mode_mass = mallows_distribution(params).prob_of(center)
    assert mode_mass > 0.5
    s = sample_mallows(params, 1000, rng)
    freq = sum(1 for p in s.rankings if p == center) / 1000
    sigma = math.sqrt(mode_mass * (1 - mode_mass) / 1000)
    assert abs(freq - mode_mass) <= 3 * sigma
    assert freq > 0.5


def test_mallows_sample_sst_ordered_with_center(rng):
    center = random_permutation(rng, 8)
    s = sample_mallows(MallowsParams(center, 0.7), 6000, rng)
    m = pairwise_marginals(s)
    assert sst_status(m).kind is SstKind.STRICT
    assert copeland_median(m) == center


def test_sampler_determinism():
    params = MallowsParams(Permutation.identity(6), 0.4)
    a = sample_mallows(params, 200, np.random.default_rng(11))
    b = sample_mallows(params, 200, np.random.default_rng(11))
    assert a.ranks_matrix.tobytes() == b.ranks_matrix.tobytes()


# --- plackett-luce ------------------------------------------------------------


def test_pl_first_choice_law(rng):
    s = sample_plackett_luce(PlackettLuceParams((4.0, 2.0, 1.0)), 3000, rng)
    freq = sum(1 for p in s.rankings if p.ranks[0] == 0) / 3000
    sigma = math.sqrt((4 / 7) * (3 / 7) / 3000)
    assert abs(freq - 4 / 7) <= 3 * sigma
    # dominant worth takes first place almost surely
    s2 = sample_plackett_luce(PlackettLuceParams((1000.0, 0.001, 0.001)), 400, rng)
    top = sum(1 for p in s2.rankings if p.ranks[0] == 0) / 400
    assert top > 0.99


def test_pl_uniform_worths_symmetric(rng):
    s = sample_plackett_luce(PlackettLuceParams((1.0, 1.0, 1.0)), 6000, rng)
    m = pairwise_marginals(s)
    off = m.p[~np.eye(3, dtype=bool)]
    assert np.all(np.abs(off - 0.5) < 0.05)


def test_pl_sampler_matches_sequential_pmf_chi2(rng):
    worths = (4.0, 2.0, 1.0)
    perms = list(enumerate_permutations(3))
    probs = np.array([pl_pmf(worths, p) for p in perms])
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    size = 1800
    s = sample_plackett_luce(PlackettLuceParams(worths), size, rng)
    counts = {p.ranks: 0 for p in perms}
    for perm in s.rankings:
        counts[perm.ranks] += 1
    observed = np.array([counts[p.ranks] for p in perms])
    _, pval = stats.chisquare(observed, probs * size)
    assert pval > 1e-3


# --- mixtures -----------------------------------------------------------------


def two_point_spec(seed=7):
    a = MallowsParams(Permutation.identity(5), 50.0)
    b = MallowsParams(Permutation.reverse(5), 50.0)
    return MixtureSpec(5, seed, ((a, 0.5), (b, 0.5)))


def test_mixture_spec_validation():
    a = MallowsParams(Permutation.identity(4), 1.0)
    with pytest.raises(RejectedInputError):
        MixtureSpec(4, 0, ())
    with pytest.raises(RejectedInputError):
        MixtureSpec(4, 0, ((a, 0.6), (a, 0.6)))  # weights must sum to 1
    with pytest.raises(RejectedInputError):
        MixtureSpec(5, 0, ((a, 1.0),))  # item-count mismatch
    with pytest.raises(RejectedInputError):
        MixtureSpec(4, 0, ((a, -1.0), (a, 2.0)))


def test_mixture_labels_match_rows():
    spec = two_point_spec()
    s = sample_mixture(spec, 1000)
    assert s.labels is not None and len(s.labels) == 1000
    # phi = 50 makes each component a point mass, so the label is checkable
    centers = {0: Permutation.identity(5), 1: Permutation.reverse(5)}
    for perm, lab in zip(s.rankings, s.labels):
        assert perm == centers[lab]
    freq = sum(s.labels) / 1000
    assert abs(freq - 0.5) <= 3 * math.sqrt(0.25 / 1000)


def test_mixture_all_labels_present():
    spec = random_mallows_mixture_spec(n=6, k=4, phi=1.0, seed=3)
    s = sample_mixture(spec, 400)
    assert set(s.labels) == {0, 1, 2, 3}


def test_mixture_single_component_equals_component_sampler():
    params = MallowsParams(Permutation.identity(4), 0.9)
    spec = MixtureSpec(4, 21, ((params, 1.0),))
    s = sample_mixture(spec, 300)
    assert set(s.labels) == {0}
    # reproduce the internal plumbing: labels from the master stream, then
    # the single component consumes its spawned child stream
    master = np.random.default_rng(21)
    master.choice(1, size=300, p=np.array([1.0]))
    child = master.spawn(1)[0]
    direct = sample_mallows(params, 300, child)
    assert s.ranks_matrix.tobytes() == direct.ranks_matrix.tobytes()


def test_mixture_determinism():
    spec = two_point_spec(seed=99)
    a = sample_mixture(spec, 500)
    b = sample_mixture(spec, 500)
    assert a.ranks_matrix.tobytes() == b.ranks_matrix.tobytes()
    assert a.labels == b.labels


def test_mixture_json_roundtrip():
    mal = MallowsParams(Permutation.from_ordering((2, 0, 1, 3)), 0.3)
    pl = PlackettLuceParams(exponential_worths(4))
    spec = MixtureSpec(4, 17, ((mal, 0.25), (pl, 0.75)))
    blob = json.dumps(spec.to_json_obj())
    back = MixtureSpec.from_json_obj(json.loads(blob))
    assert back == spec
    with pytest.raises(RejectedInputError):
        MixtureSpec.from_json_obj({"n": 3, "seed": 0, "components": [{"type": "magic", "mix": 1.0}]})
    with pytest.raises(RejectedInputError):
        MixtureSpec.from_json_obj({"n": 3})


@pytest.mark.parametrize(
    "doc, needle", [c[1:] for c in malformed_spec_documents()],
    ids=[c[0] for c in malformed_spec_documents()],
)
def test_malformed_spec_document_is_rejected(doc, needle):
    with pytest.raises(RejectedInputError, match=needle):
        MixtureSpec.from_json_obj(doc)


def test_spec_component_ranking_errors_pass_through_unchanged():
    doc = spec_document()
    doc["components"][0]["center"] = [1, 1, 2, 3, 4]
    with pytest.raises(RejectedInputError) as err:
        Permutation.from_one_based([1, 1, 2, 3, 4])
    with pytest.raises(RejectedInputError) as got:
        MixtureSpec.from_json_obj(doc)
    assert str(got.value) == str(err.value)
    assert MixtureSpec.from_json_obj(spec_document()).k == 2


def test_negative_seed_is_rejected():
    spec = two_point_spec()
    with pytest.raises(RejectedInputError, match="seed"):
        spec.with_seed(-1)
    with pytest.raises(RejectedInputError, match="seed"):
        MixtureSpec(5, -1, spec.components)
    assert spec.with_seed(0).seed == 0


def test_worths_whose_sum_overflows_are_rejected():
    # each worth is finite, but the sampler's running sums would reach inf
    with pytest.raises(RejectedInputError, match="finite sum"):
        PlackettLuceParams((1e308,) * 5)
    assert PlackettLuceParams((1e307,) * 5).n == 5


# --- random mixture presets ---------------------------------------------------


def test_random_mallows_spec_separation():
    spec = random_mallows_mixture_spec(n=8, k=4, phi=0.5, seed=12)
    centers = [p.center for p, _ in spec.components]
    assert len(centers) == 4
    for i in range(4):
        for j in range(i + 1, 4):
            assert kendall_tau(centers[i], centers[j]) >= 7  # 8*7/8
    assert all(m == pytest.approx(0.25) for _, m in spec.components)
    assert spec == random_mallows_mixture_spec(n=8, k=4, phi=0.5, seed=12)
    assert spec != random_mallows_mixture_spec(n=8, k=4, phi=0.5, seed=13)


def test_random_pl_spec_modes_are_centers():
    spec = random_plackett_luce_mixture_spec(n=6, k=3, rho=0.5, seed=5)
    for params, _ in spec.components:
        # worths strictly decrease along the implied center's ordering,
        # so that ranking is the component's unique mode
        order = np.argsort(-np.array(params.worths), kind="stable")
        ranks = np.empty(6, dtype=int)
        ranks[order] = np.arange(6)
        assert sorted(params.worths, reverse=True) == list(
            params.worths[i] for i in order
        )
        assert len(set(params.worths)) == 6


def test_separation_impossible_raises():
    with pytest.raises(RejectedInputError):
        random_mallows_mixture_spec(n=3, k=20, phi=1.0, seed=0, min_separation=3, tries=500)
