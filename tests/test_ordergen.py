import numpy as np
import pytest

from planarfab.core import DrugCatalog, Order
from planarfab import ordergen
from planarfab.ordergen import (
    MAX_REJECTIONS,
    _inclusion,
    _latent_model,
    estimate_demand,
    nearest_psd,
    sample_orders,
    tetrachoric_correlation,
)

from conftest import make_catalog


def sample_inclusion_matrix(catalog, n_samples: int, seed: int = 0, copula_mode: str = "raw"):
    """Raw thresholded draws with no size filtering, as a boolean matrix:
    the marginals before rejection sampling distorts them."""
    factor, thresholds = _latent_model(catalog, copula_mode)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _inclusion(rng, factor, thresholds, n_samples)


def test_forced_marginal_gives_singleton_orders():
    catalog = DrugCatalog(("a", "b"), (1.0, 0.0), np.zeros((2, 2)))
    oset = sample_orders(catalog, 50, (1, 1), seed=3, dispensing_speed=5)
    assert all(o.drugs == ("a",) for o in oset)
    assert all(dict(o.items)["a"] == 5 for o in oset)


def test_independent_pair_joint_frequency():
    # oracle: product measure => P(a and b) = 0.25
    catalog = DrugCatalog(("a", "b"), (0.5, 0.5), np.zeros((2, 2)))
    inc = sample_inclusion_matrix(catalog, 100_000, seed=11)
    joint = float(np.mean(inc[:, 0] & inc[:, 1]))
    assert abs(joint - 0.25) <= 0.02


def test_marginal_fidelity_before_filtering():
    catalog = make_catalog(10, seed=4)
    inc = sample_inclusion_matrix(catalog, 100_000, seed=12)
    freq = inc.mean(axis=0)
    for got, want in zip(freq, catalog.marginals):
        assert abs(got - want) <= 0.02


def test_size_range_enforced_and_achieved_marginals_reported():
    catalog = make_catalog(12, seed=5, marg_range=(0.3, 0.5))
    oset = sample_orders(catalog, 300, (3, 8), seed=6)
    assert all(3 <= len(o.items) <= 8 for o in oset)
    achieved = oset.achieved_marginals(catalog)
    assert set(achieved) == set(catalog.drugs)
    assert all(0.0 <= v <= 1.0 for v in achieved.values())
    # rejection to [3, 8] pulls the mean size into range, shifting marginals
    mean_size = sum(len(o.items) for o in oset) / len(oset)
    assert mean_size == pytest.approx(sum(achieved.values()), rel=1e-9)


def test_determinism_byte_for_byte():
    catalog = make_catalog(8, seed=1)
    a = sample_orders(catalog, 40, (2, 5), seed=123, duration_rule="dose")
    b = sample_orders(catalog, 40, (2, 5), seed=123, duration_rule="dose")
    assert a.orders == b.orders
    c = sample_orders(catalog, 40, (2, 5), seed=124, duration_rule="dose")
    assert a.orders != c.orders


def test_dose_rule_multiplies_duration():
    # doses are drawn after the orders, so the drug sets are the fixed rule's
    catalog = make_catalog(6, seed=2, marg_range=(0.4, 0.6))
    oset = sample_orders(catalog, 60, (1, 4), seed=9, duration_rule="dose", dispensing_speed=10)
    fixed = sample_orders(catalog, 60, (1, 4), seed=9, dispensing_speed=10)
    assert [o.drugs for o in oset] == [o.drugs for o in fixed]
    assert {d for o in oset for _, d in o.items} == {10, 20, 30}


def one_draw_at_a_time(catalog, n_orders, size_range, seed, max_rejections):
    """Drug index sets of the per-trial rejection loop, or None where it gives up."""
    factor, thresholds = _latent_model(catalog, "raw")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    orders = []
    for _ in range(n_orders):
        for _ in range(max_rejections):
            mask = factor @ rng.standard_normal(catalog.n_drugs) <= thresholds
            if size_range[0] <= mask.sum() <= size_range[1]:
                break
        else:
            return None
        orders.append(tuple(np.flatnonzero(mask)))
    return orders


def test_unreachable_size_range_raises_after_max_rejections():
    catalog = DrugCatalog(("a", "b"), (0.0, 0.0), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=f"within {MAX_REJECTIONS} draws"):
        sample_orders(catalog, 3, (1, 1), seed=0)


def test_rare_size_range_returns_its_orders():
    # independent drugs: the latent factor is the identity, so a block's draws are
    # exactly the single draws; all three at 0.1 is one trial in a thousand
    catalog = DrugCatalog(("a", "b", "c"), (0.1, 0.1, 0.1), np.zeros((3, 3)))
    oset = sample_orders(catalog, 5, (3, 3), seed=2)
    assert [o.drugs for o in oset] == [("a", "b", "c")] * 5
    want = one_draw_at_a_time(catalog, 5, (3, 3), 2, MAX_REJECTIONS)
    assert [tuple(catalog.drugs.index(g) for g in o.drugs) for o in oset] == want


@pytest.mark.parametrize("max_rejections", [1, 40, 60, 100, 150])
def test_rejection_guard_counts_consecutive_draws_across_blocks(monkeypatch, max_rejections):
    # p(size 3) = 0.027, so an order often needs more draws than a block holds (48 rows
    # for 6 missing orders, capped at max_rejections) and the guard trips on 1-40 of the
    # 40 seeds, depending on max_rejections
    catalog = DrugCatalog(("a", "b", "c"), (0.3, 0.3, 0.3), np.zeros((3, 3)))
    monkeypatch.setattr(ordergen, "MAX_REJECTIONS", max_rejections)
    outcomes = set()
    for seed in range(40):
        want = one_draw_at_a_time(catalog, 6, (3, 3), seed, max_rejections)
        try:
            oset = sample_orders(catalog, 6, (3, 3), seed=seed)
        except ValueError:
            got = None
        else:
            got = [tuple(catalog.drugs.index(g) for g in o.drugs) for o in oset]
        assert got == want, seed
        outcomes.add(got is None)
    assert outcomes == ({True} if max_rejections == 1 else {True, False})


def test_negative_order_count_rejected():
    catalog = make_catalog(4)
    assert len(sample_orders(catalog, 0, (1, 2))) == 0
    with pytest.raises(ValueError, match="n_orders"):
        sample_orders(catalog, -1, (1, 2))


def test_bad_size_range_rejected():
    catalog = make_catalog(4)
    with pytest.raises(ValueError):
        sample_orders(catalog, 5, (0, 2))
    with pytest.raises(ValueError):
        sample_orders(catalog, 5, (2, 9))


def test_nearest_psd_repairs_and_keeps_unit_diagonal():
    bad = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    fixed = nearest_psd(bad)
    assert np.linalg.eigvalsh(fixed).min() >= -1e-9
    assert np.allclose(np.diag(fixed), 1.0)
    good = np.eye(2)
    assert np.allclose(nearest_psd(good), good)


def test_tetrachoric_identity_on_zero():
    assert abs(tetrachoric_correlation(0.5, 0.5, 0.0)) < 1e-6


def test_tetrachoric_mode_improves_binary_correlation_match():
    target = 0.35
    catalog = DrugCatalog(
        ("a", "b"), (0.3, 0.6), np.array([[0.0, target], [target, 0.0]])
    )
    inc = sample_inclusion_matrix(catalog, 200_000, seed=21, copula_mode="tetrachoric")
    got = np.corrcoef(inc[:, 0], inc[:, 1])[0, 1]
    assert abs(got - target) < 0.03


def test_estimate_demand_examples():
    assert estimate_demand([]).u == {}
    two = [Order(0, (("a", 5),)), Order(1, (("a", 5),))]
    assert estimate_demand(two)["a"] == 10
    assert estimate_demand(two)["missing"] == 0.0


def test_estimate_demand_matches_bruteforce_accumulation():
    from conftest import random_orders

    orders = random_orders([f"d{i}" for i in range(8)], 50, seed=7, size_range=(1, 5))
    demand = estimate_demand(orders)
    oracle: dict[str, float] = {}
    for o in orders:
        for g, d in o.items:
            oracle[g] = oracle.get(g, 0.0) + d
    for g in oracle:
        assert demand[g] == oracle[g]


def test_estimate_demand_linearity():
    from conftest import random_orders

    a = random_orders([f"d{i}" for i in range(5)], 20, seed=1)
    b = random_orders([f"d{i}" for i in range(5)], 20, seed=2)
    da, db, dab = estimate_demand(a), estimate_demand(b), estimate_demand(a + b)
    for g in set(da.u) | set(db.u):
        assert dab[g] == da[g] + db[g]



# sha256 of orders_to_csv(sample_orders(...).orders) per (copula mode, seed, n_orders,
# size range), recorded while the sampler still drew one trial order per call: "raw"
# cases on the 40-drug catalog of the 8x8~2 reference, the "tetrachoric" case on a
# 4-drug catalog (each drug pair costs a tetrachoric solve)
ORDER_DIGESTS = {
    ("raw", 1, 30, (3, 6)): "3b05d1c2eb11591276247f1f5ed3491ff00bd3271c51a1a34ac04ce2011cf713",
    ("raw", 1, 100, (3, 6)): "b279acdb3c23690e9f555deda2a7604a749d761fb4ac2b9717e77d0ab0219166",
    ("raw", 1, 500, (3, 8)): "5da493449293f7166dbf5db4a9ee3e375c528f5375a2f708b6ce1b7a0f7d2495",
    ("raw", 2, 30, (3, 6)): "a4b3acddbdf336fbaccbcbd50ca2c763c15dad3c6d37b87d03553031fc022c38",
    ("raw", 2, 100, (3, 6)): "71f789fe47561b3d87b98ba38273329559dce69fd0b2c357bc7ea36d71c1e052",
    ("raw", 2, 500, (3, 8)): "7d6461763a0108fb0081ed626b595b3f8e95a67ee1c98f4d6fa496bab956ab72",
    ("raw", 3, 30, (3, 6)): "ef093b1c4dd4c238379b9ea2da2edcd35d58e1ddff8716858a9eeea565dfbf25",
    ("raw", 3, 100, (3, 6)): "f0800a67d2c0279d5d45bbe81e3db56cb93644231eeada69c3f2448ef74e9d06",
    ("raw", 3, 500, (3, 8)): "35768888c9b0e4638ee948795d688e9f9f913ad52999965aa567ec6c3e710afd",
    ("raw", 4, 30, (3, 6)): "8a0c7cf416a057eea77e7540dfcb703402fc12d2ede210d4cba7cdf7f61c987c",
    ("raw", 4, 100, (3, 6)): "da4c9d5d33586a62d1e31d511d0af0729db4af3f499c38a68e194caf4c6138f7",
    ("raw", 4, 500, (3, 8)): "0d4f7b3c4580fd6077c8f2ac2a8894bd5f039f6e49be4b1223d09f24adf651e3",
    ("raw", 5, 30, (3, 6)): "9b7a530ed68b2d99e249a3e512a7d13013983d825b132ed32e3d999ec827adfe",
    ("raw", 5, 100, (3, 6)): "df85c33caf68739b4318ad066155872f6176799bd35f1588d0859119eb16726e",
    ("raw", 5, 500, (3, 8)): "0e411a816a639372180be19a2e001d5e0cb8f0a7c30f2ac6952d3a25ae47b66c",
    ("tetrachoric", 7, 50, (1, 3)): "6b66289188359c2c3839086f905b9b457970e7578f5805ff506b8728315c7989",
}


@pytest.mark.parametrize("copula_mode, seed, n_orders, size_range", list(ORDER_DIGESTS))
def test_sample_orders_match_pinned_digests(copula_mode, seed, n_orders, size_range):
    import hashlib

    from planarfab.core import orders_to_csv

    if copula_mode == "raw":
        catalog = make_catalog(40, seed=1000, corr_scale=0.25, marg_range=(0.08, 0.45))
    else:
        catalog = make_catalog(4, seed=3, corr_scale=0.4)
    oset = sample_orders(catalog, n_orders, size_range, seed=seed, dispensing_speed=100,
                         copula_mode=copula_mode)
    digest = hashlib.sha256(orders_to_csv(oset.orders).encode()).hexdigest()
    assert digest == ORDER_DIGESTS[copula_mode, seed, n_orders, size_range]
