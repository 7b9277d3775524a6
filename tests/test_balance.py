import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import nearest_neighbors_oracle, reference_balance
from lowrisk.balance import BalanceConfig, _nearest_neighbors, balance
from lowrisk.discretize import ATTRIBUTE_ITEMS, item_mask
from lowrisk.errors import ImbalanceUnachievableWarning, InsufficientMinorityError


def random_mask(rng, bias=0.5):
    return sum(1 << i for i in range(len(ATTRIBUTE_ITEMS)) if rng.random() < bias)


def random_masks(rng, n, bias=0.5):
    return [random_mask(rng, bias) for _ in range(n)]


def test_default_rates_double_minority_and_match_majority():
    rng = random.Random(1)
    faulty, clean = random_masks(rng, 10), random_masks(rng, 90)
    out = balance(faulty, clean, BalanceConfig(rng_seed=3))
    assert (len(out.faulty), len(out.clean)) == (20, 20)
    assert len(out) == 40
    assert out.faulty[:10] == faulty


def test_already_balanced_input_stays_balanced():
    rng = random.Random(2)
    faulty, clean = random_masks(rng, 12), random_masks(rng, 12)
    with pytest.warns(ImbalanceUnachievableWarning):
        out = balance(faulty, clean, BalanceConfig(rng_seed=3))
    assert len(out.faulty) == len(out.clean)


def test_identical_minority_vectors_yield_identical_synthetics():
    seed_mask = item_mask(["NoLoops", "IsGetter"])
    out = balance([seed_mask] * 8, [item_mask(["NoLoops"])] * 40, BalanceConfig(rng_seed=5))
    assert len(out.faulty) == 16
    assert all(mask == seed_mask for mask in out.faulty)


def test_deterministic_given_seed():
    rng = random.Random(7)
    faulty, clean = random_masks(rng, 15), random_masks(rng, 85)
    a = balance(faulty, clean, BalanceConfig(rng_seed=11))
    b = balance(faulty, clean, BalanceConfig(rng_seed=11))
    assert a == b
    c = balance(faulty, clean, BalanceConfig(rng_seed=12))
    assert c != a  # overwhelmingly likely for random data


def test_insufficient_minority_raises():
    rng = random.Random(9)
    with pytest.raises(InsufficientMinorityError):
        balance(random_masks(rng, 4), random_masks(rng, 20), BalanceConfig(k_neighbors=5, rng_seed=0))


def test_synthetic_attributes_come_from_real_minority_vectors():
    rng = random.Random(13)
    minority = random_masks(rng, 12, bias=0.2)
    majority = random_masks(rng, 60, bias=0.8)
    out = balance(minority, majority, BalanceConfig(rng_seed=17))
    synthetic = out.faulty[12:]
    assert len(synthetic) == 12
    for mask in synthetic:
        for idx in range(len(ATTRIBUTE_ITEMS)):
            value = mask >> idx & 1
            assert any(real >> idx & 1 == value for real in minority)


def test_equals_the_randrange_reference_for_200_configs():
    """The inlined draws give the same vectors as one rng.randrange call per
    attribute: clean and faulty minorities, 2 to 9 sources per seed (powers
    of two and not), rates that leave extra seeds, and pool deficits."""
    rng = random.Random(29)
    swapped = deficits = 0
    for case in range(200):
        k = rng.randint(1, 8)
        n_min = rng.randint(k + 1, k + 30)
        n_maj = rng.randint(k + 1, 4 * n_min)
        faulty, clean = random_masks(rng, n_min, rng.random()), random_masks(rng, n_maj, rng.random())
        if case % 3 == 0:
            faulty, clean = clean, faulty
        cfg = BalanceConfig(
            percent_over=rng.choice((100, 100, 50, 150, 230)),
            percent_under=rng.choice((200, 200, 100, 300)),
            k_neighbors=k,
            rng_seed=rng.getrandbits(64),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = balance(faulty, clean, cfg)
            expected = reference_balance(faulty, clean, cfg)
        assert (got.faulty, got.clean) == expected, f"case {case}"
        swapped += len(faulty) > len(clean)
        deficits += bool(caught)
    assert swapped >= 30 and deficits >= 10


@settings(max_examples=40, deadline=None)
@given(
    n_min=st.integers(min_value=6, max_value=20),
    n_maj=st.integers(min_value=6, max_value=60),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_output_is_balanced_within_one(n_min, n_maj, seed):
    rng = random.Random(seed)
    faulty, clean = random_masks(rng, n_min), random_masks(rng, n_maj)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ImbalanceUnachievableWarning)
        out = balance(faulty, clean, BalanceConfig(rng_seed=seed))
    assert abs(len(out.faulty) - len(out.clean)) <= 1


def test_balanced_split_over_random_imbalance_levels():
    rng = random.Random(21)
    for trial in range(10):
        n = rng.randint(120, 200)
        minority_fraction = rng.uniform(0.06, 0.30)
        n_min = max(6, int(n * minority_fraction))
        faulty, clean = random_masks(rng, n_min), random_masks(rng, n - n_min)
        out = balance(faulty, clean, BalanceConfig(rng_seed=trial))
        assert abs(len(out.faulty) - len(out.clean)) <= 1


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_nearest_neighbors_equal_the_sorting_oracle(k):
    rng = random.Random(k)
    n_bits = len(ATTRIBUTE_ITEMS)
    for case in range(30):
        # Few distinct masks and few differing bits: many duplicates and many
        # ties at every distance.
        base = rng.getrandbits(n_bits)
        pool = [base ^ sum(1 << rng.randrange(n_bits) for _ in range(rng.randint(0, 3)))
                for _ in range(rng.randint(1, 12))]
        masks = [rng.choice(pool) for _ in range(rng.randint(k + 1, 60))]
        assert _nearest_neighbors(masks, k) == nearest_neighbors_oracle(masks, k), f"case {case}"


def test_nearest_neighbors_edge_cases():
    for masks in ([0, 0], [0, 1], [5] * 7, [1 << 48, 0, 1 << 48], [3, 0, 1, 2]):
        for k in range(1, len(masks)):
            assert _nearest_neighbors(masks, k) == nearest_neighbors_oracle(masks, k)


@pytest.mark.parametrize("n_distinct", [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 100])
def test_nearest_neighbors_at_block_edges(n_distinct):
    """Queries go 16 to a block, in lanes of whole bytes: distinct-mask counts
    on both sides of a byte and of a block, with duplicates, and distinct
    masks that differ in a few of 8 positions, so that every distance ties."""
    rng = random.Random(n_distinct)
    n_bits = len(ATTRIBUTE_ITEMS)
    for case in range(3):
        positions = rng.sample(range(n_bits), 8)
        if case == 0:
            positions[0] = n_bits - 1  # the highest attribute, the widest column
        base = rng.getrandbits(n_bits)
        distinct: set[int] = set()
        while len(distinct) < n_distinct:
            distinct.add(base ^ sum(1 << p for p in positions if rng.random() < 0.3))
        masks = list(distinct) + [rng.choice(list(distinct)) for _ in range(rng.randint(1, n_distinct + 8))]
        rng.shuffle(masks)
        for k in range(1, 9):
            assert _nearest_neighbors(masks, k) == nearest_neighbors_oracle(masks, k), (case, k)
