import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_vector, split
from oracles import nearest_neighbors_oracle
from lowrisk.balance import BalanceConfig, _nearest_neighbors, balance
from lowrisk.discretize import ATTRIBUTE_ITEMS, LABEL_FAULTY
from lowrisk.errors import ImbalanceUnachievableWarning, InsufficientMinorityError


def random_vector(rng, not_faulty=True, bias=0.5):
    items = [rng.random() < bias for _ in ATTRIBUTE_ITEMS]
    true_names = [n for n, on in zip(ATTRIBUTE_ITEMS, items) if on]
    return make_vector(true_names, not_faulty=not_faulty)


def split_counts(vectors):
    faulty = sum(1 for v in vectors if v.label_item == LABEL_FAULTY)
    return faulty, len(vectors) - faulty


def test_default_rates_double_minority_and_match_majority():
    rng = random.Random(1)
    data = [random_vector(rng, not_faulty=False) for _ in range(10)]
    data += [random_vector(rng) for _ in range(90)]
    out = balance(*split(data), BalanceConfig(rng_seed=3))
    faulty, clean = split_counts(out)
    assert (faulty, clean) == (20, 20)


def test_already_balanced_input_stays_balanced():
    rng = random.Random(2)
    data = [random_vector(rng, not_faulty=False) for _ in range(12)]
    data += [random_vector(rng) for _ in range(12)]
    with pytest.warns(ImbalanceUnachievableWarning):
        out = balance(*split(data), BalanceConfig(rng_seed=3))
    faulty, clean = split_counts(out)
    assert faulty == clean


def test_identical_minority_vectors_yield_identical_synthetics():
    seed_vec = make_vector(["NoLoops", "IsGetter"], not_faulty=False)
    data = [seed_vec] * 8 + [make_vector(["NoLoops"]) for _ in range(40)]
    out = balance(*split(data), BalanceConfig(rng_seed=5))
    minority = [v for v in out if v.label_item == LABEL_FAULTY]
    assert len(minority) == 16
    assert all(v.items == seed_vec.items for v in minority)


def test_deterministic_given_seed():
    rng = random.Random(7)
    data = [random_vector(rng, not_faulty=False) for _ in range(15)]
    data += [random_vector(rng) for _ in range(85)]
    a = balance(*split(data), BalanceConfig(rng_seed=11))
    b = balance(*split(data), BalanceConfig(rng_seed=11))
    assert a == b
    c = balance(*split(data), BalanceConfig(rng_seed=12))
    assert c != a  # overwhelmingly likely for random data


def test_insufficient_minority_raises():
    rng = random.Random(9)
    data = [random_vector(rng, not_faulty=False) for _ in range(4)]
    data += [random_vector(rng) for _ in range(20)]
    with pytest.raises(InsufficientMinorityError):
        balance(*split(data), BalanceConfig(k_neighbors=5, rng_seed=0))


def test_synthetic_attributes_come_from_real_minority_vectors():
    rng = random.Random(13)
    minority = [random_vector(rng, not_faulty=False, bias=0.2) for _ in range(12)]
    majority = [random_vector(rng, bias=0.8) for _ in range(60)]
    out = balance(*split(minority + majority), BalanceConfig(rng_seed=17))
    synthetic = [v for v in out if v.label_item == LABEL_FAULTY][12:]
    assert len(synthetic) == 12
    for vec in synthetic:
        for idx in range(len(ATTRIBUTE_ITEMS)):
            value = vec.items >> idx & 1
            assert any(real.items >> idx & 1 == value for real in minority)


@settings(max_examples=40, deadline=None)
@given(
    n_min=st.integers(min_value=6, max_value=20),
    n_maj=st.integers(min_value=6, max_value=60),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_output_is_balanced_within_one(n_min, n_maj, seed):
    rng = random.Random(seed)
    data = [random_vector(rng, not_faulty=False) for _ in range(n_min)]
    data += [random_vector(rng) for _ in range(n_maj)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ImbalanceUnachievableWarning)
        out = balance(*split(data), BalanceConfig(rng_seed=seed))
    faulty, clean = split_counts(out)
    assert abs(faulty - clean) <= 1


def test_balanced_split_over_random_imbalance_levels():
    rng = random.Random(21)
    for trial in range(10):
        n = rng.randint(120, 200)
        minority_fraction = rng.uniform(0.06, 0.30)
        n_min = max(6, int(n * minority_fraction))
        data = [random_vector(rng, not_faulty=False) for _ in range(n_min)]
        data += [random_vector(rng) for _ in range(n - n_min)]
        out = balance(*split(data), BalanceConfig(rng_seed=trial))
        faulty, clean = split_counts(out)
        assert abs(faulty - clean) <= 1


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
