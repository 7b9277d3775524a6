"""Training-set balancing: synthetic minority oversampling + majority undersampling.

Binary attributes make numeric interpolation degenerate, so each synthetic
vector copies every attribute independently from a source drawn uniformly
among the seed and its k nearest minority neighbors (Hamming distance).
With the default 100% over- and 200% under-sampling rates the output is an
exact 50/50 split of minority and majority vectors.

Vectors are item masks (see `lowrisk.discretize`). The two classes are
taken and returned apart, so no label travels with a mask. The neighbors
are exact and found on packed bits: 16 distinct masks are queried at once,
their Hamming distances to every distinct mask summed side by side into
bit-sliced counters (`_nearest_neighbors`).
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from typing import Sequence

from lowrisk.discretize import ATTRIBUTE_ITEMS, transpose
from lowrisk.errors import ImbalanceUnachievableWarning, InsufficientMinorityError

_ATTRIBUTE_BITS = tuple(1 << a for a in range(len(ATTRIBUTE_ITEMS)))
# Queries per kNN block: their bits of an attribute are two bytes of its column.
_BLOCK = 16


@dataclass(frozen=True)
class Classes:
    """The item masks of a training set, one list per class; `len` counts both."""

    faulty: list[int]
    clean: list[int]

    def __len__(self) -> int:
        return len(self.faulty) + len(self.clean)


@dataclass(frozen=True)
class BalanceConfig:
    percent_over: int = 100
    percent_under: int = 200
    k_neighbors: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        if self.percent_over <= 0 or self.percent_under <= 0:
            raise ValueError("over- and under-sampling rates must be positive")
        if self.k_neighbors < 1:
            raise ValueError("k_neighbors must be at least 1")


def _nearest_neighbors(masks: Sequence[int], k: int) -> list[list[int]]:
    """Indices of each mask's k nearest peers by Hamming distance; ties
    break on index order.

    Exact, and equal to sorting all (distance, index) pairs per mask. Each
    distinct mask is queried once, 16 queries at a time: a block's distance
    vectors lie side by side in lanes of whole bytes, one lane per query, and
    are summed one attribute at a time into a bit-sliced counter (plane p
    holds bit p of every distance in every lane). Per attribute, the lanes
    start as the column of masks that have it, and the lanes of the queries
    that have it too are flipped to those that lack it; the queries' bits are
    two bytes of that same column. Distance levels are then read off the
    planes from 0 upward, one `to_bytes` per level and block, until every
    query of the block has k + 1 indices.
    """
    if not masks:
        return []
    groups: dict[int, list[int]] = {}
    for idx, mask in enumerate(masks):
        groups.setdefault(mask, []).append(idx)
    distinct = list(groups)
    members = list(groups.values())
    n_distinct = len(distinct)
    everyone = (1 << n_distinct) - 1
    # Per attribute, the distinct masks that have it.
    columns = transpose(distinct)
    n_planes = len(columns).bit_length()
    wanted = min(k + 1, len(masks))

    lane_bytes = (n_distinct + 7) // 8
    lane = 8 * lane_bytes
    rep = sum(1 << (lane * q) for q in range(_BLOCK))  # 1 in every lane
    lanes = [everyone << (lane * q) for q in range(_BLOCK)]
    full = everyone * rep
    # flip_low[v] and flip_high[v]: `everyone` in lane q and lane 8 + q for each bit q of byte v.
    flip_low, flip_high = [0] * 256, [0] * 256
    for v in range(1, 256):
        low = v & -v
        q = low.bit_length() - 1
        flip_low[v] = flip_low[v ^ low] | lanes[q]
        flip_high[v] = flip_high[v ^ low] | lanes[8 + q]
    n_blocks = (n_distinct + _BLOCK - 1) // _BLOCK
    spread = [(has * rep, has.to_bytes(2 * n_blocks, "little")) for has in columns]

    nearest: list[list[int]] = []
    for start in range(0, n_distinct, _BLOCK):
        byte = start >> 3
        planes = [0] * n_planes
        for repeated, column in spread:
            # In each query's lane: the masks that differ from it at this attribute.
            carry = repeated ^ flip_low[column[byte]] ^ flip_high[column[byte + 1]]
            p = 0
            while carry:
                planes[p], carry = planes[p] ^ carry, planes[p] & carry
                p += 1
        found: list[list[int]] = [[] for _ in range(min(_BLOCK, n_distinct - start))]
        pending = list(range(len(found)))
        for distance in range(len(columns) + 1):
            level = full
            for p, plane in enumerate(planes):
                level &= plane if distance >> p & 1 else full ^ plane
            raw = level.to_bytes(_BLOCK * lane_bytes, "little")
            for q in pending:
                at = int.from_bytes(raw[q * lane_bytes : (q + 1) * lane_bytes], "little")
                tied: list[int] = []
                while at:
                    low = at & -at
                    tied.extend(members[low.bit_length() - 1])
                    at ^= low
                found[q].extend(sorted(tied))
            pending = [q for q in pending if len(found[q]) < wanted]
            if not pending:
                break
        nearest.extend(f[:wanted] for f in found)
    nearest_of = dict(zip(distinct, nearest))
    out = []
    for i, mask in enumerate(masks):
        out.append([j for j in nearest_of[mask] if j != i][:k])
    return out


def balance(faulty: Sequence[int], clean: Sequence[int], cfg: BalanceConfig) -> Classes:
    """Balance a training set, given as the item masks of its two classes, to
    a 50/50 split (at default rates).

    The minority class is oversampled by percent_over (synthetic vectors in
    addition to the originals); the majority class is uniformly undersampled
    without replacement to percent_under percent of the synthetic count.
    When the majority pool is smaller than that target, the deficit is
    resampled with replacement so the output split still holds. Each
    majority entry is read at most once, and only if sampled, so `clean`
    may be a lazy sequence. Fully deterministic given cfg.rng_seed.
    """
    swap = len(faulty) > len(clean)
    minority, majority = (clean, faulty) if swap else (faulty, clean)
    minority = list(minority)
    m = len(minority)
    if m < cfg.k_neighbors + 1:
        raise InsufficientMinorityError(
            f"need at least {cfg.k_neighbors + 1} minority vectors, got {m}"
        )
    if not majority:
        raise InsufficientMinorityError("no majority vectors to sample from")

    rng = random.Random(cfg.rng_seed)
    getrandbits = rng.getrandbits
    n_synthetic = (cfg.percent_over * m) // 100
    per_seed, extra = divmod(n_synthetic, m)
    extra_seeds = set(rng.sample(range(m), extra)) if extra else set()
    neighbors = _nearest_neighbors(minority, cfg.k_neighbors)

    synthetic: list[int] = []
    for idx, mask in enumerate(minority):
        rounds = per_seed + (1 if idx in extra_seeds else 0)
        sources = [mask] + [minority[j] for j in neighbors[idx]]
        n_sources = len(sources)
        width = n_sources.bit_length()
        for _ in range(rounds):
            # One draw per attribute, in attribute order. Each is
            # rng.randrange(n_sources), drawn as Random._randbelow_with_getrandbits
            # draws it, so the stream of random numbers is the same.
            items = 0
            for bit in _ATTRIBUTE_BITS:
                r = getrandbits(width)
                while r >= n_sources:
                    r = getrandbits(width)
                items |= sources[r] & bit
            synthetic.append(items)

    n_pool = len(majority)
    n_majority = (cfg.percent_under * len(synthetic)) // 100
    if n_majority > n_pool:
        warnings.warn(
            f"majority pool ({n_pool}) smaller than requested sample "
            f"({n_majority}); resampling the deficit with replacement",
            ImbalanceUnachievableWarning,
            stacklevel=2,
        )
        pool = list(majority)
        sampled = pool + [pool[rng.randrange(n_pool)] for _ in range(n_majority - n_pool)]
    else:
        sampled = [majority[i] for i in sorted(rng.sample(range(n_pool), n_majority))]
    grown = minority + synthetic
    return Classes(sampled, grown) if swap else Classes(grown, sampled)
