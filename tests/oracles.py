"""Independent brute-force oracles for cross-checking the production paths.

These deliberately share no code with the implementations they check:
rule enumeration scans the full antecedent power set with direct counting,
redundancy filtering is the naive pairwise check, and prefix selection
recomputes every prefix from scratch. The kNN and itemization oracles are
the earlier O(m^2) neighbor sort and bool-tuple item construction, kept as
references for the mask-based implementations; reference_vote is the earlier
per-attribute count behind the majority vote, the reference for the
bit-sliced one, and reference_mine is the earlier mask miner, the reference
for the leaner join loop (it also checks `rules_mined`, which the
brute-force oracles do not see). The CSV oracles are the earlier
field-by-field reader of metric records, kept as the reference for
read_csv's columnar fast path, and the earlier string-per-field row builder
(reference_row), kept as the reference for write_csv's rows; the
record-based unification (consolidate_faulty, unify, build_unified_records)
and the tertile fit over records (fit_records, which sorts and indexes
through tertile_bounds) are the earlier loader and fit, kept as the
reference for the method table. The eager training oracles
(eager_mining_set, eager_train_on) are the earlier pipeline that itemized
every training method, kept as the reference for the lazily itemized
majority. Their balance (reference_balance) draws each synthetic
attribute with `rng.randrange`, the reference for the inlined draws, and
their rule mining is the earlier name-keyed path (`to_itemset` turns each
mask back into a set of item names, `mine_names` builds per-item bitmaps
keyed by name), the reference for the mask miner. `support` and
`confidence` count over sets of item names. The
lexer oracle is the earlier per-character tokenizer, kept as the reference
for the master-regex tokenizer. reference_generate_project is the earlier
synthetic generator, one `rng.randint` call per value, kept as the reference
for the generator's inlined draws.
"""

import random
import warnings
from itertools import combinations
from typing import NamedTuple

from lowrisk.dataset import MethodRecord, Snapshot, UnifiedMethod
from lowrisk.discretize import ATTRIBUTE_ITEMS, LABEL_NOT_FAULTY, TERTILE_METRICS, item_mask, transpose
from lowrisk.errors import AntecedentCapWarning, EmptyDatabaseError, JavaParseError, LowriskError
from lowrisk.java.analyzer import MethodIdentity
from lowrisk.java.metrics import N_CONSTRUCT_KINDS, CategoryFlags, ConstructKind, RawMetrics
from lowrisk.java.tokens import KEYWORDS
from lowrisk.mining import AssociationRule, prune_redundant
from lowrisk.synthetic import _MIN_FAULTY, _P_CLEAN_TRIVIAL, _P_COMPLEX, _P_DELEGATION, _TRIVIAL_FRACTION


class ZeroAntecedentSupportError(LowriskError):
    """Confidence is undefined because the antecedent never occurs."""


def support(itemset, transactions):
    """Fraction of transactions containing the whole itemset."""
    if len(transactions) == 0:
        raise EmptyDatabaseError("support is undefined on an empty database")
    itemset = frozenset(itemset)
    hits = sum(1 for t in transactions if itemset <= t)
    return hits / len(transactions)


def confidence(antecedent, consequent, transactions):
    """Fraction of antecedent-containing transactions that also hold the consequent."""
    if len(transactions) == 0:
        raise EmptyDatabaseError("confidence is undefined on an empty database")
    antecedent = frozenset(antecedent)
    n_ant = sum(1 for t in transactions if antecedent <= t)
    if n_ant == 0:
        raise ZeroAntecedentSupportError(f"antecedent {sorted(antecedent)} never occurs")
    n_both = sum(1 for t in transactions if antecedent <= t and consequent in t)
    return n_both / n_ant


def to_itemset(mask, not_faulty):
    """Transaction view of an item mask: the set attribute items plus the NotFaulty item."""
    names = [name for i, name in enumerate(ATTRIBUTE_ITEMS) if mask >> i & 1]
    if not_faulty:
        names.append(LABEL_NOT_FAULTY)
    return frozenset(names)


def _prune_names(rules):
    """The earlier prune_redundant over (antecedent names, support, confidence)."""
    def sort_key(rule):
        names, supp, conf = rule
        return (-conf, -supp, len(names), tuple(sorted(names)))

    survivors = []
    for rule in sorted(rules, key=lambda r: (len(r[0]),) + sort_key(r)):
        if not any(s[0] < rule[0] and s[2] >= rule[2] for s in survivors):
            survivors.append(rule)
    survivors.sort(key=sort_key)
    return survivors


def mine_names(transactions, cfg, target=LABEL_NOT_FAULTY, stats=None):
    """The earlier name-keyed miner: the non-redundant generator rules
    {A} -> {target} over transactions given as sets of item names, as
    (antecedent names, support, confidence) in canonical order."""
    n = len(transactions)
    if n == 0:
        raise EmptyDatabaseError("cannot mine an empty database")
    item_bits = {}
    for t_idx, t in enumerate(transactions):
        bit = 1 << t_idx
        for item in t:
            item_bits[item] = item_bits.get(item, 0) | bit
    target_bits = item_bits.get(target, 0)
    items = sorted(name for name in item_bits if name != target)
    rules = []
    level, counts = {}, {}

    def visit(cand, bits, n_ant):
        n_both = (bits & target_bits).bit_count()
        if n_both / n < cfg.min_support:
            return
        conf = n_both / n_ant
        if conf >= cfg.min_confidence:
            rules.append((frozenset(cand), n_both / n, conf))
        if n_both < n_ant:
            level[cand] = bits
            counts[cand] = n_ant

    for name in items:
        bits = item_bits[name]
        visit((name,), bits, bits.bit_count())
    size = 1
    while level and size < cfg.max_antecedent_len:
        size += 1
        prev, prev_counts = level, counts
        level, counts = {}, {}
        by_prefix = {}
        for key in sorted(prev):
            by_prefix.setdefault(key[:-1], []).append(key[-1])
        for prefix, lasts in by_prefix.items():
            for a, b in combinations(lasts, 2):
                cand = prefix + (a, b)
                sub_counts = [prev_counts.get(sub) for sub in combinations(cand, size - 1)]
                if None in sub_counts:
                    continue
                bits = prev[prefix + (a,)] & item_bits[b]
                n_ant = bits.bit_count()
                if n_ant < min(sub_counts):
                    visit(cand, bits, n_ant)
    if level and size == cfg.max_antecedent_len:
        warnings.warn("generators are still alive at the antecedent length cap", AntecedentCapWarning)
    kept = _prune_names(rules)
    if stats is not None:
        stats["rules_mined"] = len(rules)
        stats["rules_kept"] = len(kept)
    return kept


def reference_mine(faulty, clean, cfg, stats=None):
    """The earlier mask miner: `mine` with a `visit` call per candidate and
    an `all` over the candidate's other subsets."""
    n = len(faulty) + len(clean)
    if n == 0:
        raise EmptyDatabaseError("cannot mine an empty database")
    item_bits = transpose([*faulty, *clean])
    target_bits = ((1 << len(clean)) - 1) << len(faulty)
    rules = []
    level, counts = {}, {}

    def visit(cand, bits, n_ant):
        n_both = (bits & target_bits).bit_count()
        if n_both / n < cfg.min_support:
            return
        conf = n_both / n_ant
        if conf >= cfg.min_confidence:
            rules.append(AssociationRule(cand, n_both / n, conf))
        if n_both < n_ant:
            level[cand] = bits
            counts[cand] = n_ant

    for a, bits in enumerate(item_bits):
        visit(1 << a, bits, bits.bit_count())
    size = 1
    while level and size < cfg.max_antecedent_len:
        size += 1
        prev, prev_counts = level, counts
        level, counts = {}, {}
        by_prefix = {}
        for key in prev:
            top = 1 << (key.bit_length() - 1)
            by_prefix.setdefault(key ^ top, []).append(top)
        for prefix, tops in by_prefix.items():
            others = [prefix ^ (1 << i) for i in range(prefix.bit_length()) if prefix >> i & 1]
            for i, a in enumerate(tops):
                bits_a, n_a = prev[prefix | a], prev_counts[prefix | a]
                for b in tops[i + 1 :]:
                    bits = bits_a & item_bits[b.bit_length() - 1]
                    n_ant = bits.bit_count()
                    if (
                        n_ant < n_a
                        and n_ant < prev_counts[prefix | b]
                        and (not others or all(n_ant < prev_counts.get(o | a | b, 0)
                                                   for o in others))
                    ):
                        visit(prefix | a | b, bits, n_ant)
    if level and size == cfg.max_antecedent_len:
        warnings.warn("generators are still alive at the antecedent length cap", AntecedentCapWarning)
    kept = prune_redundant(rules)
    if stats is not None:
        stats["rules_mined"] = len(rules)
        stats["rules_kept"] = len(kept)
    return kept


def brute_force_rules(transactions, min_support, min_confidence, max_len, target="NotFaulty"):
    """Every rule {A} -> {target} meeting the thresholds, by exhaustive scan."""
    items = sorted({i for t in transactions for i in t} - {target})
    n = len(transactions)
    rules = set()
    for size in range(1, max_len + 1):
        for combo in combinations(items, size):
            a = frozenset(combo)
            n_ant = 0
            n_both = 0
            for t in transactions:
                if a <= t:
                    n_ant += 1
                    if target in t:
                        n_both += 1
            if n_ant == 0:
                continue
            if n_both / n >= min_support and n_both / n_ant >= min_confidence:
                rules.add((a, n_both / n, n_both / n_ant))
    return rules


def brute_force_prune(rules):
    """Naive pairwise redundancy check against the full rule set."""
    rules = list(rules)
    out = []
    for r in rules:
        dominated = any(
            o.antecedent < r.antecedent and o.confidence >= r.confidence
            for o in rules
            if o is not r
        )
        if not dominated:
            out.append(r)
    return out


def brute_force_nonredundant(transactions, min_support, min_confidence, max_len,
                              target="NotFaulty"):
    """The pruned rule set: exhaustive enumeration, then the pairwise check."""
    rules = brute_force_rules(transactions, min_support, min_confidence, max_len, target)
    return brute_force_prune(AssociationRule(item_mask(a), s, c) for a, s, c in rules)


def prefix_scan_oracle(ordered_rules, training_items, training_faulty, budget):
    """Max admissible prefix length, recomputing every prefix independently."""
    total = sum(1 for f in training_faulty if f)
    best = 0
    for n in range(len(ordered_rules) + 1):
        prefix = ordered_rules[:n]
        matched_faulty = sum(
            1
            for items, faulty in zip(training_items, training_faulty)
            if faulty and any(r.antecedent <= items for r in prefix)
        )
        if matched_faulty <= budget * total + 1e-9:
            best = max(best, n)
    return best


def matched_set(ordered_rules, n, items_list):
    """Indices matched by the top-n prefix (for monotonicity checks)."""
    prefix = ordered_rules[:n]
    return {
        idx
        for idx, items in enumerate(items_list)
        if any(r.antecedent <= items for r in prefix)
    }


def as_rule_set(rules):
    """Project AssociationRule objects onto comparable tuples."""
    return {(r.antecedent, r.support, r.confidence) for r in rules}


def random_rule(rng, vocab, max_len=4):
    size = rng.randint(1, min(max_len, len(vocab)))
    antecedent = frozenset(rng.sample(vocab, size))
    return AssociationRule(
        item_mask(antecedent),
        support=rng.randint(1, 100) / 200,
        confidence=rng.randint(50, 100) / 100,
    )


def nearest_neighbors_oracle(masks, k):
    """Indices of each mask's k nearest peers by Hamming distance, by sorting
    every (distance, index) pair; ties break on index order."""
    n = len(masks)
    out = []
    for i in range(n):
        mi = masks[i]
        dists = [((mi ^ masks[j]).bit_count(), j) for j in range(n) if j != i]
        dists.sort()
        out.append([j for _, j in dists[:k]])
    return out


def reference_vote(masks):
    """The earlier majority vote over item masks, one count per attribute:
    a class tie goes to the higher class, a flag tie to true."""
    n = len(masks)
    n_tertile_bits = 3 * len(TERTILE_METRICS)
    counts = [sum(mask >> i & 1 for mask in masks) for i in range(len(ATTRIBUTE_ITEMS))]
    voted = 0
    for low in range(0, n_tertile_bits, 3):
        voted |= 1 << max(range(low, low + 3), key=lambda i: (counts[i], i))
    for i in range(n_tertile_bits, len(ATTRIBUTE_ITEMS)):
        if counts[i] * 2 >= n:
            voted |= 1 << i
    return voted


def itemize_bool_tuple(method, model):
    """Item vector of a record or unified method as a tuple of bools over
    ATTRIBUTE_ITEMS, with majority voting over occurrences: class ties go to
    the higher class, flag ties to true."""
    from lowrisk.dataset import MethodRecord
    from lowrisk.discretize import TERTILE_METRICS
    from lowrisk.java.metrics import CategoryFlags, ConstructKind

    occurrences = [method] if isinstance(method, MethodRecord) else list(method.occurrences)
    profiles = []
    for r in occurrences:
        m = r.metrics
        classes = tuple(model.classify(metric, getattr(m, metric)) for metric in TERTILE_METRICS)
        flags = tuple(m.construct_counts[kind] == 0 for kind in ConstructKind)
        flags += (m.all_conditions == 0, m.all_arithmetic == 0)
        flags += tuple(getattr(r.categories, f) for f in CategoryFlags._fields)
        profiles.append((classes, flags))
    if len(profiles) == 1:
        classes, flags = profiles[0]
    else:
        n = len(profiles)
        classes = []
        for i in range(len(TERTILE_METRICS)):
            votes = [p[0][i] for p in profiles]
            classes.append(max(set(votes), key=lambda c: (votes.count(c), c)))
        flags = [sum(1 for p in profiles if p[1][i]) * 2 >= n for i in range(len(profiles[0][1]))]
    items = []
    for cls in classes:
        items.extend((cls == 1, cls == 2, cls == 3))
    items.extend(flags)
    return tuple(items)


def bools_to_mask(items):
    return sum(1 << i for i, on in enumerate(items) if on)


def read_csv_per_field(path):
    """Metric records of a CSV, parsing every field by column name in the
    order snapshot, faulty, construct counts, metrics, categories; raises the
    SchemaError of the first bad field."""
    import csv

    from lowrisk.dataset import CSV_HEADER, MethodRecord, Snapshot
    from lowrisk.errors import SchemaError
    from lowrisk.java.analyzer import MethodIdentity
    from lowrisk.java.metrics import CategoryFlags, ConstructKind, RawMetrics

    def parse_int(row_no, column, value):
        try:
            count = int(value)
        except ValueError:
            raise SchemaError(f"row {row_no}: column {column!r}: expected integer, got {value!r}")
        if count < 0:
            raise SchemaError(
                f"row {row_no}: column {column!r}: expected non-negative integer, got {value!r}"
            )
        if count >= 2**63:
            raise SchemaError(f"row {row_no}: column {column!r}: expected integer below 2**63, got {value!r}")
        return count

    def parse_bool(row_no, column, value):
        try:
            return {"true": True, "false": False}[value.strip().lower()]
        except KeyError:
            raise SchemaError(f"row {row_no}: column {column!r}: expected true/false, got {value!r}")

    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: missing header row")
        missing = [c for c in CSV_HEADER if c not in header]
        if missing:
            raise SchemaError(f"missing column(s): {', '.join(missing)}")
        idx = {name: header.index(name) for name in CSV_HEADER}
        records = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < len(header):
                raise SchemaError(f"row {row_no}: expected {len(header)} fields, got {len(row)}")

            def col(name):
                return row[idx[name]]

            sig = tuple(p for p in col("param_signature").split(";") if p)
            snapshot_text = col("snapshot")
            try:
                snapshot = Snapshot(snapshot_text)
            except ValueError:
                raise SchemaError(f"row {row_no}: column 'snapshot': unknown value {snapshot_text!r}")
            faulty = parse_bool(row_no, "faulty", col("faulty"))
            counts = tuple(
                parse_int(row_no, kind.column, col(kind.column)) for kind in ConstructKind
            )
            metrics = RawMetrics(
                sloc=parse_int(row_no, "sloc", col("sloc")),
                cyclomatic_complexity=parse_int(row_no, "cc", col("cc")),
                max_nesting=parse_int(row_no, "max_nesting", col("max_nesting")),
                max_chaining=parse_int(row_no, "max_chaining", col("max_chaining")),
                unique_variable_ids=parse_int(row_no, "unique_vars", col("unique_vars")),
                construct_counts=counts,
            )
            categories = CategoryFlags(
                **{f: parse_bool(row_no, f, col(f)) for f in CategoryFlags._fields}
            )
            identity = MethodIdentity(
                project=col("project"),
                file_path=col("file_path"),
                type_name=col("type_name"),
                method_name=col("method_name"),
                param_signature=sig,
                is_constructor=categories.is_constructor,
            )
            try:
                records.append(
                    MethodRecord(identity, metrics, categories, faulty=faulty, snapshot=snapshot)
                )
            except ValueError as exc:
                raise SchemaError(f"row {row_no}: {exc}")
        return records


def reference_row(rec):
    """The CSV row of one metric record, every field formatted as a string."""
    from lowrisk.java.metrics import CategoryFlags

    def fmt_bool(value):
        return "true" if value else "false"

    m = rec.metrics
    row = [
        rec.identity.project,
        rec.identity.file_path,
        rec.identity.type_name,
        rec.identity.method_name,
        ";".join(rec.identity.param_signature),
        rec.snapshot.value,
        fmt_bool(rec.faulty),
        str(m.sloc),
        str(m.cyclomatic_complexity),
        str(m.max_nesting),
        str(m.max_chaining),
        str(m.unique_variable_ids),
    ]
    row.extend(map(str, m.construct_counts))
    row.append(str(m.all_conditions))
    row.append(str(m.all_arithmetic))
    row.extend(fmt_bool(getattr(rec.categories, f)) for f in CategoryFlags._fields)
    return row


def consolidate_faulty(records):
    """Collapse multiple faulty occurrences of the same method into one entry.

    All occurrences are retained; majority voting over discretized attributes
    happens at itemization time, once a discretization model is fixed.
    """
    from lowrisk.dataset import UnifiedMethod

    by_key = {}
    for rec in records:
        if not rec.faulty:
            raise ValueError("consolidate_faulty expects faulty records only")
        by_key.setdefault(rec.identity.key(), []).append(rec)
    return [UnifiedMethod(recs[0].identity, True, tuple(recs)) for recs in by_key.values()]


def unify(all_methods, faulty_consolidated, warn_unmatched=True):
    """The unified dataset: each identity once, faulty entries replacing their
    current-state counterparts, sorted by identity.

    Faulty identities absent from the current snapshot (deleted methods) are
    still included, with a warning when warn_unmatched is set.
    """
    import warnings

    from lowrisk.dataset import MethodRecord, UnifiedMethod
    from lowrisk.errors import UnmatchedFaultyWarning

    faulty_by_key = {u.identity.key(): u for u in faulty_consolidated}
    out = []
    seen = set()
    for item in all_methods:
        u = UnifiedMethod(item.identity, item.faulty, (item,)) if isinstance(item, MethodRecord) else item
        key = u.identity.key()
        if key in seen:
            continue
        seen.add(key)
        out.append(faulty_by_key.get(key, u))
    for u in faulty_consolidated:
        key = u.identity.key()
        if key not in seen:
            seen.add(key)
            if warn_unmatched:
                warnings.warn(
                    f"faulty method {u.identity.type_name}.{u.identity.method_name} "
                    f"not found in current snapshot (deleted?)",
                    UnmatchedFaultyWarning,
                    stacklevel=2,
                )
            out.append(u)
    out.sort(key=lambda u: u.identity)
    return out


def build_unified_records(records):
    """The unified methods of a mixed record list (CSV contents), with the
    deleted-method warning off."""
    current = [r for r in records if not r.faulty]
    faulty = consolidate_faulty([r for r in records if r.faulty])
    return unify(current, faulty, warn_unmatched=False)


def method_sloc(method):
    """The SLOC of a unified method: the upper median over its occurrences."""
    import statistics

    return statistics.median_high(r.metrics.sloc for r in method.occurrences)


def tertile_bounds(values):
    """Boundary values at the end of the first and second sorted thirds: the
    sorted values at ranks ceil(n/3) - 1 and ceil(2n/3) - 1."""
    import math

    from lowrisk.discretize import MetricBounds

    if not values:
        raise ValueError("no values to discretize")
    ordered = sorted(values)
    n = len(ordered)
    return MetricBounds(ordered[math.ceil(n / 3) - 1], ordered[math.ceil(2 * n / 3) - 1])


def fit_records(records):
    """Tertile boundaries over the records, one getattr pass per metric."""
    import warnings

    from lowrisk.discretize import TERTILE_METRICS, DiscretizationModel
    from lowrisk.errors import DegenerateDistributionWarning

    records = list(records)
    if len(records) < 3:
        raise ValueError(f"need at least 3 records to fit tertiles, got {len(records)}")
    bounds = {}
    for metric in TERTILE_METRICS:
        values = [getattr(r.metrics, metric) for r in records]
        if len(set(values)) == 1:
            warnings.warn(
                f"metric {metric!r} has a single distinct value ({values[0]}); "
                "all methods map to class 1",
                DegenerateDistributionWarning,
                stacklevel=2,
            )
        bounds[metric] = tertile_bounds(values)
    return DiscretizationModel(bounds)


def itemize_records(method, model):
    """Item mask of a record or unified method from the bool-tuple oracle."""
    return bools_to_mask(itemize_bool_tuple(method, model))


def reference_balance(faulty, clean, cfg):
    """balance() of the earlier pipeline, as (faulty masks, clean masks):
    every majority vector already built, the sorting kNN oracle, and one
    rng.randrange call per synthetic attribute."""
    from lowrisk.errors import ImbalanceUnachievableWarning, InsufficientMinorityError

    swap = len(faulty) > len(clean)
    minority, majority = (list(clean), list(faulty)) if swap else (list(faulty), list(clean))
    m = len(minority)
    if m < cfg.k_neighbors + 1:
        raise InsufficientMinorityError(
            f"need at least {cfg.k_neighbors + 1} minority vectors, got {m}"
        )
    if not majority:
        raise InsufficientMinorityError("no majority vectors to sample from")

    rng = random.Random(cfg.rng_seed)
    n_synthetic = (cfg.percent_over * m) // 100
    per_seed, extra = divmod(n_synthetic, m)
    extra_seeds = set(rng.sample(range(m), extra)) if extra else set()
    neighbors = nearest_neighbors_oracle(minority, cfg.k_neighbors)
    synthetic = []
    for idx, mask in enumerate(minority):
        rounds = per_seed + (1 if idx in extra_seeds else 0)
        sources = [mask] + [minority[j] for j in neighbors[idx]]
        for _ in range(rounds):
            items = 0
            for a in range(len(ATTRIBUTE_ITEMS)):
                items |= sources[rng.randrange(len(sources))] & (1 << a)
            synthetic.append(items)

    n_majority = (cfg.percent_under * len(synthetic)) // 100
    if n_majority > len(majority):
        warnings.warn("majority pool too small", ImbalanceUnachievableWarning)
        sampled = list(majority)
        sampled.extend(
            majority[rng.randrange(len(majority))] for _ in range(n_majority - len(majority))
        )
    else:
        sampled = [majority[i] for i in sorted(rng.sample(range(len(majority)), n_majority))]
    grown = minority + synthetic
    return (sampled, grown) if swap else (grown, sampled)


def eager_mining_set(methods, config, scope=()):
    """(model, every method's mask, faulty masks, clean masks) that the earlier
    eager pipeline mines: fit with fit_records, itemize every method with the
    bool-tuple oracle, and balance the classes with reference_balance unless
    balancing is off."""
    from lowrisk.balance import BalanceConfig
    from lowrisk.pipeline import derive_seed

    model = fit_records([rec for u in methods for rec in u.occurrences])
    masks = [itemize_records(u, model) for u in methods]
    faulty = [mask for mask, u in zip(masks, methods) if u.faulty]
    clean = [mask for mask, u in zip(masks, methods) if not u.faulty]
    if not config.no_smote:
        cfg = BalanceConfig(
            percent_over=config.smote_over,
            percent_under=config.smote_under,
            k_neighbors=config.smote_k,
            rng_seed=derive_seed(config.seed, "smote", *scope),
        )
        faulty, clean = reference_balance(faulty, clean, cfg)
    return model, masks, faulty, clean


def eager_train_on(methods, config, scope=()):
    """train_on() of the earlier eager pipeline over records: the classes of
    eager_mining_set, mined as item-name transactions with mine_names, and
    prefixes selected over all methods."""
    from lowrisk.classifier import LfrClassifier, Variant, select_prefix
    from lowrisk.errors import TooFewMinorityError
    from lowrisk.pipeline import TrainedModel

    n_faulty = sum(1 for u in methods if u.faulty)
    if n_faulty == 0:
        raise TooFewMinorityError("training set contains no faulty methods")
    model, masks, faulty, clean = eager_mining_set(methods, config, scope)
    transactions = [to_itemset(m, False) for m in faulty] + [to_itemset(m, True) for m in clean]
    mining_stats = {}
    mined = mine_names(transactions, config.mining, stats=mining_stats)
    rules = [AssociationRule(item_mask(a), s, c) for a, s, c in mined]
    training_faulty = [u.faulty for u in methods]
    meta = {
        "training_methods": len(methods),
        "training_faulty": n_faulty,
        "balanced_size": len(transactions),
        "rules_mined": mining_stats["rules_mined"],
        "rules_kept": mining_stats["rules_kept"],
        "scope": list(scope),
    }
    classifiers = {}
    for variant in Variant:
        budget = config.budget(variant)
        n = select_prefix(rules, [m for m, f in zip(masks, training_faulty) if f], budget=budget)
        classifiers[variant] = LfrClassifier(tuple(rules), n, budget)
    return TrainedModel(model, tuple(rules), classifiers, meta)


class Token(NamedTuple):
    """One token as the earlier lexer produced it."""

    kind: str  # 'ident' | 'keyword' | 'number' | 'string' | 'char' | 'op'
    text: str
    line: int
    col: int


# The earlier lexer's character tables and maximal-munch operator table.
LEXER_OPERATORS = [
    ">>>=", "...", ">>>", "<<=", ">>=", "->", "::", "<<", ">>", "<=", ">=",
    "==", "!=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=",
    "|=", "^=",
]
LEXER_SINGLE_OPS = set("+-*/%=<>!~&|^?:;,.()[]{}@")
_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_IDENT_PART = _IDENT_START | set("0123456789")
_DIGITS = set("0123456789")
_NUMBER_PART = _DIGITS | set("abcdefABCDEFxXbB._lLfFdD_")
_HEX_PART = _DIGITS | set("abcdefABCDEF._pPlL")


def reference_tokenize(text, file_path=None):
    """The earlier per-character lexer, kept as the reference for tokenize.

    Its three changes: a backslash before a newline inside a string or char
    literal no longer escapes the newline, so the literal is unterminated;
    CR LF and a lone CR are line terminators, as in Java, read as LF (only
    a CR before an LF is dropped, at a line end, so no column moves); and a
    Ctrl-Z that ends the text is ignored (JLS 3.5).
    """
    if text.endswith("\x1a"):
        text = text[:-1]
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    tokens = []
    i = 0
    n = len(text)
    line = 1
    line_start = 0

    def err(msg, at):
        return JavaParseError(msg, file_path=file_path, line=line, col=at - line_start + 1)

    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            line_start = i
            continue
        if c in " \t\r\f":
            i += 1
            continue
        if c == "/" and i + 1 < n:
            nxt = text[i + 1]
            if nxt == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if nxt == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    raise err("unterminated block comment", i)
                line += text.count("\n", i, j)
                if "\n" in text[i:j]:
                    line_start = text.rfind("\n", i, j) + 1
                i = j + 2
                continue
        col = i - line_start + 1
        if c in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_PART:
                j += 1
            word = text[i:j]
            kind = "keyword" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            i = j
            continue
        if c == "0" and text[i + 1 : i + 2] in ("x", "X"):
            # Hex literal: a sign belongs to it only after the binary exponent
            # 'p' of a hex float, never after the hex digit 'e'.
            j = i + 2
            while j < n and (text[j] in _HEX_PART or (text[j] in "+-" and text[j - 1] in "pP")):
                j += 1
            tokens.append(Token("number", text[i:j], line, col))
            i = j
            continue
        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and (text[j] in _NUMBER_PART or (text[j] in "+-" and text[j - 1] in "eEpP")):
                # Stop a trailing '.' that starts a member access like 1..toString()
                if text[j] == "." and j + 1 < n and text[j + 1] == ".":
                    break
                j += 1
            tokens.append(Token("number", text[i:j], line, col))
            i = j
            continue
        if c == '"':
            j = i + 1
            while j < n:
                if text[j] == "\\" and text[j + 1 : j + 2] != "\n":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                if text[j] == "\n":
                    raise err("unterminated string literal", i)
                j += 1
            if j >= n:
                raise err("unterminated string literal", i)
            tokens.append(Token("string", text[i : j + 1], line, col))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\" and text[j + 1 : j + 2] != "\n":
                    j += 2
                    continue
                if text[j] == "'":
                    break
                if text[j] == "\n":
                    raise err("unterminated character literal", i)
                j += 1
            if j >= n:
                raise err("unterminated character literal", i)
            tokens.append(Token("char", text[i : j + 1], line, col))
            i = j + 1
            continue
        matched = None
        for op in LEXER_OPERATORS:
            if text.startswith(op, i):
                matched = op
                break
        if matched is None and c in LEXER_SINGLE_OPS:
            matched = c
        if matched is None and c > "\x7f":
            start = _non_ascii_identifier_start(tokens, text, i, line)
            if start is not None:
                j = i + 1
                while j < n and (text[j] in _IDENT_PART or _is_identifier_part(text[j])):
                    j += 1
                if start < i:
                    col = tokens.pop().col
                tokens.append(Token("ident", text[start:j], line, col))
                i = j
                continue
        if matched is None:
            raise err(f"unexpected character {c!r}", i)
        tokens.append(Token("op", matched, line, col))
        i += len(matched)
    return tokens


def _is_identifier_part(c):
    return c > "\x7f" and ("a" + c).isidentifier()


def _non_ascii_identifier_start(tokens, text, i, line):
    """Where the identifier holding the non-ASCII character text[i] starts.

    The ASCII loop stops at such a character, so an identifier it began
    just before position i (same line, no gap) is continued; otherwise
    text[i] must itself be able to start an identifier. None means text[i]
    is no identifier character.
    """
    c = text[i]
    if not _is_identifier_part(c):
        return None
    if tokens:
        prev = tokens[-1]
        start = i - len(prev.text)
        if prev.kind in ("ident", "keyword") and prev.line == line and text.startswith(prev.text, start):
            return start
    return i if c.isidentifier() else None


# -- the earlier synthetic generator -----------------------------------------------

def _reference_zero_counts() -> list[int]:
    return [0] * N_CONSTRUCT_KINDS


def _reference_trivial_metrics(rng: random.Random, archetype: str) -> tuple[RawMetrics, CategoryFlags]:
    counts = _reference_zero_counts()
    flags = {}
    if archetype == "getter":
        counts[ConstructKind.RETURN_STATEMENT] = 1
        metrics = RawMetrics(rng.randint(2, 4), 1, 0, 0, 1, tuple(counts))
        flags["is_getter"] = True
    elif archetype == "setter":
        counts[ConstructKind.ASSIGNMENT] = 1
        metrics = RawMetrics(rng.randint(2, 4), 1, 0, 0, 2, tuple(counts))
        flags["is_setter"] = True
    elif archetype == "empty":
        metrics = RawMetrics(rng.randint(1, 2), 1, 0, 0, 0, tuple(counts))
        flags["is_empty"] = True
    else:  # delegation
        counts[ConstructKind.METHOD_INVOCATION] = 1
        counts[ConstructKind.RETURN_STATEMENT] = rng.randint(0, 1)
        metrics = RawMetrics(rng.randint(2, 4), 1, 0, 1, rng.randint(1, 3), tuple(counts))
        flags["is_delegation"] = True
    return metrics, CategoryFlags(**flags)


def _reference_complex_metrics(rng: random.Random) -> tuple[RawMetrics, CategoryFlags]:
    counts = _reference_zero_counts()
    counts[ConstructKind.METHOD_INVOCATION] = rng.randint(1, 25)
    counts[ConstructKind.IF_CONDITION] = rng.randint(1, 8)
    counts[ConstructKind.ELSE_BLOCK] = rng.randint(0, 3)
    counts[ConstructKind.LOOP] = rng.randint(0, 5)
    counts[ConstructKind.RETURN_STATEMENT] = rng.randint(1, 4)
    counts[ConstructKind.ASSIGNMENT] = rng.randint(1, 15)
    counts[ConstructKind.ARITHMETIC_INFIX_OP] = rng.randint(0, 10)
    counts[ConstructKind.COMPARISON_OPERATOR] = rng.randint(1, 10)
    counts[ConstructKind.LOGICAL_OPERATOR] = rng.randint(0, 5)
    counts[ConstructKind.STRING_LITERAL] = rng.randint(0, 6)
    counts[ConstructKind.NULL_LITERAL] = rng.randint(0, 4)
    counts[ConstructKind.NULL_CHECK] = min(counts[ConstructKind.NULL_LITERAL], rng.randint(0, 3))
    counts[ConstructKind.CAST_EXPRESSION] = rng.randint(0, 3)
    counts[ConstructKind.OBJECT_CREATION] = rng.randint(0, 5)
    counts[ConstructKind.ARRAY_ACCESS] = rng.randint(0, 6)
    counts[ConstructKind.TERNARY_OPERATION] = rng.randint(0, 2)
    counts[ConstructKind.TRY_BLOCK] = rng.randint(0, 2)
    counts[ConstructKind.CATCH_CLAUSE] = counts[ConstructKind.TRY_BLOCK]
    counts[ConstructKind.THROW_STATEMENT] = rng.randint(0, 2)
    counts[ConstructKind.INCREMENTATION] = rng.randint(0, 3)
    cc = (
        1
        + counts[ConstructKind.IF_CONDITION]
        + counts[ConstructKind.LOOP]
        + counts[ConstructKind.CATCH_CLAUSE]
        + counts[ConstructKind.TERNARY_OPERATION]
        + counts[ConstructKind.LOGICAL_OPERATOR]
    )
    metrics = RawMetrics(
        sloc=rng.randint(8, 120),
        cyclomatic_complexity=cc,
        max_nesting=rng.randint(1, 5),
        max_chaining=rng.randint(1, 4),
        unique_variable_ids=rng.randint(3, 18),
        construct_counts=tuple(counts),
    )
    return metrics, CategoryFlags()


_REFERENCE_ARCHETYPES = ("getter", "setter", "empty", "delegation")


def reference_generate_project(name: str, seed: int, n_methods: int = 2000) -> list[UnifiedMethod]:
    """generate_project() of the earlier generator: one rng.randint call per
    drawn value, and every count tuple, flag set and path string built anew
    per method."""
    rng = random.Random(seed)
    n_trivial = int(n_methods * _TRIVIAL_FRACTION)
    methods: list[UnifiedMethod] = []
    complex_indices: list[int] = []
    for i in range(n_methods):
        if i < n_trivial:
            archetype = _REFERENCE_ARCHETYPES[i % len(_REFERENCE_ARCHETYPES)]
            p_fault = _P_DELEGATION if archetype == "delegation" else _P_CLEAN_TRIVIAL
            make = lambda: _reference_trivial_metrics(rng, archetype)  # noqa: E731
        else:
            archetype = "complex"
            p_fault = _P_COMPLEX
            make = lambda: _reference_complex_metrics(rng)  # noqa: E731
            complex_indices.append(i)
        identity = MethodIdentity(
            project=name,
            file_path=f"src/{name}/File{i % 97}.java",
            type_name=f"Type{i % 97}",
            method_name=f"method{i}",
            param_signature=("int",) if i % 3 else (),
        )
        faulty = rng.random() < p_fault
        if faulty:
            n_occ = rng.choice((1, 1, 1, 1, 1, 1, 1, 1, 2, 3))
            occurrences = tuple(
                MethodRecord(identity, *make(), faulty=True, snapshot=Snapshot.FAULTY)
                for _ in range(n_occ)
            )
        else:
            occurrences = (MethodRecord(identity, *make()),)
        methods.append(UnifiedMethod(identity, faulty, occurrences))
    # Guarantee enough faulty methods for stratified folding.
    faulty_count = sum(1 for m in methods if m.faulty)
    deficit = _MIN_FAULTY - faulty_count
    if deficit > 0:
        for i in rng.sample(complex_indices, deficit):
            old = methods[i]
            rec = MethodRecord(
                old.identity, *_reference_complex_metrics(rng), faulty=True, snapshot=Snapshot.FAULTY
            )
            methods[i] = UnifiedMethod(old.identity, True, (rec,))
    return methods
