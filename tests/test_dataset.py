import csv
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_identity, make_metrics, make_record, make_unified, read_csv_rows, table_of
from oracles import (
    build_unified_records,
    consolidate_faulty,
    fit_records,
    itemize_records,
    method_sloc,
    read_csv_per_field,
    reference_row,
    unify,
)
from lowrisk.dataset import (
    CSV_HEADER,
    MethodRecord,
    MethodTable,
    Rows,
    build_unified,
    read_csv,
    read_label_file,
    write_csv,
)
from lowrisk.discretize import ATTRIBUTE_ITEMS, fit_discretization, item_mask, itemize
from lowrisk.errors import SchemaError
from lowrisk.java.metrics import CategoryFlags, ConstructKind
from lowrisk.synthetic import generate_corpus, generate_project

_IDENTITY = ("project", "file_path", "type_name", "method_name", "param_signature")


def rows_view(rows):
    """Per row: identity key, fault flag, the five tertile metrics and the
    model-free item bits, as read_csv holds them."""
    return [
        (key, faulty, tuple(column[r] for column in rows.metrics), rows.fixed[r])
        for r, (key, faulty) in enumerate(zip(rows.keys, rows.faulty))
    ]


def records_view(records):
    """rows_view of the same records, through their table."""
    return rows_view(table_of(records))


class TestConsolidate:
    def test_single_occurrence_passes_through(self):
        rec = make_record("a", faulty=True)
        out = consolidate_faulty([rec])
        assert len(out) == 1
        assert out[0].occurrences == (rec,)
        assert out[0].faulty

    def test_groups_by_identity(self):
        a1 = make_record("a", faulty=True, metrics=make_metrics(sloc=2))
        a2 = make_record("a", faulty=True, metrics=make_metrics(sloc=9))
        b = make_record("b", faulty=True)
        out = consolidate_faulty([a1, b, a2])
        by_name = {u.identity.method_name: u for u in out}
        assert len(by_name["a"].occurrences) == 2
        assert len(by_name["b"].occurrences) == 1

    def test_rejects_non_faulty_input(self):
        with pytest.raises(ValueError):
            consolidate_faulty([make_record("a")])

    def test_median_sloc_uses_upper_median(self):
        occ = [make_record("a", faulty=True, metrics=make_metrics(sloc=s)) for s in (2, 8)]
        (u,) = consolidate_faulty(occ)
        assert list(table_of([u]).sloc) == [method_sloc(u)] == [8]


class TestUnify:
    def test_replaces_faulty_identity(self):
        a, b, c = (make_record(n) for n in "abc")
        b_faulty = make_unified(make_record("b", faulty=True))
        out = unify([a, b, c], [b_faulty])
        by_name = {u.identity.method_name: u for u in out}
        assert set(by_name) == {"a", "b", "c"}
        assert by_name["b"].faulty
        assert not by_name["a"].faulty

    def test_empty_faulty_set_is_identity(self):
        records = [make_record(n) for n in "abc"]
        out = unify(records, [])
        assert [u.identity for u in out] == [r.identity for r in records]

    def test_deleted_method_included(self):
        a = make_record("a")
        z = make_unified(make_record("z", faulty=True))
        out = unify([a], [z])
        assert {u.identity.method_name for u in out} == {"a", "z"}
        assert next(u for u in out if u.identity.method_name == "z").faulty

    def test_idempotent(self):
        records = [make_record(n) for n in "abc"]
        faulty = [make_unified(make_record("b", faulty=True))]
        once = unify(records, faulty)
        twice = unify(once, faulty)
        assert once == twice

    @settings(max_examples=60, deadline=None)
    @given(
        names=st.sets(st.text(alphabet="abcdefgh", min_size=1, max_size=3), min_size=0, max_size=10),
        faulty_names=st.sets(st.text(alphabet="abcdefgh", min_size=1, max_size=3), min_size=0, max_size=6),
    )
    def test_property_idempotent_and_unique(self, names, faulty_names):
        records = [make_record(n) for n in sorted(names)]
        faulty = [make_unified(make_record(n, faulty=True)) for n in sorted(faulty_names)]
        once = unify(records, faulty)
        twice = unify(once, faulty)
        assert once == twice
        keys = [u.identity for u in once]
        assert len(keys) == len(set(keys))
        assert {u.identity.method_name for u in once} == names | faulty_names
        for u in once:
            assert u.faulty == (u.identity.method_name in faulty_names)

    def test_output_sorted_and_unique(self):
        records = [make_record(n) for n in "cba"]
        out = unify(records, [])
        assert [u.identity.method_name for u in out] == ["a", "b", "c"]

    def test_build_unified_from_mixed_rows(self, tmp_path):
        rows = [
            make_record("a"),
            make_record("b"),
            make_record("b", faulty=True),
            make_record("b", faulty=True),
        ]
        write_csv(rows, tmp_path / "mixed.csv")
        out = build_unified(read_csv(tmp_path / "mixed.csv"))
        by_name = {key[3]: i for i, key in enumerate(out.keys)}
        assert len(out) == 2
        assert out.faulty[by_name["b"]]
        assert len(out.occurrences[by_name["b"]]) == 2


class TestCsv:
    def test_round_trip(self, tmp_path):
        records = [
            make_record("a", metrics=make_metrics(sloc=5, cc=2, loops=1, assignments=3)),
            make_record("b", faulty=True, metrics=make_metrics(chaining=2, method_invocations=2)),
        ]
        path = tmp_path / "data.csv"
        write_csv(records, path)
        assert read_csv_per_field(path) == records
        assert rows_view(read_csv(path)) == records_view(records)

    def test_rows_equal_the_reference_rows(self, tmp_path):
        """write_csv's bytes equal the csv-written rows of the string-per-field
        reference, and both readers read the records back."""
        rng = random.Random(12)
        records = [_writer_record(rng) for _ in range(500)]
        assert {r.faulty for r in records} == {True, False}
        assert {len(r.identity.param_signature) for r in records} == {0, 1, 3}
        for field in CategoryFlags._fields:
            assert {getattr(r.categories, field) for r in records} == {True, False}
        counts = {c for r in records for c in r.metrics.construct_counts}
        assert {0, 2**63 - 1} <= counts
        path, reference = tmp_path / "written.csv", tmp_path / "reference.csv"
        write_csv(records, path)
        with open(reference, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([CSV_HEADER] + [reference_row(r) for r in records])
        assert path.read_bytes() == reference.read_bytes()
        assert read_csv_per_field(path) == records
        assert rows_view(read_csv(path)) == records_view(records)

    def test_missing_column_raises(self, tmp_path):
        path = tmp_path / "bad.csv"
        header = [c for c in CSV_HEADER if c != "faulty"]
        path.write_text(",".join(header) + "\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="faulty"):
            read_csv(path)

    def test_bad_integer_names_row_and_column(self, tmp_path):
        records = [make_record("a")]
        path = tmp_path / "data.csv"
        write_csv(records, path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(",1,0,0,0,", ",x,0,0,0,", 1), encoding="utf-8")
        with pytest.raises(SchemaError, match="row 2"):
            read_csv(path)

    def test_externally_supplied_csv_accepted(self, tmp_path):
        # A file with the documented header, produced by another tool.
        row = {name: "0" for name in CSV_HEADER}
        row.update(
            project="ext", file_path="X.java", type_name="X", method_name="m",
            param_signature="int;String", snapshot="CurrentState", faulty="false",
            sloc="3", cc="1",
        )
        for flag in ("is_constructor", "is_getter", "is_setter", "is_empty",
                     "is_delegation", "is_to_string"):
            row[flag] = "false"
        path = tmp_path / "external.csv"
        path.write_text(
            ",".join(CSV_HEADER) + "\n" + ",".join(row[c] for c in CSV_HEADER) + "\n",
            encoding="utf-8",
        )
        rows = read_csv(path)
        assert len(rows) == 1
        assert rows.keys[0] == ("ext", "X.java", "X", "m", ("int", "String"))
        assert rows.metrics[0][0] == 3

    def test_faulty_with_current_snapshot_rejected(self, tmp_path):
        records = [make_record("a", faulty=True)]
        path = tmp_path / "data.csv"
        write_csv(records, path)
        text = path.read_text(encoding="utf-8").replace("FaultyState", "CurrentState")
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match="row 2"):
            read_csv(path)

    def test_negative_count_names_row_and_column(self, tmp_path):
        records = [make_record("a"), make_record("b", metrics=make_metrics(loops=3))]
        path = tmp_path / "data.csv"
        write_csv(records, path)
        rows = read_csv_rows(path)
        rows[2][CSV_HEADER.index("loops")] = "-3"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(SchemaError, match="row 3: column 'loops': expected non-negative integer, got '-3'"):
            read_csv(path)

    def test_an_error_names_the_file_line_past_a_quoted_line_break(self, tmp_path):
        """Row 2 spans lines 2 and 3, so the short row is line 4 of the file."""
        path = tmp_path / "data.csv"
        write_csv([make_record("a")], path)
        header, row = path.read_text(encoding="utf-8").splitlines()
        row = row.replace(",a,", ',"multi\nline",', 1)
        path.write_text(f"{header}\n{row}\ncorpus,A.java\n", encoding="utf-8")
        with pytest.raises(SchemaError, match=f"^row 4: expected {len(CSV_HEADER)} fields, got 2$"):
            read_csv(path)

    def test_a_label_file_error_names_the_file_line_past_a_quoted_line_break(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text(
            "project,file_path,type_name,method_name,param_signature,faulty\n"
            'p,A.java,A,"multi\nline",,true\ncorpus,A.java\n',
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match="^row 4: expected 6 fields, got 2$"):
            read_label_file(path)

    def test_padded_booleans_and_integers_accepted(self, tmp_path):
        records = [make_record("a", faulty=True, metrics=make_metrics(sloc=12, loops=2))]
        path = tmp_path / "data.csv"
        write_csv(records, path)
        rows = read_csv_rows(path)
        rows[1][CSV_HEADER.index("faulty")] = " TRUE "
        rows[1][CSV_HEADER.index("is_getter")] = "False"
        rows[1][CSV_HEADER.index("loops")] = " 2 "
        rows[1][CSV_HEADER.index("sloc")] = "+12"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert read_csv_per_field(path) == records
        assert rows_view(read_csv(path)) == records_view(records)


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)


def _shuffled_csv(rng, path, records):
    """Write records with the columns in a random order, sometimes with an
    extra column, and return (header, rows) as written."""
    write_csv(records, path)
    header, *rows = read_csv_rows(path)
    if rng.random() < 0.5:
        header = header + ["comment"]
        rows = [row + ["x"] for row in rows]
    order = list(range(len(header)))
    rng.shuffle(order)
    header = [header[i] for i in order]
    rows = [[row[i] for i in order] for row in rows]
    _write_rows(path, header, rows)
    return header, rows


def _outcome(reader, path):
    """The rows_view of what reader reads from path, or its SchemaError text."""
    try:
        rows = reader(path)
    except SchemaError as exc:
        return f"SchemaError: {exc}"
    return rows_view(rows) if reader is read_csv else records_view(rows)


# (column, value, whether the row is then malformed)
_FIELD_EDITS = [
    ("loops", "x", True),
    ("sloc", "1.5", True),
    ("cc", "", True),
    ("anonymous_classes", "-1", True),
    ("unique_vars", "-0", False),
    ("sloc", str(2**63), True),
    ("max_nesting", " 4 ", False),
    ("string_literals", "1_0", False),
    ("faulty", "yes", True),
    ("is_empty", "", True),
    ("is_setter", " TRUE ", False),
    ("is_getter", "False", False),
    ("snapshot", "currentstate", True),
    ("snapshot", "Faulty", True),
]


class TestReadCsvAgainstPerFieldOracle:
    def test_valid_files_with_shuffled_columns(self, tmp_path):
        rng = random.Random(5)
        for case in range(30):
            methods = generate_project(f"p{case}", seed=case, n_methods=rng.randint(20, 40))
            records = [r for u in methods for r in u.occurrences]
            rng.shuffle(records)
            path = tmp_path / f"valid{case}.csv"
            _shuffled_csv(rng, path, records)
            assert read_csv_per_field(path) == records
            assert rows_view(read_csv(path)) == records_view(records)

    @pytest.mark.parametrize("column,value,malformed", _FIELD_EDITS)
    def test_single_field_edits(self, tmp_path, column, value, malformed):
        rng = random.Random(column + value)
        records = [r for u in generate_project("p", seed=2, n_methods=30) for r in u.occurrences]
        header, rows = _shuffled_csv(rng, tmp_path / "base.csv", records)
        target = rng.randrange(len(rows))
        rows[target][header.index(column)] = value
        path = tmp_path / "edited.csv"
        _write_rows(path, header, rows)
        got, want = _outcome(read_csv, path), _outcome(read_csv_per_field, path)
        assert got == want
        if malformed:
            assert got.startswith(f"SchemaError: row {target + 2}: ")

    def test_short_row_and_faulty_current_rows(self, tmp_path):
        rng = random.Random(7)
        records = [r for u in generate_project("p", seed=3, n_methods=20) for r in u.occurrences]
        header, rows = _shuffled_csv(rng, tmp_path / "base.csv", records)
        short = [row[:] for row in rows]
        short[4] = short[4][:-1]
        mismatched = [row[:] for row in rows]
        mismatched[6][header.index("faulty")] = "true"
        mismatched[6][header.index("snapshot")] = "CurrentState"
        for name, edited in (("short", short), ("mismatched", mismatched)):
            path = tmp_path / f"{name}.csv"
            _write_rows(path, header, edited)
            got = _outcome(read_csv, path)
            assert got == _outcome(read_csv_per_field, path)
            assert got.startswith(f"SchemaError: row {4 + 2 if name == 'short' else 6 + 2}: ")

    def test_first_bad_field_is_reported(self, tmp_path):
        """Several bad fields in one row: both readers name the same one."""
        rng = random.Random(11)
        records = [r for u in generate_project("p", seed=4, n_methods=20) for r in u.occurrences]
        header, rows = _shuffled_csv(rng, tmp_path / "base.csv", records)
        bad = [(c, v) for c, v, malformed in _FIELD_EDITS if malformed]
        for case in range(40):
            edited = [row[:] for row in rows]
            for column, value in rng.sample(bad, rng.randint(2, 4)):
                edited[case % len(rows)][header.index(column)] = value
            path = tmp_path / f"multi{case}.csv"
            _write_rows(path, header, edited)
            got = _outcome(read_csv, path)
            assert isinstance(got, str) and got == _outcome(read_csv_per_field, path)

    def test_counts_follow_construct_kind_order(self, tmp_path):
        rng = random.Random(13)
        counts = {k.column: k % 2 * (k + 1) for k in ConstructKind}  # zero for even kinds
        metrics = make_metrics(sloc=11, cc=12, nesting=13, chaining=14, variables=15, **counts)
        records = [make_record("a", metrics=metrics)]
        path = tmp_path / "data.csv"
        _shuffled_csv(rng, path, records)
        (rec,) = read_csv_per_field(path)
        assert rec.metrics.construct_counts == tuple(k % 2 * (k + 1) for k in ConstructKind)
        rows = read_csv(path)
        assert tuple(column[0] for column in rows.metrics) == (11, 12, 13, 14, 15)
        # The has-no items follow the 15 tertile items, in ConstructKind order.
        no_items = item_mask(ATTRIBUTE_ITEMS[15 + k] for k in ConstructKind if k % 2 == 0)
        # if_conditions and arithmetic_infix_ops are odd kinds: neither derived item holds.
        assert rows.fixed[0] == no_items


# -- the method table against the record-based loader it replaced ------------

_BAD_VALUES = {
    "snapshot": ["currentstate", "", "Faulty"],
    "faulty": ["yes", "", "1"],
    "count": ["x", "1.5", "", "-2", str(2**63)],
    "flag": ["", "maybe", "0"],
}
_PADDED = {"true": [" TRUE ", "True", "true "], "false": [" false", "FALSE", "False "]}


def _random_records(rng, project):
    """Rows of one project: clean methods (some with duplicate current-state
    rows, of which the first stands), faulty methods with one to three
    occurrences, with and without a current-state row, in random order."""
    records = []
    for i in range(rng.randint(3, 30)):
        identity = dict(
            project=project,
            file_path=rng.choice(["A.java", "b/B.java"]),
            type_name=rng.choice(["A", "A.In"]),
            params=rng.choice([(), ("int",), ("int", "String")]),
        )

        def record(faulty):
            counts = {k.column: rng.choice([0, 0, 1, rng.randint(2, 9)]) for k in ConstructKind}
            metrics = make_metrics(
                sloc=rng.randint(1, 40), cc=rng.randint(1, 6), nesting=rng.randint(0, 3),
                chaining=rng.randint(0, 3), variables=rng.randint(0, 9), **counts,
            )
            categories = CategoryFlags(**{f: rng.random() < 0.2 for f in CategoryFlags._fields})
            return make_record(f"m{i}", metrics=metrics, categories=categories, faulty=faulty, **identity)

        kind = rng.choice(["clean", "duplicates", "faulty", "faulty only"])
        if kind != "faulty only":
            records.extend(record(False) for _ in range(rng.randint(2, 3) if kind == "duplicates" else 1))
        if kind.startswith("faulty"):
            records.extend(record(True) for _ in range(rng.choice([1, 2, 3])))
    rng.shuffle(records)
    return records


def _writer_record(rng):
    """A record with a random field of each shape write_csv meets: names that
    need quoting, signatures of 0, 1 or 3 types, counts and metrics from 0 to
    2**63 - 1, every flag either way, current and faulty records."""
    names = ["m", "a,b", 'say "hi"', "two words", "naïve", "x\ny"]
    flags = CategoryFlags(*(rng.random() < 0.5 for _ in CategoryFlags._fields))
    big = [0, 1, rng.randint(2, 10**6), 2**63 - 1]
    identity = make_identity(
        rng.choice(names), project=rng.choice(["p", "p,q"]), file_path=rng.choice(["A.java", "a b/C.java"]),
        type_name=rng.choice(names), params=rng.choice([(), ("int",), ("int", "List<K,V>", "String[]")]),
    )
    metrics = make_metrics(
        sloc=rng.choice(big), cc=rng.choice(big), nesting=rng.choice(big), chaining=rng.choice(big),
        variables=rng.choice(big), **{k.column: rng.choice(big) for k in ConstructKind},
    )
    return MethodRecord(identity, metrics, flags, rng.random() < 0.3)


def _pad_booleans(rng, header, rows):
    flags = [i for i, c in enumerate(header) if c == "faulty" or c.startswith("is_")]
    for row in rows:
        for i in flags:
            if rng.random() < 0.1:
                row[i] = rng.choice(_PADDED[row[i]])


def _check_table(table, records):
    """The table holds what the record oracle computes, method by method."""
    expected = build_unified_records(records)
    assert list(table.keys) == [u.identity for u in expected]
    assert list(table.faulty) == [u.faulty for u in expected]
    assert list(table.sloc) == list(map(method_sloc, expected))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit_discretization(table)
        assert model == fit_records([r for u in expected for r in u.occurrences])
        half = list(range(0, len(table), 2))
        if sum(len(table.occurrences[i]) for i in half) >= 3:
            assert fit_discretization(table.take(half)) == fit_records(
                [r for i in half for r in expected[i].occurrences]
            )
    for i, u in enumerate(expected):
        assert itemize(table, i, model) == itemize_records(u, model)
    return expected


class TestTableAgainstRecordOracle:
    def test_random_csvs(self, tmp_path):
        for seed in range(200):
            rng = random.Random(seed)
            records = _random_records(rng, "p") + (_random_records(rng, "q") if seed % 3 == 0 else [])
            rng.shuffle(records)
            path = tmp_path / "rows.csv"
            header, rows = _shuffled_csv(rng, path, records)
            _pad_booleans(rng, header, rows)
            _write_rows(path, header, rows)
            loaded = read_csv(path)
            assert len(loaded) == len(records)
            expected = _check_table(build_unified(loaded), read_csv_per_field(path))
            assert len({u.identity.project for u in expected}) == (2 if seed % 3 == 0 else 1)

    def test_single_field_corruptions(self, tmp_path):
        for seed in range(200):
            rng = random.Random(seed)
            records = _random_records(rng, "p")
            header, rows = _shuffled_csv(rng, tmp_path / "base.csv", records)
            _pad_booleans(rng, header, rows)
            column = rng.choice([c for c in header if c in CSV_HEADER and c not in _IDENTITY])
            kind = (
                column if column in ("snapshot", "faulty")
                else "flag" if column.startswith("is_") else "count"
            )
            if column in ("all_conditions", "all_arithmetic"):
                continue  # derived columns are not read
            target = rng.randrange(len(rows))
            rows[target][header.index(column)] = rng.choice(_BAD_VALUES[kind])
            path = tmp_path / "edited.csv"
            _write_rows(path, header, rows)
            got, want = _outcome(read_csv, path), _outcome(read_csv_per_field, path)
            assert got == want
            assert got.startswith(f"SchemaError: row {target + 2}: column {column!r}")

    def test_acceptance_corpus(self, tmp_path):
        rng = random.Random(11)
        paths, records = [], []
        for name, methods in generate_corpus(6, seed=11).items():
            rows = [r for u in methods for r in u.occurrences]
            rng.shuffle(rows)
            paths.append(tmp_path / f"{name}.csv")
            write_csv(rows, paths[-1])
            records.extend(read_csv_per_field(paths[-1]))
        rows = Rows.concat([read_csv(p) for p in paths])
        assert len(rows) == len(records) == 12117
        table = build_unified(rows)
        expected = _check_table(table, records)
        spans = table.projects()
        assert list(spans) == [f"synth{i}" for i in range(6)]
        for name, span in spans.items():
            assert [expected[i].identity.project for i in span] == [name] * len(span)
        # A unified method list gives the same table contents.
        _check_table(MethodTable.from_methods(expected), records)

    def test_clean_rows_marked_faulty_state(self, tmp_path):
        """write_csv writes FaultyState exactly on faulty rows, but a CSV written
        by hand may put it on a clean row: both readers take that row as clean,
        and the table unifies it as the record oracle does."""
        for seed in range(20):
            rng = random.Random(seed)
            records = _random_records(rng, "p")
            header, rows = _shuffled_csv(rng, tmp_path / "base.csv", records)
            snapshot, faulty = header.index("snapshot"), header.index("faulty")
            assert {(row[snapshot], row[faulty]) for row in rows} <= {
                ("CurrentState", "false"), ("FaultyState", "true")
            }
            clean = [row for row in rows if row[faulty] == "false"]
            for row in rng.sample(clean, rng.randint(1, len(clean))):
                row[snapshot] = "FaultyState"
            path = tmp_path / "edited.csv"
            _write_rows(path, header, rows)
            read = read_csv_per_field(path)
            assert [r.faulty for r in read] == [r.faulty for r in records]
            assert _outcome(read_csv, path) == _outcome(read_csv_per_field, path)
            _check_table(build_unified(read_csv(path)), read)

    def test_first_current_row_stands(self, tmp_path):
        first = make_record("a", metrics=make_metrics(sloc=3))
        later = make_record("a", metrics=make_metrics(sloc=30, loops=1))
        write_csv([first, later], tmp_path / "dup.csv")
        table = build_unified(read_csv(tmp_path / "dup.csv"))
        assert len(table) == 1 and table.occurrences[0] == (0,) and table.sloc == [3]


def test_from_methods_metric_columns_read_the_records_in_place(tmp_path):
    # Written in identity order, the methods' records are the CSV's rows in
    # order, so the array columns read back are the materialized columns that
    # the table's views must agree with.
    methods = sorted(generate_project("p", 5, 2000), key=lambda u: u.identity)
    assert any(len(u.occurrences) > 1 for u in methods)
    write_csv((r for u in methods for r in u.occurrences), tmp_path / "p.csv")
    columns = build_unified(read_csv(tmp_path / "p.csv")).metrics
    table = MethodTable.from_methods(methods)
    for view, column in zip(table.metrics, columns, strict=True):
        assert len(view) == len(column) == sum(len(u.occurrences) for u in methods)
        assert list(view) == list(column)
        assert [view[i] for i in range(-len(view), len(view))] == list(column) * 2
        with pytest.raises(IndexError):
            view[len(view)]


class TestProjects:
    def table(self, projects):
        return table_of([make_record(f"m{i}", project=p) for i, p in enumerate(projects)])

    def test_spans_of_contiguous_projects(self):
        assert self.table("aabbbc").projects() == {"a": range(0, 2), "b": range(2, 5), "c": range(5, 6)}

    def test_interleaved_projects_raise(self):
        with pytest.raises(ValueError, match="project 'a'"):
            self.table("ababab").projects()

    def test_computed_once_per_table(self):
        class CountedKeys(list):
            reads = 0

            def __iter__(self):
                CountedKeys.reads += 1
                return super().__iter__()

        base = self.table("aab")
        table = MethodTable(CountedKeys(base.keys), base.faulty, base.sloc, base.occurrences,
                            base.metrics, base.fixed)
        spans = table.projects()
        spans["z"] = range(0)
        assert table.projects() == {"a": range(0, 2), "b": range(2, 3)}
        assert CountedKeys.reads == 1
