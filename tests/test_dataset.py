import csv
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_metrics, make_record, make_unified
from oracles import read_csv_per_field
from lowrisk.dataset import (
    CSV_HEADER,
    MethodRecord,
    Snapshot,
    build_unified,
    consolidate_faulty,
    read_csv,
    unify,
    write_csv,
)
from lowrisk.errors import SchemaError, UnmatchedFaultyWarning
from lowrisk.java.metrics import ConstructKind
from lowrisk.synthetic import generate_project


def test_faulty_record_requires_faulty_snapshot():
    rec = make_record("a")
    with pytest.raises(ValueError):
        MethodRecord(rec.identity, rec.metrics, rec.categories, faulty=True,
                     snapshot=Snapshot.CURRENT)


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
        assert u.sloc == 8


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

    def test_deleted_method_included_with_warning(self):
        a = make_record("a")
        z = make_unified(make_record("z", faulty=True))
        with pytest.warns(UnmatchedFaultyWarning):
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
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("ignore")
            once = unify(records, faulty)
            twice = unify(once, faulty)
        assert once == twice
        keys = [u.identity.key() for u in once]
        assert len(keys) == len(set(keys))
        assert {u.identity.method_name for u in once} == names | faulty_names
        for u in once:
            assert u.faulty == (u.identity.method_name in faulty_names)

    def test_output_sorted_and_unique(self):
        records = [make_record(n) for n in "cba"]
        out = unify(records, [])
        assert [u.identity.method_name for u in out] == ["a", "b", "c"]

    def test_build_unified_from_mixed_rows(self):
        rows = [
            make_record("a"),
            make_record("b"),
            make_record("b", faulty=True),
            make_record("b", faulty=True),
        ]
        out = build_unified(rows)
        by_name = {u.identity.method_name: u for u in out}
        assert len(out) == 2
        assert by_name["b"].faulty
        assert len(by_name["b"].occurrences) == 2


class TestCsv:
    def test_round_trip(self, tmp_path):
        records = [
            make_record("a", metrics=make_metrics(sloc=5, cc=2, loops=1, assignments=3)),
            make_record("b", faulty=True, metrics=make_metrics(chaining=2, method_invocations=2)),
        ]
        path = tmp_path / "data.csv"
        write_csv(records, path)
        assert read_csv(path) == records

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
        (rec,) = read_csv(path)
        assert rec.identity.param_signature == ("int", "String")
        assert rec.metrics.sloc == 3

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
        rows = list(csv.reader(open(path, newline="")))
        rows[2][CSV_HEADER.index("loops")] = "-3"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(SchemaError, match="row 3: column 'loops': expected non-negative integer, got '-3'"):
            read_csv(path)

    def test_padded_booleans_and_integers_accepted(self, tmp_path):
        records = [make_record("a", faulty=True, metrics=make_metrics(sloc=12, loops=2))]
        path = tmp_path / "data.csv"
        write_csv(records, path)
        rows = list(csv.reader(open(path, newline="")))
        rows[1][CSV_HEADER.index("faulty")] = " TRUE "
        rows[1][CSV_HEADER.index("is_getter")] = "False"
        rows[1][CSV_HEADER.index("loops")] = " 2 "
        rows[1][CSV_HEADER.index("sloc")] = "+12"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert read_csv(path) == records


def _write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)


def _shuffled_csv(rng, path, records):
    """Write records with the columns in a random order, sometimes with an
    extra column, and return (header, rows) as written."""
    write_csv(records, path)
    header, *rows = list(csv.reader(open(path, newline="", encoding="utf-8")))
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
    try:
        return reader(path)
    except SchemaError as exc:
        return f"SchemaError: {exc}"


# (column, value, whether the row is then malformed)
_FIELD_EDITS = [
    ("loops", "x", True),
    ("sloc", "1.5", True),
    ("cc", "", True),
    ("anonymous_classes", "-1", True),
    ("unique_vars", "-0", False),
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
            assert read_csv(path) == read_csv_per_field(path) == records

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
        records = [make_record("a", metrics=make_metrics(**{k.column: k + 1 for k in ConstructKind}))]
        path = tmp_path / "data.csv"
        _shuffled_csv(rng, path, records)
        (rec,) = read_csv(path)
        assert rec.metrics.construct_counts == tuple(range(1, len(ConstructKind) + 1))
