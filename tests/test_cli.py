import argparse
import csv
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import read_csv_rows
from oracles import read_csv_per_field
import lowrisk
from lowrisk import cli
from lowrisk import dataset as ds
from lowrisk.cli import main
from lowrisk.pipeline import PipelineConfig
from lowrisk.synthetic import generate_corpus, generate_project


def run(argv):
    return main([str(a) for a in argv])


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.fixture(scope="module")
def synth_csvs(tmp_path_factory):
    base = tmp_path_factory.mktemp("csvs")
    paths = []
    for i in range(2):
        methods = generate_project(f"proj{i}", seed=40 + i, n_methods=500)
        path = base / f"proj{i}.csv"
        ds.write_csv((r for u in methods for r in u.occurrences), path)
        paths.append(path)
    return paths


def test_importing_the_cli_loads_no_process_pool():
    # The pool is imported only by a run with --jobs above 1.
    code = ("import sys, lowrisk.cli; "
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(lowrisk.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestExtract:
    def test_golden_corpus_extraction(self, corpus_dir, golden_csv, tmp_path):
        out = tmp_path / "metrics.csv"
        assert run(["extract", "--root", corpus_dir, "--project", "corpus",
                    "--out", out, "--jobs", "1"]) == 0
        assert out.read_text(encoding="utf-8") == golden_csv.read_text(encoding="utf-8")
        sidecar = json.loads((tmp_path / "metrics.csv.run.json").read_text())
        assert sidecar["command"] == "extract"
        assert sidecar["methods"] == 33

    def test_golden_corpus_extraction_bytes(self, corpus_dir, golden_csv, tmp_path):
        """The written file is the golden file byte for byte, except that the csv
        module ends rows with CRLF where the golden file has LF: quoting, encoding
        and the final newline must match."""
        out = tmp_path / "metrics.csv"
        assert main(["extract", "--root", str(corpus_dir), "--project", "corpus",
                     "--out", str(out), "--jobs", "1"]) == 0
        written = out.read_bytes()
        assert written.count(b"\r\n") == written.count(b"\n")  # every row ends with CRLF
        assert written.replace(b"\r\n", b"\n") == golden_csv.read_bytes()

    def test_parallel_extraction_matches_serial(self, corpus_dir, tmp_path):
        """The corpus plus two files that fail to parse and one more lambda method,
        in nested directories, so the order of failures and skips is checked too."""
        root = tmp_path / "src"
        shutil.copytree(corpus_dir, root / "corpus")
        (root / "a").mkdir()
        (root / "a" / "Bad.java").write_text("class Bad { void f( }", encoding="utf-8")
        (root / "z.java").write_text("class Z { int g( }", encoding="utf-8")
        (root / "a" / "L.java").write_text(
            "class L { Runnable r() { return () -> { }; } void plain() { } }", encoding="utf-8"
        )
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            assert run(["extract", "--root", root, "--project", "corpus", "--out", out,
                        "--jobs", jobs]) == 0
            outputs.append((out.read_text(), json.loads(out.with_name(out.name + ".run.json").read_text())))
        assert outputs[0] == outputs[1]
        sidecar = outputs[0][1]
        assert [rel for rel, _ in sidecar["parse_failures"]] == ["a/Bad.java", "z.java"]
        assert sidecar["skipped_methods"] == [
            "a/L.java:L.r: lambda expression in body",
            "corpus/Lambdas.java:Lambdas.lambdaStyle: lambda expression in body",
        ]
        assert sidecar["files_analyzed"] == 6

    def test_empty_tree_warns_and_writes_header(self, tmp_path, capsys):
        root = tmp_path / "empty"
        root.mkdir()
        out = tmp_path / "empty.csv"
        assert run(["extract", "--root", root, "--project", "p", "--out", out]) == 0
        assert "no Java files matched" in capsys.readouterr().err
        rows = read_csv_rows(out)
        assert rows == [ds.CSV_HEADER]

    def test_bad_glob_is_usage_error(self, corpus_dir, tmp_path):
        out = tmp_path / "x.csv"
        code = run(["extract", "--root", corpus_dir, "--project", "p", "--out", out,
                    "--include", "/absolute/**.java"])
        assert code == 2
        assert list(tmp_path.iterdir()) == []

    def test_a_glob_the_walk_rejects_creates_nothing(self, corpus_dir, tmp_path, monkeypatch, capsys):
        """The files are listed before any row is written, so a pattern that
        Path.glob rejects (which patterns it rejects depends on the Python
        version) ends the run with a usage error and no output at all."""
        def glob(self, pattern):
            raise ValueError(f"Invalid pattern: {pattern!r}")

        monkeypatch.setattr(Path, "glob", glob)
        assert run(["extract", "--root", corpus_dir, "--project", "p", "--out", tmp_path / "x.csv",
                    "--include", "a/**b.java", "--jobs", "1"]) == 2
        assert "usage error: invalid glob pattern" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_rows_come_in_identity_order(self, tmp_path):
        """a-b/X.java sorts before a/Y.java as a path string ('-' < '/'), which
        is the order of the identities, though a/ comes first as a path."""
        root = tmp_path / "src"
        for rel in ("a/Y.java", "a-b/X.java", "a/b/Z.java"):
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(f"class {rel[-6]} {{ void g() {{ }} void f(int x) {{ }} }}", encoding="utf-8")
        out = tmp_path / "m.csv"
        assert run(["extract", "--root", root, "--project", "p", "--out", out, "--jobs", "1"]) == 0
        identities = [r.identity for r in read_csv_per_field(out)]
        assert [(i.file_path, i.method_name) for i in identities] == [
            ("a-b/X.java", "f"), ("a-b/X.java", "g"), ("a/Y.java", "f"), ("a/Y.java", "g"),
            ("a/b/Z.java", "f"), ("a/b/Z.java", "g"),
        ]
        assert identities == sorted(identities)

    def test_a_file_that_cannot_be_read_leaves_no_output(self, tmp_path, monkeypatch, capsys):
        """An OSError on a later file ends the run with exit code 1 after the
        earlier files' rows were written: no CSV, no sidecar, no temporary file."""
        root = tmp_path / "src"
        root.mkdir()
        for name in ("A", "B", "C"):
            (root / f"{name}.java").write_text(f"class {name} {{ void f() {{ }} }}", encoding="utf-8")
        read_text = Path.read_text

        def failing_read_text(self, *args, **kwargs):
            if self.name == "C.java":
                raise OSError(5, "Input/output error", str(self))
            return read_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", failing_read_text)
        out = tmp_path / "out" / "m.csv"
        out.parent.mkdir()
        assert run(["extract", "--root", root, "--project", "p", "--out", out, "--jobs", "1"]) == 1
        assert "error: [Errno 5] Input/output error" in capsys.readouterr().err
        assert list(out.parent.iterdir()) == []

    def test_parse_failures_reported_and_skipped(self, tmp_path, capsys):
        root = tmp_path / "src"
        root.mkdir()
        (root / "Good.java").write_text("class Good { void f() { } }", encoding="utf-8")
        (root / "Bad.java").write_text("class Bad { void f( }", encoding="utf-8")
        out = tmp_path / "m.csv"
        assert run(["extract", "--root", root, "--project", "p", "--out", out,
                    "--jobs", "1"]) == 0
        assert "Bad.java" in capsys.readouterr().err
        records = read_csv_per_field(out)
        assert [r.identity.method_name for r in records] == ["f"]

    def test_a_malformed_method_body_is_skipped_with_its_location(self, corpus_dir, golden_csv, tmp_path, capsys):
        root = tmp_path / "src"
        shutil.copytree(corpus_dir, root)
        (root / "Broken.java").write_text("class Broken {\n  void f() {\n    foo(;\n  }\n}\n", encoding="utf-8")
        out = tmp_path / "m.csv"
        assert run(["extract", "--root", root, "--project", "corpus", "--out", out, "--jobs", "1"]) == 0
        err = capsys.readouterr().err
        assert "skipped (parse error): Broken.java:3:8: unbalanced '('\n" in err
        assert err.count("Broken.java") == 1
        sidecar = json.loads(out.with_name(out.name + ".run.json").read_text())
        assert sidecar["parse_failures"] == [["Broken.java", "3:8: unbalanced '('"]]
        assert out.read_text(encoding="utf-8") == golden_csv.read_text(encoding="utf-8")

    def test_labels_mark_methods_faulty(self, tmp_path):
        root = tmp_path / "src"
        root.mkdir()
        (root / "A.java").write_text(
            "class A { void safe() { } void buggy() { int x = 1 / 0; } }",
            encoding="utf-8",
        )
        labels = tmp_path / "labels.csv"
        labels.write_text(
            "project,file_path,type_name,method_name,param_signature,faulty\n"
            "p,A.java,A,buggy,,true\n",
            encoding="utf-8",
        )
        out = tmp_path / "m.csv"
        assert run(["extract", "--root", root, "--project", "p", "--out", out,
                    "--labels", labels, "--jobs", "1"]) == 0
        by_name = {r.identity.method_name: r for r in read_csv_per_field(out)}
        assert by_name["buggy"].faulty
        assert not by_name["safe"].faulty
        states = {row["method_name"]: (row["snapshot"], row["faulty"]) for row in read_csv_rows(out, dicts=True)}
        assert states == {"buggy": ("FaultyState", "true"), "safe": ("CurrentState", "false")}

    @pytest.mark.parametrize("row, message", [
        ("corpus,A.java\n", "row 2: expected 6 fields, got 2"),
        ("p," + "x" * 131073 + ",A,m,,true\n", "row 2: field larger than field limit (131072)"),
    ], ids=["short_row", "field_over_csv_limit"])
    def test_malformed_label_file_is_schema_error(self, row, message, corpus_dir, tmp_path, capsys):
        """A short row, or a field over the csv module's size limit, ends the run
        with exit 1 and the row's number, not a traceback."""
        labels = tmp_path / "labels.csv"
        labels.write_text("project,file_path,type_name,method_name,param_signature,faulty\n" + row,
                          encoding="utf-8")
        out = tmp_path / "m.csv"
        assert run(["extract", "--root", corpus_dir, "--project", "corpus", "--out", out,
                    "--labels", labels, "--jobs", "1"]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Traceback" not in err


FAST_FLAGS = ["--min-support", "0.05", "--min-confidence", "0.95",
              "--max-antecedent-len", "2", "--seed", "9"]


class TestTrain:
    def test_train_yields_admissible_classifier(self, synth_csvs, tmp_path):
        out = tmp_path / "clf.json"
        assert run(["train", synth_csvs[0], "--out", out] + FAST_FLAGS) == 0
        payload = json.loads(out.read_text())
        assert payload["variants"]["strict"]["n"] >= 1
        assert payload["variants"]["lenient"]["n"] >= payload["variants"]["strict"]["n"]
        assert payload["rules"]
        assert payload["run_config"]["seed"] == 9
        assert payload["discretization"]["sloc"]["class1_upper"] >= 1
        meta = payload["training_meta"]
        # rules_mined counts the generator walk's rules, rules_kept those
        # left after the final dominance pass, which the file holds.
        assert meta["rules_kept"] == len(payload["rules"])
        assert meta["rules_mined"] >= meta["rules_kept"]
        assert payload["format_version"] == 2
        # The bounds live in the classifier file only: no mining_config copy of
        # run_config's mining keys, and no .discretization.json sidecar.
        assert "mining_config" not in payload
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clf.json"]

    def test_no_smote_bypass(self, synth_csvs, tmp_path):
        out = tmp_path / "clf.json"
        assert run(["train", synth_csvs[0], "--out", out, "--no-smote"] + FAST_FLAGS) == 0
        payload = json.loads(out.read_text())
        assert payload["run_config"]["no_smote"] is True
        # Without balancing the training set is the mining input unchanged.
        assert payload["training_meta"]["balanced_size"] == payload["training_meta"]["training_methods"]

    def test_zero_faulty_rows_fails(self, tmp_path):
        methods = [m for m in generate_project("clean", seed=3, n_methods=60) if not m.faulty]
        path = tmp_path / "clean.csv"
        ds.write_csv((r for u in methods for r in u.occurrences), path)
        out = tmp_path / "clf.json"
        assert run(["train", path, "--out", out] + FAST_FLAGS) == 1

    def test_two_csvs_train_on_union(self, synth_csvs, tmp_path, capsys):
        out = tmp_path / "clf.json"
        assert run(["train", *synth_csvs, "--out", out] + FAST_FLAGS) == 0
        payload = json.loads(out.read_text())
        expected = sum(len(ds.build_unified(ds.read_csv(p))) for p in synth_csvs)
        assert payload["training_meta"]["training_methods"] == expected

    def test_config_file_with_flag_override(self, synth_csvs, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_support": 0.05, "min_confidence": 0.95,
                                   "max_antecedent_len": 2, "seed": 1}))
        out = tmp_path / "clf.json"
        assert run(["train", synth_csvs[0], "--out", out, "--config", cfg,
                    "--seed", "77"]) == 0
        payload = json.loads(out.read_text())
        assert payload["run_config"]["seed"] == 77  # flag wins
        assert payload["run_config"]["min_support"] == 0.05

    def test_default_mining_config_finishes(self, tmp_path):
        """`train` with no mining flags mines at antecedent cap 8; that must stay quick."""
        paths = []
        for name, methods in generate_corpus(6, seed=11).items():
            paths.append(tmp_path / f"{name}.csv")
            ds.write_csv((r for u in methods for r in u.occurrences), paths[-1])
        out = tmp_path / "clf.json"
        start = time.monotonic()
        assert run(["train", *paths, "--out", out]) == 0
        elapsed = time.monotonic() - start
        payload = json.loads(out.read_text())
        assert payload["run_config"]["max_antecedent_len"] == 8
        meta = payload["training_meta"]
        assert meta["rules_kept"] == len(payload["rules"]) > 0
        assert meta["rules_mined"] > meta["rules_kept"]  # the final pass drops some
        assert elapsed < 120, f"default-config train took {elapsed:.0f} s"

    def test_unknown_config_key_rejected(self, synth_csvs, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"min_supprt": 0.1}))
        out = tmp_path / "clf.json"
        assert run(["train", synth_csvs[0], "--out", out, "--config", cfg]) == 1

    @pytest.mark.parametrize("entry", [
        {"no_smote": "false"}, {"no_smote": 0}, {"folds": "3"}, {"folds": 3.0}, {"seed": [1]},
        {"seed": True}, {"min_support": "0.1"}, {"budget_strict": None}, {"budget_lenient": False},
    ])
    def test_config_value_of_wrong_type_rejected(self, entry, synth_csvs, tmp_path, capsys):
        """A bool must be a bool, an int an int but not a bool, a float any number but a bool."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        out = tmp_path / "clf.json"
        assert run(["train", synth_csvs[0], "--out", out, "--config", cfg] + FAST_FLAGS) == 1
        assert repr(next(iter(entry))) in capsys.readouterr().err
        assert not out.exists()

    def test_config_int_accepted_for_float_key(self, synth_csvs, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget_strict": 0, "budget_lenient": 1, "no_smote": True}))
        out = tmp_path / "clf.json"
        assert run(["train", synth_csvs[0], "--out", out, "--config", cfg] + FAST_FLAGS) == 0
        payload = json.loads(out.read_text())
        assert payload["variants"]["strict"]["budget"] == 0
        assert payload["variants"]["lenient"]["budget"] == 1

    def test_non_object_config_file_rejected(self, synth_csvs, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert run(["train", synth_csvs[0], "--out", tmp_path / "clf.json", "--config", cfg]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_config_file_with_every_key_comes_back_as_run_config(self, synth_csvs, tmp_path):
        """Every key at a value other than its default, as the JSON type of
        that key, is the classifier file's run_config."""
        settings = {
            "min_support": 0.06, "min_confidence": 0.9, "max_antecedent_len": 2,
            "smote_over": 200, "smote_under": 150, "smote_k": 3, "no_smote": True,
            "budget_strict": 0.01, "budget_lenient": 0.1, "folds": 5, "seed": 42,
        }
        defaults = PipelineConfig().to_json()
        assert sorted(settings) == sorted(defaults)
        assert all(settings[key] != defaults[key] for key in settings)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(settings))
        out = tmp_path / "clf.json"
        assert run(["train", synth_csvs[0], "--out", out, "--config", cfg]) == 0
        run_config = json.loads(out.read_text())["run_config"]
        assert json.dumps(run_config, sort_keys=True) == json.dumps(settings, sort_keys=True)

    def test_run_config_as_config_file_reproduces_the_classifier(self, synth_csvs, tmp_path):
        """A classifier file's run_config is a valid --config, and training
        with it writes the same classifier file, byte for byte."""
        first = tmp_path / "first.json"
        assert run(["train", synth_csvs[0], "--out", first, "--no-smote"] + FAST_FLAGS) == 0
        run_config = tmp_path / "rc.json"
        run_config.write_text(json.dumps(json.loads(first.read_text())["run_config"]))
        second = tmp_path / "second.json"
        assert run(["train", synth_csvs[0], "--out", second, "--config", run_config]) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_config_json_of_the_defaults(self):
        assert PipelineConfig().to_json() == {
            "min_support": 0.1,
            "min_confidence": 0.95,
            "max_antecedent_len": 8,
            "smote_over": 100,
            "smote_under": 200,
            "smote_k": 5,
            "no_smote": False,
            "budget_strict": 0.025,
            "budget_lenient": 0.05,
            "folds": 10,
            "seed": 0,
        }

    @pytest.mark.parametrize("command, own", [
        ("train", ["--out"]),
        ("evaluate", ["--mode", "--out-dir", "--formats", "--dump-predictions", "--jobs"]),
    ])
    def test_option_strings(self, command, own):
        """The config flags follow the command's own options, one per config key."""
        parser = cli.build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = [o for a in commands.choices[command]._actions for o in a.option_strings]
        assert options == ["-h", "--help"] + own + [
            "--config", "--min-support", "--min-confidence", "--max-antecedent-len",
            "--smote-over", "--smote-under", "--smote-k", "--no-smote",
            "--budget-strict", "--budget-lenient", "--folds", "--seed",
        ]

    def test_metrics_csv_field_over_csv_limit_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_text(",".join(ds.CSV_HEADER) + "\np," + "x" * 131073 + "\n", encoding="utf-8")
        assert run(["train", path, "--out", tmp_path / "clf.json"] + FAST_FLAGS) == 1
        err = capsys.readouterr().err
        assert "error: row 2: field larger than field limit (131072)" in err
        assert "Traceback" not in err


DELETE = object()  # test_missing_classifier_entry_is_schema_error removes the entry


def edited_classifier(path, key, value, tmp_path):
    """A copy of a classifier file with the dotted entry `key` set to value (or deleted)."""
    payload = json.loads(path.read_text())
    *steps, leaf = key.split(".")
    owner = payload
    for step in steps:
        owner = owner[int(step)] if isinstance(owner, list) else owner[step]
    if isinstance(owner, list):
        leaf = int(leaf)
    if value is DELETE:
        del owner[leaf]
    else:
        owner[leaf] = value
    edited = tmp_path / "broken.json"
    edited.write_text(json.dumps(payload))
    return edited


class TestPredict:
    @pytest.fixture()
    def trained(self, synth_csvs, tmp_path):
        out = tmp_path / "clf.json"
        assert run(["train", synth_csvs[0], "--out", out] + FAST_FLAGS) == 0
        return out

    def test_self_consistency_matched_fault_share_within_budget(self, synth_csvs, trained, tmp_path):
        out = tmp_path / "pred.csv"
        assert run(["predict", "--classifier", trained, "--target", synth_csvs[0],
                    "--variant", "strict", "--out", out]) == 0
        rows = read_csv_rows(out, dicts=True)
        faulty = [r for r in rows if r["faulty"] == "true"]
        matched_faulty = [r for r in faulty if r["predicted_lfr"] == "true"]
        assert len(matched_faulty) <= 0.025 * len(faulty) + 1e-9

    def test_zero_rule_classifier_matches_nothing(self, trained, synth_csvs, tmp_path):
        payload = json.loads(trained.read_text())
        payload["variants"]["strict"]["n"] = 0
        crippled = tmp_path / "zero.json"
        crippled.write_text(json.dumps(payload))
        out = tmp_path / "pred.csv"
        assert run(["predict", "--classifier", crippled, "--target", synth_csvs[0],
                    "--variant", "strict", "--out", out]) == 0
        rows = read_csv_rows(out, dicts=True)
        assert all(r["predicted_lfr"] == "false" for r in rows)
        assert all(r["matched_rule_index"] == "" for r in rows)

    def test_missing_column_is_schema_error(self, trained, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("project,file_path\np,x\n", encoding="utf-8")
        out = tmp_path / "pred.csv"
        assert run(["predict", "--classifier", trained, "--target", bad,
                    "--out", out]) == 1

    @pytest.mark.parametrize("key,value", [
        (key, DELETE) for key in (
            "discretization", "variants", "rules", "variants.strict", "variants.strict.n",
            "variants.strict.budget", "discretization.sloc", "discretization.sloc.class1_upper",
            "rules.0.antecedent", "rules.0.support",
        )
    ] + [
        ("variants", ["strict", "lenient"]), ("variants", "strict"), ("discretization", []),
        ("rules", {}), ("variants.strict", 3), ("variants.strict.n", "2"),
        ("variants.strict.n", True), ("discretization.sloc.class2_upper", None),
        ("format_version", DELETE), ("format_version", "2"), ("format_version", 1),
        ("variants.strict.budget", float("nan")), ("rules.0.confidence", float("inf")),
        ("rules.0.support", "x"), ("rules.0.consequent", DELETE), ("variants.strict.n", -1),
        ("variants.strict.n", 10**6), ("variants.lenient.budget", DELETE),
        ("training_meta", None), ("discretization.sloc.class1_upper", True),
    ])
    def test_missing_classifier_entry_is_schema_error(self, key, value, trained, synth_csvs,
                                                      tmp_path, capsys):
        """A classifier file entry that is absent (DELETE) or of the wrong type.

        NaN and infinity are written as the non-standard constants, which the
        reader refuses; both variants are checked whichever one is asked for.
        """
        broken = edited_classifier(trained, key, value, tmp_path)
        out = tmp_path / "pred.csv"
        assert run(["predict", "--classifier", broken, "--target", synth_csvs[0],
                    "--variant", "strict", "--out", out]) == 1
        assert repr(key.rpartition(".")[2]) in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("rules.0", 5), ("rules.0", ["SlocLowestThird"]), ("rules.0.antecedent", 5),
        ("rules.0.antecedent", "SlocLowestThird"), ("rules.0.antecedent", ["SlocLowestThird", 5]),
        ("rules.0.support", "x"), ("rules.0.antecedent", []),
    ])
    def test_malformed_rule_is_schema_error(self, key, value, trained, synth_csvs, tmp_path,
                                            capsys):
        """A rule that is not an object, or whose antecedent is not a list of strings."""
        broken = edited_classifier(trained, key, value, tmp_path)
        out = tmp_path / "pred.csv"
        assert run(["predict", "--classifier", broken, "--target", synth_csvs[0],
                    "--variant", "strict", "--out", out]) == 1
        assert "rule 0" in capsys.readouterr().err

    def test_unknown_antecedent_item_rejected(self, trained, synth_csvs, tmp_path):
        payload = json.loads(trained.read_text())
        payload["rules"][0]["antecedent"] = ["NoSuchItem"]
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps(payload))
        out = tmp_path / "pred.csv"
        assert run(["predict", "--classifier", broken, "--target", synth_csvs[0],
                    "--out", out]) == 1

    @pytest.mark.parametrize("text", ["[1, 2]", '"classifier"', "5", "null"])
    def test_non_object_classifier_file_is_schema_error(self, text, synth_csvs, tmp_path, capsys):
        broken = tmp_path / "broken.json"
        broken.write_text(text)
        out = tmp_path / "pred.csv"
        assert run(["predict", "--classifier", broken, "--target", synth_csvs[0],
                    "--out", out]) == 1
        assert "classifier file must be a JSON object" in capsys.readouterr().err

    def test_vocabulary_mismatch_rejected(self, trained, synth_csvs, tmp_path):
        payload = json.loads(trained.read_text())
        payload["vocabulary"] = payload["vocabulary"][:-2]
        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(payload))
        out = tmp_path / "pred.csv"
        assert run(["predict", "--classifier", stale, "--target", synth_csvs[0],
                    "--out", out]) == 1


class TestEvaluate:
    def test_within_mode_writes_reports(self, synth_csvs, tmp_path):
        out_dir = tmp_path / "within"
        assert run(["evaluate", synth_csvs[0], "--mode", "within", "--out-dir", out_dir,
                    "--jobs", "1", "--dump-predictions"] + FAST_FLAGS) == 0
        rows = read_csv_rows(out_dir / "report.csv")
        projects = {r[0] for r in rows[1:]}
        assert projects == {"proj0", "median", "mean"}
        doc = json.loads((out_dir / "report.json").read_text())
        assert doc["config"]["folds"] == 10
        assert len(doc["projects"]["proj0"]["strict"]["folds"]) == 10
        preds = read_csv_rows(out_dir / "predictions.csv", dicts=True)
        assert len(preds) == 2 * 500

    def test_cross_mode_reports_per_target(self, synth_csvs, tmp_path):
        out_dir = tmp_path / "cross"
        assert run(["evaluate", *synth_csvs, "--mode", "cross", "--out-dir", out_dir,
                    "--jobs", "1"] + FAST_FLAGS) == 0
        rows = read_csv_rows(out_dir / "report.csv")
        data_rows = [r for r in rows[1:] if r[0] not in ("median", "mean")]
        assert {(r[0], r[1]) for r in data_rows} == {
            ("proj0", "strict"), ("proj0", "lenient"),
            ("proj1", "strict"), ("proj1", "lenient"),
        }
        for name in ("report.json", "report.run.json"):
            json.loads((out_dir / name).read_text(), parse_constant=_reject_constant)

    @pytest.mark.parametrize("flags,message", [
        (["--budget-strict", "nan"], "budget_strict must be in [0, 1]"),
        (["--budget-strict", "inf"], "budget_strict must be in [0, 1]"),
        (["--budget-lenient", "1.5"], "budget_lenient must be in [0, 1]"),
        (["--budget-strict", "-1"], "budget_strict must be in [0, 1]"),
        (["--folds", "1"], "folds must be at least 2"),
    ])
    def test_bad_budget_or_folds_refused_before_any_work(self, flags, message, synth_csvs,
                                                         tmp_path, capsys):
        out_dir = tmp_path / "cross"
        assert run(["evaluate", *synth_csvs, "--mode", "cross", "--out-dir", out_dir,
                    "--jobs", "1"] + FAST_FLAGS + flags) == 1
        assert message in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--formats", "csv,xml"], "unknown report format 'xml'"),
        (["--smote-k", "0"], "k_neighbors must be at least 1"),
        (["--smote-over", "0"], "over- and under-sampling rates must be positive"),
        (["--smote-under", "0"], "over- and under-sampling rates must be positive"),
    ])
    def test_bad_formats_or_smote_refused_before_any_csv_is_read(self, flags, message, tmp_path,
                                                                 capsys):
        """The CSV does not exist, so an error that names the setting was
        raised before the CSV was opened."""
        out_dir = tmp_path / "out"
        assert run(["evaluate", tmp_path / "missing.csv", "--mode", "within",
                    "--out-dir", out_dir] + flags) == 1
        err = capsys.readouterr().err
        assert message in err and "missing.csv" not in err
        assert not out_dir.exists()

    def test_cross_mode_requires_two_projects(self, synth_csvs, tmp_path):
        assert run(["evaluate", synth_csvs[0], "--mode", "cross",
                    "--out-dir", tmp_path / "x"] + FAST_FLAGS) == 1

    def test_unknown_mode_is_usage_error(self, synth_csvs, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["evaluate", synth_csvs[0], "--mode", "sideways",
                 "--out-dir", tmp_path / "x"])
        assert err.value.code == 2

    def test_rerun_is_byte_identical(self, synth_csvs, tmp_path):
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            assert run(["evaluate", synth_csvs[0], "--mode", "within", "--out-dir", d,
                        "--jobs", "1"] + FAST_FLAGS) == 0
        for name in ("report.csv", "report.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    @pytest.mark.parametrize("mode", ["within", "cross"])
    def test_parallel_jobs_match_serial(self, mode, synth_csvs, tmp_path):
        dirs = [tmp_path / "serial", tmp_path / "parallel"]
        for d, jobs in zip(dirs, ("1", "2")):
            assert run(["evaluate", *synth_csvs, "--mode", mode, "--out-dir", d,
                        "--jobs", jobs, "--dump-predictions"] + FAST_FLAGS) == 0
        for name in ("report.csv", "predictions.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    @pytest.mark.parametrize("mode", ["within", "cross"])
    def test_work_items_are_project_names_and_results_hold_no_table(self, mode, synth_csvs, tmp_path,
                                                                    monkeypatch):
        """--jobs N hands the table to each worker once; what travels per
        project, an item and its result, is small beside one project's table."""
        calls = []
        worker = cli._eval_worker

        def recording_worker(name):
            result = worker(name)
            calls.append((name, result))
            return result

        monkeypatch.setattr(cli, "_eval_worker", recording_worker)
        assert run(["evaluate", *synth_csvs, "--mode", mode, "--out-dir", tmp_path,
                    "--jobs", "1"] + FAST_FLAGS) == 0
        assert [name for name, _ in calls] == ["proj0", "proj1"]
        alone = len(pickle.dumps(ds.build_unified(ds.read_csv(synth_csvs[0]))))
        for _, result in calls:
            assert len(pickle.dumps(result)) < alone / 4
        assert not cli._worker_state
