import json
import subprocess
import sys
from pathlib import Path

import pytest

from evofuzzy.cli import main
from evofuzzy.datagen import csv_dims, load_csv
from evofuzzy.evaluate import read_metrics


def run_cli(*args):
    return main(list(args))


class TestGen:
    def test_writes_sea_csv(self, tmp_path):
        out = tmp_path / "sea.csv"
        assert run_cli("gen", "sea", "--n", "500", "--seed", "1", "--out", str(out)) == 0
        assert csv_dims(out) == (3, 2)
        assert sum(1 for _ in load_csv(out)) == 500

    def test_writes_hyperplane_csv(self, tmp_path):
        out = tmp_path / "hyp.csv"
        code = run_cli(
            "gen", "hyperplane", "--n", "400", "--d", "5",
            "--drift-start", "200", "--out", str(out),
        )
        assert code == 0
        assert csv_dims(out) == (5, 2)

    def test_thresholds_that_are_not_numbers_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "sea", "--n", "10", "--thresholds", "4,x")
        assert exc.value.code == 2
        assert "argument --thresholds: invalid thresholds value: '4,x'" in capsys.readouterr().err

    def test_at_path_is_a_path(self, tmp_path, monkeypatch):
        """Only run reads @FILE argument files; gen writes to a path
        that starts with @."""
        monkeypatch.chdir(tmp_path)
        assert run_cli("gen", "sea", "--n", "3", "--out", "@x.csv") == 0
        assert sum(1 for _ in load_csv(tmp_path / "@x.csv")) == 3

    @pytest.mark.parametrize("args, message", [
        (["gen", "sea", "--minority", "1.5"], "minority_frac must be in (0, 1)"),
        (["gen", "hyperplane", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["run", "--gen", "sea", "--seed", "-3"], "seed must be >= 0, got -3"),
        (["gen", "sea", "--d", "5", "--drift-start", "3"], "sea streams take no --d, --drift-start"),
        (["gen", "hyperplane", "--thresholds", "4,7"], "hyperplane streams take no --thresholds"),
    ], ids=["minority", "gen-seed", "run-seed", "sea-foreign", "hyperplane-foreign"])
    def test_bad_stream_setting_is_config_error(self, capsys, args, message):
        assert run_cli(*args) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    def test_stdout_default(self, capsys):
        assert run_cli("gen", "sea", "--n", "3") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x1,x2,x3,class"
        assert len(lines) == 4


class TestRun:
    def test_holdout_on_generated_stream(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.jsonl"
        code = run_cli(
            "run", "--gen", "sea", "--n", "2000", "--stamps", "4",
            "--train", "250", "--test", "250", "--seed", "3",
            "--metrics", str(metrics_path),
        )
        assert code == 0
        records, summary = read_metrics(metrics_path)
        assert len(records) == 4
        assert "cr=" in capsys.readouterr().out

    def test_holdout_on_csv_file(self, tmp_path):
        data = tmp_path / "sea.csv"
        run_cli("gen", "sea", "--n", "1000", "--seed", "2", "--out", str(data))
        metrics_path = tmp_path / "m.jsonl"
        code = run_cli(
            "run", "--data", str(data), "--stamps", "2", "--train", "250",
            "--test", "250", "--metrics", str(metrics_path),
        )
        assert code == 0
        _, summary = read_metrics(metrics_path)
        assert 0.0 <= summary["cr"] <= 1.0

    def test_cv_mode(self, tmp_path):
        data = tmp_path / "sea.csv"
        run_cli("gen", "sea", "--n", "300", "--seed", "4", "--out", str(data))
        metrics_path = tmp_path / "m.jsonl"
        code = run_cli(
            "run", "--data", str(data), "--mode", "cv", "--folds", "3",
            "--chunk", "50", "--metrics", str(metrics_path),
        )
        assert code == 0
        records, _ = read_metrics(metrics_path)
        assert len(records) == 3

    def test_config_error_exit_code(self):
        assert run_cli("run", "--gen", "sea", "--n", "600", "--stamps", "1",
                       "--delta-rel", "-1") == 2

    @pytest.mark.parametrize("args", [
        ["--theta", "0.8"], ["--p", "0.4"], ["--alpha-warn", "0.01"], ["--alpha-drift", "0.002"],
        ["--al-conjunction"], ["--al-disjunction"],
    ], ids=lambda args: args[0])
    def test_flag_of_a_constant_exits_2(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--gen", "sea", "--n", "600", "--stamps", "1", *args)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(args)}" in capsys.readouterr().err

    def test_length_of_a_csv_stream_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "sea.csv"
        run_cli("gen", "sea", "--n", "600", "--out", str(data))
        assert run_cli("run", "--data", str(data), "--n", "600", "--stamps", "1") == 2
        assert "--n sets the length of a generated stream" in capsys.readouterr().err

    @pytest.mark.parametrize("folds", ["1", "0"])
    def test_fewer_than_two_folds_is_config_error(self, capsys, folds):
        code = run_cli("run", "--gen", "sea", "--n", "2000", "--mode", "cv", "--folds", folds)
        assert code == 2
        assert f"folds must be >= 2, got {folds}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--stamps", "--train"])
    def test_nonpositive_holdout_size_is_config_error(self, capsys, flag):
        assert run_cli("run", "--gen", "sea", "--n", "1000", flag, "0") == 2
        assert "holdout needs positive stamps and block sizes" in capsys.readouterr().err

    def test_data_error_exit_code(self, tmp_path):
        assert run_cli("run", "--data", str(tmp_path / "missing.csv")) == 3

    def test_short_generated_hyperplane_run(self, tmp_path, capsys):
        """The drift start defaults to a third of the stream, so a stream
        shorter than the default one runs."""
        assert run_cli("run", "--gen", "hyperplane", "--n", "20000", "--stamps", "2") == 0
        assert "cr=" in capsys.readouterr().out
        out = tmp_path / "hyp.csv"
        assert run_cli("gen", "hyperplane", "--n", "2000", "--out", str(out)) == 0
        assert sum(1 for _ in load_csv(out)) == 2000

    def test_one_class_csv_is_data_error(self, tmp_path, capsys):
        data = tmp_path / "one.csv"
        data.write_text("x1,x2,class\n0.5,1.5,1\n2.0,3.0,1\n")
        assert run_cli("run", "--data", str(data), "--stamps", "1", "--train", "1",
                       "--test", "1") == 3
        assert f"data error: {data}: every label is 1" in capsys.readouterr().err

    def test_csv_past_the_feature_bound_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        header = ",".join(f"x{i + 1}" for i in range(65))
        data.write_text(f"{header},class\n" + "".join(f"{'0.5,' * 65}{k % 2 + 1}\n"
                                                      for k in range(4)))
        assert run_cli("run", "--data", str(data), "--stamps", "1", "--train", "2",
                       "--test", "2") == 2
        assert "config error: n_features must be <= 64" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_csv_value_is_data_error(self, tmp_path, capsys, bad):
        data = tmp_path / "sea.csv"
        run_cli("gen", "sea", "--n", "1000", "--seed", "2", "--out", str(data))
        lines = data.read_text().splitlines()
        fields = lines[100].split(",")
        fields[1] = bad
        lines[100] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "run", "--data", str(data), "--stamps", "2", "--train", "250",
            "--test", "250",
        )
        assert code == 3
        assert f"{data}:101:" in capsys.readouterr().err

    def test_overflowing_csv_value_is_data_error(self, tmp_path, capsys):
        # finite, so load_csv accepts it; the running statistics overflow
        data = tmp_path / "sea.csv"
        run_cli("gen", "sea", "--n", "1000", "--seed", "2", "--out", str(data))
        lines = data.read_text().splitlines()
        fields = lines[100].split(",")
        fields[0] = "1e200"
        lines[100] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "run", "--data", str(data), "--stamps", "2", "--train", "250",
            "--test", "250",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "overflow" in err
        assert "train block of stamp 0" in err and "row 99 of the chunk" in err

    def test_overflowing_test_value_is_data_error(self, tmp_path, capsys):
        # line 5402 is a test row (stamp 10, row 150): the training path
        # never sees it, and scoring it overflows the distances
        data = tmp_path / "sea.csv"
        run_cli("gen", "sea", "--n", "20000", "--seed", "1", "--out", str(data))
        lines = data.read_text().splitlines()
        fields = lines[5401].split(",")
        fields[0] = "1e200"
        lines[5401] = ",".join(fields)
        data.write_text("\n".join(lines) + "\n")
        code = run_cli(
            "run", "--data", str(data), "--stamps", "40", "--train", "250",
            "--test", "250",
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "test block of stamp 10" in err and "row 150 of the block" in err

    def test_exhausted_stream_is_data_error(self):
        assert (
            run_cli("run", "--gen", "sea", "--n", "400", "--stamps", "2",
                    "--train", "250", "--test", "250")
            == 3
        )

    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.args"
        cfg.write_text("--stamps=2\n--train=200\n--test=100\n--n=600\n")
        metrics_path = tmp_path / "m.jsonl"
        code = run_cli(
            "run", f"@{cfg}", "--gen", "sea", "--seed", "5", "--metrics", str(metrics_path),
        )
        assert code == 0
        records, _ = read_metrics(metrics_path)
        assert len(records) == 2

    def test_flags_override_config_file(self, tmp_path):
        """A later argument wins, so a flag after the file beats it and one
        before it does not: 9 stamps of 300 exhaust 600 samples."""
        cfg = tmp_path / "run.args"
        cfg.write_text("--stamps=9\n--train=200\n--test=100\n--n=600\n")
        metrics_path = tmp_path / "m.jsonl"
        code = run_cli(
            "run", "--gen", "sea", f"@{cfg}", "--stamps", "2", "--metrics", str(metrics_path),
        )
        assert code == 0
        records, _ = read_metrics(metrics_path)
        assert len(records) == 2
        assert run_cli("run", "--gen", "sea", "--stamps", "2", f"@{cfg}") == 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.args"
        cfg.write_text("--bogus-knob=1\n")
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--gen", "sea", f"@{cfg}")
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus-knob=1" in capsys.readouterr().err

    @pytest.mark.parametrize("line, args, message", [
        # a fresh learner's first value overflows only with its second
        (2, ["--stamps", "2"],
         "train block of stamp 0 (samples 0-249): row 0 of the chunk: feature values overflow"),
        (602, ["--stamps", "2"],
         "train block of stamp 1 (samples 0-249): row 100 of the chunk: feature values overflow"),
        (802, ["--stamps", "2"],
         "test block of stamp 1 (samples 0-249): row 50 of the block scores non-finite"),
        # fold 0 trains on bins 1 and 2, samples 334-999; sample 450 is its row 116
        (452, ["--mode", "cv", "--folds", "3", "--chunk", "100"],
         "train bins of fold 0 (samples 100-199): row 16 of the chunk: feature values overflow"),
    ], ids=["first", "train", "test", "cv-train"])
    def test_bad_value_names_its_csv_line(self, tmp_path, capsys, line, args, message):
        data = tmp_path / "sea.csv"
        run_cli("gen", "sea", "--n", "1000", "--seed", "2", "--out", str(data))
        lines = data.read_text().splitlines()
        lines[line - 1] = "1e200," + lines[line - 1].split(",", 1)[1]
        data.write_text("\n".join(lines) + "\n")
        assert run_cli("run", "--data", str(data), *args) == 3
        assert f"data error: {data}:{line}: {message}" in capsys.readouterr().err


def run_records(*args) -> list:
    """The chunk records of a CLI run, rt left out; the last arg is the
    metrics path."""
    assert run_cli(*args) == 0
    records, _ = read_metrics(args[-1])
    return [{k: v for k, v in rec.items() if k != "rt"} for rec in records]


class TestConfigFile:
    """An argument @FILE stands for the arguments in FILE, one per line,
    read in its place and checked as the command line's own."""

    @pytest.fixture
    def csv(self, tmp_path):
        path = tmp_path / "h.csv"
        run_cli("gen", "hyperplane", "--n", "1200", "--drift-start", "600", "--seed", "3",
                "--out", str(path))
        return path

    def run_with_file(self, tmp_path, *lines, args=("--gen", "sea", "--n", "600")):
        """run with an argument file of lines, then args; returns the exit code."""
        cfg = tmp_path / "run.args"
        cfg.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(SystemExit) as exc:
            run_cli("run", f"@{cfg}", *args, "--stamps", "1", "--train", "200", "--test", "100")
        return exc.value.code

    def test_settings_from_a_file_equal_the_same_flags(self, tmp_path, csv):
        flags = [
            "--mode=cv", "--folds=3", "--chunk=100", "--base=multivariate", "--delta-rel=0.05",
            "--ofs-b=2", "--seed=3",
        ]
        cfg = tmp_path / "run.args"
        cfg.write_text("\n".join(flags) + "\n")
        from_file = run_records("run", f"@{cfg}", "--data", str(csv),
                                "--metrics", str(tmp_path / "a.jsonl"))
        from_flags = run_records("run", "--data", str(csv), *flags,
                                 "--metrics", str(tmp_path / "b.jsonl"))
        assert len(from_file) == 3
        assert from_file == from_flags
        default = run_records("run", "--data", str(csv), "--mode", "cv", "--folds", "3",
                              "--chunk", "100", "--metrics", str(tmp_path / "c.jsonl"))
        assert default != from_flags

    @pytest.mark.parametrize("line, message", [
        ("--mode=holdot", "argument --mode: invalid choice: 'holdot'"),
        ("--base=multi", "argument --base: invalid choice: 'multi'"),
        ("--delta-rel=[0.8]", "argument --delta-rel: invalid float value: '[0.8]'"),
        ("--ofs-b=2.5", "argument --ofs-b: invalid int value: '2.5'"),
    ], ids=["mode", "base", "delta_rel", "ofs_b"])
    def test_bad_value_exits_2_as_the_flag_would(self, tmp_path, capsys, line, message):
        assert self.run_with_file(tmp_path, line) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "--theta=0.7", "--p=0.5", "--alpha-warn=0.005", "--alpha-drift=0.001",
        "--al-conjunction",
    ], ids=["theta", "p", "alpha_warn", "alpha_drift", "al_conjunction"])
    def test_key_of_a_constant_exits_2(self, tmp_path, capsys, line):
        """A file that still sets what is now a constant, even to its value."""
        assert self.run_with_file(tmp_path, line) == 2
        assert f"unrecognized arguments: {line}" in capsys.readouterr().err

    @pytest.mark.parametrize("in_file, on_line", [("data", "gen"), ("gen", "data")])
    def test_source_in_the_file_conflicts_with_the_other_on_the_command_line(
        self, tmp_path, capsys, csv, in_file, on_line
    ):
        source = {"data": str(csv), "gen": "sea"}
        code = self.run_with_file(tmp_path, f"--{in_file}={source[in_file]}",
                                  args=(f"--{on_line}", source[on_line]))
        assert code == 2
        assert "not allowed with argument" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", f"@{tmp_path / 'none.args'}", "--gen", "sea")
        assert exc.value.code == 2
        assert "No such file or directory" in capsys.readouterr().err

    @pytest.mark.parametrize("lines, unrecognized", [
        (["--ofs-b=2", "", "--seed=3"], "unrecognized arguments: \n"),
        (["--ofs-b 2"], "unrecognized arguments: --ofs-b 2\n"),
    ], ids=["blank-line", "flag-and-value-on-one-line"])
    def test_a_line_is_one_argument(self, tmp_path, capsys, lines, unrecognized):
        """A blank line is an empty argument, and a flag and its value
        on one line are one argument; neither is a run argument."""
        assert self.run_with_file(tmp_path, *lines) == 2
        assert unrecognized in capsys.readouterr().err


class TestReport:
    def test_summary_and_table(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.jsonl"
        run_cli(
            "run", "--gen", "sea", "--n", "1000", "--stamps", "2",
            "--train", "250", "--test", "250", "--metrics", str(metrics_path),
        )
        capsys.readouterr()
        assert run_cli("report", "--metrics", str(metrics_path)) == 0
        table = capsys.readouterr().out
        assert "summary:" in table
        assert run_cli("report", "--metrics", str(metrics_path), "--summary") == 0
        summary = capsys.readouterr().out
        assert "cr:" in summary

    def test_missing_metrics_file(self, tmp_path):
        assert run_cli("report", "--metrics", str(tmp_path / "nope.jsonl")) == 3

    @pytest.mark.parametrize("line, fault", [
        ("[1, 2]", "a record must be a JSON object, not list"),
        ('{"record": "chunk", "cr": 0.5, "fr": 1, "bc": 1, "np": 9, "ts": 3}',
         "chunk record lacks n"),
        ('{"record": "chunk", "n": 0, "cr": "x", "fr": 1, "bc": 1, "np": 9, "ts": 3}',
         'chunk record has cr "x", which is not a number'),
        ('{"record": "chunk", "n": 0, "cr": null, "fr": 1, "bc": 1, "np": 9, "ts": 3}',
         "chunk record has cr null, which is not a number"),
        ('{"record": "chunk", "n": 0, "cr": 0.5, "fr": 1, "bc": 1, "np": 9, "ts": 2.5}',
         "chunk record has ts 2.5, which is not an int"),
    ], ids=["not-an-object", "chunk-without-n", "cr-a-string", "cr-null", "ts-a-float"])
    def test_malformed_record_is_data_error_naming_its_line(self, tmp_path, capsys, line, fault):
        metrics_path = tmp_path / "m.jsonl"
        run_cli(
            "run", "--gen", "sea", "--n", "1000", "--stamps", "2",
            "--train", "250", "--test", "250", "--metrics", str(metrics_path),
        )
        lines = metrics_path.read_text().splitlines()
        lines.insert(1, line)
        metrics_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("report", "--metrics", str(metrics_path)) == 3
        assert capsys.readouterr().err == f"data error: {metrics_path}:2: {fault}\n"


class TestSameMetrics:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_metrics.py"

    def compare(self, a, b):
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), str(a), str(b)], capture_output=True, text=True
        )

    def test_rt_is_ignored_and_other_fields_are_not(self, tmp_path):
        recs = [{"record": "chunk", "n": 0, "cr": 0.5, "rt": 1.0}, {"record": "summary", "rt": 2.0}]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text("".join(json.dumps(r) + "\n" for r in recs))
        recs[0]["rt"], recs[1]["rt"] = 9.0, 9.5
        b.write_text("".join(json.dumps(r) + "\n" for r in recs))
        assert self.compare(a, b).returncode == 0
        recs[1]["cr"] = 0.7
        b.write_text("".join(json.dumps(r) + "\n" for r in recs))
        out = self.compare(a, b)
        assert out.returncode == 1
        assert "record 2" in out.stdout
        b.write_text(json.dumps(recs[0]) + "\n")
        assert self.compare(a, b).returncode == 1

    def test_directories_compare_file_by_file(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.mkdir()
        b.mkdir()
        for name in ("x.jsonl", "y.jsonl"):
            (a / name).write_text('{"record": "summary", "cr": 0.5, "rt": 1.0}\n')
            (b / name).write_text('{"record": "summary", "cr": 0.5, "rt": 3.0}\n')
        assert self.compare(a, b).returncode == 0
        (b / "y.jsonl").write_text('{"record": "summary", "cr": 0.6, "rt": 1.0}\n')
        out = self.compare(a, b)
        assert out.returncode == 1 and "y.jsonl" in out.stdout and "x.jsonl: 1 records" in out.stdout
        (b / "y.jsonl").unlink()
        out = self.compare(a, b)
        assert out.returncode == 1 and "y.jsonl: missing" in out.stdout
        (a / "y.jsonl").unlink()
        (b / "z.jsonl").write_text('{"record": "summary", "cr": 0.5, "rt": 1.0}\n')
        out = self.compare(a, b)
        assert out.returncode == 1 and "z.jsonl: not in" in out.stdout
        for path in (*a.iterdir(), *b.iterdir()):
            path.unlink()
        out = self.compare(a, b)
        assert out.returncode == 1 and "no *.jsonl files" in out.stdout
