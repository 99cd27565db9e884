"""Regression tests for the CLI output writers and its usage errors.

``repro run --out deep/new/dir/result.txt`` (and the directory form)
must create missing parent directories instead of dying with
``FileNotFoundError``. A bad setting of ``repro run``, ``all``,
``serve`` or ``cache`` is answered ``error: <message>`` with exit
status 2, not a traceback.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cli import _write_into_dir, _write_into_file, build_parser, main
from repro.core.errors import ConfigurationError
from repro.experiments.common import ExperimentSettings


def _result(experiment: str = "table2") -> SimpleNamespace:
    return SimpleNamespace(experiment=experiment, text="hello world")


class TestOutputWriters:
    def test_write_into_file_creates_missing_parents(self, tmp_path):
        out = tmp_path / "a" / "b" / "c" / "result.txt"
        _write_into_file(_result(), out)
        assert out.read_text(encoding="utf-8") == "hello world\n"

    def test_write_into_dir_creates_missing_parents(self, tmp_path):
        out = tmp_path / "deep" / "results"
        _write_into_dir(_result("table6"), out)
        assert (out / "table6.txt").read_text(
            encoding="utf-8"
        ) == "hello world\n"

    def test_write_into_file_existing_dir_still_works(self, tmp_path):
        out = tmp_path / "result.txt"
        _write_into_file(_result(), out)
        assert out.is_file()


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8787
        assert args.workers is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "2", "--max-active", "4"]
        )
        assert args.port == 0
        assert args.workers == 2
        assert args.max_active == 4

    def test_serve_has_no_batch_window(self, capsys):
        # Cold simulations batch behind a running dispatch, not a timer.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--batch-window", "0.01"])
        assert "--batch-window" in capsys.readouterr().err


class TestConfigurationErrors:
    @pytest.mark.parametrize("argv,message", [
        (["run", "table2", "--chips", "1"], "need at least two chips"),
        (["run", "table2", "--workers", "0"], "workers must be > 0"),
        (["run", "table2", "--benchmarks", "nosuch"], "unknown benchmark"),
        (["all", "--warmup", "-1"], "warmup must be >= 0"),
        (["serve", "--window", "0"], "--window must be positive"),
        (["serve", "--window-count", "0"], "--window-count must be >= 1"),
    ])
    def test_bad_setting_exits_2(self, capsys, tmp_path, monkeypatch,
                                 argv, message):
        monkeypatch.chdir(tmp_path)  # a store, should one be made
        assert main(argv) == 2
        out, err = capsys.readouterr()
        # One line, no traceback.
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err and out == ""

    def test_bad_environment_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        assert main(["cache", "info"]) == 2
        assert capsys.readouterr().err == (
            "error: environment variable REPRO_WORKERS must be > 0, got 0\n"
        )

    def test_negative_warmup_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="warmup must be >= 0"):
            ExperimentSettings(warmup=-1)
