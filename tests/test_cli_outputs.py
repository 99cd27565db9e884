"""Regression tests for the CLI output writers.

``repro run --out deep/new/dir/result.txt`` (and the directory form)
must create missing parent directories instead of dying with
``FileNotFoundError``.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.cli import _write_into_dir, _write_into_file, build_parser


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
