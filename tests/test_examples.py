"""Smoke tests: every example script runs end to end (tiny parameters)."""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES / name
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_complete():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "olap_workload.py",
        "histogram_feedback.py",
        "sensitivity_tuning.py",
    } <= names


def test_quickstart_runs(capsys):
    load_example("quickstart.py").main()
    out = capsys.readouterr().out
    assert "JITS enabled" in out
    assert "sampled tables" in out


def test_histogram_feedback_runs(capsys):
    load_example("histogram_feedback.py")
    module = load_example("histogram_feedback.py")
    module.figure2()
    module.table1()
    out = capsys.readouterr().out
    assert "maximum-entropy" in out
    assert "statlist" in out


def test_olap_workload_runs(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SCALE", "0.001")
    monkeypatch.setenv("REPRO_STATEMENTS", "30")
    load_example("olap_workload.py").main()
    out = capsys.readouterr().out
    assert "plan cost" in out
    assert "jits" in out


def test_sensitivity_tuning_runs(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SCALE", "0.001")
    monkeypatch.setenv("REPRO_STATEMENTS", "20")
    load_example("sensitivity_tuning.py").main()
    out = capsys.readouterr().out
    assert "s_max" in out
    assert "1.0" in out
