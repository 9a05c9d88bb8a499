"""Smoke test of the benchmark's workloads against the library: each
workload's set-up runs at seed 1, and every span its self-test counts names
a function that exists, so a renamed or removed function fails here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["noderep_owner", "subgraph_owner", "ownership"])
def test_setup_and_expected_calls(name, tmp_path):
    workload = load_workloads().WORKLOADS[name](1, tmp_path)
    calls = workload.expected_calls(workload.setup())
    assert calls
    for span, count in calls.items():
        module, *attrs, counter = span.split(".")
        assert counter == "calls" and isinstance(count, int) and count >= 0, span
        target = importlib.import_module(f"linkmark.{module}")
        for attr in attrs:
            target = getattr(target, attr)
        assert callable(target), span
