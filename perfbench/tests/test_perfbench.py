"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_prints_every_named_metric_with_its_unit(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0.05",
                     "--trace", str(trace), "--size", "smoke"])
    out = capsys.readouterr().out
    result = _result_line(out)
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for metric in section:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert re.search(
            rf"^{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}$",
            out, re.MULTILINE,
        )
    if not trace:
        assert "failed_ratio" in out
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0


FAKE = ("R:nobody", "R:nothing", 1.0)


def _altered(workload) -> None:
    if isinstance(workload, workloads.DeltaIngest):
        workload.expected[0] = workload.expected[0] + [FAKE]
    elif FAKE not in workload.reference_matches:
        workload.reference_matches = workload.reference_matches + [FAKE]


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_operation_matches_reference_and_fails_when_it_is_altered(name, tmp_path):
    workload = workloads.WORKLOADS[name]("smoke")
    workload.setup(tmp_path / "inputs", seed=9)
    assert workload.reference_matches, "smoke inputs must produce matches"
    good = workload.operation()
    assert good.failed == 0 and good.attempted >= 1, good.errors
    _altered(workload)
    bad = workload.operation()
    assert bad.failed >= 1
    assert any("differ" in error for error in bad.errors)


def test_altered_reference_makes_the_command_fail(monkeypatch, capsys):
    # Set-up runs in a child process; alter the reference the parent got.
    original = workloads.WideSpill.operation

    def operation(self, *args, **kwargs):
        _altered(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(workloads.WideSpill, "operation", operation)
    code = run.main(["--workload", "wide-spill", "--seed", "2", "--seconds",
                     "0.05", "--size", "smoke"])
    result = _result_line(capsys.readouterr().out)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["success_ratio"]["value"] == 0.0


def test_product_block_count_is_checked_before_generating():
    with pytest.raises(ValueError, match="outside 1..1293"):
        workloads.products(2000, num_blocks=1400, zipf_exponent=1.2, seed=1)
    with pytest.raises(ValueError):
        workloads.products(10, num_blocks=0, zipf_exponent=1.2, seed=1)
    # The bound itself is reachable.
    entities = workloads.products(
        1400, num_blocks=workloads.MAX_PRODUCT_BLOCKS, zipf_exponent=0.3, seed=1
    )
    prefixes = {e.get("title")[:3] for e in entities}
    assert len(prefixes) == workloads.MAX_PRODUCT_BLOCKS


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert set(WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert unit.match(metric["unit"]) and 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert unit.match(metric["unit"])
