"""``BENCHMARK.json`` is well formed and ``bench/run.py`` prints exactly
the metrics it declares."""

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench import run
from bench.common import ROOT, load_spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_spec_is_well_formed():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["bench"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_equal_the_declared_ones(trace, monkeypatch, capsys):
    # a one-second run: the spec's run length is the only one accepted
    spec = dict(load_spec(), run_seconds=1)
    monkeypatch.setattr(run, "load_spec", lambda: spec)
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    code = run.main(["--workload", "replay-vector", "--seed", "1", "--trace", trace])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    printed = {line.split()[1] for line in lines[:-1] if len(line.split()) >= 3}
    assert {m["name"] for m in declared} <= printed


def test_only_the_spec_run_length_is_accepted(capsys):
    seconds = load_spec()["run_seconds"]
    with pytest.raises(SystemExit) as refused:
        run.main(["--workload", "replay-vector", "--seconds", str(seconds + 1)])
    assert refused.value.code == 2
    assert f"--seconds must be run_seconds ({seconds})" in capsys.readouterr().err


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "replay-vector"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert child.returncode != 0
    last = (child.stdout.strip().splitlines() or [""])[-1]
    assert '"correct"' not in last
