"""A tampered expected value or response must fail the run.

Each test runs one workload in-process for one measured second with a
single value or byte altered, and expects a failed check, ``correct:
false`` and exit code 1.
"""

import gc
import json
import os

import pytest

from bench import client, replay, serve, worker


@pytest.fixture(autouse=True)
def restore_process_state():
    """A serve run pins its process to one CPU and freezes its heap; undo
    both for the rest of the test session."""
    cpus = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, cpus)
    gc.unfreeze()


def run_worker(workload, capsys):
    code = worker.main(
        ["--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0"]
    )
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1]), out


def assert_failed(code, result, out, check):
    assert code == 1
    assert result["correct"] is False
    assert f"check FAILED: {check}" in out


def test_tampered_offline_decision_fails_serve_explicit(monkeypatch, capsys):
    real = serve.collect_offline_decisions

    def tampered(*args, **kwargs):
        decisions = real(*args, **kwargs)
        row = decisions[0].expected["decisions"][0]
        row["propagate"] = not row["propagate"]
        return decisions

    monkeypatch.setattr(serve, "collect_offline_decisions", tampered)
    assert_failed(
        *run_worker("serve-explicit", capsys),
        "capacity: first cycle equals the offline outcomes",
    )


def test_tampered_response_byte_fails_serve_explicit(monkeypatch, capsys):
    real = client.closed_loop

    def tampered(*args, **kwargs):
        exchange = real(*args, **kwargs)
        exchange.received[-1] ^= 0xFF  # the last response's last marginal
        return exchange

    monkeypatch.setattr(client, "closed_loop", tampered)
    code, result, out = run_worker("serve-explicit", capsys)
    assert_failed(code, result, out, "capacity: first cycle equals the offline outcomes")
    assert "check FAILED: capacity: every response is byte-equal" in out


def test_tampered_offline_stats_fail_serve_stateful(monkeypatch, capsys):
    real = serve._offline_tracker_stats

    def tampered(recording, limit):
        stats = real(recording, limit)
        stats["ifp_candidates"] += 1
        return stats

    monkeypatch.setattr(serve, "_offline_tracker_stats", tampered)
    assert_failed(
        *run_worker("serve-stateful", capsys),
        "capacity: shard tracker stats equal an offline replay",
    )


def test_tampered_scalar_reference_fails_replay_vector(monkeypatch, capsys):
    real = replay.mitos_config

    def tampered(params, **overrides):
        if overrides.get("engine") != "vector":
            params = replay.experiment_params(tau=0.1)
        return real(params, **overrides)

    monkeypatch.setattr(replay, "mitos_config", tampered)
    assert_failed(
        *run_worker("replay-vector", capsys),
        "every timed replay's stats equal the scalar reference",
    )
