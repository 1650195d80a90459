import json

from bench import compare
from bench.common import load_spec


def test_clear_gain_is_improved():
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [110, 111, 109, 110, 112, 108, 110, 111, 109, 110]
    assert compare.verdict(parent, change, "higher", 0.1) == ("improved", 1.0)


def test_small_steady_move_is_unchanged():
    parent = [100, 101, 99, 100, 100]
    change = [98, 99, 97, 98, 98]
    outcome, won = compare.verdict(parent, change, "higher", 0.1)
    assert outcome == "unchanged"
    assert won == 0.0


def test_worse_beyond_the_bound_is_regressed():
    parent = [100, 101, 99, 100, 100]
    change = [120, 121, 119, 120, 120]
    # latency: lower is better, so 20% higher is a regression
    assert compare.verdict(parent, change, "lower", 0.1)[0] == "regressed"


def test_noise_wider_than_the_bound_is_unresolved():
    parent = [100, 70, 130, 90, 115]
    change = [95, 125, 75, 110, 88]
    assert compare.verdict(parent, change, "lower", 0.1)[0] == "unresolved"


def test_noisy_but_every_run_better_is_not_unresolved():
    parent = [100, 80, 120, 95, 110] * 2
    change = [60, 62, 64, 66, 68] * 2
    assert compare.verdict(parent, change, "lower", 0.1)[0] == "improved"
    barely = [79, 78.5, 79.5, 78, 79] * 2
    assert compare.verdict(parent, barely, "lower", 0.1)[0] == "unchanged"


def test_a_gain_over_fewer_than_ten_pairs_is_unresolved():
    parent = [100, 101, 99, 100, 102]
    change = [110, 111, 109, 110, 112]
    assert compare.verdict(parent, change, "higher", 0.1) == ("unresolved", 1.0)


def test_ties_count_for_neither_side():
    assert compare.verdict([5, 5, 5], [5, 5, 5], "lower", 0.1) == ("unchanged", 0.0)


def _record(workload, seed, metrics, failed=0, seconds=15):
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {name: {"value": value} for name, value in metrics.items()},
    }


def _write(directory, records):
    directory.mkdir()
    for i, record in enumerate(records):
        (directory / f"r{i}.json").write_text(json.dumps(record))


def test_cli_exits_nonzero_on_regression_or_more_failures(tmp_path, capsys):
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"]]
    base = {name: 100.0 for name in names}
    parent = [_record("replay-vector", s, base) for s in range(5)]
    _write(tmp_path / "a", parent)
    _write(tmp_path / "same", [_record("replay-vector", s, base) for s in range(5)])
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "same")]) == 0

    slower = dict(base, throughput_per_s=50.0)
    _write(tmp_path / "slow", [_record("replay-vector", s, slower) for s in range(5)])
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "slow")]) == 1

    _write(
        tmp_path / "failing",
        [_record("replay-vector", s, base, failed=1) for s in range(5)],
    )
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "failing")]) == 1
    assert "failed_share" in capsys.readouterr().out


def test_cli_refuses_records_of_different_lengths(tmp_path, capsys):
    base = {m["name"]: 100.0 for m in load_spec()["end_to_end"]}
    _write(tmp_path / "a", [_record("replay-vector", s, base) for s in range(5)])
    _write(
        tmp_path / "short",
        [_record("replay-vector", s, base, seconds=1) for s in range(5)],
    )
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "short")]) == 2
    assert "different seconds" in capsys.readouterr().err
