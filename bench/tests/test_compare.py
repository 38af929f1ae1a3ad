import json

import compare
from record import load_runsets, load_spec


def test_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    assert compare.verdict(base, base, "higher", 0.1) == "unchanged"
    assert compare.verdict(base, [v * 0.8 for v in base], "higher", 0.1) == "worse"
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "better"
    assert compare.verdict(base, [v * 1.05 for v in base], "higher", 0.1) == "better"
    # A gain inside the parent's own spread is no gain.
    assert compare.verdict(base, [v + 0.2 for v in base], "higher", 0.1) == "unchanged"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0] * 2
    assert compare.verdict(noisy, noisy, "higher", 0.1) == "unresolved"
    assert compare.verdict(noisy, [50.0] * 10, "higher", 0.1) == "unresolved"
    assert compare.verdict(noisy, [200.0] * 10, "higher", 0.1) == "better"


def test_fewer_than_nine_in_ten_wins_is_not_a_gain():
    parent = [100.0] * 10
    change = [103.0] * 8 + [99.0] * 2
    assert compare.verdict(parent, change, "higher", 0.1) == "unchanged"


def test_fewer_than_ten_pairs_is_not_a_gain():
    assert compare.verdict([100.0] * 9, [120.0] * 9, "higher", 0.1) == "unchanged"
    assert compare.verdict([100.0], [101.0], "lower", 0.1) == "unchanged"


def _runset(ops_values, sim=1000.0):
    def metric(values):
        values = [float(v) for v in values]
        return {"clock": "host", "unit": "1/s", "median": sorted(values)[len(values) // 2],
                "iqr": 0.0, "n": len(values), "values": values}

    record = {
        "op": "points", "correct": True, "attempted": 1, "failed": 0,
        "metrics": {
            "setup_s": metric([1.0, 1.0]),
            "ops_per_s": metric(ops_values),
            "peak_rss_mb": metric([50.0]),
            "sim_cycles": metric([sim]),
        },
        "sim": {"paper_err_pct": 11.1},
    }
    return {"workloads": {"table2-sweep": record}}


def test_main_exits_one_on_worse(tmp_path, capsys):
    parent = tmp_path / "parent.json"
    worse = tmp_path / "worse.json"
    bundle = tmp_path / "bundle.json"
    parent.write_text(json.dumps(_runset([10.0, 10.1, 9.9])))
    worse.write_text(json.dumps(_runset([5.0, 5.1, 4.9])))
    bundle.write_text(json.dumps({"runsets": [_runset([10.0, 10.1]), _runset([10.05, 9.95])]}))
    assert compare.main([str(parent), str(parent)]) == 0
    assert compare.main([str(parent), str(worse)]) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([f"{bundle}#0", f"{bundle}#1"]) == 0
    assert len(load_runsets(str(bundle))) == 2


def test_moved_simulated_result_is_listed(tmp_path, capsys):
    parent = _runset([10.0, 10.0])
    change = _runset([10.0, 10.0])
    change["workloads"]["table2-sweep"]["sim"]["paper_err_pct"] = 12.0
    counts = compare.compare([parent], [change], load_spec())
    assert "paper_err_pct moved: 11.1 -> 12.0" in capsys.readouterr().out
    assert not counts.get("worse")
