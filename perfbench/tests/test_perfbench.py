"""The benchmark's own checks, on the smoke-size inputs.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
from pathlib import Path

import pytest

import gauge
import harness
import workloads
from tgcsa import BitSequence, TgcsaIndex, TimeSemantics, build_index, serialize_index
from space import breakdown
from tracer import Tracer

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def run(capsys, tmp_path, *extra):
    code = harness.main(["--size", "smoke", "--seconds", "0", "--out", str(tmp_path),
                         *extra])
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]) if code == 0 else None


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_is_correct(capsys, tmp_path, name, trace):
    code, res = run(capsys, tmp_path, "--workload", name, "--trace", trace)
    assert code == 0
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    spec = json.loads(BENCHMARK_JSON.read_text())
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    # smoke batches are too small for a 99th percentile
    want = {m["name"] for m in listed if not m["name"].endswith("_p99_us")}
    assert want <= set(res["metrics"])
    for m in listed:
        if m["name"] in res["metrics"]:
            assert res["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_matches_the_harness():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_corrupted_answers_count_as_failed(capsys, tmp_path, monkeypatch):
    real = TgcsaIndex.direct_neighbors
    monkeypatch.setattr(TgcsaIndex, "direct_neighbors",
                        lambda self, u, sem: real(self, u, sem) + [0])

    def broken(self, *args):
        raise ValueError("injected")
    monkeypatch.setattr(TgcsaIndex, "active_edge", broken)
    code, res = run(capsys, tmp_path, "--workload", "ba-query")
    assert code == 0 and res["correct"]
    counts = workloads.SMOKE_COUNTS
    assert res["failed"] == counts["direct"] + counts["edge"]
    record = json.loads((tmp_path / "ba-query-s1-smoke-t0.json").read_text())
    assert record["per_class"]["direct"]["failed"] == counts["direct"]
    assert record["per_class"]["edge"]["failed"] == counts["edge"]
    assert record["per_class"]["reverse"]["failed"] == 0


def test_gauge_scales_by_the_kernel_on_either_side(monkeypatch):
    g = gauge.Gauge()
    ticks = iter([0.003, 0.001])
    monkeypatch.setattr(g, "tick", lambda: next(ticks))
    out, wall, scaled = g.timed(lambda x: x + 1, 6)
    assert out == 7
    assert scaled == pytest.approx(wall * gauge.REF_S / 0.002)


def test_record_keeps_every_time_unscaled(capsys, tmp_path):
    code, _ = run(capsys, tmp_path, "--workload", "icomm-interval")
    assert code == 0
    record = json.loads((tmp_path / "icomm-interval-s5-smoke-t0.json").read_text())
    assert set(record["wall_clock"]) == set(record["metrics"]) - {"index_bpc"}
    assert record["gauge"]["samples"] > 0


def test_traced_counts_repeat_exactly(capsys, tmp_path):
    counts = []
    for _ in range(2):
        code, res = run(capsys, tmp_path, "--workload", "icomm-interval", "--trace", "1")
        assert code == 0 and res["correct"]
        counts.append({k: v["value"] for k, v in res["metrics"].items()
                       if k.startswith(("query.", "space.")) and v["unit"] not in ("s", "s/query")})
    assert counts[0] == counts[1]
    assert counts[0]["query.snapshot.psi_range_entries"] > 0


def test_tracer_removes_its_wrappers():
    w = workloads.WORKLOADS["ba-query"]
    cs = w.contacts(1, "smoke")
    idx = build_index(cs, codec=w.codec)
    before = BitSequence.__dict__["rank1"]
    with Tracer(idx) as tr:
        assert BitSequence.__dict__["rank1"] is not before
        tr.run(0, "direct", idx.direct_neighbors,
               (int(cs.u[0]), TimeSemantics.instant(int(cs.ts[0]))))
    assert BitSequence.__dict__["rank1"] is before
    assert tr.counts["direct", "rank1_calls.D"] > 0


@pytest.mark.parametrize("name", ["ba-query", "icomm-interval"])
def test_space_breakdown_covers_the_image(name):
    w = workloads.WORKLOADS[name]
    cs = w.contacts(w.default_seed, "smoke")
    idx = build_index(cs, codec=w.codec)
    img = serialize_index(idx)
    parts = breakdown(img, idx.size_bits())
    total = sum(v for k, v in parts.items() if k != "space.unaccounted_bpc")
    assert total == pytest.approx(8 * len(img) / len(cs))
    assert parts["space.unaccounted_bpc"] > 0


def test_changed_inputs_stop_the_run(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "pinned",
                        lambda *a: {"contacts": "0" * 64, "queries": "0" * 64})
    code, _ = run(capsys, tmp_path, "--workload", "ba-query")
    assert code == 2


def test_smoke_inputs_match_their_pins():
    table = json.loads(workloads.DIGESTS.read_text())["smoke"]
    for name, per_seed in table.items():
        w = workloads.WORKLOADS[name]
        for seed, want in per_seed.items():
            cs = w.contacts(int(seed), "smoke")
            assert workloads.digest(cs, workloads.make_batch(w, cs, int(seed), "smoke")) == want
