"""One benchmark run: inputs, rounds, answer checks, metrics and the record.

A run generates the contacts (set-up, timed several times), then repeats
whole rounds until the requested seconds have passed. In the end-to-end
mode a round builds the index, serializes it, loads the image and
issues the query batch against the loaded index with untraced
wall-clock timing, each time scaled to a reference speed by the speed
gauge (gauge.py). In the traced mode a round runs the build stage by
stage, reads the image's space breakdown, and issues the batch once
untraced and once under tracer.Tracer. Every answer is compared with
expect.Truth; a wrong answer or an exception is a failed operation of
its class.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import workloads
from expect import Truth
from gauge import REF_S, Gauge
from space import COMPONENTS, breakdown
from tgcsa import (build_index, deserialize_index, reconstruct_contact,
                   serialize_index, verify_core)
from tracer import LAYERS, Tracer, staged_build

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

# The end-to-end metrics a run prints. The others in recorded_units()
# are measured in every run too and kept in the record; they spread too
# widely from run to run for a bound (README.md, "Steadiness").
END_TO_END = {"setup_s": "s", "index_bpc": "bits/contact", "direct_p50_us": "us",
              "edge_p50_us": "us", "activated_p50_ms": "ms"}
T_PSI = 64
LOAD_REPS = 20
RECONSTRUCT_SAMPLE = 200
P99_MIN_SAMPLES = 1000   # leaves at least ten samples beyond the 99th percentile
GAUGE_EVERY_S = 0.05     # query time between two speed-gauge samples
_COUNTERS = (["psi_access_calls", "psi_range_entries", "getunmap_calls",
              "getmap_floor_calls"]
             + [f"{op}_calls.{bm}" for op in ("rank1", "select1")
                for bm in ("D", "B", "other")])


def recorded_units() -> dict:
    """Name -> unit of every metric an untraced run records."""
    units = {"setup_s": "s", "build_s": "s", "load_s": "s",
             "index_bpc": "bits/contact", "queries_per_s": "queries/s"}
    for c in workloads.CLASSES:
        unit = _latency_unit(c)
        units[f"{c}_p50_{unit}"] = units[f"{c}_p99_{unit}"] = unit
    return units


def _latency_unit(cls: str) -> str:
    return "us" if cls in ("direct", "reverse", "edge") else "ms"


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric."""
    units = dict.fromkeys(("corpus.alphabet_s", "corpus.sid_s", "sacsa.rotation_s",
                           "sacsa.psi_s", "sacsa.d_s", "psienc.encode_s",
                           "indexfile.serialize_s", "indexfile.deserialize_s"), "s")
    for comp in COMPONENTS + ("framing", "unaccounted"):
        units[f"space.{comp}_bpc"] = "bits/contact"
    for c in workloads.CLASSES:
        for key in _COUNTERS:
            units[f"query.{c}.{key}"] = ("entries/query" if key == "psi_range_entries"
                                         else "calls/query")
        units[f"query.{c}.decoded_per_result"] = "entries/result"
        for layer in LAYERS:
            units[f"{layer}.{c}.self_s"] = "s/query"
        units[f"query.{c}.p50_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def _differs(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is not type(b) or str(a) != str(b)
    return a != b


class Bench:
    """State of one run: inputs, expected answers, and what went wrong."""

    def __init__(self, workload: str, seed: int, size: str):
        self.w = workloads.WORKLOADS[workload]
        self.seed = seed
        self.size = size
        self.problems = []
        self.gauge = Gauge()
        self._setup_times, self._setup_walls, self._setup_digests = [], [], set()
        cs = self.cs = self.set_up((self.w.setup_reps + 1) // 2)
        self.batch = workloads.make_batch(self.w, cs, seed, size)
        self.digest = workloads.digest(cs, self.batch)
        truth = Truth(cs)
        self.expected = [truth.answer(cls, args) for cls, args in self.batch]
        self.attempted = defaultdict(int)
        self.failed = defaultdict(int)

    def set_up(self, reps: int):
        """Generate the contacts reps times, timing each; returns the last.
        end_to_end runs half the repeats before its rounds and half after,
        so that setup_s does not hang on the machine's speed at one moment."""
        for _ in range(reps):
            cs, wall, scaled = self.gauge.timed(self.w.contacts, self.seed, self.size)
            self._setup_walls.append(wall)
            self._setup_times.append(scaled)
            self._setup_digests.add(workloads.digest(cs, [])["contacts"])
        if len(self._setup_digests) > 1:
            self.problems.append("the generator gave different contacts for one seed")
        return cs

    def run_batch(self, idx, ops=None, tracer=None, gauge=None):
        """Issue the batch (or the queries numbered in ops) in order, each
        call after the previous returned. Returns (answers, seconds per
        query, wall seconds). With a gauge, the second item is the pair
        (wall seconds per query, scaled seconds per query): the gauge
        samples the speed every GAUGE_EVERY_S of query time, and each
        query is scaled by the samples on either side of it."""
        ops = range(len(self.batch)) if ops is None else ops
        calls = {cls: getattr(idx, m) for cls, m in workloads.METHODS.items()}
        answers, lat, scaled = [], [], []
        perf = time.perf_counter
        k_prev = gauge.tick() if gauge else None
        due = perf() + GAUGE_EVERY_S
        start = perf()
        for op in ops:
            cls, args = self.batch[op]
            t0 = perf()
            try:
                ans = (calls[cls](*args) if tracer is None
                       else tracer.run(op, cls, calls[cls], args))
            except Exception as exc:  # counted as a failed operation below
                ans = exc
            t1 = perf()
            lat.append(t1 - t0)
            answers.append(ans)
            if gauge and t1 >= due:
                k = gauge.tick()
                f = gauge.scale(k_prev, k)
                scaled += [t * f for t in lat[len(scaled):]]
                k_prev, due = k, perf() + GAUGE_EVERY_S
        wall = perf() - start
        if gauge:
            if len(scaled) < len(lat):
                f = gauge.scale(k_prev, gauge.tick())
                scaled += [t * f for t in lat[len(scaled):]]
            lat = (lat, scaled)
        for op, ans in zip(ops, answers):
            cls = self.batch[op][0]
            self.attempted[cls] += 1
            if isinstance(ans, Exception) or ans != self.expected[op]:
                self.failed[cls] += 1
        return answers, lat, wall

    def check_properties(self, idx, img: bytes):
        """Image round trip, first-section reconstruction, core checks."""
        if serialize_index(deserialize_index(img)) != img:
            self.problems.append("serialize(deserialize(img)) differs from img")
        rng = np.random.default_rng([self.seed, 0x5C])
        for q in rng.integers(1, idx.n + 1, size=min(RECONSTRUCT_SAMPLE, idx.n)):
            got = tuple(reconstruct_contact(idx, int(q)))
            if got != tuple(self.cs[int(q) - 1]):
                self.problems.append(f"position {q} reconstructs {got}")
                break
        if self.w.verify_core:
            self.problems += verify_core(idx)

    @staticmethod
    def _rounds(seconds: float, body) -> int:
        """Run whole rounds while another one of the average length still
        ends within seconds; at least one."""
        start = time.perf_counter()
        rounds = 0
        while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds <= seconds:
            body(rounds)
            rounds += 1
        return rounds

    def end_to_end(self, seconds: float):
        """Returns (metric -> scaled value, metric -> wall value, rounds,
        samples per class). The two dicts have the same keys except
        index_bpc, which is not a time."""
        w, gauge = self.w, self.gauge
        builds, loads, images = ([], []), ([], []), set()
        busy = [], []                       # query seconds per round
        lat = defaultdict(list), defaultdict(list)

        # The machine's speed drifts over seconds, so builds and loads are
        # spread through the round between slices of the batch instead of
        # being timed back to back.
        n = len(self.batch)
        cut = [n * j // LOAD_REPS for j in range(LOAD_REPS + 1)]
        build_at = {j * LOAD_REPS // w.build_reps for j in range(w.build_reps)}

        def one_round(r):
            spent = [0.0, 0.0]
            for j in range(LOAD_REPS):
                if j in build_at:
                    idx, *dt = gauge.timed(build_index, self.cs, w.codec, T_PSI)
                    for acc, x in zip(builds, dt):
                        acc.append(x)
                    img = serialize_index(idx)
                    images.add(img)
                loaded, *dt = gauge.timed(deserialize_index, img)
                for acc, x in zip(loads, dt):
                    acc.append(x)
                if r == 0 and j == 0:
                    self.check_properties(loaded, img)
                ops = range(cut[j], cut[j + 1])
                _, times, _ = self.run_batch(loaded, ops, gauge=gauge)
                for k, ts in enumerate(times):
                    spent[k] += sum(ts)
                    for op, t in zip(ops, ts):
                        lat[k][self.batch[op][0]].append(t)
            for acc, x in zip(busy, spent):
                acc.append(x)

        rounds = self._rounds(seconds, one_round)
        self.set_up(w.setup_reps // 2)
        if len(images) != 1:
            self.problems.append("rebuilding gave a different image")
        scaled, wall = {}, {}
        for k, m in enumerate((wall, scaled)):
            m.update({
                "setup_s": statistics.median((self._setup_walls, self._setup_times)[k]),
                "build_s": statistics.median(builds[k]),
                "load_s": statistics.median(loads[k]),
                "queries_per_s": statistics.median(n / b for b in busy[k]),
            })
            for cls in workloads.CLASSES:
                unit = _latency_unit(cls)
                factor = 1e6 if unit == "us" else 1e3
                xs = lat[k][cls]
                if xs:
                    m[f"{cls}_p50_{unit}"] = factor * statistics.median(xs)
                if len(xs) >= P99_MIN_SAMPLES:
                    m[f"{cls}_p99_{unit}"] = factor * float(np.percentile(xs, 99))
        scaled["index_bpc"] = 8 * len(next(iter(images))) / len(self.cs)
        samples = {cls: len(xs) for cls, xs in lat[0].items()}
        return scaled, wall, rounds, samples

    def per_layer(self, seconds: float):
        """Returns (metric -> value, rounds, query spans)."""
        w = self.w
        stage_times, self_times = defaultdict(list), defaultdict(list)
        overhead, counts_seen, spans, space = [], [], [], {}
        lat = defaultdict(list)

        def one_round(r):
            idx, stages = staged_build(self.cs, w.codec, T_PSI)
            for k, v in stages.items():
                stage_times[k].append(v)
            t0 = time.perf_counter()
            img = serialize_index(idx)
            t1 = time.perf_counter()
            loaded = deserialize_index(img)
            stage_times["indexfile.serialize_s"].append(t1 - t0)
            stage_times["indexfile.deserialize_s"].append(time.perf_counter() - t1)
            if r == 0:
                if serialize_index(build_index(self.cs, codec=w.codec, t_psi=T_PSI)) != img:
                    self.problems.append("staged build image differs from build_index's")
                self.check_properties(loaded, img)
                space.update(breakdown(img, loaded.size_bits()))
            plain, times, wall_plain = self.run_batch(loaded)
            for (cls, _), t in zip(self.batch, times):
                lat[cls].append(t)
            with Tracer(loaded) as tr:
                traced, _, wall_traced = self.run_batch(loaded, tracer=tr)
            if any(_differs(a, b) for a, b in zip(plain, traced)):
                self.problems.append("the traced batch gave different answers")
            overhead.append(wall_traced / wall_plain)
            counts_seen.append(dict(tr.counts))
            for key, v in tr.self_s.items():
                self_times[key].append(v)
            spans.extend((r,) + s for s in tr.spans)

        rounds = self._rounds(seconds, one_round)
        if any(c != counts_seen[0] for c in counts_seen):
            self.problems.append("per-layer counts differ between rounds")
        counts = counts_seen[0]
        ops, results = defaultdict(int), defaultdict(int)
        for (cls, _), want in zip(self.batch, self.expected):
            ops[cls] += 1
            results[cls] += len(want) if isinstance(want, list) else 1
        m = {k: statistics.median(v) for k, v in stage_times.items()}
        m.update(space)
        # a class the workload does not issue reads 0 throughout
        for cls in workloads.CLASSES:
            per = max(1, ops[cls])
            for key in _COUNTERS:
                m[f"query.{cls}.{key}"] = counts.get((cls, key), 0) / per
            decoded = (counts.get((cls, "psi_access_calls"), 0)
                       + counts.get((cls, "psi_range_entries"), 0))
            m[f"query.{cls}.decoded_per_result"] = decoded / max(1, results[cls])
            for layer in LAYERS:
                xs = self_times.get((cls, layer), [0.0])
                m[f"{layer}.{cls}.self_s"] = statistics.median(xs) / per
            m[f"query.{cls}.p50_s"] = statistics.median(lat[cls] or [0.0])
        m["trace.overhead_ratio"] = statistics.median(overhead)
        return m, rounds, spans


def _git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timer": "time.perf_counter",
        "timer_resolution_s": time.get_clock_info("perf_counter").resolution,
        "git_commit": _git_commit(),
    }


def check_inputs() -> int:
    """Recompute every pinned digest; returns 0 when all match."""
    table = json.loads(workloads.DIGESTS.read_text())
    bad = 0
    for size, per_workload in table.items():
        for name, per_seed in per_workload.items():
            w = workloads.WORKLOADS[name]
            for seed, want in per_seed.items():
                cs = w.contacts(int(seed), size)
                got = workloads.digest(cs, workloads.make_batch(w, cs, int(seed), size))
                bad += got != want
                print(f"{size} {name} seed {seed}: {'ok' if got == want else 'MISMATCH'}"
                      f" contacts {got['contacts'][:16]} queries {got['queries'][:16]}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="TGCSA benchmark: build, space, load and query of the index.")
    ap.add_argument("--workload", choices=tuple(workloads.WORKLOADS), default="ba-query")
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the workload's pinned seed)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="measure whole rounds until this many seconds have passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: report per-layer metrics from a traced run")
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: tiny inputs for the benchmark's own tests")
    ap.add_argument("--digest", action="store_true",
                    help="print the input digests of --workload at --seed and exit")
    ap.add_argument("--check-inputs", action="store_true",
                    help="recompute every pinned input digest and exit")
    ap.add_argument("--out", default=str(RESULTS), help="directory for run records")
    args = ap.parse_args(argv)
    if args.check_inputs:
        return check_inputs()
    w = workloads.WORKLOADS[args.workload]
    seed = w.default_seed if args.seed is None else args.seed

    bench = Bench(args.workload, seed, args.size)
    if args.digest:
        print(json.dumps({args.size: {args.workload: {str(seed): bench.digest}}}, indent=1))
        return 0
    want = workloads.pinned(args.workload, seed, args.size)
    if want is not None and want != bench.digest:
        print(f"error: the inputs of {args.workload} at seed {seed} no longer match "
              "their pinned digest: the generator or the batch changed "
              "(see --check-inputs)", file=sys.stderr)
        return 2

    # The inputs and expected answers stay alive for the whole run; moving
    # them out of the collector's reach keeps its pauses to what the
    # program's own allocations cause.
    gc.collect()
    gc.freeze()
    if args.trace:
        values, rounds, spans = bench.per_layer(args.seconds)
        units, samples, wall = per_layer_units(), None, None
        printed = units
    else:
        values, wall, rounds, samples = bench.end_to_end(args.seconds)
        units, spans = recorded_units(), None
        printed = END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    correct = not bench.problems
    for p in bench.problems:
        print(f"check failed: {p}", file=sys.stderr)
    per_class = {c: {"attempted": bench.attempted[c], "failed": bench.failed[c]}
                 for c in workloads.CLASSES}
    for c, v in per_class.items():
        print(f"{c}: attempted {v['attempted']} failed {v['failed']}"
              + (f" samples {samples[c]}" if samples else ""))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{seed}-{args.size}-t{args.trace}"
    record = {
        "workload": args.workload, "seed": seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "rounds": rounds,
        "correct": correct, "problems": bench.problems, "per_class": per_class,
        "samples": samples, "inputs": bench.digest, "environment": environment(),
        "metrics": metrics,
    }
    if wall is not None:
        record["wall_clock"] = wall
        record["gauge"] = {"ref_s": REF_S, "samples": len(bench.gauge.samples),
                           "quartiles_s": statistics.quantiles(bench.gauge.samples, n=4)}
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with open(out / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for r, op, cls, t0, t1 in spans:
                fh.write(json.dumps({"round": r, "op": op, "class": cls,
                                     "start": t0, "end": t1}) + "\n")
    print(json.dumps({"correct": correct,
                      "attempted": sum(bench.attempted.values()),
                      "failed": sum(bench.failed.values()),
                      "metrics": {k: v for k, v in metrics.items() if k in printed}}))
    return 0
