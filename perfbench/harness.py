"""Runs one workload and computes its metrics.

Untraced passes give the end-to-end metrics; traced passes, alternated with
untraced ones of the same length, give the per-layer split and the tracing
overhead. Every pass runs the workload's legs through the public
`chasedet.simcli.monte_carlo` and is checked row by row (see check.py).
Import this module only after the thread variables are pinned (run.py).
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import chasedet.simcli as simcli
from chasedet.simcli import SimConfig, validate_config

import check
import host
import tracing
from workloads import DEFAULT_SEED, SMOKE_BLOCKS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 7
MIN_PASSES = 3
DETECTORS = ("lchase", "bchase", "lmmse")


@dataclass
class Pass:
    leg_s: list
    calib_ms: list  # calibration before the first leg and after each leg
    rows: list  # per leg: compared values of each CSV row, None if it raised

    @property
    def wall_s(self) -> float:
        return sum(self.leg_s)

    @property
    def total_ref_s(self) -> float:
        return sum(self.ref_s(i) for i in range(len(self.leg_s)))

    def ref_s(self, leg: int) -> float:
        """Leg time scaled to the reference host speed (see host.py)."""
        calib = (self.calib_ms[leg] + self.calib_ms[leg + 1]) / 2.0
        return self.leg_s[leg] * host.REFERENCE_CALIB_MS / calib


def leg_configs(workload, seed: int, blocks: int) -> list:
    return [
        validate_config(SimConfig(seed=seed, blocks=blocks, **leg))
        for leg in workload.legs
    ]


def run_pass(configs) -> Pass:
    leg_s, calib, rows = [], [host.calibrate()], []
    for cfg in configs:
        start = perf_counter()
        try:
            # Looked up on the module so the traced pass sees its wrapper.
            records = simcli.monte_carlo(cfg)
        except Exception:  # a leg that raises fails its rows; the run goes on
            traceback.print_exc()
            rows.append(None)
        else:
            rows.append(check.leg_rows(records))
        leg_s.append(perf_counter() - start)
        calib.append(host.calibrate())
    return Pass(leg_s, calib, rows)


class Scorer:
    """Counts attempted and failed rows against a per-leg reference.

    The reference is the recorded rows when the seed and block count match
    expected.json, else the first pass's rows, so later passes must repeat it.
    """

    def __init__(self, workload, configs):
        self.legs = [vars(cfg) for cfg in configs]
        self.reference = check.load_expected(
            workload.name, configs[0].seed, configs[0].blocks
        )
        self.attempted = 0
        self.failed = 0

    def score(self, p: Pass) -> None:
        if self.reference is None:
            self.reference = p.rows
        for leg, rows, ref in zip(self.legs, p.rows, self.reference):
            self.attempted += len(leg["snr_db"]) * leg["iterations"]
            self.failed += check.failed_rows(leg, rows, ref)


def blocks_by_detector(configs) -> Counter:
    out = Counter()
    for cfg in configs:
        out[cfg.detector] += cfg.blocks * len(cfg.snr_db)
    return out


def setup_seconds(workload, seed: int, samples: int) -> tuple:
    """Median set-up time over fresh interpreters: (reference, raw) seconds."""
    ref, raw = [], []
    for _ in range(samples):
        before = host.calibrate()
        done = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload.name, str(seed)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        calib = (before + host.calibrate()) / 2.0
        raw.append(float(done.stdout.split()[-1]))
        ref.append(raw[-1] * host.REFERENCE_CALIB_MS / calib)
    return statistics.median(ref), statistics.median(raw)


def throughput(configs, passes) -> dict:
    """Median blocks/s over passes at the reference host speed, in total and
    per detector, plus the total as measured."""
    blocks = blocks_by_detector(configs)
    legs = range(len(configs))
    out = {
        "blocks_per_s": statistics.median(
            sum(blocks.values()) / p.total_ref_s for p in passes
        ),
        "raw_blocks_per_s": statistics.median(
            sum(blocks.values()) / p.wall_s for p in passes
        ),
    }
    for det in blocks:
        mine = [i for i in legs if configs[i].detector == det]
        out[f"{det}_blocks_per_s"] = statistics.median(
            blocks[det] / sum(p.ref_s(i) for i in mine) for p in passes
        )
    return out


def untraced_run(workload, configs, seconds, scorer, setup_samples, min_passes):
    setup = setup_seconds(workload, configs[0].seed, setup_samples)
    metrics = dict(zip(("setup_s", "raw_setup_s"), setup))
    run_pass(leg_configs(workload, configs[0].seed, SMOKE_BLOCKS))  # warm-up, not scored
    passes = []
    start = perf_counter()
    while len(passes) < min_passes or perf_counter() - start < seconds:
        passes.append(run_pass(configs))
        scorer.score(passes[-1])
    metrics.update(throughput(configs, passes))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["host.calib_ms"] = statistics.median(c for p in passes for c in p.calib_ms)
    metrics["passes"] = len(passes)
    return metrics


def traced_run(workload, configs, seconds, scorer, min_passes):
    run_pass(leg_configs(workload, configs[0].seed, SMOKE_BLOCKS))  # warm-up, not scored
    plain, traced = [], []
    totals, counts, redraws = Counter(), Counter(), 0
    first_spans = None
    start = perf_counter()
    while len(traced) < min_passes or perf_counter() - start < seconds:
        plain.append(run_pass(configs))
        scorer.score(plain[-1])
        tracer = tracing.Tracer()
        with tracing.installed(tracer), tracing.counting_redraws() as counter:
            traced.append(run_pass(configs))
        scorer.score(traced[-1])
        totals.update(tracing.self_times(tracer.spans))
        counts.update(tracer.counts)
        redraws += counter.redraws
        if first_spans is None:
            first_spans = tracer.spans
    metrics = layer_metrics(configs, totals, counts, redraws, len(traced))
    wall = sum(p.wall_s for p in traced)
    metrics["trace.pass_s"] = statistics.median(p.wall_s for p in traced)
    metrics["trace.overhead_pct"] = 100.0 * (
        statistics.median(p.total_ref_s for p in traced)
        / statistics.median(p.total_ref_s for p in plain)
        - 1.0
    )
    metrics["trace.unattributed_pct"] = 100.0 * (wall - sum(totals.values())) / wall
    metrics["host.calib_ms"] = statistics.median(c for p in traced for c in p.calib_ms)
    metrics["passes"] = len(traced)
    return metrics, first_spans


def layer_metrics(configs, totals, counts, redraws, n_passes) -> dict:
    """Per-layer metrics per traced pass from summed self times and counts."""
    out = {name: totals.get(name, 0.0) / n_passes for name in tracing.SPAN_NAMES}
    for name in (
        "channel.uses", "codec.bcjr_calls", "codec.bcjr_steps", "idd.iterations",
        "lchase.contexts", "bchase.contexts", "reference.lmmse_calls",
        "counters.metric_evals", "counters.boundary_evals",
        "counters.soft_stat_evals", "counters.streams",
    ):
        out[name] = counts[name] // n_passes
    blocks = sum(blocks_by_detector(configs).values())
    out["simcli.blocks"] = blocks
    out["channel.redraws"] = redraws / n_passes
    out["channel.redraw_ratio"] = redraws / (n_passes * blocks)
    steps = out["codec.bcjr_steps"]
    out["codec.bcjr_us_per_step"] = 1e6 * out["codec.bcjr_s"] / steps if steps else 0.0
    for det in DETECTORS:
        streams = counts[f"counters.{det}.streams"]
        evals = counts[f"counters.{det}.evals"]
        out[f"counters.{det}.per_stream"] = evals / streams if streams else 0.0
    return out


def unit_of(name: str) -> str:
    for suffix, unit in (
        ("blocks_per_s", "blocks/s"), ("_us_per_step", "us"), ("_pct", "%"),
        ("_ms", "ms"), ("_mb", "MB"), ("_ratio", "frac"), ("_frac", "frac"),
        ("_s", "s"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def run(name: str, seed: int, seconds: float, trace: bool, declared, smoke: bool) -> dict:
    """Runs one workload; returns the result object the last line carries."""
    workload = WORKLOADS[name]
    blocks = SMOKE_BLOCKS if smoke else workload.blocks
    configs = leg_configs(workload, seed, blocks)
    scorer = Scorer(workload, configs)
    min_passes = 1 if smoke else MIN_PASSES
    spans = None
    if trace:
        metrics, spans = traced_run(workload, configs, seconds, scorer, min_passes)
    else:
        samples = 1 if smoke else SETUP_SAMPLES
        metrics = untraced_run(workload, configs, seconds, scorer, samples, min_passes)
    metrics["failed_frac"] = scorer.failed / scorer.attempted
    if workload.projection and not trace:
        metrics["tier1_gates_projected_s"] = sum(
            n / metrics[f"{det}_blocks_per_s"] for det, n in workload.projection.items()
        )

    record = host.host_record()
    print(f"workload {name} seed {seed} blocks/point {blocks} passes {metrics['passes']}")
    for key in sorted(k for k in metrics if k != "passes"):
        value = metrics[key]
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"  {key:40s} {shown} {unit_of(key)}")
    print("host " + json.dumps(record, sort_keys=True))
    if spans is not None:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{name}-seed{seed}.json"
        out.write_text(json.dumps({
            "workload": name, "seed": seed, "host": record,
            "metrics": metrics, "spans": spans,
        }))
        print(f"wrote {out.relative_to(BENCH_DIR.parent)}")

    missing = [m for m in declared if m not in metrics]
    if missing:
        raise RuntimeError(f"declared metrics not computed: {missing}")
    return {
        "correct": scorer.failed == 0,
        "attempted": scorer.attempted,
        "failed": scorer.failed,
        "metrics": {m: {"value": metrics[m], "unit": unit_of(m)} for m in declared},
    }


def record_expected() -> None:
    """Writes one pass's rows per workload at the default seed."""
    out = []
    for name, workload in WORKLOADS.items():
        p = run_pass(leg_configs(workload, DEFAULT_SEED, workload.blocks))
        if any(rows is None for rows in p.rows):
            raise RuntimeError(f"{name}: a leg raised, nothing recorded")
        legs = ",\n   ".join(json.dumps(rows) for rows in p.rows)
        out.append(
            f' "{name}": {{"seed": {DEFAULT_SEED}, "blocks": {workload.blocks},'
            f'\n  "legs": [\n   {legs}\n  ]}}'
        )
    # One leg per line, so a change in results shows as a readable diff.
    check.EXPECTED_PATH.write_text("{\n" + ",\n".join(out) + "\n}\n")
