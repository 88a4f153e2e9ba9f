"""levybarrier benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload kou_solve --seed 7 --seconds 25 --trace 0

Paths resolve from this file, so any working directory works.  With
``--trace 0`` it repeats the workload in fresh processes and reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of
traced executions.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; a full record goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>/record.json``.  See
perfbench/README.md for the workloads and metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import failed_ops, layer_self_times, layer_unit, per_layer, time_to_ci_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SETUP_SAMPLES = 3
# time of child._calibration_s on the reference machine (2-core x86-64 VM,
# Python 3.11, NumPy 2.4, OpenBLAS 0.3.31); calibrated walls are in its seconds
CALIBRATION_REF_S = 0.06
COVERAGE_TOLERANCE = 0.10  # layer self times must sum to the wall within this share
DEADLINE_S = 170.0  # the whole run


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # a process group of its own, so a timeout can stop the pool workers too
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"benchmark child {args[:3]} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class _Run:
    """Fresh-process executions of one workload, with every check they produced."""

    def __init__(self, name: str, seed: int, out_dir: Path, deadline: float):
        self.name, self.seed, self.out_dir, self.deadline = name, seed, out_dir, deadline
        self.execs: list[dict] = []
        self.checks: list = []

    def setup_probe(self) -> float:
        return _child(["setup", self.name, str(self.seed), "1", str(self.out_dir)],
                      self.deadline)["setup_s"]

    def execute(self, workers: int, trace: bool = False) -> dict:
        tag = f"exec{len(self.execs)}"
        ex = _child(["trace" if trace else "run", self.name, str(self.seed), str(workers),
                     str(self.out_dir / tag)], self.deadline)
        ex["tag"] = tag
        self.checks += [(f"{tag}.{name}", ok) for name, ok in ex["checks"]]
        if self.execs:
            # every execution, at any worker count and traced or not, must
            # write the same result.json as the first
            self.checks.append((f"{tag}.identical_to_exec0", ex["digests"] == self.execs[0]["digests"]))
        self.execs.append(ex)
        return ex


def _repeat(seconds: float, once) -> list:
    """Call ``once()`` at least once, and again while another call fits in ``seconds``."""
    results, durations = [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        results.append(once())
        durations.append(time.monotonic() - t)
        if time.monotonic() - start + median(durations) > seconds:
            return results


def _wall(ex: dict) -> float:
    return sum(ex["walls"].values())


def _calibration(ex: dict) -> float:
    """Calibration time around ``ex``: how slow the machine ran during it."""
    return 0.5 * (ex["calibration_s"] + ex["calibration_after_s"])


def _calibrated(ex: dict, wall: float) -> float:
    """``wall`` rescaled from the machine's speed during ``ex`` to the reference speed."""
    return wall * CALIBRATION_REF_S / _calibration(ex)


def _end_to_end(run: _Run, w, seconds: float) -> dict:
    """The workload repeated in fresh processes; medians over the repetitions."""
    reps = _repeat(seconds, lambda: run.execute(w.workers))
    if w.workers > 1:
        run.execute(1)  # the determinism reference
    setup = [ex["setup_s"] for ex in run.execs]
    setup += [run.setup_probe() for _ in range(MIN_SETUP_SAMPLES - len(setup))]
    fig = reps[0]["figures"]
    # without figures the run has already failed its checks; 0 keeps the line valid JSON
    ttc = time_to_ci_s(median(_calibrated(r, r["walls"][fig["ci_command"]]) for r in reps),
                       fig["ci_halfwidth"]) if fig else 0.0
    return {
        "wall_cal_s": _metric(median(_calibrated(r, _wall(r)) for r in reps), "s"),
        "setup_s": _metric(median(setup), "s"),
        "peak_rss_mb": _metric(median(r["peak_rss_mb"] for r in reps), "MiB"),
        "time_to_ci_cal_s": _metric(ttc, "s"),
    }


def _per_layer(run: _Run, w, seconds: float) -> dict:
    """Pairs of untraced and traced executions at 1 worker; medians over the pairs.

    Pairs repeat for up to twice ``seconds``, since each is two executions.

    Each pair runs back to back, and its untraced wall is rescaled by the
    two executions' calibration times, so drift of the machine's speed does
    not show as tracing overhead.
    """
    pairs = _repeat(2 * seconds, lambda: (run.execute(1), run.execute(1, trace=True)))
    speedup = 1.0
    if w.workers > 1:
        pool = run.execute(w.workers)
        speedup = median(_calibrated(one, _wall(one)) for one, _ in pairs) / _calibrated(pool, _wall(pool))
    layers, attributed = [], []
    for one, traced in pairs:
        spans = json.loads((run.out_dir / traced["tag"] / "spans.json").read_text())
        # the untraced wall at the machine speed the traced execution saw
        untraced = _wall(one) * _calibration(traced) / _calibration(one)
        layers.append(per_layer(spans, untraced, _wall(traced), w.paths,
                                traced["ns_per_step"], speedup))
        attributed.append(sum(layer_self_times(spans).values()) / _wall(traced))
    layer = {name: median(lay[name] for lay in layers) for name in layers[0]}
    # the spans must cover the traced wall; against the untraced wall the
    # same sum also carries run-to-run noise, so that one is only reported
    run.checks.append(("layer_self_within_10pct_of_traced_wall",
                       abs(median(attributed) - 1.0) <= COVERAGE_TOLERANCE))
    if abs(layer["trace.coverage"] - 1.0) > COVERAGE_TOLERANCE:
        print(f"WARNING trace.coverage {layer['trace.coverage']:.3f}: layer self times are "
              f"more than {COVERAGE_TOLERANCE:.0%} off the untraced wall")
    return {name: _metric(value, layer_unit(name)) for name, value in layer.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it becomes sim.master_seed)")
    w = WORKLOADS[args.workload]
    missing = [p for p in ("src/levybarrier/cli.py", w.config) if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}; run from a levybarrier checkout",
              file=sys.stderr)
        return 1

    out_dir = ROOT / ".perfbench_out" / f"{w.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    run = _Run(w.name, args.seed, out_dir, time.monotonic() + DEADLINE_S)
    metrics = _per_layer(run, w, args.seconds) if args.trace else _end_to_end(run, w, args.seconds)
    attempted, failed, failed_share = failed_ops([ok for _, ok in run.checks])
    fig = run.execs[0]["figures"] or {}
    # reported, not gated: they exist on bm_coarse only (see README.md)
    info = {k: _metric(fig[k], "1") for k in ("b_star_abs_err", "rho_ec_abs_err") if k in fig}
    if not args.trace:
        measured = [_wall(ex) for ex in run.execs if ex["sizes"]["workers"] == w.workers]
        info["wall_s"] = _metric(median(measured), "s")
    info["failed_ops"] = _metric(failed_share, "1")

    first = run.execs[0]
    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "sizes": first["sizes"], "provenance": first["provenance"], "figures": fig,
        "metrics": metrics, "info": info, "checks": run.checks,
        "executions": [{k: ex[k] for k in ("tag", "sizes", "setup_s", "walls", "peak_rss_mb",
                                           "calibration_s", "calibration_after_s")}
                       for ex in run.execs],
    }
    (out_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  sizes {first['sizes']}  "
          f"executions {len(run.execs)}")
    print("provenance " + json.dumps(first["provenance"], sort_keys=True))
    for name, ok in run.checks:
        if not ok:
            print(f"FAILED check {name}")
    for name, m in {**metrics, **info}.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
