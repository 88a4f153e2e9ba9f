"""Fresh-interpreter side of the benchmark: one execution of one workload.

    python3 perfbench/child.py MODE WORKLOAD SEED WORKERS OUT_DIR

Times set-up (import ``levybarrier.cli``, read the workload config, build
model, problem and sim); unless MODE is ``setup``, then runs the workload's
CLI commands once in this process and checks their outputs.  With MODE
``trace`` the public functions are wrapped first (``spans.py``) and the
spans are written to OUT_DIR/spans.json.  Prints one JSON object as the
last line of standard output; the CLI's own progress lines go to standard
error.  ``run.py`` starts this script; it is not meant to be called by
hand.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, evaluate  # noqa: E402

CALIBRATION_PATHS = 200
CALIBRATION_REPEATS = 5


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # BLAS threads are left at the user default on purpose: pinning them
        # would hide the pool oversubscription path_engine.pool.speedup shows
        "blas_threads_env": {
            key: os.environ.get(key, "unset")
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
    }


def _ns_per_step(model, sim) -> float:
    """simulate_batch cost per path-step on a small fixed batch of this model."""
    from levybarrier.path_engine import simulate_batch

    small = replace(sim, n_paths=CALIBRATION_PATHS)
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        simulate_batch(model, 0.0, small)
        times.append(time.perf_counter() - start)
    return 1e9 * statistics.median(times) / (CALIBRATION_PATHS * small.n_steps)


def _calibration_s() -> float:
    """Median time of a fixed kernel shaped like Gaussian path simulation.

    It draws 200 paths of 9,212 steps from per-path streams, then takes
    cumulative sums, running minima and one matrix-vector product, all in
    preallocated arrays so that allocator state does not change its time.
    It is benchmark code, so program changes never move it; only the machine's
    current speed does.
    """
    import numpy as np

    x = np.empty((CALIBRATION_PATHS, 9212))
    m = np.empty_like(x)
    ones = np.ones(9212)
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        for i in range(CALIBRATION_PATHS):
            seq = np.random.SeedSequence(entropy=12345, spawn_key=(i,))
            np.random.Generator(np.random.PCG64DXSM(seq)).standard_normal(out=x[i])
        np.cumsum(x, axis=1, out=x)
        np.minimum.accumulate(x, axis=1, out=m)
        np.subtract(x, m, out=m)
        m @ ones
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _oracle_b_star(model, problem) -> float:
    from levybarrier.oracles import SpectrallyNegativeOracle, quadratic_bstar_closed_form

    return quadratic_bstar_closed_form(SpectrallyNegativeOracle.for_model(model, problem.q), problem)


def execute(mode: str, name: str, seed: int, workers: int, out_dir: Path) -> dict:
    w = WORKLOADS[name]
    config_path = ROOT / w.config

    start = time.perf_counter()
    import levybarrier.cli as cli

    cfg = json.loads(config_path.read_text())
    model = cli._build_model(cfg)
    problem = cli._build_problem(cfg)
    sim = replace(cli._build_sim(cfg, problem.q), n_paths=w.paths, master_seed=seed)
    setup_s = time.perf_counter() - start

    result = {"setup_s": setup_s}
    if mode == "setup":
        return result
    trace = mode == "trace"
    result["calibration_s"] = _calibration_s()
    if trace:
        from spans import Recorder, install

        rec = Recorder()
        install(rec)

    walls, raw, checks = {}, {}, []
    for command in w.commands:
        out = out_dir / command
        argv = w.argv(command, str(config_path), str(out), seed, workers)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        walls[command] = time.perf_counter() - start
        checks.append((f"{command}_exit_0", rc == 0))
        if rc == 0:
            raw[command] = (out / "result.json").read_bytes()

    result["calibration_after_s"] = _calibration_s()
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    # parent peak plus one largest-worker peak per worker (ru_maxrss is KiB)
    result["peak_rss_mb"] = (own + (workers * pool if workers > 1 else 0)) / 1024.0
    if trace:
        (out_dir / "spans.json").write_text(json.dumps(rec.spans))
        # after the workload, so traced and untraced executions start alike;
        # its own spans come after the ones written out
        result["ns_per_step"] = _ns_per_step(model, sim)

    figures = None
    if len(raw) < len(w.commands):
        checks.append(("outputs_present", False))
    else:
        ctx = {"sigma": model.sigma, "dt": sim.dt, "C": problem.C,
               "bisect_tol": cfg.get("solve", {}).get("bisect_tol")}
        if name == "bm_coarse":
            ctx["oracle_b_star"] = _oracle_b_star(model, problem)
        out_checks, figures = evaluate(name, {c: json.loads(b) for c, b in raw.items()}, ctx)
        checks += out_checks
    result.update(
        walls=walls,
        checks=checks,
        figures=figures,
        digests={c: hashlib.sha256(b).hexdigest() for c, b in raw.items()},
        sizes={"n_paths": w.paths, "n_steps": sim.n_steps, "workers": workers},
        provenance=_provenance(),
    )
    return result


if __name__ == "__main__":
    mode, name, seed, workers, out_dir = sys.argv[1:6]
    print(json.dumps(execute(mode, name, int(seed), int(workers), Path(out_dir))))
