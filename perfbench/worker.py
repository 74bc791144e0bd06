"""One benchmark job in a fresh process: set up, run one timed call into
soclabel, and print a JSON result as the last line of stdout.

Run by run.py as `python3 worker.py '<job spec JSON>'`; not meant to be run
by hand. `setup_s` runs from the moment run.py launched this process to the
moment it is ready for the timed call, so it covers interpreter start and
the imports. Around the timed call the worker times a fixed calibration
kernel, which run.py uses to correct the timings for the host's speed.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter, thread_time


def _import_soclabel(src: str):
    import soclabel

    where = Path(soclabel.__file__).resolve().parent.parent
    if where != Path(src).resolve():
        raise RuntimeError(f"soclabel imported from {where}, expected {src}")
    return soclabel


def _peak_rss_mb() -> float:
    """High-water resident memory of this process image. VmHWM restarts at
    exec; ru_maxrss would also count the launching process's pages."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def calibrate() -> float:
    """Seconds taken by a fixed mix of small numpy calls and interpreter
    work, the kind soclabel's hot paths are made of; the least of 3 runs,
    so that one preemption does not count."""
    import numpy as np

    rng = np.random.default_rng(0)
    x, w = rng.standard_normal((160, 64)), rng.standard_normal((64, 32))
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(400):
            a = x @ w
            e = np.exp(a - a.max(axis=1, keepdims=True))
            counts: dict = {}
            for c in e.argmax(axis=1).tolist():
                counts[c] = counts.get(c, 0) + 1
        best = min(best, perf_counter() - t0)
    return best


def timed(call) -> dict:
    """Run `call()` between two calibrations; the keys every job reports."""
    t_ready = time.monotonic()
    cal_before = calibrate()
    t0 = perf_counter()
    value = call()
    wall = perf_counter() - t0
    return {"t_ready": t_ready, "wall_s": wall, "value": value,
            "cal_s": (cal_before + calibrate()) / 2}


def probe(spec: dict) -> dict:
    import numpy as np

    soclabel = _import_soclabel(spec["src"])
    return {"soclabel_version": soclabel.__version__, "numpy": np.__version__}


def train(spec: dict) -> dict:
    _import_soclabel(spec["src"])
    from soclabel import sim
    from soclabel.kselect import KPolicy

    seed = spec["seed"]
    data_spec = sim.SyntheticDatasetSpec(seed=seed)
    dataset = sim.generate_dataset(data_spec)
    config = sim.SimConfig(
        k_policy=KPolicy.linear(5.0, data_spec.n_classes),
        baseline=spec["baseline"],
        tau=0.95,
        seed=seed,
        iters=spec["iters"],
    )
    state = sim.init_state(config, dataset)

    step_s = []
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    else:
        soc_step = sim.soc_step

        # The step clock is this thread's CPU time (BLAS runs in this thread
        # too). A step takes a few ms, so on wall time the tail percentiles
        # read the host's scheduling: one run whose steps were preempted by
        # other processes showed a 3x higher p99.
        def timed_step(*args, **kwargs):
            t0 = thread_time()
            report = soc_step(*args, **kwargs)
            step_s.append(thread_time() - t0)
            return report

        sim.soc_step = timed_step

    result = timed(lambda: sim.run(config, dataset, state))
    state = result.pop("value")

    sim.write_metrics_csv(state.history, spec["out"])
    return {
        **result,
        "items": config.mu * config.batch_size * config.iters,
        "step_s": step_s,
        "final_score": sim.final_score(state.history),
        "n_classes": dataset.n_classes,
        "tracer": tracer,
    }


def select(spec: dict) -> dict:
    _import_soclabel(spec["src"])
    from soclabel import cli

    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    argv = ["select", spec["log"], "--policy", "linear", "--alpha", "5",
            "--seed", str(spec["seed"]), "--out", spec["out"]]
    result = timed(lambda: cli.main(argv))
    code = result.pop("value")
    if code != 0:
        raise RuntimeError(f"soclabel select exited with {code}")
    return {**result, "tracer": tracer}


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "probe":
        print(json.dumps(probe(spec)))
        return 0
    result = (train if spec["mode"] == "train" else select)(spec)
    result["setup_s"] = result.pop("t_ready") - spec["t_launch"]
    result["maxrss_mb"] = _peak_rss_mb()
    result["digest"] = _digest(spec["out"])
    tracer = result.pop("tracer")
    if tracer is not None:
        import tracer as tracing

        result["layer"] = tracing.layer_metrics(tracer)
        result["absent"] = tracer.absent
        result["unobserved"] = sorted(tracer.unobserved)
        if spec.get("spans_out"):
            tracer.write_csv(spec["spans_out"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
