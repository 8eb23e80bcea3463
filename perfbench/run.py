"""hamfactor benchmark: one workload of the CLI pipeline, timed or traced.

    python3 perfbench/run.py --workload scdf --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``hamfactor`` from
``src/`` and builds its inputs with ``tests/data/generate.py``. Scratch files
go to ``.perfbench_work/`` in the checkout and are removed at exit.

Set-up (input generation plus a warm-up pipeline on an N=4 chain) runs three
times. A first full pass runs untimed; then passes repeat, each on a new
instance of the workload's chains, until ``--seconds`` have passed.
``--trace 0`` reports the end-to-end metrics from uninstrumented passes.
``--trace 1`` runs an uninstrumented and a traced pass on each instance and
reports the per-layer metrics; the median of the traced-minus-untraced walls
is the tracing overhead. Every pass's outputs are checked.

Standard output ends with two JSON lines: a report (machine, input hashes,
per-record quality and times, failures, span totals), then the result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave the checkout's source tree as it was

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer, layer_metrics, unit_of

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
QUALITY_PASSES = 3
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "lambda_burg_sum": "Ha",
    "toffoli_total": "count",
    "logical_qubits_max": "count",
    "frobenius_error_sum": "Ha",
}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


class ProgramMissing(Exception):
    """The checkout lacks the program or its input recipe."""


def load_program(root: Path):
    src = root / "src"
    if not (src / "hamfactor" / "__init__.py").is_file():
        raise ProgramMissing(f"no hamfactor sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import hamfactor
    import hamfactor.cli  # noqa: F401  (the pipeline's entry point)

    if not Path(hamfactor.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"imported hamfactor from {hamfactor.__file__}, not from {src}")
    try:
        recipe = wl.load_recipe(root)
    except FileNotFoundError as exc:
        raise ProgramMissing(str(exc)) from exc
    return hamfactor, recipe


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` without running git; None outside a repository."""
    git = root / ".git"
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
    return None


def machine_record(root: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {key: os.environ.get(key) for key in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
    }


class Instances:
    """Writes the chains pass k runs on; keeps each one's hashes.

    Passes 0 .. QUALITY_PASSES-1 run the reference instances (seed 0), which
    give the quality metrics: those are then exact, the same for every seed,
    and compare parent and change record for record. Later passes run
    instance k of the workload seed, so timing covers fresh inputs and no
    pass can reuse another's results.
    """

    def __init__(self, hf, recipe, workload, seed: int, directory: Path):
        self.hf, self.recipe, self.workload, self.seed = hf, recipe, workload, seed
        self.directory = directory
        self.made: list[dict] = []

    def make(self, k: int, warmup: bool = False) -> dict[int, Path]:
        seed = 0 if k < QUALITY_PASSES else self.seed
        workload = self.workload.warmup() if warmup else self.workload
        inputs = wl.make_inputs(self.hf, self.recipe, workload, seed, k, self.directory)
        self.made.append({"pass": k, "seed": seed, "warmup": warmup, "chains": list(inputs.values())})
        return {n: self.directory / info["file"] for n, info in inputs.items()}


def set_up(instances: Instances, work: Path, main, tally) -> tuple[list[float], dict[int, Path]]:
    """Write instance 0 and run the warm-up pipeline, SETUP_REPEATS times.

    Returns each repeat's seconds and instance 0's paths.
    """
    samples = []
    warmup = instances.workload.warmup()
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        instances.made.clear()
        paths = instances.make(0)
        _, calls = wl.run_pass(main, warmup, instances.make(0, warmup=True), work / f"warmup{k}")
        samples.append(time.perf_counter() - start)
        wl.check_calls(calls, tally)
    return samples, paths


def first_pass(instances: Instances, paths: dict[int, Path], work: Path, main, tally) -> tuple[float, list[dict]]:
    """Pass 0 on instance 0: checked, and counted for quality, but never timed.

    The first full-size pass pays page faults and allocator growth that the
    N=4 warm-up does not reach.
    """
    wall, calls = wl.run_pass(main, instances.workload, paths, work / "pass")
    return wall, wl.check_pass(calls, work / "pass", tally)


def timed_passes(instances: Instances, paths: dict[int, Path], work: Path, seconds: float, main, tally) -> tuple[dict, dict]:
    """Uninstrumented passes, each on a new instance, until ``seconds`` have passed.

    Quality sums over the records of the reference passes 0 .. QUALITY_PASSES-1,
    so it does not depend on how many passes fit in the time.
    """
    first_wall, rows = first_pass(instances, paths, work, main, tally)
    for row in rows:
        row["pass"] = 0
    walls = []
    start = time.perf_counter()
    k = 0
    while k + 1 < QUALITY_PASSES or time.perf_counter() - start < seconds:
        k += 1
        paths = instances.make(k)
        wall, calls = wl.run_pass(main, instances.workload, paths, work / "pass")
        walls.append(wall)
        for row in wl.check_pass(calls, work / "pass", tally):
            row["pass"] = k
            rows.append(row)
    quality = [row for row in rows if row["pass"] < QUALITY_PASSES]
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **wl.quality_metrics(quality),
    }
    detail = {"first_pass_wall_s": first_wall, "pass_walls_s": walls, "samples": len(walls), "records": rows}
    return metrics, detail


def traced_passes(instances: Instances, paths: dict[int, Path], work: Path, seconds: float, main, tally) -> tuple[dict, dict]:
    """Pairs of an uninstrumented and a traced pass on one new instance each.

    Per-layer metrics are medians over the pairs on reference instances, so
    their counts repeat exactly from run to run and seed to seed.
    """
    first_wall, _ = first_pass(instances, paths, work, main, tally)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    k = 0
    while k + 1 < QUALITY_PASSES or time.perf_counter() - start < seconds:
        k += 1
        paths = instances.make(k)
        wall, calls = wl.run_pass(main, instances.workload, paths, work / "pass")
        plain.append(wall)
        wl.check_pass(calls, work / "pass", tally)
        with Tracer() as tracer:
            wall, calls = wl.run_pass(
                main, instances.workload, paths, work / "pass", on_job=lambda job: setattr(tracer, "op", job.label)
            )
        traced.append(wall)
        rows = wl.check_pass(calls, work / "pass", tally)
        if k < QUALITY_PASSES:
            layers.append(layer_metrics(tracer))
            for row in rows:
                row["pass"] = k
                row["lbfgs_cap_hits"] = tracer.op_counts[row["record"]]["dfopt.lbfgs_cap_hits"]
            reference = (rows, tracer)
    rows, tracer = reference
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced, plain))
    detail = {
        "first_pass_wall_s": first_wall,
        "untraced_walls_s": plain,
        "traced_walls_s": traced,
        "samples": len(traced),
        "records": rows,
        "spans_last_reference_pass": {
            name: {"self_s": tracer.self_time[name], "calls": tracer.calls[name]} for name in sorted(tracer.calls)
        },
        "span_count_last_reference_pass": len(tracer.spans),
    }
    return metrics, detail


def execute(workload: wl.Workload, seed: int, seconds: float, trace: bool, root: Path = ROOT) -> tuple[dict, dict]:
    """Run one workload; return (report, result)."""
    start = time.perf_counter()
    hf, recipe = load_program(root)
    import_s = time.perf_counter() - start
    cli = sys.modules["hamfactor.cli"]

    def cli_main(argv):  # looked up per call, so a tracer's wrapper is seen
        return cli.main(argv)

    tally = wl.Tally()
    work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    instances = Instances(hf, recipe, workload, seed, work / "inputs")
    try:
        setup_samples, paths = set_up(instances, work, cli_main, tally)
        run = traced_passes if trace else timed_passes
        metrics, detail = run(instances, paths, work, seconds, cli_main, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if trace:
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics["setup_s"] = import_s + statistics.median(setup_samples)
        units = END_TO_END_UNITS
    report = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(root),
        "inputs": instances.made,
        "setup": {"import_s": import_s, "repeats_s": setup_samples},
        **detail,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.failures,
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }
    return report, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="0 reproduces the bundled chain fixtures")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long the passes run")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        report, result = execute(wl.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
