"""Workloads: inputs made from the seed, the CLI pipeline each one runs, and
the checks on its outputs.

Every workload factorizes a few Gaussian-orbital chains, then runs
``verify`` and ``resources`` on every record it wrote, all through
``hamfactor.cli.main`` in this process. A job is one record: one chain size
and one factorize method with its flags.

The chains come from the recipe in ``tests/data/generate.py``, loaded
read-only. Instance k of workload seed s draws the chain's grid-weight
jitter from ``base + 1000 * s + k``: every instance is a chain of the same
size and shape with its own integrals, and instance 0 of seed 0 is the
bundled fixture byte for byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

OPTIMIZER_METHODS = ("scdf", "cdf", "rcdf")
# the warm-up pipeline: each job's steps on this chain, with one leaf per
# orbital and one outer iteration, so lazy set-up is paid but little else
WARMUP_N = 4
WARMUP_FLAGS = ("--ndf", "1N", "--max-outer", "1")
# Gate 5's penalty; the outer cap keeps one pass to a few seconds
SCDF_FLAGS = ("--ndf", "4N", "--rho", "1e-3", "--max-outer", "2")
CDF_EXACT_TOL = 1e-8
SHIFT_RESIDUAL_TOL = 1e-9
FROBENIUS_FLOOR = 1e-9


@dataclass(frozen=True)
class Job:
    n: int
    method: str
    flags: tuple[str, ...] = ()
    fci: bool = False

    @property
    def label(self) -> str:
        return f"n{self.n:02d}.{self.method}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]

    def sizes(self) -> list[int]:
        return sorted({job.n for job in self.jobs})

    def tiny(self) -> "Workload":
        """The same pipeline on N=4 chains (duplicate jobs dropped)."""
        return replace(self, jobs=tuple(dict.fromkeys(replace(job, n=WARMUP_N) for job in self.jobs)))

    def warmup(self) -> "Workload":
        tiny = self.tiny()
        return replace(tiny, jobs=tuple(replace(job, flags=job.flags + WARMUP_FLAGS) for job in tiny.jobs))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scdf",
            "SCDF W/X L-BFGS loop under Gate 5's penalty on chains N=6,8; expm_frechet pull-back dominates",
            (Job(6, "scdf", SCDF_FLAGS), Job(8, "scdf", SCDF_FLAGS)),
        ),
        Workload(
            "cdf",
            "full-rank path: Kronecker V-step (cdf, N=7) and grad_cdf_u U-step (rcdf, N=6); no rank-1 shift work",
            (Job(7, "cdf", ("--ndf", "4N")), Job(6, "rcdf", ("--ndf", "4N", "--max-outer", "1"))),
        ),
        Workload(
            "explicit",
            "xdf and xdf-shift on chains N=10,20: FCIDUMP parsing, shift scan, norms, record I/O; no optimizer",
            tuple(Job(n, m) for n in (10, 20) for m in ("xdf", "xdf-shift")),
        ),
        Workload(
            "fci",
            "xdf-shift then verify --fci on chains N=5,6: dense oracle builds and eigh; only workload on the oracle",
            (Job(5, "xdf-shift", fci=True), Job(6, "xdf-shift", fci=True)),
        ),
    )
}


# ---------------------------------------------------------------------------
# inputs


def load_recipe(root: Path):
    """Import ``tests/data/generate.py`` from the checkout without writing to it."""
    path = root / "tests" / "data" / "generate.py"
    if not path.is_file():
        raise FileNotFoundError(f"chain recipe not found: {path}")
    spec = importlib.util.spec_from_file_location("hamfactor_chain_recipe", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def chain_params(recipe, n: int, seed: int, instance: int) -> tuple[int, float]:
    """(rng seed, orbital spread) of instance k of an N-orbital chain at a workload seed."""
    cases = {case_n: (case_seed, spread) for case_n, case_seed, spread in recipe.CHAIN_CASES}
    base, spread = cases.get(n, (100 + n, 0.6 if n < 6 else 0.7))
    return base + 1000 * seed + instance, spread


def write_chain(hf, recipe, n: int, seed: int, instance: int, path: Path) -> dict:
    rng_seed, spread = chain_params(recipe, n, seed, instance)
    g = recipe.chain_tensor(n, rng_seed, spread)
    hf.write_fcidump(str(path), g, recipe.chain_hopping(n), e_nuc=0.0, nelec=n)
    data = path.read_bytes()
    return {
        "n": n,
        "file": path.name,
        "rng_seed": rng_seed,
        "spread": spread,
        "bytes": len(data),
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def make_inputs(hf, recipe, workload: Workload, seed: int, instance: int, directory: Path) -> dict[int, dict]:
    directory.mkdir(parents=True, exist_ok=True)
    return {
        n: write_chain(hf, recipe, n, seed, instance, directory / f"chain_n{n:02d}.fcidump")
        for n in workload.sizes()
    }


# ---------------------------------------------------------------------------
# one pass of the pipeline


@dataclass
class Tally:
    """Operations attempted and failed: one per CLI call and one per check."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class Call:
    job: Job
    step: str
    code: int | None
    stdout: str
    stderr: str
    seconds: float


def _finite(value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return True


def call_cli(main, argv: list[str]) -> tuple[int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the benchmark counts the failure and keeps going
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def job_steps(job: Job, fcidump: Path, workdir: Path) -> list[tuple[str, list[str]]]:
    record = workdir / f"{job.label}.json"
    factorize = ["factorize", str(fcidump), "--method", job.method, *job.flags, "--output", str(record)]
    if job.method in OPTIMIZER_METHODS:
        factorize += ["--trace", str(workdir / f"{job.label}.trace.jsonl")]
    verify = ["verify", str(record), str(fcidump)] + (["--fci"] if job.fci else [])
    return [("factorize", factorize), ("verify", verify), ("resources", ["resources", str(record)])]


def run_pass(main, workload: Workload, inputs: dict[int, Path], workdir: Path, on_job=None) -> tuple[float, list[Call]]:
    """Run every job's factorize -> verify -> resources; return (wall seconds, calls).

    ``workdir`` starts empty, so no step can read an earlier pass's record.
    ``on_job(job)`` runs before each job's calls, outside the timed calls.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    calls = []
    wall = 0.0
    for job in workload.jobs:
        if on_job is not None:
            on_job(job)
        for step, argv in job_steps(job, inputs[job.n], workdir):
            start = time.perf_counter()
            code, out, err = call_cli(main, argv)
            seconds = time.perf_counter() - start
            wall += seconds
            calls.append(Call(job, step, code, out, err, seconds))
    return wall, calls


# ---------------------------------------------------------------------------
# checks and quality numbers


def _parse(call: Call, tally: Tally) -> dict | None:
    what = f"{call.job.label} {call.step}"
    if call.code != 0:
        tally.record(False, f"{what}: exit {call.code}: {call.stderr.strip()[-300:]}")
        return None
    try:
        payload = json.loads(call.stdout)
    except json.JSONDecodeError as exc:
        tally.record(False, f"{what}: output is not JSON ({exc})")
        return None
    if not tally.record(_finite(payload), f"{what}: output holds a non-finite number"):
        return None
    return payload


def _trace_rows(workdir: Path, job: Job) -> list[dict]:
    path = workdir / f"{job.label}.trace.jsonl"
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_calls(calls: list[Call], tally: Tally) -> dict[Job, dict[str, dict | None]]:
    """Check every call's exit code and output; return the parsed outputs by job and step."""
    by_job: dict[Job, dict[str, dict | None]] = {}
    for call in calls:
        by_job.setdefault(call.job, {})[call.step] = _parse(call, tally)
    return by_job


def check_pass(calls: list[Call], workdir: Path, tally: Tally) -> list[dict]:
    """Check one pass's outputs; return one quality row per job."""
    by_job = check_calls(calls, tally)
    seconds: dict[Job, float] = {}
    for call in calls:
        seconds[call.job] = seconds.get(call.job, 0.0) + call.seconds

    rows = []
    for job, out in by_job.items():
        fact, verify, res = out.get("factorize"), out.get("verify"), out.get("resources")
        label = job.label
        outer = 0
        if job.method in OPTIMIZER_METHODS:
            try:
                trace = _trace_rows(workdir, job) if fact else []
            except (OSError, json.JSONDecodeError) as exc:
                trace = []
                tally.record(False, f"{label}: trace unreadable ({exc})")
            outer = len(trace)
            if job.method == "scdf":
                lams = [row["lambda_two_body"] for row in trace]
                tally.record(
                    bool(lams) and all(b <= a + 1e-12 for a, b in zip(lams, lams[1:])),
                    f"{label}: SCDF norm trajectory rises or is empty: {lams}",
                )
        if job.method == "cdf":
            error = verify["frobenius_error"] if verify else math.inf
            tally.record(error < CDF_EXACT_TOL, f"{label}: cdf reconstruction error {error}")
        if job.fci:
            residual = verify["fci"]["shift_correction_residual"] if verify else math.inf
            tally.record(residual < SHIFT_RESIDUAL_TOL, f"{label}: shift correction residual {residual}")
        optimal = [row for row in res["kr_sweep"] if row["optimal"]] if res else []
        tally.record(len(optimal) == 1, f"{label}: k_r sweep has {len(optimal)} optimal rows")
        summary = fact["summary"] if fact else {}
        estimate = res["estimate"] if res else {}
        rows.append(
            {
                "record": label,
                "n": job.n,
                "method": job.method,
                "seconds": seconds[job],
                "lambda_burg": summary.get("lambda_burg"),
                "lambda_lcu": summary.get("lambda_lcu"),
                "frobenius_error": summary.get("frobenius_error"),
                "toffoli_total": estimate.get("toffoli_total"),
                "logical_qubits": estimate.get("logical_qubits"),
                "outer_iters": outer,
            }
        )

    lam = {(row["n"], row["method"]): row["lambda_burg"] for row in rows}
    for (n, method), value in lam.items():
        if method == "xdf-shift" and (n, "xdf") in lam:
            plain = lam[(n, "xdf")]
            tally.record(
                value is not None and plain is not None and value <= plain,
                f"n{n:02d}: xdf-shift lambda_burg {value} above xdf {plain}",
            )
    return rows


def quality_metrics(rows: list[dict]) -> dict[str, float]:
    """Quality numbers summed over records; NaN where a record is missing."""
    def values(key):
        got = [row[key] for row in rows]
        return got if got and all(v is not None for v in got) else None

    lam, toff, qubits, frob = (values(k) for k in ("lambda_burg", "toffoli_total", "logical_qubits", "frobenius_error"))
    return {
        "lambda_burg_sum": sum(lam) if lam else math.nan,
        "toffoli_total": float(sum(toff)) if toff else math.nan,
        "logical_qubits_max": float(max(qubits)) if qubits else math.nan,
        "frobenius_error_sum": sum(max(e, FROBENIUS_FLOOR) for e in frob) if frob else math.nan,
    }
