"""Span tracing from outside the program, and the per-layer metrics it yields.

``Tracer`` wraps every public function of every ``hamfactor.*`` module, plus
the scipy kernels ``expm``, ``expm_frechet`` and ``minimize`` as bound in
``hamfactor.dfopt``. A from-import copies a binding, so each wrapper is put
into every ``hamfactor.*`` namespace that holds the original. Leaving the
``with`` block puts every original back, so untraced runs execute the
program as shipped.

Spans (name, start, end, parent, op) stay in memory. A layer's self time is
its spans' durations minus the time their direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

SCIPY_KERNELS = ("expm", "expm_frechet", "minimize")


def _module_functions(modname: str, module) -> dict:
    return {
        obj: f"{modname.rpartition('.')[2]}.{attr}"
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == modname and not attr.startswith("_")
    }


# Counts computed from a call's arguments and result, keyed by span name.


def _lbfgs(tracer, args, kwargs, res):
    tracer.count("dfopt.lbfgs_solves")
    tracer.count("dfopt.lbfgs_iters", int(res.nit))
    tracer.count("dfopt.lbfgs_evals", int(res.nfev))
    if res.nit >= kwargs["options"]["maxiter"]:
        tracer.count("dfopt.lbfgs_cap_hits")


def _outer(tracer, args, kwargs, result):
    tracer.count("dfopt.outer_iters", len(result[1]))


def _parsed(tracer, args, kwargs, result):
    tracer.count("fcidump.bytes_parsed", os.path.getsize(args[0]))


def _dense(tracer, args, kwargs, hd):
    tracer.count("oracle.dense_bytes", hd.matrix.nbytes)
    tracer.counts["oracle.sector_dim"] = max(tracer.counts["oracle.sector_dim"], len(hd.basis))


def _saved(tracer, args, kwargs, result):
    tracer.count("factorization.record_bytes", os.path.getsize(args[0]))


HOOKS = {
    "dfopt.minimize": _lbfgs,
    "dfopt.optimize_scdf": _outer,
    "dfopt.optimize_cdf": _outer,
    "fcidump.parse_fcidump": _parsed,
    "oracle.build_from_integrals": _dense,
    "oracle.build_from_factorization": _dense,
    "factorization.save_factorization": _saved,
}


class Tracer:
    """Context manager that traces hamfactor's layers while it is active."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index or -1, op)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.op_counts: defaultdict[str, Counter] = defaultdict(Counter)
        self.op: str | None = None
        self._stack: list[list] = []  # [span index, child seconds]
        self._patches: list[tuple] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount
        self.op_counts[self.op][key] += amount

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
                self.self_time[name] += end - start - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += end - start
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "hamfactor" or name.startswith("hamfactor.")
        }
        targets = {}
        for modname, module in modules.items():
            targets.update(_module_functions(modname, module))
        dfopt = modules["hamfactor.dfopt"]
        for attr in SCIPY_KERNELS:
            targets[getattr(dfopt, attr)] = f"dfopt.{attr}"
        wrappers = {id(fn): self._wrap(name, fn) for fn, name in targets.items()}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        full_rank = modules["hamfactor.factorization"].FullRankFactorization
        self._patch(full_rank, "reconstruct", self._wrap("factorization.reconstruct", full_rank.reconstruct))
        return self

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def child_calls(self, name: str, parent_name: str) -> int:
        spans = self.spans
        return sum(1 for s in spans if s[0] == name and s[3] >= 0 and spans[s[3]][0] == parent_name)


# metric -> span names whose self time it sums
SELF_TIME = {
    "cli.factorize_s": ["cli.cmd_factorize"],
    "cli.resources_s": ["cli.cmd_resources"],
    "cli.verify_s": ["cli.cmd_verify"],
    "fcidump.parse_s": ["fcidump.parse_fcidump"],
    "tensors.derive_one_body_s": ["tensors.derive_one_body"],
    "tensors.frobenius_error_s": ["tensors.frobenius_error"],
    "xdf.explicit_factorization_s": ["xdf.explicit_factorization"],
    "shift.global_two_body_shift_s": ["shift.global_two_body_shift"],
    "shift.signed_split_s": ["shift.signed_split"],
    "dfopt.optimize_scdf_s": ["dfopt.optimize_scdf"],
    "dfopt.expm_s": ["dfopt.expm"],
    "dfopt.expm_frechet_s": ["dfopt.expm_frechet"],
    "dfopt.optimize_cdf_s": ["dfopt.optimize_cdf"],
    "dfopt.solve_v_step_s": ["dfopt.solve_v_step"],
    "norms.norm_report_s": ["norms.norm_report"],
    "norms.lambda_burg_s": ["norms.lambda_burg"],
    "resources.estimate_s": ["resources.estimate"],
    "resources.kr_tradeoff_sweep_s": ["resources.kr_tradeoff_sweep"],
    "oracle.build_from_integrals_s": ["oracle.build_from_integrals"],
    "oracle.build_from_factorization_s": ["oracle.build_from_factorization"],
    "oracle.ground_state_s": ["oracle.ground_state"],
    "factorization.save_s": ["factorization.save_factorization"],
    "factorization.from_dict_s": ["factorization.factorization_from_dict"],
    "factorization.reconstruct_s": ["factorization.reconstruct_tensor", "factorization.reconstruct"],
}
# metric -> span name whose calls it counts
CALLS = {
    "fcidump.parse_calls": "fcidump.parse_fcidump",
    "xdf.first_factorization_calls": "xdf.first_factorization",
    "xdf.signed_first_factorization_calls": "xdf.signed_first_factorization",
    "xdf.second_factorization_calls": "xdf.second_factorization",
    "shift.signed_split_calls": "shift.signed_split",
    "dfopt.cost_scdf_calls": "dfopt.cost_scdf",
    "dfopt.grad_scdf_w_calls": "dfopt.grad_scdf_w",
    "dfopt.grad_scdf_u_calls": "dfopt.grad_scdf_u",
    "dfopt.expm_calls": "dfopt.expm",
    "dfopt.expm_frechet_calls": "dfopt.expm_frechet",
    "dfopt.solve_v_step_calls": "dfopt.solve_v_step",
    "norms.split_directions_calls": "norms.split_directions",
    "resources.estimate_calls": "resources.estimate",
}
# counts the hooks compute
COMPUTED = (
    "fcidump.bytes_parsed",
    "dfopt.outer_iters",
    "dfopt.lbfgs_solves",
    "dfopt.lbfgs_iters",
    "dfopt.lbfgs_evals",
    "dfopt.lbfgs_cap_hits",
    "oracle.sector_dim",
    "oracle.dense_bytes",
    "factorization.record_bytes",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass except ``trace.overhead_s``."""
    out = {m: sum(tracer.self_time[s] for s in spans) for m, spans in SELF_TIME.items()}
    out.update({m: tracer.calls[s] for m, s in CALLS.items()})
    out.update({m: tracer.counts[m] for m in COMPUTED})
    # the scan's objective is a closure the tracer cannot wrap; each evaluation
    # calls two_body_burg_norm once, and global_two_body_shift calls it nowhere else
    out["shift.scan_objective_evals"] = tracer.child_calls("norms.two_body_burg_norm", "shift.global_two_body_shift")
    solves = tracer.counts["dfopt.lbfgs_solves"]
    out["dfopt.lbfgs_cap_hit_ratio"] = tracer.counts["dfopt.lbfgs_cap_hits"] / solves if solves else 0.0
    return out


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes") or metric.endswith("bytes_parsed"):
        return "B"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
