"""Command-line front end.

    synth      write a synthetic exactly-factorizable FCIDUMP
    factorize  FCIDUMP -> factorization JSON (+ optional trace JSONL)
    resources  factorization JSON -> Toffoli/qubit estimate with k_r sweep
    verify     factorization JSON + FCIDUMP -> reconstruction / FCI checks
    sweep      several FCIDUMPs -> log-log scaling slopes

Exit codes: 0 success, 2 invalid input, 3 numerical failure. Every output
embeds the resolved configuration; nothing depends on wall-clock time, so
identical flags and seeds give identical files.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace

import numpy as np

from .dfopt import OptimizerConfig, optimize_cdf, optimize_scdf
from .errors import HamfactorError, NumericalError, ValidationError
from .factorization import (
    FullRankFactorization,
    factorization_from_dict,
    finite_array,
    finite_json,
    load_factorization,
    read_record,
    reconstruct_tensor,
    save_factorization,
)
from .fcidump import parse_fcidump, write_fcidump
from .norms import lambda_burg, lambda_lcu, one_body_norm
from .oracle import block_ground_level, encoded_integrals, spin_block
from .resources import CostModelConfig, estimate, kr_tradeoff_sweep
from .shift import correction_energy, global_two_body_shift, one_body_shift, shifted_tensor, ShiftCorrection
from .tensors import SyntheticSpec, derive_one_body, frobenius_error, synthesize_instance
from .xdf import explicit_factorization

_NDF_PATTERN = re.compile(r"^(\d+)\s*[nN]$")


def _parse_ndf(text: str, n_orbitals: int) -> int:
    """'4N' style multiplier or a plain integer."""
    text = text.strip()
    m = _NDF_PATTERN.match(text)
    if m:
        value = int(m.group(1)) * n_orbitals
    else:
        try:
            value = int(text)
        except ValueError:
            raise ValidationError(f"cannot parse --ndf value {text!r} (use e.g. '24' or '4N')")
    if value < 1:
        raise ValidationError("--ndf must be positive")
    return value


@contextmanager
def _stage(name: str):
    """Label a failure inside the block with the CLI stage ``name``; the innermost wins.

    OSError becomes a ValidationError (exit 2); OverflowError, which float ``**``
    and ``math.ceil(inf)`` raise, a NumericalError (exit 3). Anything else is a bug.
    numpy's floating-point warnings are silenced inside the block: the code's
    own finiteness checks turn an overflow into the one labelled error line.
    """
    try:
        try:
            with np.errstate(all="ignore"):
                yield
        except OSError as exc:
            raise ValidationError(str(exc)) from exc
        except OverflowError as exc:
            raise NumericalError(f"overflow: {exc}") from exc
    except HamfactorError as exc:
        if not hasattr(exc, "stage"):
            exc.stage = name
            exc.args = (f"[{name}] {exc}",)
        raise


def _emit(payload: dict, output: str | None) -> None:
    with _stage("write-output"):
        text = finite_json(payload, indent=1)
        if output:
            with open(output, "w") as fh:
                fh.write(text + "\n")
    print(text)


def _load_problem(path: str):
    g, h, e_nuc, metadata = parse_fcidump(path)
    one_body = derive_one_body(h, g, e_nuc)
    for warning in metadata["warnings"]:
        print(f"warning: [read-input] {path}: {warning}", file=sys.stderr)
    return g, one_body, metadata


def _run_method(g, one_body, method: str, args):
    """Shared factorize driver; returns (fact, trace or None).

    Every method validates the optimizer flags; xdf and xdf-shift read delta_df
    and the truncation mode from them.
    """
    config = OptimizerConfig(  # --rho defaults to 0 for cdf and to 1e-5 for the other methods
        rho=args.rho if args.rho is not None else (0.0 if method == "cdf" else 1e-5),
        gamma=args.gamma,
        max_outer_iters=args.max_outer,
        init_mode=args.init,
        rng_seed=args.seed,
        delta_df=args.delta_df,
        delta_alpha=args.delta_alpha,
        truncation_mode=args.truncation_mode,
    )
    n = g.n_orbitals
    n_df = _parse_ndf(args.ndf, n)
    trace = None
    if method in ("xdf", "xdf-shift") and n_df > n * n:
        print(f"note: --ndf clamped to N^2 = {n * n} for {method}", file=sys.stderr)
        n_df = n * n
    if method == "xdf":
        fact = explicit_factorization(g, n_df, config.delta_df, config.truncation_mode)
    elif method == "xdf-shift":
        a1_prime, _ = one_body_shift(one_body.f_eigs)
        _, fact = global_two_body_shift(g, n_df, config.delta_df, config.truncation_mode)
        fact = fact.with_one_body_shift(a1_prime)
    elif method == "scdf":
        fact, trace = optimize_scdf(g, n_df, config)
        a1_prime, _ = one_body_shift(one_body.f_eigs)
        fact = fact.with_one_body_shift(a1_prime)
    else:  # cdf or rcdf: argparse choices refuse every other method
        fact, trace = optimize_cdf(g, n_df, config)
    return fact, trace


def _core_rank(v: np.ndarray, delta: float) -> int:
    vals = np.linalg.eigvalsh(0.5 * (v + v.T))
    cut = max(delta, 1e-12 * max(np.max(np.abs(vals)), 1.0))
    return int(np.sum(np.abs(vals) > cut))


def _summarize(fact, g, one_body) -> dict:
    """The factorize summary of either record kind.

    Rank-1 records add a1′, a2′ and the α-ablation λ_burg (every per-leaf
    shift α^t zeroed), which shows what those shifts buy.
    """
    error = frobenius_error(g, reconstruct_tensor(fact))
    rank1 = not isinstance(fact, FullRankFactorization)
    ranks = fact.leaf_ranks if rank1 else [_core_rank(v, fact.thresholds.delta_df) for v in fact.cores]
    summary = {
        "method": fact.method_tag,
        "n_orbitals": fact.n_orbitals,
        "n_leaves": fact.n_leaves,
        "xi_mean": float(np.mean(ranks)) if ranks else 0.0,
        "n_alpha": fact.n_alpha if rank1 else 0,
    }
    if rank1:
        summary.update(a1_prime=fact.a1_prime, a2_prime=fact.a2_prime)
    summary.update(
        lambda_lcu=lambda_lcu(fact, one_body),
        lambda_burg=lambda_burg(fact, one_body),
        one_body_norm=one_body_norm(one_body, fact.a1_prime),
    )
    if rank1:
        ablated = replace(fact, shifts=(0.0,) * fact.n_leaves)
        summary["ablation_lambda_burg"] = lambda_burg(ablated, one_body)
    summary["frobenius_error"] = error
    return summary


def _resolved_config(args) -> dict:
    return dict(sorted(vars(args).items()))


def cmd_synth(args) -> int:
    with _stage("synth"):
        for flag, value in (("--coulomb", args.coulomb), ("--e-nuc", args.e_nuc)):
            if not np.isfinite(value):
                raise ValidationError(f"{flag} must be finite, got {value}")
        if args.nelec is not None and not args.nelec >= 0:
            raise ValidationError(f"--nelec must be >= 0, got {args.nelec}")
        spec = SyntheticSpec(
            n_orbitals=args.orbitals,
            n_components=args.components,
            rng_seed=args.seed,
            coulomb_weight=args.coulomb,
        )
        g, _ = synthesize_instance(spec)
        rng = np.random.default_rng(args.seed + 1)
        a = rng.standard_normal((args.orbitals, args.orbitals)) / args.orbitals
        h = 0.5 * (a + a.T) + np.diag(np.linspace(-2.0, -1.0, args.orbitals))
        nelec = args.nelec if args.nelec is not None else args.orbitals
    with _stage("write-output"):
        write_fcidump(args.output, g, h, args.e_nuc, nelec=nelec)
    _emit({"written": args.output, "config": _resolved_config(args)}, None)
    return 0


def cmd_factorize(args) -> int:
    with _stage("read-input"):
        g, one_body, _ = _load_problem(args.input)
    with _stage("factorize"):
        fact, trace = _run_method(g, one_body, args.method, args)
        summary = _summarize(fact, g, one_body)
    config = _resolved_config(args)
    output = args.output or f"{args.input}.{args.method}.json"
    with _stage("write-output"):
        save_factorization(
            output,
            fact,
            config=config,
            extras={
                "one_body_eigs": one_body.f_eigs.tolist(),
                "e_nuc": one_body.e_nuc,
                "summary": summary,
            },
        )
        if args.trace and trace is not None:
            lines = [finite_json(asdict(row)) + "\n" for row in trace]
            with open(args.trace, "w") as fh:
                fh.writelines(lines)
    _emit({"summary": summary, "output": output, "config": config}, None)
    return 0


def _check_orbitals(fact, eigs: np.ndarray, source: str) -> None:
    """Exit 2 unless ``source`` gives one one-body eigenvalue per orbital of ``fact``."""
    if eigs.shape != (fact.n_orbitals,):
        raise ValidationError(
            f"the factorization has {fact.n_orbitals} orbitals but the "
            f"one-body eigenvalues from {source} have shape {eigs.shape}"
        )


def cmd_resources(args) -> int:
    with _stage("read-input"):
        data = read_record(args.fact)
        fact = factorization_from_dict(data)
        if args.fcidump:
            eigs = _load_problem(args.fcidump)[1].f_eigs
        elif "one_body_eigs" in data:
            eigs = finite_array(data["one_body_eigs"], "one_body_eigs")
        else:
            raise ValidationError("factorization file lacks one-body data; pass --fcidump")
        _check_orbitals(fact, eigs, args.fcidump or "its one_body_eigs field")
    with _stage("resources"):
        if args.kr != "auto":
            try:
                k_r = int(args.kr)
            except ValueError:
                raise ValidationError(f"--kr must be 'auto' or a power of 2, got {args.kr!r}")
        else:
            k_r = None
        config = CostModelConfig(
            bits_state_prep=args.bits_state_prep,
            bits_rotations=args.beta,
            epsilon=args.eps,
            k_r=k_r,
        )
        est = estimate(fact, eigs, config)
        sweep = kr_tradeoff_sweep(fact, eigs, config)
    _emit(
        {
            "estimate": est.to_dict(),
            "kr_sweep": sweep,
            "method": fact.method_tag,
            "config": _resolved_config(args),
        },
        args.output,
    )
    return 0


def _electron_count(args, metadata: dict) -> int:
    """The FCI sector: --nelec, else the FCIDUMP header's NELEC (0 means unset)."""
    if args.nelec is not None:
        if args.nelec < 1:
            raise ValidationError(f"--nelec must be at least 1, got {args.nelec}")
        return args.nelec
    nelec = metadata.get("NELEC", 0)
    if not isinstance(nelec, int) or nelec < 0:
        with _stage("read-input"):
            raise ValidationError(
                f"{args.fcidump}: header NELEC={nelec!r} is not a non-negative integer"
            )
    if nelec == 0:
        raise ValidationError("electron count unknown; pass --nelec")
    return nelec


def cmd_verify(args) -> int:
    with _stage("read-input"):
        g, one_body, metadata = _load_problem(args.fcidump)
        fact = load_factorization(args.fact)
        _check_orbitals(fact, one_body.f_eigs, args.fcidump)
    with _stage("verify"):
        reconstruction = reconstruct_tensor(fact)
        error = frobenius_error(g, reconstruction)
        gnorm = float(np.linalg.norm(g.g))
        report: dict = {
            "method": fact.method_tag,
            "frobenius_error": error,
            "relative_frobenius_error": error / gnorm if gnorm else 0.0,
        }
    if args.fci:
        with _stage("fci"):
            if isinstance(fact, FullRankFactorization):
                raise ValidationError("the FCI check supports rank-1 factorizations only")
            nelec = _electron_count(args, metadata)
            block = spin_block(fact.n_orbitals, nelec)
            e_exact, exact_level = block_ground_level(block, one_body.k, g.g, one_body.e_nuc)
            # warm start for the iterative solver; an exact eigenvector of the
            # bare operator (the encoded one) would stall its Krylov space
            v0 = exact_level[:, 0]
            k, garr = encoded_integrals(fact, one_body.f, reconstruction)
            e_enc, enc_level = block_ground_level(block, k, garr, one_body.e_nuc, v0=v0)
            psi_enc = enc_level[:, 0]
            correction = ShiftCorrection.from_factorization(fact)
            e_restored = e_enc + correction_energy(correction, nelec)
            bare = replace(
                fact, a1_prime=0.0, a2_prime=0.0, shifts=tuple(0.0 for _ in fact.shifts)
            )
            # reconstruct_tensor adds a2' δδ back, which the bare twin (a2' = 0) does not
            k, garr = encoded_integrals(bare, one_body.f, shifted_tensor(reconstruction, fact.a2_prime))
            e_bare, bare_level = block_ground_level(block, k, garr, one_body.e_nuc, v0=v0)
            # exact operator identity, independent of fit quality: zeroing the
            # stored shift fields changes the assembled operator by
            # (a1' + N*a2')*Ne + (sum alpha)*Ne^2/2 -- the bare twin still
            # encodes the a2'-shifted tensor in its factors but pairs it with
            # the unshifted one-body matrix, hence the N*a2' back-reaction
            x = fact.a1_prime + fact.n_orbitals * fact.a2_prime
            identity_restored = e_enc + x * nelec + 0.5 * sum(fact.shifts) * nelec**2
            report["fci"] = {
                "n_electrons": nelec,
                "ground_exact": e_exact,
                "ground_encoded": e_enc,
                "ground_restored": e_restored,
                "delta_factorized": abs(e_restored - e_exact),
                "shift_correction_residual": abs(identity_restored - e_bare),
                # norm of the encoded ground vector projected onto the other
                # matrix's whole ground level: a degenerate level has no
                # preferred eigenvector to take a plain overlap with
                "shift_eigenvector_overlap": float(np.linalg.norm(psi_enc @ bare_level)),
                "exact_eigenvector_overlap": float(np.linalg.norm(psi_enc @ exact_level)),
                "correction": {"a1": correction.a1, "a2": correction.a2},
            }
    _emit({**report, "config": _resolved_config(args)}, args.output)
    return 0


def _fit_loglog(sizes, values) -> dict:
    pairs = [(n, v) for n, v in zip(sizes, values) if v > 0]
    distinct = sorted({n for n, _ in pairs})
    if len(distinct) < 2:
        return {"slope": None, "r2": None, "note": "need at least 2 distinct sizes"}
    x = np.log([n for n, _ in pairs])
    y = np.log([v for _, v in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return {"slope": float(slope), "r2": r2}


def cmd_sweep(args) -> int:
    with _stage("resources"):
        cost_config = CostModelConfig(epsilon=args.eps)
    points = []
    for path in args.inputs:
        with _stage("read-input"):
            g, one_body, _ = _load_problem(path)
        for method in args.method:
            with _stage("factorize"):
                fact, _ = _run_method(g, one_body, method, args)
            with _stage("resources"):
                est = estimate(fact, one_body, cost_config)
            points.append(
                {
                    "input": path,
                    "method": method,
                    "n_orbitals": g.n_orbitals,
                    "lambda_burg": est.lambda_value,
                    "toffoli_total": est.toffoli_total,
                    "logical_qubits": est.logical_qubits,
                }
            )

    fits = {}
    for method in args.method:
        mine = [p for p in points if p["method"] == method]
        sizes = [p["n_orbitals"] for p in mine]
        fits[method] = {
            "lambda": _fit_loglog(sizes, [p["lambda_burg"] for p in mine]),
            "toffoli": _fit_loglog(sizes, [p["toffoli_total"] for p in mine]),
            "qubits": _fit_loglog(sizes, [p["logical_qubits"] for p in mine]),
        }
    _emit({"points": points, "fits": fits, "config": _resolved_config(args)}, args.output)
    return 0


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ndf", default="4N", help="leaf count, absolute or a multiplier like 4N")
    p.add_argument("--delta-df", type=float, default=1e-4, dest="delta_df")
    p.add_argument("--delta-alpha", type=float, default=1e-3, dest="delta_alpha")
    p.add_argument("--rho", type=float, default=None, help="penalty weight (default per method)")
    p.add_argument("--gamma", type=int, default=1, choices=(1, 2))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-outer", type=int, default=40, dest="max_outer")
    p.add_argument("--init", default="from_xdf", choices=("from_xdf", "random"))
    p.add_argument(
        "--truncation-mode", default="component", choices=("component", "combined"),
        dest="truncation_mode",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    ``args.command`` names the subcommand; ``main`` looks up its ``cmd_*``
    function at call time, so a wrapper put on that name takes effect.
    """
    parser = argparse.ArgumentParser(
        prog="hamfactor",
        description="Double-factorized electronic Hamiltonians: compression, "
        "symmetry shifts, norms, and fault-tolerant cost estimates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic exactly-factorizable FCIDUMP")
    p.add_argument("output")
    p.add_argument("--orbitals", type=int, required=True)
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--coulomb", type=float, default=1.0)
    p.add_argument("--nelec", type=int, default=None)
    p.add_argument("--e-nuc", type=float, default=0.0, dest="e_nuc")

    p = sub.add_parser("factorize", help="factorize an FCIDUMP")
    p.add_argument("input")
    p.add_argument(
        "--method", required=True, choices=("xdf", "xdf-shift", "cdf", "rcdf", "scdf")
    )
    _add_optimizer_flags(p)
    p.add_argument("--output", default=None)
    p.add_argument("--trace", default=None, help="write per-iteration trace JSONL here")

    p = sub.add_parser("resources", help="Toffoli/qubit estimate for a factorization")
    p.add_argument("fact")
    p.add_argument("--fcidump", default=None, help="recompute one-body data from this file")
    p.add_argument("--eps", type=float, default=1.6e-3)
    p.add_argument("--bits-state-prep", type=int, default=10, dest="bits_state_prep")
    p.add_argument("--beta", type=int, default=16)
    p.add_argument("--kr", default="auto")
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify", help="reconstruction and FCI checks")
    p.add_argument("fact")
    p.add_argument("fcidump")
    p.add_argument("--fci", action="store_true")
    p.add_argument("--nelec", type=int, default=None)
    p.add_argument("--output", default=None)

    p = sub.add_parser("sweep", help="scaling slopes across several inputs")
    p.add_argument("inputs", nargs="+")
    p.add_argument(
        "--method", nargs="+", default=("xdf", "scdf"),  # a tuple: the cached parser shares it
        choices=("xdf", "xdf-shift", "cdf", "rcdf", "scdf"),
    )
    p.add_argument("--eps", type=float, default=1.6e-3)
    _add_optimizer_flags(p)
    p.add_argument("--output", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
