"""End-to-end command-line tests driven through main(argv)."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hamfactor as hf
from hamfactor.cli import main
from hamfactor.errors import NumericalError

from conftest import data_path, make_instance


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def synth_args(path, n=4, seed=3):
    return ("synth", str(path), "--orbitals", str(n), "--components", str(n), "--seed", str(seed))


# on a failure case stderr must end with the one labelled error line; a numpy
# RuntimeWarning escaping main would print library paths ahead of it
no_runtime_warnings = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_synth_writes_deterministic_fcidump(tmp_path, capsys):
    p1, p2 = tmp_path / "a.fcidump", tmp_path / "b.fcidump"
    code, payload = run(capsys, *synth_args(p1))
    assert code == 0
    assert payload["written"] == str(p1)
    code, _ = run(capsys, *synth_args(p2))
    assert code == 0
    assert p1.read_bytes() == p2.read_bytes()
    g, h, e_nuc, meta = hf.parse_fcidump(str(p1))
    assert g.n_orbitals == 4
    assert int(meta["NELEC"]) == 4
    assert np.allclose(h, h.T)


def test_factorize_resources_verify_pipeline(tmp_path, capsys):
    dump = tmp_path / "inst.fcidump"
    assert run(capsys, *synth_args(dump))[0] == 0

    code, payload = run(
        capsys, "factorize", str(dump), "--method", "xdf", "--ndf", "4N"
    )
    assert code == 0
    fact_path = str(dump) + ".xdf.json"
    assert payload["output"] == fact_path
    # four components, so a 16-leaf eigendecomposition reproduces the tensor
    assert payload["summary"]["frobenius_error"] < 1e-9
    assert payload["summary"]["method"] == "XDF"
    saved = json.loads((tmp_path / "inst.fcidump.xdf.json").read_text())
    assert saved["kind"] == "rank1"
    assert "one_body_eigs" in saved

    code, payload = run(capsys, "resources", fact_path)
    assert code == 0
    est = payload["estimate"]
    assert est["toffoli_total"] == est["toffoli_per_step"] * est["iterations"]
    assert sum(r["optimal"] for r in payload["kr_sweep"]) == 1

    out = tmp_path / "verify.json"
    code, payload = run(
        capsys, "verify", fact_path, str(dump), "--fci", "--output", str(out)
    )
    assert code == 0
    assert payload["frobenius_error"] < 1e-9
    fci = payload["fci"]
    assert fci["n_electrons"] == 4
    assert fci["delta_factorized"] < 1e-7
    assert fci["shift_correction_residual"] < 1e-9
    assert fci["exact_eigenvector_overlap"] == pytest.approx(1.0, abs=1e-7)
    assert json.loads(out.read_text()) == payload


def test_factorize_scdf_writes_trace(tmp_path, capsys):
    dump = tmp_path / "inst.fcidump"
    assert run(capsys, *synth_args(dump, n=3))[0] == 0
    trace = tmp_path / "trace.jsonl"
    code, payload = run(
        capsys,
        "factorize", str(dump),
        "--method", "scdf", "--ndf", "6", "--max-outer", "3",
        "--output", str(tmp_path / "f.json"), "--trace", str(trace),
    )
    assert code == 0
    assert payload["summary"]["method"] == "SCDF"
    rows = [json.loads(line) for line in trace.read_text().splitlines()]
    assert rows
    for row in rows:
        assert {"outer", "cost", "residual_cost", "penalty", "lambda_two_body", "grad_norm"} <= set(row)
    assert rows[0]["outer"] == 1


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def test_factorize_cdf_writes_strict_json(tmp_path, capsys):
    dump = tmp_path / "inst.fcidump"
    assert run(capsys, *synth_args(dump, n=3))[0] == 0
    trace = tmp_path / "trace.jsonl"
    record = tmp_path / "f.json"
    code, _ = run(
        capsys,
        "factorize", str(dump),
        "--method", "cdf", "--ndf", "4", "--max-outer", "2",
        "--output", str(record), "--trace", str(trace),
    )
    assert code == 0
    rows = [json.loads(line, parse_constant=_reject_constant) for line in trace.read_text().splitlines()]
    assert rows and all(row["lambda_two_body"] is None for row in rows)
    json.loads(record.read_text(), parse_constant=_reject_constant)


@pytest.mark.parametrize("method", ["scdf", "cdf", "rcdf"])
def test_factorize_one_orbital(tmp_path, capsys, method):
    # one orbital leaves a rotation step no generators: the inner L-BFGS gets an empty start
    dump = tmp_path / "one.fcidump"
    assert run(capsys, "synth", str(dump), "--orbitals", "1", "--components", "1")[0] == 0
    record = tmp_path / "f.json"
    code, payload = run(capsys, "factorize", str(dump), "--method", method, "--output", str(record))
    assert code == 0
    data = json.loads(record.read_text(), parse_constant=_reject_constant)
    assert data["n_orbitals"] == 1
    numbers = [v for v in payload["summary"].values() if isinstance(v, float)]
    assert numbers and np.all(np.isfinite(numbers))


def test_non_finite_record_is_a_numerical_error(tmp_path, small_instance):
    g, _ = small_instance
    fact = hf.explicit_factorization(g, 4).with_one_body_shift(float("nan"))
    with pytest.raises(NumericalError, match="non-finite"):
        hf.save_factorization(str(tmp_path / "f.json"), fact)
    assert not (tmp_path / "f.json").exists()


def test_shift_method_reports_nonzero_shift(tmp_path, capsys):
    dump = tmp_path / "inst.fcidump"
    assert run(capsys, *synth_args(dump))[0] == 0
    code, payload = run(capsys, "factorize", str(dump), "--method", "xdf-shift")
    assert code == 0
    summary = payload["summary"]
    assert summary["a2_prime"] != 0.0
    assert summary["a1_prime"] != 0.0
    assert summary["lambda_burg"] <= summary["ablation_lambda_burg"] + 1e-9


@no_runtime_warnings
def test_exit_code_2_on_bad_inputs(tmp_path, capsys):
    code = main(["factorize", str(tmp_path / "missing.fcidump"), "--method", "xdf"])
    assert code == 2
    assert "read-input" in capsys.readouterr().err

    dump = tmp_path / "inst.fcidump"
    assert run(capsys, *synth_args(dump))[0] == 0
    code = main(["factorize", str(dump), "--method", "xdf", "--ndf", "4X"])
    assert code == 2
    assert "--ndf" in capsys.readouterr().err


@no_runtime_warnings
@pytest.mark.parametrize("where", ["one_body_inf", "two_body_nan"])
def test_exit_code_2_on_non_finite_integrals(tmp_path, capsys, where):
    g, _ = make_instance(3, seed=5)
    h = np.diag(np.linspace(-2.0, -1.0, 3))
    if where == "one_body_inf":
        h[0, 0] = np.inf
    dump = tmp_path / "bad.fcidump"
    hf.write_fcidump(str(dump), g, h, 0.0, nelec=3)
    if where == "two_body_nan":
        lines = dump.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if "&END" in line) + 1
        lines[first] = " ".join(["nan"] + lines[first].split()[1:])
        dump.write_text("\n".join(lines) + "\n")
    code = main(["factorize", str(dump), "--method", "xdf"])
    assert code == 2
    err = capsys.readouterr().err
    assert "read-input" in err and "non-finite" in err


@pytest.fixture(scope="module")
def xdf_record(tmp_path_factory):
    """(FCIDUMP, record) of an N = 4 synthetic instance factorized by xdf."""
    dump = tmp_path_factory.mktemp("record") / "inst.fcidump"
    assert main(list(synth_args(dump))) == 0
    assert main(["factorize", str(dump), "--method", "xdf"]) == 0
    return dump, dump.with_name(dump.name + ".xdf.json")


@pytest.fixture(scope="module")
def n11_record(tmp_path_factory):
    """(FCIDUMP, record) of an N = 11 synthetic instance with NELEC = 11, factorized by xdf."""
    dump = tmp_path_factory.mktemp("n11") / "n11.fcidump"
    assert main(["synth", str(dump), "--orbitals", "11", "--components", "2"]) == 0
    assert main(["factorize", str(dump), "--method", "xdf", "--ndf", "2"]) == 0
    return dump, dump.with_name(dump.name + ".xdf.json")


def _corrupt(data: dict, case: str) -> dict:
    leaf = data["leaves"][0]
    if case == "nan_in_w":
        leaf["W"][0] = float("nan")
    elif case == "string_a1_prime":
        data["a1_prime"] = "x"
    elif case == "ragged_u":
        leaf["U"][0] = leaf["U"][0][:-1]
    elif case == "sign_5":
        leaf["sign"] = 5
    else:
        # a full-rank record of the same leaves, cores V = sign * W ⊗ W
        data.update(kind="full_rank", method="CDF")
        for each in data["leaves"]:
            w = np.asarray(each.pop("W"))
            each["V"] = (each["sign"] * np.outer(w, w)).tolist()
        if case == "full_rank_2x2_u":
            leaf["U"] = [[1.0, 0.0], [0.0, 1.0]]
        else:
            leaf["V"][0][0] = float("inf")
    return data


@no_runtime_warnings
@pytest.mark.parametrize("command", ["resources", "verify"])
@pytest.mark.parametrize(
    "case",
    ["nan_in_w", "string_a1_prime", "ragged_u", "sign_5", "full_rank_2x2_u", "inf_in_v"],
)
def test_malformed_record_exits_2(tmp_path, capsys, xdf_record, case, command):
    dump, record = xdf_record
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_corrupt(json.loads(record.read_text()), case)))
    argv = ["resources", str(bad)] if command == "resources" else ["verify", str(bad), str(dump)]
    assert main(argv) == 2
    assert "read-input" in capsys.readouterr().err


@no_runtime_warnings
@pytest.mark.parametrize(
    "field, value",
    [("sign", 1.5), ("sign", -1.9), ("sign", "1"), ("xi", -2.5), ("xi", True), ("n_orbitals", 4.9)],
)
def test_non_integer_record_field_exits_2(tmp_path, capsys, xdf_record, field, value):
    _, record = xdf_record
    for given, code in ((value, 2), (-1.0 if field == "sign" else 4.0, 0)):
        bad = tmp_path / "bad.json"
        _write_record(record, bad, lambda data: (data if field == "n_orbitals" else data["leaves"][0]).update({field: given}))
        capsys.readouterr()
        assert main(["resources", str(bad)]) == code
        if code:
            err = capsys.readouterr().err
            assert assert_one_stage_label(code, err) == "read-input"
            assert f"{field} in factorization record must be an integer" in err


@no_runtime_warnings
@pytest.mark.parametrize("case", ["verify", "verify_fci", "resources_fcidump", "short_one_body_eigs"])
def test_orbital_count_mismatch_exits_2(tmp_path, capsys, xdf_record, case):
    _, record = xdf_record
    other = tmp_path / "n5.fcidump"
    assert main(list(synth_args(other, n=5))) == 0
    if case == "short_one_body_eigs":
        data = json.loads(record.read_text())
        data["one_body_eigs"] = data["one_body_eigs"][:2]
        short = tmp_path / "short.json"
        short.write_text(json.dumps(data))
        argv, shape = ["resources", str(short)], "(2,)"
    else:
        argv, shape = {
            "verify": ["verify", str(record), str(other)],
            "verify_fci": ["verify", str(record), str(other), "--fci"],
            "resources_fcidump": ["resources", str(record), "--fcidump", str(other)],
        }[case], "(5,)"
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "read-input" in err and "4 orbitals" in err and shape in err


@no_runtime_warnings
def test_exit_code_3_on_indefinite_tensor(tmp_path, capsys):
    g, _ = make_instance(3, seed=5)
    flipped = hf.TwoElectronTensor(-g.g)
    h = np.diag(np.linspace(-2.0, -1.0, 3))
    dump = tmp_path / "bad.fcidump"
    hf.write_fcidump(str(dump), flipped, h, 0.0, nelec=3)
    code = main(["factorize", str(dump), "--method", "xdf"])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "factorize" in err


def test_resources_needs_one_body_source(tmp_path, capsys):
    g, _ = make_instance(3, seed=2)
    fact = hf.explicit_factorization(g, 9)
    bare = tmp_path / "bare.json"
    hf.save_factorization(str(bare), fact)
    code = main(["resources", str(bare)])
    assert code == 2
    assert "--fcidump" in capsys.readouterr().err

    dump = tmp_path / "inst.fcidump"
    assert run(capsys, *synth_args(dump, n=3))[0] == 0
    code, payload = run(capsys, "resources", str(bare), "--fcidump", str(dump))
    assert code == 0
    assert payload["estimate"]["lambda"] > 0


def test_resources_kr_flag(tmp_path, capsys):
    dump = tmp_path / "inst.fcidump"
    assert run(capsys, *synth_args(dump))[0] == 0
    code, payload = run(capsys, "factorize", str(dump), "--method", "xdf")
    fact_path = payload["output"]
    code, payload = run(capsys, "resources", fact_path, "--kr", "2")
    assert code == 0
    assert payload["estimate"]["k_r_used"] == 2
    assert main(["resources", fact_path, "--kr", "x"]) == 2
    capsys.readouterr()
    assert main(["resources", fact_path, "--kr", "3"]) == 2
    capsys.readouterr()


@no_runtime_warnings
def test_verify_fci_rejects_full_rank(tmp_path, capsys):
    dump = tmp_path / "inst.fcidump"
    assert run(capsys, *synth_args(dump, n=3))[0] == 0
    code, payload = run(
        capsys, "factorize", str(dump), "--method", "cdf", "--ndf", "3", "--max-outer", "2"
    )
    assert code == 0
    fact_path = payload["output"]
    assert run(capsys, "verify", fact_path, str(dump))[0] == 0
    code = main(["verify", fact_path, str(dump), "--fci"])
    assert code == 2
    assert "rank-1" in capsys.readouterr().err


def test_verify_fci_on_h2(tmp_path, capsys):
    h2 = data_path("h2_sto3g.fcidump")
    fact_path = tmp_path / "h2.json"
    code, _ = run(
        capsys,
        "factorize", h2, "--method", "xdf-shift",
        "--delta-df", "0", "--output", str(fact_path),
    )
    assert code == 0
    code, payload = run(capsys, "verify", str(fact_path), h2, "--fci")
    assert code == 0
    fci = payload["fci"]
    assert fci["n_electrons"] == 2
    assert fci["ground_exact"] == pytest.approx(-1.1374506545, abs=1e-8)
    assert fci["delta_factorized"] < 1e-8
    assert fci["shift_correction_residual"] < 1e-10
    assert fci["shift_eigenvector_overlap"] == pytest.approx(1.0, abs=1e-9)


def test_verify_fci_on_the_matrix_free_path(tmp_path, capsys):
    # chain_n08's 4900-state spin block is past DENSE_BLOCK_STATES, so all
    # three ground levels come from the Lanczos solve of the matrix-free product
    dump = data_path("chain_n08.fcidump")
    fact_path = tmp_path / "n08.json"
    code, _ = run(capsys, "factorize", dump, "--method", "xdf-shift", "--output", str(fact_path))
    assert code == 0
    code, payload = run(capsys, "verify", str(fact_path), dump, "--fci")
    assert code == 0
    fci = payload["fci"]
    assert fci["n_electrons"] == 8
    assert fci["ground_exact"] == pytest.approx(-8.10537028783724, abs=1e-9)
    assert fci["ground_restored"] == pytest.approx(-8.105503707766708, abs=1e-9)
    assert fci["shift_correction_residual"] <= 1e-9


def test_verify_fci_shift_identity_with_per_leaf_shifts(tmp_path, capsys):
    # xdf-shift leaves per-leaf shifts at zero, so only this path exercises
    # the quadratic term of the restoration identity; the residual is exact
    # regardless of fit error and was O(N * sum(alpha) * ne) under a bad
    # linear coefficient
    dump = tmp_path / "inst.fcidump"
    assert run(capsys, *synth_args(dump, n=3, seed=5))[0] == 0
    code, payload = run(
        capsys,
        "factorize", str(dump), "--method", "scdf",
        "--ndf", "9", "--max-outer", "8",
    )
    assert code == 0
    assert payload["summary"]["n_alpha"] > 0
    code, rep = run(capsys, "verify", payload["output"], str(dump), "--fci", "--nelec", "2")
    assert code == 0
    fci = rep["fci"]
    assert fci["shift_correction_residual"] < 1e-9
    # seed 5 keeps this sector's ground state isolated (gap ~0.69)
    assert fci["exact_eigenvector_overlap"] == pytest.approx(1.0, abs=1e-7)


def test_verify_fci_overlaps_span_a_degenerate_ground_level(tmp_path, capsys):
    # chain_n06's 6-electron ground level is a 5-fold multiplet: eigh picks an
    # arbitrary member per matrix, and member-to-member overlaps read ~1e-30
    dump = data_path("chain_n06.fcidump")
    g, h, e_nuc, _ = hf.parse_fcidump(dump)
    exact = hf.build_from_integrals(hf.derive_one_body(h, g, e_nuc).k, g, e_nuc, sector=6)
    levels = np.linalg.eigvalsh(exact.matrix)
    assert levels[1] - levels[0] < 1e-8
    record = tmp_path / "n06.json"
    assert run(capsys, "factorize", dump, "--method", "xdf-shift", "--output", str(record))[0] == 0
    code, payload = run(capsys, "verify", str(record), dump, "--fci")
    assert code == 0
    fci = payload["fci"]
    assert fci["n_electrons"] == 6
    assert fci["shift_correction_residual"] < 1e-9
    assert fci["shift_eigenvector_overlap"] == pytest.approx(1.0, abs=1e-9)
    assert fci["exact_eigenvector_overlap"] == pytest.approx(1.0, abs=1e-6)


def test_verify_fci_energy_fidelity_at_n8(tmp_path, capsys):
    # N = 8 (4900-state block) runs matrix-free; SCDF keeps the ground energy
    dump = data_path("chain_n08.fcidump")
    record = tmp_path / "n08.json"
    argv = ["factorize", dump, "--method", "scdf", "--max-outer", "2", "--output", str(record)]
    assert run(capsys, *argv)[0] == 0
    code, payload = run(capsys, "verify", str(record), dump, "--fci")
    assert code == 0
    fci = payload["fci"]
    assert fci["n_electrons"] == 8
    assert fci["shift_correction_residual"] < 1e-9
    assert fci["delta_factorized"] < 1.6e-3
    assert fci["shift_eigenvector_overlap"] == pytest.approx(1.0, abs=1e-9)
    assert fci["exact_eigenvector_overlap"] > 0.999


@no_runtime_warnings
@pytest.mark.parametrize(
    "header, flag, expected",
    [
        ("abc", None, "NELEC"),
        ("3,4", None, "NELEC"),
        ("2.5", None, "NELEC"),
        ("-1", None, "NELEC"),
        ("0", None, "unknown; pass --nelec"),
        ("4", "-1", "--nelec must be"),
        ("4", "0", "--nelec must be"),
    ],
)
def test_verify_fci_rejects_a_bad_electron_count(tmp_path, capsys, xdf_record, header, flag, expected):
    dump, record = xdf_record
    bad = tmp_path / "nelec.fcidump"
    text = dump.read_text()
    assert "NELEC=  4," in text
    bad.write_text(text.replace("NELEC=  4,", f"NELEC={header},", 1))
    argv = ["verify", str(record), str(bad), "--fci"] + (["--nelec", flag] if flag else [])
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert expected in err
    if expected == "NELEC":
        assert "[read-input]" in err and str(bad) in err


def test_missing_nuclear_repulsion_record_warns(tmp_path, capsys, xdf_record):
    dump, _ = xdf_record
    lines = dump.read_text().splitlines(keepends=True)
    assert lines[-1].split()[1:] == ["0", "0", "0", "0"]
    bare = tmp_path / "no_enuc.fcidump"
    bare.write_text("".join(lines[:-1]))
    capsys.readouterr()
    assert main(["factorize", str(bare), "--method", "xdf", "--output", str(tmp_path / "r.json")]) == 0
    err = capsys.readouterr().err
    assert f"warning: [read-input] {bare}: " in err and "nuclear-repulsion" in err


def test_sweep_fits_and_single_point_note(tmp_path, capsys):
    d3, d5 = tmp_path / "n3.fcidump", tmp_path / "n5.fcidump"
    assert run(capsys, *synth_args(d3, n=3))[0] == 0
    assert run(capsys, *synth_args(d5, n=5))[0] == 0

    code, payload = run(
        capsys, "sweep", str(d3), str(d5), "--method", "xdf", "--ndf", "2N"
    )
    assert code == 0
    assert len(payload["points"]) == 2
    fit = payload["fits"]["xdf"]
    for key in ("lambda", "toffoli", "qubits"):
        assert isinstance(fit[key]["slope"], float)

    code, payload = run(capsys, "sweep", str(d3), "--method", "xdf")
    assert code == 0
    assert payload["fits"]["xdf"]["lambda"]["slope"] is None
    assert "note" in payload["fits"]["xdf"]["lambda"]


_STAGE_LABEL = re.compile(r"\[(read-input|synth|factorize|resources|verify|fci|write-output)\]")


def assert_one_stage_label(code, err):
    """stderr of an exit 2 or 3 ends in one labelled error line; returns its stage."""
    last = err.splitlines()[-1]
    prefix = {2: "error: ", 3: "numerical failure: "}[code]
    assert last.startswith(prefix + "["), last
    labels = _STAGE_LABEL.findall(last)
    assert len(labels) == 1 and last.startswith(f"{prefix}[{labels[0]}] "), last
    return labels[0]


def _write_record(record, path, edit):
    data = json.loads(record.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _huge_w(data):
    data["leaves"][0]["W"] = [1e200] * 4


def _huge_alpha(data):
    data["method"] = "SCDF"
    data["leaves"][0]["alpha"] = 1e308


def _huge_shifted_w(data):
    data["method"] = "SCDF"
    data["leaves"][0].update(W=[1e200] * 4, alpha=1.0)


def _as_full_rank(data, method="CDF"):
    data.update(kind="full_rank", method=method)
    for leaf in data["leaves"]:
        leaf["V"] = np.diag(leaf["W"]).tolist()


def _huge_core(data):
    _as_full_rank(data)
    data["leaves"][0]["V"] = [[1e308] * 4] * 4


def _zero_norm(data):
    # every f° − a1′ is zero and ¼(Σ_k |W_k|)² underflows to zero, yet each W is a direction
    for leaf in data["leaves"]:
        leaf["W"] = [1e-170] * len(leaf["W"])
    data["thresholds"]["delta_df"] = 0.0
    data["one_body_eigs"] = [0.5] * len(data["one_body_eigs"])
    data["a1_prime"] = 0.5


# the record field or CLI flag an invalid numeric flag's message names
_FLAG_NAMES = {
    "--eps": "epsilon", "--rho": "rho", "--delta-df": "delta_df", "--delta-alpha": "delta_alpha",
    "--max-outer": "max_outer_iters", "--seed": "rng_seed",
    "--e-nuc": "--e-nuc", "--coulomb": "--coulomb", "--nelec": "--nelec",
}


def _write_integrals(dump, path, values, norb=None):
    """Copy of ``dump`` with new values for the records keyed "i j k l", optionally a new NORB."""
    lines = dump.read_text().splitlines()
    for at, line in enumerate(lines):
        indices = " ".join(line.split()[1:])
        if indices in values:
            lines[at] = f"{values[indices]} {indices}"
    if norb is not None:
        lines[0] = re.sub(r"NORB=\s*\d+,", f"NORB={norb},", lines[0])
    path.write_text("\n".join(lines) + "\n")


# flag values whose refusal message the failure table pins, by (flag, value)
_FLAG_VALUE_MESSAGES = {
    ("--delta-df", "1e3"): "truncated away; lower delta_df",
    ("--ndf", "0"): "--ndf must be positive",
    ("--ndf", "0N"): "--ndf must be positive",
    ("--ndf", "-3"): "--ndf must be positive",
}


# inputs whose refusal message the failure table pins, by path placeholder
_INPUT_MESSAGES = {
    "missing_record": "cannot read factorization file",
    "not_json": "is not valid JSON",
    "no_fci": "expected '&FCI' namelist header",
    "endless_header": "namelist header never terminated",
    "banana_kind": "record kind must be one of ('rank1', 'full_rank'), got 'banana'",
    "full_rank_banana_tag": "full-rank method_tag must be one of ('CDF', 'RCDF'), got 'banana'",
    "full_rank_scdf_tag": "full-rank method_tag must be one of ('CDF', 'RCDF'), got 'SCDF'",
    "zero_norm": "encoded norm is zero; nothing to estimate",
}


@no_runtime_warnings
@pytest.mark.parametrize(
    "argv, code, stage",
    [
        (["resources", "{record}", "--output", "{missing}"], 2, "write-output"),
        (["verify", "{record}", "{dump}", "--output", "{missing}"], 2, "write-output"),
        (["sweep", "{dump}", "--method", "xdf", "--output", "{missing}"], 2, "write-output"),
        (["synth", "{missing}", "--orbitals", "3", "--components", "3"], 2, "write-output"),
        (["factorize", "{binary}", "--method", "xdf"], 2, "read-input"),
        # bad UTF-8 bytes found while the header or a later piece is read
        (["factorize", "{header_bad_bytes}", "--method", "xdf"], 2, "read-input"),
        (["factorize", "{late_bad_bytes}", "--method", "xdf"], 2, "read-input"),
        (["resources", "{huge_w}"], 3, "resources"),
        (["verify", "{huge_w}", "{dump}"], 2, "verify"),
        (["resources", "{huge_alpha}"], 3, "resources"),
        (["verify", "{huge_alpha}", "{dump}", "--fci"], 3, "fci"),
        (["factorize", "{dump}", "--method", "xdf", "--ndf", "abc"], 2, "factorize"),
        (["resources", "{record}", "--kr", "3"], 2, "resources"),
        (["resources", "{record}", "--kr", "x"], 2, "resources"),
        (["resources", "{record}", "--eps", "0"], 2, "resources"),
        (["synth", "{tmp}/z.fcidump", "--orbitals", "0", "--components", "1"], 2, "synth"),
        # found by test_fuzzed_inputs_exit_cleanly: each died with LinAlgError
        (["factorize", "{f_overflow}", "--method", "xdf"], 3, "read-input"),
        (["factorize", "{eigs_overflow}", "--method", "xdf-shift"], 3, "factorize"),
        (["factorize", "{first_eigh_fails}", "--method", "xdf-shift"], 3, "factorize"),
        (["factorize", "{second_eigh_fails}", "--method", "xdf-shift"], 3, "factorize"),
        (["factorize", "{one_body_eigh_fails}", "--method", "xdf"], 3, "read-input"),
        # a 1e200 entry overflows the full-rank cost
        (["factorize", "{huge_g}", "--method", "cdf", "--max-outer", "1", "--ndf", "4"], 3, "factorize"),
        # found by the fuzz test: the Frobenius error overflowed to inf and failed at write-output
        (["verify", "{record}", "{huge_g}"], 3, "verify"),
        # N = 11 at half filling: a 213444-state spin block, refused before it is built
        (["verify", "{n11_record}", "{n11_dump}", "--fci"], 2, "fci"),
        # non-finite or negative numeric flags, refused before any work or file write
        (["resources", "{record}", "--eps", "nan"], 2, "resources"),
        (["resources", "{record}", "--eps", "inf"], 2, "resources"),
        (["sweep", "{dump}", "--method", "xdf", "--eps", "nan"], 2, "resources"),
        (["factorize", "{dump}", "--method", "xdf", "--delta-alpha", "nan"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "xdf-shift", "--delta-alpha", "inf"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "scdf", "--rho", "nan"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "scdf", "--rho", "inf"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "cdf", "--rho", "-1"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "xdf", "--delta-df", "nan"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "xdf", "--delta-df", "-1"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "scdf", "--max-outer", "-1"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "scdf", "--init", "random", "--seed", "-1"], 2, "factorize"),
        (["synth", "{tmp}/seed.fcidump", "--orbitals", "3", "--components", "3", "--seed", "-1"], 2, "synth"),
        (["synth", "{tmp}/e_nuc.fcidump", "--orbitals", "3", "--components", "3", "--e-nuc", "nan"], 2, "synth"),
        (["synth", "{tmp}/coulomb.fcidump", "--orbitals", "3", "--components", "3", "--coulomb", "inf"], 2, "synth"),
        (["synth", "{tmp}/nelec.fcidump", "--orbitals", "3", "--components", "3", "--nelec", "-1"], 2, "synth"),
        # overflowing leaves fail their eigensolve instead of losing every direction
        (["resources", "{huge_shifted_w}"], 3, "resources"),
        (["resources", "{huge_core}"], 3, "resources"),
        # sizes numpy refuses to allocate: the message names the input that asked for them
        (["factorize", "{huge_norb}", "--method", "xdf"], 2, "read-input"),
        (["factorize", "{dump}", "--method", "scdf", "--ndf", "1000000000000000000"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "cdf", "--ndf", "1000000000000000000"], 2, "factorize"),
        # past the index range: numpy's shape check, not an overflow
        (["factorize", "{dump}", "--method", "scdf", "--ndf", "10000000000000000000"], 2, "factorize"),
        # one-body records only: each method died on the empty eigensolve of the zero tensor
        (["factorize", "{one_body_only}", "--method", "xdf"], 2, "factorize"),
        (["factorize", "{one_body_only}", "--method", "xdf-shift"], 2, "factorize"),
        (["factorize", "{one_body_only}", "--method", "scdf"], 2, "factorize"),
        (["factorize", "{one_body_only}", "--method", "cdf"], 2, "factorize"),
        (["factorize", "{one_body_only}", "--method", "rcdf"], 2, "factorize"),
        # unreadable inputs, refused before any work (see _INPUT_MESSAGES)
        (["resources", "{missing_record}"], 2, "read-input"),
        (["verify", "{missing_record}", "{dump}"], 2, "read-input"),
        (["resources", "{not_json}"], 2, "read-input"),
        (["verify", "{not_json}", "{dump}"], 2, "read-input"),
        (["factorize", "{no_fci}", "--method", "xdf"], 2, "read-input"),
        (["factorize", "{endless_header}", "--method", "xdf"], 2, "read-input"),
        # record kinds and full-rank method tags other than the loader's own
        (["resources", "{banana_kind}"], 2, "read-input"),
        (["resources", "{full_rank_banana_tag}"], 2, "read-input"),
        (["resources", "{full_rank_scdf_tag}"], 2, "read-input"),
        # every norm term underflows or cancels to zero
        (["resources", "{zero_norm}"], 2, "resources"),
        # a δ_DF past every |W|, and leaf counts below one (see _FLAG_VALUE_MESSAGES)
        (["factorize", "{dump}", "--method", "scdf", "--delta-df", "1e3", "--max-outer", "1"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "xdf", "--delta-df", "1e3"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "xdf", "--ndf", "0"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "xdf", "--ndf", "0N"], 2, "factorize"),
        (["factorize", "{dump}", "--method", "xdf", "--ndf", "-3"], 2, "factorize"),
    ],
    ids=[
        "resources_output", "verify_output", "sweep_output", "synth_output",
        "non_utf8_fcidump", "non_utf8_header", "non_utf8_late_piece",
        "huge_w_resources", "huge_w_verify", "huge_alpha_resources", "huge_alpha_verify_fci",
        "ndf_abc", "kr_3", "kr_x", "eps_0", "synth_orbitals_0",
        "f_overflow", "eigs_overflow", "first_eigh_fails", "second_eigh_fails", "one_body_eigh_fails",
        "cdf_cost_non_finite", "frobenius_overflow_verify",
        "block_over_cap",
        "eps_nan", "eps_inf", "sweep_eps_nan", "delta_alpha_nan", "delta_alpha_inf", "rho_nan", "rho_inf",
        "rho_negative", "delta_df_nan", "delta_df_negative", "max_outer_negative", "seed_negative", "synth_seed_negative", "synth_e_nuc_nan",
        "synth_coulomb_inf", "synth_nelec_negative", "huge_shifted_w_resources", "huge_core_resources",
        "norb_unallocatable", "scdf_ndf_unallocatable", "cdf_ndf_unallocatable", "scdf_ndf_past_index_range",
        "one_body_only_xdf", "one_body_only_xdf_shift", "one_body_only_scdf", "one_body_only_cdf", "one_body_only_rcdf",
        "missing_record_resources", "missing_record_verify", "not_json_resources", "not_json_verify",
        "no_fci_header", "endless_header",
        "unknown_record_kind", "full_rank_banana_tag", "full_rank_scdf_tag", "encoded_norm_zero",
        "scdf_delta_df_truncates_all", "xdf_delta_df_truncates_all", "ndf_0", "ndf_0N", "ndf_negative",
    ],
)
def test_failure_exits_with_one_stage_label(tmp_path, capsys, xdf_record, n11_record, argv, code, stage):
    dump, record = xdf_record
    paths = {"dump": dump, "record": record, "tmp": tmp_path, "missing": tmp_path / "missing" / "x"}
    paths["missing_record"] = tmp_path / "missing.json"
    paths["n11_dump"], paths["n11_record"] = n11_record
    paths.update({name: tmp_path / f"{name}.input" for name in (
        "binary", "header_bad_bytes", "late_bad_bytes", "huge_w", "huge_alpha", "f_overflow", "eigs_overflow",
        "first_eigh_fails", "second_eigh_fails", "one_body_eigh_fails", "huge_g", "huge_shifted_w", "huge_core",
        "huge_norb", "one_body_only", "not_json", "no_fci", "endless_header",
        "banana_kind", "full_rank_banana_tag", "full_rank_scdf_tag", "zero_norm",
    )})
    paths["binary"].write_bytes(b"\xff\xfe garbage\n")
    paths["header_bad_bytes"].write_bytes(b" &FCI NORB=2,NELEC=2,\xff\n MS2=0,\n &END\n 0.5 1 1 1 1\n")
    # past the first 64 Ki characters the reader takes from the file
    paths["late_bad_bytes"].write_bytes(dump.read_bytes() + b" 0.5 1 1 1 1\n" * 8000 + b"\xff 0.1 0 0 0 0\n")
    paths["huge_norb"].write_text(" &FCI NORB=100000,NELEC=2,MS2=0,\n &END\n 0.5 1 1 1 1\n 0.7 0 0 0 0\n")
    paths["not_json"].write_text("not json {\n")
    paths["no_fci"].write_text(" NORB=2,NELEC=2,MS2=0,\n &END\n 0.5 1 1 1 1\n")
    paths["endless_header"].write_text(" &FCI NORB=2,NELEC=2,MS2=0,\n 0.5 1 1 1 1\n 0.7 0 0 0 0\n")
    hf.write_fcidump(str(paths["one_body_only"]), hf.TwoElectronTensor(np.zeros((2,) * 4)), np.diag([-1.0, -0.5]), 0.7, 2)
    _write_record(record, paths["huge_w"], _huge_w)
    _write_record(record, paths["huge_alpha"], _huge_alpha)
    _write_record(record, paths["huge_shifted_w"], _huge_shifted_w)
    _write_record(record, paths["huge_core"], _huge_core)
    _write_record(record, paths["banana_kind"], lambda data: data.update(kind="banana"))
    _write_record(record, paths["full_rank_banana_tag"], lambda data: _as_full_rank(data, "banana"))
    _write_record(record, paths["full_rank_scdf_tag"], lambda data: _as_full_rank(data, "SCDF"))
    _write_record(record, paths["zero_norm"], _zero_norm)
    _write_integrals(dump, paths["f_overflow"], {"4 4 3 1": "1e308"})
    _write_integrals(dump, paths["eigs_overflow"], {"2 1 2 1": "1e308"})
    _write_integrals(dump, paths["first_eigh_fails"], {"2 1 1 1": "1e200"}, norb=5)
    _write_integrals(dump, paths["second_eigh_fails"], {"1 1 1 1": "-7.548541088292259e+287"})
    _write_integrals(dump, paths["one_body_eigh_fails"], {"3 1 1 1": "2.8159720981543717e+235", "4 2 1 1": "4"})
    _write_integrals(dump, paths["huge_g"], {"1 1 1 1": "1e200"})
    capsys.readouterr()
    assert main([arg.format(**paths) for arg in argv]) == code
    err = capsys.readouterr().err
    assert assert_one_stage_label(code, err) == stage
    if "{n11_record}" in argv:
        assert "213444 states" in err
    if argv[0] == "factorize" and "{huge_g}" in argv:
        assert "cost became non-finite" in err
    if argv[1] in ("{binary}", "{header_bad_bytes}", "{late_bad_bytes}"):
        assert "cannot read" in err
    if "{huge_norb}" in argv:
        assert "NORB=100000" in err
    if "1000000000000000000" in argv:
        assert "n_df = 1000000000000000000" in err
    if "{one_body_only}" in argv:
        assert "nothing to factorize" in err
    for name, message in _INPUT_MESSAGES.items():
        if "{" + name + "}" in argv:
            assert message in err.splitlines()[-1]
    for flag, value in zip(argv, argv[1:]):
        if value in ("nan", "inf", "-1"):
            assert _FLAG_NAMES[flag] in err.splitlines()[-1]
        if (flag, value) in _FLAG_VALUE_MESSAGES:
            assert _FLAG_VALUE_MESSAGES[flag, value] in err.splitlines()[-1]
    if argv[0] == "synth":
        assert not os.path.exists(argv[1].format(**paths))


@no_runtime_warnings
@pytest.mark.parametrize("n", [1, 2])
def test_xdf_shift_passes_over_a_shift_that_empties_the_tensor(tmp_path, capsys, n):
    # g = c δ_pq δ_rs: the candidate a2′ = c leaves every leaf zero, which scores no record
    eye = np.eye(n)
    g = hf.TwoElectronTensor(0.65 * np.einsum("pq,rs->pqrs", eye, eye))
    dump = tmp_path / f"delta_n{n}.fcidump"
    hf.write_fcidump(str(dump), g, -eye, 0.7, 2)
    lam = {}
    for method in ("xdf", "xdf-shift"):
        code, payload = run(capsys, "factorize", str(dump), "--method", method)
        assert code == 0
        lam[method] = payload["summary"]["lambda_burg"]
    assert lam["xdf-shift"] <= lam["xdf"]


@no_runtime_warnings
def test_scdf_on_a_huge_integral_writes_finite_output(tmp_path, xdf_record, capsys):
    # the rank-1 loop keeps a 1e200 entry finite: its rotation step has no eigensolve left to fail
    huge_g, record = tmp_path / "huge_g.fcidump", tmp_path / "huge_g.scdf.json"
    _write_integrals(xdf_record[0], huge_g, {"1 1 1 1": "1e200"})
    capsys.readouterr()
    argv = ["factorize", str(huge_g), "--method", "scdf", "--max-outer", "1", "--ndf", "4", "--output", str(record)]
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)["summary"]
    assert all(np.isfinite(value) for value in summary.values() if isinstance(value, float))
    json.loads(record.read_text(), parse_constant=_reject_constant)


# Boundary fuzzing: mutate up to three FCIDUMP entries or one record field and
# run a command on the result. N = 4 inputs and NORB <= 8 keep every tensor
# and dense oracle small; examples are derandomized so tier-1 runs repeat.

_NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, 1e-300, 1e200, -1e200, 1e308, -1e308]),
    st.integers(-3, 10),
)
_JSON_VALUES = st.one_of(
    _NUMBERS, st.text(max_size=3), st.none(), st.lists(_NUMBERS, max_size=5),
)


@st.composite
def _fcidump_edit(draw, n_lines):
    kind = draw(st.sampled_from(["value", "index", "header"]))
    if kind == "header":
        key = draw(st.sampled_from(["NORB", "NELEC", "MS2"]))
        value = draw(st.one_of(st.integers(-2, 8), st.sampled_from(["abc", "2.5", "", "3,4"])))
        return kind, key, str(value)
    line = draw(st.integers(4, n_lines - 1))
    if kind == "value":
        return kind, line, repr(draw(_NUMBERS))
    return kind, line, (draw(st.integers(1, 4)), str(draw(st.integers(-2, 9))))


def _apply_fcidump_edit(lines, edit):
    kind, where, value = edit
    if kind == "header":
        lines[0] = re.sub(rf"{where}=\s*[^,]*,", f"{where}={value},", lines[0])
        return
    parts = lines[where].split()
    if kind == "value":
        parts[0] = value
    else:
        parts[value[0]] = value[1]
    lines[where] = " ".join(parts)


# the record fields each fuzzed record kind edits; a field listed twice is drawn twice as often
_FUZZED_FIELDS = {
    "xdf": ["W", "U", "alpha", "sign", "xi", "n_orbitals", "method"],
    "cdf": ["V", "V", "U", "kind", "method"],
    "scdf": ["alpha", "alpha", "sign", "sign", "kind", "method"],
}


@st.composite
def _record_edit(draw, n_leaves, fields=_FUZZED_FIELDS["xdf"]):
    field = draw(st.sampled_from(fields))
    if field == "n_orbitals":
        return field, None, draw(st.one_of(st.integers(-1, 8), _JSON_VALUES))
    if field == "method":
        return field, None, draw(st.one_of(st.sampled_from(["XDF", "SCDF", "CDF", "RCDF", "xdf"]), _JSON_VALUES))
    if field == "kind":
        return field, None, draw(st.one_of(st.sampled_from(["rank1", "full_rank", "banana"]), _JSON_VALUES))
    leaf = draw(st.integers(0, n_leaves - 1))
    if field in ("W", "U", "V") and draw(st.booleans()):
        return field, (leaf, draw(st.integers(0, 3)), draw(st.integers(0, 3))), draw(_NUMBERS)
    return field, (leaf,), draw(_JSON_VALUES)


def _apply_record_edit(data, edit):
    field, where, value = edit
    if where is None:
        data[field] = value
    elif len(where) == 1:
        data["leaves"][where[0]][field] = value
    elif field == "W":
        data["leaves"][where[0]]["W"][where[1]] = value
    else:
        data["leaves"][where[0]][field][where[1]][where[2]] = value


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@no_runtime_warnings
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_inputs_exit_cleanly(xdf_record, data):
    dump, record = xdf_record
    lines = dump.read_text().splitlines()
    leaves = json.loads(record.read_text())["leaves"]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        bad_dump, bad_record = tmp / "fuzz.fcidump", tmp / "fuzz.json"
        bad_dump.write_text(dump.read_text())
        bad_record.write_text(record.read_text())
        if data.draw(st.booleans(), label="mutate the FCIDUMP"):
            for edit in data.draw(st.lists(_fcidump_edit(len(lines)), min_size=1, max_size=3)):
                _apply_fcidump_edit(lines, edit)
            bad_dump.write_text("\n".join(lines) + "\n")
            commands = [
                ["factorize", str(bad_dump), "--method", "xdf", "--output", str(tmp / "out.json")],
                ["factorize", str(bad_dump), "--method", "xdf-shift", "--output", str(tmp / "out.json")],
                ["verify", str(record), str(bad_dump), "--fci"],
                ["resources", str(record), "--fcidump", str(bad_dump)],
                ["factorize", str(bad_dump), "--method", "scdf", "--max-outer", "1", "--ndf", "4",
                 "--output", str(tmp / "out.json")],
                ["factorize", str(bad_dump), "--method", "cdf", "--max-outer", "1", "--ndf", "4",
                 "--output", str(tmp / "out.json")],
            ]
        else:
            _write_record(
                record, bad_record,
                lambda rec: _apply_record_edit(rec, data.draw(_record_edit(len(leaves)))),
            )
            commands = _record_commands(bad_record, dump)
        argv = data.draw(st.sampled_from(commands), label="command")
        _assert_clean_exit(*_run_main(argv))


def _record_commands(record, dump):
    return [
        ["resources", str(record)],
        ["verify", str(record), str(dump)],
        ["verify", str(record), str(dump), "--fci"],
    ]


def _assert_clean_exit(code, out, err):
    assert code in (0, 2, 3)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert_one_stage_label(code, err)


@pytest.fixture(scope="module")
def optimizer_records(xdf_record):
    """cdf and scdf records of the ``xdf_record`` instance, one outer iteration each, by method."""
    dump, _ = xdf_record
    records = {}
    for method in ("cdf", "scdf"):
        records[method] = dump.with_name(f"{dump.name}.{method}.json")
        argv = ["factorize", str(dump), "--method", method, "--max-outer", "1", "--output", str(records[method])]
        assert _run_main(argv)[0] == 0
    return records


@no_runtime_warnings
@pytest.mark.parametrize("method", ["cdf", "scdf"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fuzzed_optimizer_records_exit_cleanly(xdf_record, optimizer_records, method, data):
    # V of a cdf record, α and signs of an scdf one, and the kind and method tag of both
    dump, record = xdf_record[0], optimizer_records[method]
    n_leaves = len(json.loads(record.read_text())["leaves"])
    edit = data.draw(_record_edit(n_leaves, _FUZZED_FIELDS[method]), label="edit")
    with tempfile.TemporaryDirectory() as tmp:
        bad_record = Path(tmp) / "fuzz.json"
        _write_record(record, bad_record, lambda rec: _apply_record_edit(rec, edit))
        argv = data.draw(st.sampled_from(_record_commands(bad_record, dump)), label="command")
        _assert_clean_exit(*_run_main(argv))


@pytest.mark.parametrize("preset, expected", [({}, "1"), ({"OMP_NUM_THREADS": "2"}, "None")])
def test_blas_runs_on_one_thread_unless_the_caller_chose(preset, expected):
    env = {k: v for k, v in os.environ.items() if k not in hf._BLAS_THREAD_VARS} | preset
    env["PYTHONPATH"] = str(Path(hf.__file__).parents[1])
    probe = "import os, hamfactor, numpy; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == expected
