"""End-to-end command-line tests driven through main(argv)."""

import json

import numpy as np
import pytest

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


def test_exit_code_2_on_bad_inputs(tmp_path, capsys):
    code = main(["factorize", str(tmp_path / "missing.fcidump"), "--method", "xdf"])
    assert code == 2
    assert "read-input" in capsys.readouterr().err

    dump = tmp_path / "inst.fcidump"
    assert run(capsys, *synth_args(dump))[0] == 0
    code = main(["factorize", str(dump), "--method", "xdf", "--ndf", "4X"])
    assert code == 2
    assert "--ndf" in capsys.readouterr().err


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
        data["kind"] = "full_rank"
        for each in data["leaves"]:
            w = np.asarray(each.pop("W"))
            each["V"] = (each["sign"] * np.outer(w, w)).tolist()
        if case == "full_rank_2x2_u":
            leaf["U"] = [[1.0, 0.0], [0.0, 1.0]]
        else:
            leaf["V"][0][0] = float("inf")
    return data


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
