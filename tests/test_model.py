"""Tensor model and FCIDUMP round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hamfactor as hf
from hamfactor.errors import FcidumpParseError, ValidationError

from conftest import make_instance


def test_two_electron_tensor_rejects_asymmetric():
    g = np.zeros((3, 3, 3, 3))
    g[0, 1, 2, 2] = 1.0  # no symmetry images
    with pytest.raises(ValidationError):
        hf.TwoElectronTensor(g)


def test_two_electron_tensor_matrix_form_shape(small_instance):
    g, _ = small_instance
    m = g.as_matrix()
    assert m.shape == (16, 16)
    assert np.allclose(m, m.T)


def test_synthesize_is_deterministic():
    ga, _ = make_instance(5, seed=3)
    gb, _ = make_instance(5, seed=3)
    assert np.array_equal(ga.g, gb.g)


def test_synthesize_matches_component_sum():
    g, comps = make_instance(4, seed=1)
    rebuilt = hf.tensor_from_components(comps)
    assert np.allclose(g.g, rebuilt.g, atol=1e-14)


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_synthetic_matrix_form_is_psd(n, seed):
    g, _ = make_instance(n, seed=seed)
    eigs = np.linalg.eigvalsh(g.as_matrix())
    assert eigs.min() > -1e-10 * max(eigs.max(), 1.0)


def test_derive_one_body_small_case_by_hand():
    # N = 1: k = h - g/2, f = k + g, both scalars
    g = hf.TwoElectronTensor(np.full((1, 1, 1, 1), 0.8))
    ob = hf.derive_one_body(np.array([[0.3]]), g, e_nuc=0.25)
    assert ob.k[0, 0] == pytest.approx(0.3 - 0.4)
    assert ob.f[0, 0] == pytest.approx(0.3 - 0.4 + 0.8)
    assert ob.f_eigs[0] == pytest.approx(0.7)
    assert ob.e_nuc == 0.25


def test_derive_one_body_rejects_asymmetric_h(small_instance):
    g, _ = small_instance
    h = np.zeros((4, 4))
    h[0, 1] = 1.0
    with pytest.raises(ValidationError):
        hf.derive_one_body(h, g)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_two_electron_tensor_rejects_non_finite(bad):
    g = np.zeros((3, 3, 3, 3))
    g[1, 1, 1, 1] = bad  # its own symmetry image: only a finiteness check sees it
    with pytest.raises(ValidationError, match="non-finite"):
        hf.TwoElectronTensor(g)


def test_derive_one_body_rejects_non_finite(small_instance):
    g, _ = small_instance
    h = np.zeros((4, 4))
    h[2, 2] = np.inf  # h - h.T is NaN there, which the symmetry test lets through
    with pytest.raises(ValidationError, match="non-finite"):
        hf.derive_one_body(h, g)
    with pytest.raises(ValidationError, match="not finite"):
        hf.derive_one_body(np.zeros((4, 4)), g, e_nuc=np.nan)


def test_fcidump_round_trip(tmp_path, small_instance):
    g, _ = small_instance
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4))
    h = 0.5 * (a + a.T)
    path = str(tmp_path / "case.fcidump")
    hf.write_fcidump(path, g, h, e_nuc=0.625, nelec=4)
    g2, h2, e_nuc, meta = hf.parse_fcidump(path)
    assert np.max(np.abs(g.g - g2.g)) < 1e-12
    assert np.max(np.abs(h - h2)) < 1e-12
    assert e_nuc == pytest.approx(0.625, abs=1e-14)
    assert meta["NORB"] == 4
    assert meta["NELEC"] == 4


def test_parse_h2_reference_values(h2_path):
    g, h, e_nuc, meta = hf.parse_fcidump(h2_path)
    assert meta["NORB"] == 2
    assert e_nuc == pytest.approx(0.71510434, abs=1e-7)
    assert h[0, 0] == pytest.approx(-1.25330198, abs=1e-7)
    assert g.g[0, 0, 0, 0] == pytest.approx(0.67457546, abs=1e-7)
    assert g.g[0, 1, 0, 1] == pytest.approx(0.18121046, abs=1e-7)
    # restricted HF energy of the |1a 1b> determinant
    e_hf = 2 * h[0, 0] + g.g[0, 0, 0, 0] + e_nuc
    assert e_hf == pytest.approx(-1.11692416, abs=1e-7)


def test_parse_reports_line_numbers(tmp_path):
    path = str(tmp_path / "broken.fcidump")
    with open(path, "w") as fh:
        fh.write(" &FCI NORB=2,NELEC=2,MS2=0,\n &END\n")
        fh.write(" 0.5 1 1 1 1\n")
        fh.write(" not-a-number 1 1 0 0\n")
    with pytest.raises(FcidumpParseError) as err:
        hf.parse_fcidump(path)
    assert err.value.line_no == 4


def test_parse_rejects_out_of_range_index(tmp_path):
    path = str(tmp_path / "oob.fcidump")
    with open(path, "w") as fh:
        fh.write(" &FCI NORB=2,NELEC=2,MS2=0,\n &END\n")
        fh.write(" 0.5 3 1 1 1\n")
    with pytest.raises(FcidumpParseError) as err:
        hf.parse_fcidump(path)
    assert err.value.line_no == 3


def test_frobenius_error_accepts_both_kinds(small_instance):
    g, _ = small_instance
    assert hf.frobenius_error(g, g) == 0.0
    assert hf.frobenius_error(g, g.g) == 0.0
    shifted = g.g + 1e-3
    assert hf.frobenius_error(g, shifted) == pytest.approx(1e-3 * 16, rel=1e-10)
