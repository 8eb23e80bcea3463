"""Tensor model and FCIDUMP round trips."""

import glob
import importlib.util
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hamfactor as hf
from hamfactor.errors import FcidumpParseError, NumericalError, ValidationError
from hamfactor import fcidump, tensors
from hamfactor.fcidump import WRITE_ZERO_TOL, _parse_header
from hamfactor.tensors import check_two_electron_symmetry

from conftest import DATA_DIR, make_instance


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


GENERATORS = {"qp|rs": (1, 0, 2, 3), "pq|sr": (0, 1, 3, 2), "rs|pq": (2, 3, 0, 1)}


def full_symmetry_deviation(g):
    """The deviation over whole-tensor images, one N⁴ difference per generating permutation."""
    return max(float(np.max(np.abs(g - g.transpose(perm)))) for perm in GENERATORS.values())


@pytest.fixture(params=[1, 200, None], ids=["one_p", "three_p", "whole"])
def symmetry_block(request, monkeypatch):
    """Compare one first index p at a time, three at a time at N = 4 (and the fourth alone), or all at once."""
    if request.param is not None:
        monkeypatch.setattr(tensors, "_SYMMETRY_BLOCK", request.param)


@pytest.mark.parametrize("perm", GENERATORS.values(), ids=GENERATORS.keys())
def test_symmetry_deviation_of_one_broken_image(small_instance, symmetry_block, perm):
    g, _ = small_instance
    delta = 2.0**-10
    x = (0, 1, 2, 3)  # eight distinct images
    image = tuple(x[a] for a in perm)
    broken = g.g.copy()
    broken[image] += delta  # (pq|rs) and this one image now differ by δ
    dev = check_two_electron_symmetry(broken, tol=1.0)
    assert dev == full_symmetry_deviation(broken) and dev == pytest.approx(delta, rel=1e-12)
    with pytest.raises(ValidationError, match="violates 8-fold symmetry"):
        check_two_electron_symmetry(broken, tol=delta / 2)
    # δ on both: the permutation that swaps them now sees nothing, the other two still see δ
    broken[x] += delta
    dev = check_two_electron_symmetry(broken, tol=1.0)
    assert dev == full_symmetry_deviation(broken) and dev == pytest.approx(delta, rel=1e-12)
    assert np.max(np.abs(broken - broken.transpose(perm))) == 0.0


def test_symmetry_deviation_matches_whole_tensor_images(symmetry_block):
    rng = np.random.default_rng(4)
    for n in (1, 2, 4, 5):
        g = make_instance(n, seed=n)[0].g
        for scale in (0.0, 1e-12, 1e-3):
            noisy = g + scale * rng.standard_normal(g.shape)
            assert check_two_electron_symmetry(noisy, tol=np.inf) == full_symmetry_deviation(noisy)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_symmetry_check_refuses_non_finite_anywhere(symmetry_block, bad):
    for at in np.ndindex(4, 4, 4, 4):
        g = np.zeros((4, 4, 4, 4))
        g[at] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            check_two_electron_symmetry(g, tol=np.inf)


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


def reference_write_fcidump(path, g, h, e_nuc, nelec, ms2=0):
    """The record-by-record FCIDUMP writer: one Python loop over the canonical indices."""
    n = g.shape[0]

    def record(value, i, j, k, l):
        return f"{value: .16e} {i:4d} {j:4d} {k:4d} {l:4d}\n"

    with open(path, "w") as fh:
        fh.write(f" &FCI NORB={n:4d},NELEC={nelec:3d},MS2={ms2:2d},\n")
        fh.write("  ORBSYM=" + "1," * n + "\n")
        fh.write("  ISYM=1,\n")
        fh.write(" &END\n")
        for i in range(n):
            for j in range(i + 1):
                for k in range(i + 1):
                    for l in range((j if k == i else k) + 1):
                        if abs(g[i, j, k, l]) > WRITE_ZERO_TOL:
                            fh.write(record(g[i, j, k, l], i + 1, j + 1, k + 1, l + 1))
        for i in range(n):
            for j in range(i + 1):
                if abs(h[i, j]) > WRITE_ZERO_TOL:
                    fh.write(record(h[i, j], i + 1, j + 1, 0, 0))
        fh.write(record(float(e_nuc), 0, 0, 0, 0))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_write_matches_record_by_record_writer(tmp_path, n):
    """Zeros and NaN skipped, inf and -0.0 as the loop spells them, e_nuc always written."""
    g = make_instance(n, n_components=max(n - 1, 1), seed=n)[0].g.copy()
    g[0, 0, 0, 0] = 0.0
    h = np.diag(np.linspace(-2.0, -1.0, n))
    h[n - 1, 0] = h[0, n - 1] = np.inf if n > 1 else 0.0
    h[n // 2, n // 2] = -0.0
    for e_nuc in (0.625, np.nan, -0.0):
        path, ref = tmp_path / "new.fcidump", tmp_path / "ref.fcidump"
        tensor = hf.TwoElectronTensor(g)
        hf.write_fcidump(str(path), tensor, h, e_nuc, nelec=n)
        reference_write_fcidump(str(ref), tensor.g, h, e_nuc, n)
        assert path.read_bytes() == ref.read_bytes()


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


def reference_parse_fcidump(path):
    """The record-by-record FCIDUMP reader: one Python loop, 8 scalar stores per record."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    header_lines = []
    data_start = None
    in_header = False
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if not in_header:
            if not stripped:
                continue
            if not stripped.upper().startswith("&FCI"):
                raise FcidumpParseError("expected '&FCI' namelist header", idx + 1)
            in_header = True
            stripped = stripped[4:]
        end = re.search(r"(&END|/)", stripped, flags=re.IGNORECASE)
        if end:
            header_lines.append(stripped[: end.start()])
            data_start = idx + 1
            break
        header_lines.append(stripped)
    if data_start is None:
        raise FcidumpParseError("namelist header never terminated with &END or /", len(lines))
    fields = _parse_header(" ".join(header_lines))
    norb = fields.get("NORB")
    if not isinstance(norb, int) or norb < 1:
        raise FcidumpParseError("header is missing a valid NORB", data_start)
    g = np.zeros((norb, norb, norb, norb))
    h = np.zeros((norb, norb))
    e_nuc = None
    orbital_energies = {}
    warnings = []
    for idx in range(data_start, len(lines)):
        stripped = lines[idx].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 5:
            raise FcidumpParseError(f"expected 'value i j k l', got {stripped!r}", idx + 1)
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            i, j, k, l = (int(p) for p in parts[1:])
        except ValueError:
            raise FcidumpParseError(f"unparseable record {stripped!r}", idx + 1)
        if not math.isfinite(value):
            raise FcidumpParseError(f"non-finite value in record {stripped!r}", idx + 1)
        for label, index in (("i", i), ("j", j), ("k", k), ("l", l)):
            if index < 0 or index > norb:
                raise FcidumpParseError(f"index {label}={index} outside [0, NORB={norb}]", idx + 1)
        if i and j and k and l:
            i, j, k, l = i - 1, j - 1, k - 1, l - 1
            for a, b in ((i, j), (j, i)):
                for c, d in ((k, l), (l, k)):
                    g[a, b, c, d] = value
                    g[c, d, a, b] = value
        elif i and j and not k and not l:
            h[i - 1, j - 1] = value
            h[j - 1, i - 1] = value
        elif i and not j and not k and not l:
            orbital_energies[i] = value
        elif not any((i, j, k, l)):
            e_nuc = value
        else:
            raise FcidumpParseError(f"unsupported index pattern {(i, j, k, l)}", idx + 1)
    if e_nuc is None:
        warnings.append("no nuclear-repulsion record (0 0 0 0); defaulting to 0.0")
        e_nuc = 0.0
    metadata = dict(fields)
    metadata["warnings"] = warnings
    if orbital_energies:
        metadata["orbital_energies"] = orbital_energies
    return hf.TwoElectronTensor(g), h, float(e_nuc), metadata


def assert_same_parse(path):
    g, h, e_nuc, meta = hf.parse_fcidump(path)
    g_ref, h_ref, e_ref, meta_ref = reference_parse_fcidump(path)
    assert g.g.tobytes() == g_ref.g.tobytes() and g.g.shape == g_ref.g.shape
    assert h.tobytes() == h_ref.tobytes() and h.dtype == h_ref.dtype
    assert type(e_nuc) is float and np.float64(e_nuc).tobytes() == np.float64(e_ref).tobytes()
    assert meta == meta_ref and list(meta) == list(meta_ref)
    energies, energies_ref = meta.get("orbital_energies", {}), meta_ref.get("orbital_energies", {})
    assert list(energies.items()) == list(energies_ref.items())
    assert all(type(k) is int and type(v) is float for k, v in energies.items())


def recipe_chain_fcidump(path, n):
    spec = importlib.util.spec_from_file_location("chain_recipe", os.path.join(DATA_DIR, "generate.py"))
    recipe = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recipe)
    hf.write_fcidump(str(path), recipe.chain_tensor(n, 100 + n, 0.7), recipe.chain_hopping(n), 0.0, nelec=n)


def test_parse_matches_record_by_record_reader(tmp_path):
    for path in sorted(glob.glob(os.path.join(DATA_DIR, "*.fcidump"))):
        assert_same_parse(path)
    recipe_chain_fcidump(tmp_path / "n20.fcidump", 20)
    assert_same_parse(str(tmp_path / "n20.fcidump"))


def test_parse_reads_any_line_ending(tmp_path):
    """CRLF text, no trailing newline, and the other str.splitlines breaks parse to the same arrays."""
    fixture = os.path.join(DATA_DIR, "chain_n06.fcidump")
    g, h, e_nuc, meta = hf.parse_fcidump(fixture)
    text = open(fixture).read()
    lines = text.splitlines()
    variants = {
        "crlf": text.replace("\n", "\r\n"),
        "no_trailing_newline": text.rstrip("\n"),
        "crlf_no_trailing_newline": text.rstrip("\n").replace("\n", "\r\n"),
        "old_mac": text.replace("\n", "\r"),
        # np.loadtxt reads these as field separators, str.splitlines as line breaks
        "other_breaks": "".join(line + "\x0c\x1c\x1d\x1e\x85\u2028\u2029\v"[at % 8] for at, line in enumerate(lines)),
    }
    for name, body in variants.items():
        path = tmp_path / f"{name}.fcidump"
        path.write_bytes(body.encode())
        assert_same_parse(str(path))
        g2, h2, e2, meta2 = hf.parse_fcidump(str(path))
        assert g2.g.tobytes() == g.g.tobytes() and h2.tobytes() == h.tobytes(), name
        assert e2 == e_nuc and meta2 == meta, name


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_bad_record_below_a_multi_line_header_names_its_line(tmp_path, newline):
    header = ["", "   ", " &FCI NORB=2,", "  NELEC=2,MS2=0,", "  ORBSYM=1,1,", "  ISYM=1,", " &END"]
    records = [" 0.5 1 1 1 1", "", " 0.25 2 2 1 1", " 1.0 2 1 0 0", " 0.125 2 1 2 1", " 0.5 2 1 0 7", " 0.1 0 0 0 0"]
    path = tmp_path / "bad.fcidump"
    path.write_bytes(newline.join(header + records).encode())
    with pytest.raises(FcidumpParseError) as err:
        hf.parse_fcidump(str(path))
    with pytest.raises(FcidumpParseError) as ref:
        reference_parse_fcidump(str(path))
    assert str(err.value) == str(ref.value)
    assert err.value.line_no == ref.value.line_no == 13


def test_parse_keeps_the_last_record_of_each_symmetry_class(tmp_path):
    """Shuffled records, permuted images, duplicates with new values, and spellings only Python reads."""
    rng = np.random.default_rng(11)
    lines = open(os.path.join(DATA_DIR, "chain_n06.fcidump")).read().splitlines()
    header, records = lines[:4], [line.split() for line in lines[4:]]
    out = []
    for value, *index in records:
        i, j, k, l = index
        if k != "0":
            images = [(i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
                      (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i)]
            index = images[rng.integers(8)]
        elif j != "0":
            index = [(i, j, k, l), (j, i, k, l)][rng.integers(2)]
        out.append([value, *index])
    for at in rng.choice(len(out), size=40, replace=False):
        value, i, j, k, l = out[at]
        if k != "0":  # a later record of the same class, as another image, with a new value
            out.append([f"{float(value) + 0.25:.6E}".replace("E", "D"), k, l, j, i])
        elif j != "0":
            out.append([f"{rng.standard_normal():.17g}", j, i, k, l])
    out += [["0.5", "2", "0", "0", "0"], ["1.0", "0", "0", "0", "0"], ["0.75", "1", "0", "0", "0"],
            ["-0.25", "2", "0", "0", "0"], ["+2.5d0", "0", "0", "0", "0"], ["5.5", "3", "0", "0", "0"]]
    order = rng.permutation(len(out))
    body = []
    for at in order:
        body.append(("\t" if at % 7 == 0 else "  ").join(out[at]))
        if at % 11 == 0:
            body.append("   ")
    # the second file adds Python-only spellings, which the vectorized read leaves to the line reader
    python_only = ["1_0  0  0  0  0", "1_5.5 4 0 0 0", "0_1 1 1 1 1"]
    for name, extra in (("shuffled", []), ("python_spellings", python_only)):
        path = tmp_path / f"{name}.fcidump"
        path.write_text("\n".join(header + body + extra) + "\n")
        assert_same_parse(str(path))
        _, _, e_nuc, meta = hf.parse_fcidump(str(path))
        assert set(meta["orbital_energies"]) == ({1, 2, 3, 4} if extra else {1, 2, 3})
    assert e_nuc == 10.0  # the last nuclear-repulsion record

    empty = tmp_path / "empty.fcidump"
    empty.write_text("\n".join(header) + "\n\n")
    assert_same_parse(str(empty))


@pytest.mark.parametrize(
    "bad",
    [
        "0.5 1 1 1",  # wrong field count
        "0.5 1 1 1 1 1",
        "abc 1 1 0 0",  # bad number
        "0.5 1 x 0 0",
        "0.5 1.0 1 0 0",
        "0.5 1E0 1 0 0",
        "nan 1 1 1 1",  # non-finite value
        "-inf 1 1 0 0",
        "1e400 1 1 1 1",
        "1D400 0 0 0 0",
        "0.5 3 1 1 1",  # index out of range
        "0.5 1 1 -1 1",
        "0.5 1 1 1 99999999999999999999",
        "0.5 1 0 1 1",  # unsupported pattern
        "0.5 0 1 0 0",
        "0.5 1 1 1 0",
        "0.5 0 0 0 1",
    ],
)
@pytest.mark.parametrize("h21", ["1.0", "1_0"])  # 1_0: only Python's float reads it
@pytest.mark.parametrize("after", [[], [" 0.5 2 1 2"]])  # the first bad line is the one named
def test_parse_rejects_like_record_by_record_reader(tmp_path, bad, h21, after):
    path = tmp_path / "bad.fcidump"
    lines = [" &FCI NORB=2,NELEC=2,MS2=0,", " &END", " 0.5 1 1 1 1", "", f" {h21} 2 1 0 0", " 0.25 2 2 1 1"]
    path.write_text("\n".join(lines + [bad] + after + [" 0.1 0 0 0 0"]) + "\n")
    with pytest.raises(FcidumpParseError) as err:
        hf.parse_fcidump(str(path))
    with pytest.raises(FcidumpParseError) as ref:
        reference_parse_fcidump(str(path))
    assert str(err.value) == str(ref.value)
    assert err.value.line_no == ref.value.line_no == 7


def count_pieces(monkeypatch, size):
    """Set the piece size to ``size`` characters; the returned list grows by one per stored batch."""
    stored = []
    store = fcidump._store

    def counting_store(*args):
        stored.append(len(args[-1]))
        return store(*args)

    monkeypatch.setattr(fcidump, "_READ_BLOCK", size)
    monkeypatch.setattr(fcidump, "_store", counting_store)
    return stored


@pytest.mark.parametrize("size", [1, 150])  # one line, or three or four lines of write_fcidump's 44 characters
def test_parse_reads_the_same_in_pieces_of_a_few_lines(tmp_path, monkeypatch, size):
    stored = count_pieces(monkeypatch, size)
    for path in sorted(glob.glob(os.path.join(DATA_DIR, "*.fcidump"))):
        stored.clear()
        assert_same_parse(path)
        assert len(stored) > 1 and max(stored) <= 6
    if size > 1:
        recipe_chain_fcidump(tmp_path / "n20.fcidump", 20)
        stored.clear()
        assert_same_parse(str(tmp_path / "n20.fcidump"))
        assert len(stored) > 5000


def test_parse_keeps_the_last_record_across_pieces(tmp_path, monkeypatch):
    """One symmetry class, e_nuc and an orbital energy set in every piece; D exponents and odd breaks later on."""
    stored = count_pieces(monkeypatch, 20)  # two lines a piece
    header = [" &FCI NORB=3,NELEC=2,MS2=0,", " &END"]
    pieces = []
    for at, image in enumerate([(1, 2, 3, 3), (2, 1, 3, 3), (3, 3, 1, 2), (3, 3, 2, 1)]):
        pieces += [f" {0.5 + at:.3f} {' '.join(map(str, image))}", f" {0.25 * at:.3f} 0 0 0 0",
                   f" {-at:.2f} 2 0 0 0", f" {0.125 * at:.3f} 3 1 0 0"]
    later = [" 1.25D0 3 3 2 1", "\v 2.5d-1 0 0 0 0\f", " 7.5D-1 2 0 0 0\u2028 3.0 1 2 0 0", " -1.0D+1 1 3 0 0"]
    path = tmp_path / "pieces.fcidump"
    path.write_bytes("\n".join(header + pieces + later).encode())
    assert_same_parse(str(path))
    assert stored == [2] * 10 + [1]  # every piece read at once, none by the line reader
    g, h, e_nuc, meta = hf.parse_fcidump(str(path))
    assert g.g[0, 1, 2, 2] == g.g[2, 2, 1, 0] == 1.25
    assert e_nuc == 0.25 and meta["orbital_energies"] == {2: 0.75}
    assert h[0, 2] == h[2, 0] == -10.0 and h[0, 1] == h[1, 0] == 3.0


def test_bad_record_in_a_later_piece_names_its_line(tmp_path, monkeypatch):
    stored = count_pieces(monkeypatch, 50)
    lines = [" &FCI NORB=2,NELEC=2,MS2=0,", " &END"] + [f" {0.1 * at:.1f} 1 1 1 1" for at in range(30)]
    lines[25] = " 0.5 1 1 1 3"
    path = tmp_path / "bad.fcidump"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FcidumpParseError) as err:
        hf.parse_fcidump(str(path))
    with pytest.raises(FcidumpParseError) as ref:
        reference_parse_fcidump(str(path))
    assert str(err.value) == str(ref.value) == "line 26: index l=3 outside [0, NORB=2]"
    assert err.value.line_no == 26
    assert stored == [4] * 5  # the pieces before the bad one were read and stored


@pytest.mark.parametrize("sep", ["\v", "\u2028"])
def test_parse_reads_records_on_the_header_line(tmp_path, sep):
    """With no "\n" in the file, every record sits on the header's last raw line."""
    lines = open(os.path.join(DATA_DIR, "chain_n06.fcidump")).read().splitlines()
    path = tmp_path / "one_line.fcidump"
    path.write_bytes(sep.join(lines).encode())
    assert_same_parse(str(path))
    lines[20] = " 0.5 1 1 7 1"
    path.write_bytes(sep.join(lines).encode())
    with pytest.raises(FcidumpParseError) as err:
        hf.parse_fcidump(str(path))
    with pytest.raises(FcidumpParseError) as ref:
        reference_parse_fcidump(str(path))
    assert str(err.value) == str(ref.value)
    assert err.value.line_no == ref.value.line_no == 21


def test_bad_record_after_pieces_of_other_breaks_names_its_line(tmp_path, monkeypatch):
    """Lines counted piece by piece agree with str.splitlines when earlier pieces hold \\v, \\f, \\x85 and \\u2028."""
    stored = count_pieces(monkeypatch, 50)
    records = [f" {0.1 * at:.1f} 1 1 1 1" for at in range(60)]
    records[52] = " 0.5 1 1 1 3"
    text = " &FCI NORB=2,NELEC=2,MS2=0,\n &END\n"
    text += "".join(record + "\v\f\n\x85\u2028"[at % 5] for at, record in enumerate(records))
    path = tmp_path / "bad.fcidump"
    path.write_bytes(text.encode())
    with pytest.raises(FcidumpParseError) as err:
        hf.parse_fcidump(str(path))
    with pytest.raises(FcidumpParseError) as ref:
        reference_parse_fcidump(str(path))
    assert str(err.value) == str(ref.value) == "line 55: index l=3 outside [0, NORB=2]"
    assert stored == [8] + [5] * 8  # a piece is whole "\n" lines: the pieces before the bad one were stored


def test_only_the_piece_with_a_python_spelling_is_read_by_line(tmp_path, monkeypatch):
    stored = count_pieces(monkeypatch, 50)
    by_line = []
    records_by_line = fcidump._records_by_line

    def counting_records_by_line(lines, first, norb):
        by_line.append((len(lines), first))
        return records_by_line(lines, first, norb)

    monkeypatch.setattr(fcidump, "_records_by_line", counting_records_by_line)
    records = [f" {0.1 * at:.1f} {1 + at % 2} 1 {1 + at % 3 // 2} 1" for at in range(40)]
    records[21] = " 1_0 2 1 0 0"
    path = tmp_path / "spelling.fcidump"
    path.write_text("\n".join([" &FCI NORB=2,NELEC=2,MS2=0,", " &END"] + records + [" 0.7 0 0 0 0"]) + "\n")
    assert_same_parse(str(path))
    assert by_line == [(4, 22)]  # the sixth piece, file lines 23-26, holding record 21 on line 24
    assert len(stored) == 11


def test_parse_memory_is_the_tensor_and_one_piece(tmp_path):
    import tracemalloc

    path = str(tmp_path / "n30.fcidump")
    recipe_chain_fcidump(path, 30)
    g = hf.parse_fcidump(path)[0]
    tracemalloc.start()
    try:
        hf.parse_fcidump(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the tensor (6.5 MB) and one piece of the file read from disk: 1.1x the tensor
    assert peak <= 1.5 * g.g.nbytes


def test_frobenius_error_memory_is_one_slice():
    import tracemalloc

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2,) + (30,) * 4)
    tracemalloc.start()
    try:
        hf.frobenius_error(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one slice of the difference (one p: N³ entries), not a whole N⁴ difference
    assert peak <= 0.25 * a.nbytes


def test_full_rank_reconstruct_memory_is_the_tensor_and_one_block():
    import tracemalloc

    n = 30
    rng = np.random.default_rng(3)
    rotations = tuple(np.linalg.qr(a)[0] for a in rng.standard_normal((4, n, n)))
    cores = tuple(a + a.T for a in rng.standard_normal((4, n, n)))
    fact = hf.FullRankFactorization(n_orbitals=n, method_tag="CDF", rotations=rotations, cores=cores)
    tracemalloc.start()
    try:
        g = fact.reconstruct().g
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # g and one row block of one leaf's C V Cᵀ, not a whole N⁴ term per leaf
    assert peak <= 1.3 * g.nbytes
    reference = np.zeros((n * n, n * n))
    for u, v in zip(rotations, cores):
        c = np.einsum("pk,qk->pqk", u, u).reshape(n * n, n)
        reference += c @ v @ c.T
    assert np.linalg.norm(g.reshape(n * n, n * n) - reference) <= 1e-12 * np.linalg.norm(reference)


def test_frobenius_error_raises_on_overflow(small_instance):
    g, _ = small_instance
    huge = np.zeros((4, 4, 4, 4))
    huge[0, 0, 0, 0] = 1e200
    huge[1, 1, 1, 1] = 1e200
    with pytest.raises(NumericalError, match="overflows"):
        hf.frobenius_error(huge, np.zeros_like(huge))


def test_frobenius_error_accepts_both_kinds(small_instance):
    g, _ = small_instance
    assert hf.frobenius_error(g, g) == 0.0
    assert hf.frobenius_error(g, g.g) == 0.0
    shifted = g.g + 1e-3
    assert hf.frobenius_error(g, shifted) == pytest.approx(1e-3 * 16, rel=1e-10)
