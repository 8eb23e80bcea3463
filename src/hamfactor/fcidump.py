"""FCIDUMP reading and writing.

The format is the usual Fortran-namelist header followed by integral records::

     &FCI NORB=  4,NELEC= 4,MS2=0,
      ORBSYM=1,1,1,1,
      ISYM=1,
     &END
       0.6745754872  1  1  1  1
      -1.2533019750  1  1  0  0
       0.7151043391  0  0  0  0

Records are 1-based and in chemists' notation: ``v i j k l`` sets (ij|kl) and
its 8-fold symmetry images, ``v i j 0 0`` sets h[i,j] (symmetric), ``v i 0 0 0``
is an orbital energy (kept in metadata only), and ``v 0 0 0 0`` is the nuclear
repulsion energy. Records come in any order; of two that set the same
symmetry class, the later wins.
"""

from __future__ import annotations

import io
import itertools
import math
import re

import numpy as np

from .errors import FcidumpParseError, ValidationError
from .tensors import TwoElectronTensor

WRITE_ZERO_TOL = 0.0
_WRITE_BLOCK = 4096  # records formatted at once by write_fcidump

_HEADER_FIELD = re.compile(r"([A-Za-z][A-Za-z0-9_]*)\s*=\s*([^=]*?)(?=(?:,?\s*[A-Za-z][A-Za-z0-9_]*\s*=)|$)")


def _parse_header(text: str) -> dict:
    """Parse 'KEY=value,' pairs from the namelist body (between &FCI and &END)."""
    fields = {}
    for m in _HEADER_FIELD.finditer(text):
        key = m.group(1).upper()
        raw = m.group(2).strip().rstrip(",").strip()
        values = [v for v in re.split(r"[,\s]+", raw) if v]
        parsed = []
        for v in values:
            try:
                parsed.append(int(v))
            except ValueError:
                try:
                    parsed.append(float(v.replace("D", "E").replace("d", "e")))
                except ValueError:
                    parsed.append(v)
        fields[key] = parsed[0] if len(parsed) == 1 else parsed
    return fields


_RECORD = np.dtype([("value", float), ("index", np.int64, (4,))])


def _supported(nonzero: np.ndarray) -> np.ndarray:
    """Which (i, j, k, l) nonzero-patterns are records: ijkl, ij00, i000 or 0000."""
    return ~np.any(nonzero[..., 1:], axis=-1) | (
        nonzero[..., 0] & nonzero[..., 1] & (nonzero[..., 2] == nonzero[..., 3])
    )


def _records_by_line(lines: list[str], start: int, norb: int) -> tuple[np.ndarray, np.ndarray]:
    """The records, checked one line at a time; the first bad line raises FcidumpParseError."""
    values, indices = [], []
    for idx in range(start, len(lines)):
        stripped = lines[idx].strip()
        if not stripped:
            continue
        parts = stripped.split()
        if len(parts) != 5:
            raise FcidumpParseError(f"expected 'value i j k l', got {stripped!r}", idx + 1)
        try:
            value = float(parts[0].replace("D", "E").replace("d", "e"))
            index = [int(p) for p in parts[1:]]
        except ValueError:
            raise FcidumpParseError(f"unparseable record {stripped!r}", idx + 1)
        if not math.isfinite(value):
            raise FcidumpParseError(f"non-finite value in record {stripped!r}", idx + 1)
        for label, at in zip("ijkl", index):
            if at < 0 or at > norb:
                raise FcidumpParseError(f"index {label}={at} outside [0, NORB={norb}]", idx + 1)
        if not _supported(np.array(index) != 0):
            raise FcidumpParseError(f"unsupported index pattern {tuple(index)}", idx + 1)
        values.append(value)
        indices.append(index)
    return np.array(values, dtype=float), np.array(indices, dtype=np.int64).reshape(-1, 4)


# line breaks of str.splitlines other than "\n", which np.loadtxt reads as
# field separators; reading the file in text mode already turned "\r" into "\n"
_OTHER_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK = re.compile("\r\n|[\n\r" + _OTHER_BREAKS + "]")


def _records(text: str, offset: int, start: int, norb: int) -> tuple[np.ndarray, np.ndarray]:
    """(values, 1-based indices R x 4) of the integral records: ``text`` from ``offset``, line ``start`` on.

    One vectorized read and check of the body as it stands in ``text``; any
    line it does not accept sends the whole body to ``_records_by_line``,
    which names the first bad line or accepts a spelling only Python's number
    parsers know (such as ``1_0``).
    """
    body = text[offset:]
    if any(c in body for c in _OTHER_BREAKS):
        body = "\n".join(body.splitlines())
    body = body.replace("D", "E").replace("d", "e")
    if body.strip():
        try:
            records = np.loadtxt(io.StringIO(body), dtype=_RECORD, comments=None, ndmin=1)
        except (ValueError, OverflowError):
            pass
        else:
            values, index = records["value"], records["index"]
            in_range = np.all((index >= 0) & (index <= norb))
            if np.all(np.isfinite(values)) and in_range and np.all(_supported(index != 0)):
                return values, index
    return _records_by_line(text.splitlines(), start, norb)


def _header(text: str) -> tuple[dict, int, int]:
    """(header fields, line index of the first record line, its offset in ``text``).

    Lines are split as ``str.splitlines`` splits them, up to the line that
    ends the namelist; the records after it are left to ``_records``.
    """
    header_lines = []
    in_header = False
    idx = pos = 0
    while pos < len(text):
        brk = _LINE_BREAK.search(text, pos)
        end, after = (brk.start(), brk.end()) if brk else (len(text), len(text))
        stripped = text[pos:end].strip()
        pos = after
        idx += 1
        if not in_header:
            if not stripped:
                continue
            if not stripped.upper().startswith("&FCI"):
                raise FcidumpParseError("expected '&FCI' namelist header", idx)
            in_header = True
            stripped = stripped[4:]
        found = re.search(r"(&END|/)", stripped, flags=re.IGNORECASE)
        if found:
            header_lines.append(stripped[: found.start()])
            return _parse_header(" ".join(header_lines)), idx, pos
        header_lines.append(stripped)
    raise FcidumpParseError("namelist header never terminated with &END or /", idx)


def _last_of_each(key: np.ndarray) -> np.ndarray:
    """Positions of the last occurrence of each distinct key."""
    _, first_from_end = np.unique(key[::-1], return_index=True)
    return len(key) - 1 - first_from_end


def parse_fcidump(path: str) -> tuple[TwoElectronTensor, np.ndarray, float, dict]:
    """Parse an FCIDUMP file.

    Returns (two_electron, h, e_nuc, metadata). ``metadata`` carries NORB,
    NELEC, MS2, all other header fields, any orbital-energy records, and a
    ``warnings`` list (e.g. a missing nuclear-repulsion record).
    """
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}")

    fields, data_start, offset = _header(text)
    norb = fields.get("NORB")
    if not isinstance(norb, int) or norb < 1:
        raise FcidumpParseError("header is missing a valid NORB", data_start)

    g = np.zeros((norb, norb, norb, norb))
    h = np.zeros((norb, norb))
    values, index = _records(text, offset, data_start, norb)
    # a record sets every symmetry image of its index, so a later record of
    # the same class (equal sorted (i, j), (k, l) and pair order) replaces it
    base = norb + 1
    i, j, k, l = index.T
    ij = np.maximum(i, j) * base + np.minimum(i, j)
    kl = np.maximum(k, l) * base + np.minimum(k, l)
    keep = _last_of_each(np.maximum(ij, kl) * base**2 + np.minimum(ij, kl))
    v, (i, j, k, l) = values[keep], index[keep].T
    two, one = k > 0, (j > 0) & (k == 0)
    # flat positions (ab, cd) of the 8 images; distinct classes share none
    pq, qp, rs, sr = ((a[two] - 1) * norb + b[two] - 1 for a, b in ((i, j), (j, i), (k, l), (l, k)))
    images = [(pq, rs), (qp, rs), (pq, sr), (qp, sr)]
    flat = np.concatenate([ab * norb**2 + cd for x, y in images for ab, cd in ((x, y), (y, x))])
    g.reshape(-1)[flat] = np.tile(v[two], 2 * len(images))
    h[i[one] - 1, j[one] - 1] = h[j[one] - 1, i[one] - 1] = v[one]
    orbital = (index[:, 0] > 0) & (index[:, 1] == 0)
    orbital_energies = {int(at): float(x) for at, x in zip(index[orbital, 0], values[orbital])}
    nuclear = v[i == 0]
    e_nuc = nuclear[0] if nuclear.size else None
    warnings = []

    if e_nuc is None:
        warnings.append("no nuclear-repulsion record (0 0 0 0); defaulting to 0.0")
        e_nuc = 0.0

    metadata = dict(fields)
    metadata["warnings"] = warnings
    if orbital_energies:
        metadata["orbital_energies"] = orbital_energies
    return TwoElectronTensor(g), h, float(e_nuc), metadata


def write_fcidump(
    path: str,
    two_electron: TwoElectronTensor,
    h: np.ndarray,
    e_nuc: float,
    nelec: int = 0,
    ms2: int = 0,
) -> None:
    """Write an FCIDUMP file with 8-fold-unique records and 16-digit values.

    Entries with |value| <= WRITE_ZERO_TOL are skipped. Round-tripping through
    parse_fcidump reproduces the tensors to better than 1e-12.
    """
    g = two_electron.g
    n = two_electron.n_orbitals
    h = np.asarray(h, dtype=float)
    if h.shape != (n, n):
        raise ValidationError(f"one-body matrix shape {h.shape} does not match N={n}")

    # pairs (i, j), i >= j, in lexicographic order; the canonical unique set
    # i >= j, k >= l, (i,j) >= (k,l) is every pair of pairs in np.tril_indices order
    pi, pj = np.tril_indices(n)
    a, b = np.tril_indices(len(pi))
    none = np.full(len(pi), -1)
    value = np.concatenate([g[pi[a], pj[a], pi[b], pj[b]], h[pi, pj], [float(e_nuc)]])
    index = 1 + np.column_stack([
        np.concatenate(c) for c in ((pi[a], pi, [-1]), (pj[a], pj, [-1]), (pi[b], none, [-1]), (pj[b], none, [-1]))
    ])
    keep = np.abs(value) > WRITE_ZERO_TOL
    keep[-1] = True  # the nuclear-repulsion record is always written
    value, index = value[keep], index[keep]
    with open(path, "w") as fh:
        fh.write(f" &FCI NORB={n:4d},NELEC={nelec:3d},MS2={ms2:2d},\n")
        fh.write("  ORBSYM=" + "1," * n + "\n")
        fh.write("  ISYM=1,\n")
        fh.write(" &END\n")
        # one %-format per block of records: "% .16e" and "%4d" spell each
        # record as f"{v: .16e} {i:4d} ..." does, without a Python step per record
        for at in range(0, len(value), _WRITE_BLOCK):
            block = slice(at, at + _WRITE_BLOCK)
            fields = itertools.chain.from_iterable(zip(value[block].tolist(), *index[block].T.tolist()))
            fh.write(("% .16e %4d %4d %4d %4d\n" * len(value[block])) % tuple(fields))
