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
repulsion energy.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import FcidumpParseError, ValidationError
from .tensors import TwoElectronTensor

WRITE_ZERO_TOL = 0.0

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


def _set_two_electron(g: np.ndarray, i: int, j: int, k: int, l: int, value: float) -> None:
    for a, b in ((i, j), (j, i)):
        for c, d in ((k, l), (l, k)):
            g[a, b, c, d] = value
            g[c, d, a, b] = value


def parse_fcidump(path: str) -> tuple[TwoElectronTensor, np.ndarray, float, dict]:
    """Parse an FCIDUMP file.

    Returns (two_electron, h, e_nuc, metadata). ``metadata`` carries NORB,
    NELEC, MS2, all other header fields, any orbital-energy records, and a
    ``warnings`` list (e.g. a missing nuclear-repulsion record).
    """
    try:
        with open(path, "r") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}")

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
                raise FcidumpParseError(
                    f"index {label}={index} outside [0, NORB={norb}]", idx + 1
                )
        if i and j and k and l:
            _set_two_electron(g, i - 1, j - 1, k - 1, l - 1, value)
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

    def record(value: float, i: int, j: int, k: int, l: int) -> str:
        return f"{value: .16e} {i:4d} {j:4d} {k:4d} {l:4d}\n"

    with open(path, "w") as fh:
        fh.write(f" &FCI NORB={n:4d},NELEC={nelec:3d},MS2={ms2:2d},\n")
        fh.write("  ORBSYM=" + "1," * n + "\n")
        fh.write("  ISYM=1,\n")
        fh.write(" &END\n")
        # canonical unique set: i >= j, k >= l, (i,j) >= (k,l) as pairs
        for i in range(n):
            for j in range(i + 1):
                for k in range(i + 1):
                    lmax = j if k == i else k
                    for l in range(lmax + 1):
                        v = g[i, j, k, l]
                        if abs(v) > WRITE_ZERO_TOL:
                            fh.write(record(v, i + 1, j + 1, k + 1, l + 1))
        for i in range(n):
            for j in range(i + 1):
                if abs(h[i, j]) > WRITE_ZERO_TOL:
                    fh.write(record(h[i, j], i + 1, j + 1, 0, 0))
        fh.write(record(float(e_nuc), 0, 0, 0, 0))
