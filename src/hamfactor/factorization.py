"""Factorization records and their JSON serialization.

A double factorization stores per-leaf orthogonal rotations U^t and factor
vectors W^t such that

    sum_t sign_t * U^t (W^t ⊗ W^t) U^t^T  ≈  g - a2_prime * δ_pq δ_rs.

``a2_prime`` is a global particle-number-squared shift applied to the tensor
before factorizing (zero except for shifted eigendecompositions); per-leaf
``shifts`` α^t are post-factorization encoding shifts: the block-encoded core
of leaf t is sign_t * W^t ⊗ W^t − α^t * 1 ⊗ 1.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .tensors import TwoElectronTensor

METHOD_TAGS = ("XDF", "CDF", "RCDF", "SCDF")


def _leaf_matrices(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Stacked leaf matrices U^t diag(W^t) U^t^T from stacked U and W."""
    return (u * w[:, None, :]) @ u.transpose(0, 2, 1)


def _frozen_leaves(arrays, shape: tuple[int, ...], message: str) -> tuple[np.ndarray, ...]:
    """Per-leaf arrays (a sequence or a stack) as read-only float64 rows of one C-contiguous copy.

    A leaf whose shape is not ``shape`` raises ValidationError(message).
    """
    if len(arrays) == 0:
        return ()
    try:
        stack = np.array(arrays, dtype=float, order="C")
    except ValueError as exc:  # leaves of different shapes
        raise ValidationError(message) from exc
    if stack.shape[1:] != shape:
        raise ValidationError(message)
    stack.flags.writeable = False
    return tuple(stack)


@dataclass(frozen=True)
class Thresholds:
    delta_df: float = 0.0
    delta_alpha: float = 0.0
    rho: float = 0.0


@dataclass(frozen=True)
class DoubleFactorization:
    """Immutable double-factorization record (rank-1 cores per leaf)."""

    n_orbitals: int
    method_tag: str
    rotations: tuple[np.ndarray, ...]
    factors: tuple[np.ndarray, ...]
    shifts: tuple[float, ...]
    signs: tuple[int, ...]
    leaf_ranks: tuple[int, ...]
    a1_prime: float = 0.0
    a2_prime: float = 0.0
    thresholds: Thresholds = Thresholds()

    def __post_init__(self):
        if self.method_tag not in METHOD_TAGS:
            raise ValidationError(f"method_tag must be one of {METHOD_TAGS}, got {self.method_tag!r}")
        n = self.n_orbitals
        if not (
            len(self.rotations) == len(self.factors) == len(self.shifts) == len(self.signs) == len(self.leaf_ranks)
        ):
            raise ValidationError("per-leaf field lengths disagree")
        shape = "each leaf needs an N x N rotation and length-N factors"
        rot = _frozen_leaves(self.rotations, (n, n), shape)
        fac = _frozen_leaves(self.factors, (n,), shape)
        if any(s not in (1, -1) for s in self.signs):
            raise ValidationError("each leaf sign must be +1 or -1")
        object.__setattr__(self, "rotations", rot)
        object.__setattr__(self, "factors", fac)
        object.__setattr__(self, "shifts", tuple(map(float, self.shifts)))
        object.__setattr__(self, "signs", tuple(map(int, self.signs)))
        object.__setattr__(self, "leaf_ranks", tuple(map(int, self.leaf_ranks)))

    @property
    def n_leaves(self) -> int:
        return len(self.rotations)

    @property
    def n_alpha(self) -> int:
        """Number of leaves carrying a nonzero encoding shift."""
        return sum(1 for a in self.shifts if a != 0.0)

    @property
    def total_shift(self) -> float:
        """Total coefficient of δ_pq δ_rs removed from the encoded tensor."""
        return self.a2_prime + sum(self.shifts)

    def leaf_matrices(self) -> np.ndarray:
        """Stacked N x N leaf matrices M^t = U^t diag(W^t) U^t^T (unsigned)."""
        return _leaf_matrices(np.stack(self.rotations), np.stack(self.factors))

    def with_one_body_shift(self, a1_prime: float) -> "DoubleFactorization":
        return replace(self, a1_prime=float(a1_prime))


def reconstruct_tensor(fact: DoubleFactorization | FullRankFactorization) -> TwoElectronTensor:
    """Reassemble the approximation to the original two-electron tensor.

    Inverts the factorization conventions: the leaf sum approximates the
    pre-shifted tensor, so the global a2_prime * δ_pq δ_rs is added back;
    per-leaf encoding shifts never enter the reconstruction.
    """
    if isinstance(fact, FullRankFactorization):
        return fact.reconstruct()
    n = fact.n_orbitals
    if fact.n_leaves:
        m = fact.leaf_matrices()
        signs = np.asarray(fact.signs, dtype=float)
        vec = m.reshape(fact.n_leaves, n * n)
        g = ((vec * signs[:, None]).T @ vec).reshape(n, n, n, n)
    else:
        g = np.zeros((n, n, n, n))
    if fact.a2_prime != 0.0:
        pp = np.arange(n) * (n + 1)  # the pairs (p, p) of the N² x N² matrix form
        g.reshape(n * n, n * n)[np.ix_(pp, pp)] += fact.a2_prime
    return TwoElectronTensor(g)


@dataclass(frozen=True)
class FullRankFactorization:
    """CDF/RCDF record with full symmetric cores V^t, for norm comparison only."""

    n_orbitals: int
    method_tag: str
    rotations: tuple[np.ndarray, ...]
    cores: tuple[np.ndarray, ...]
    thresholds: Thresholds = Thresholds()
    a1_prime: float = 0.0

    def __post_init__(self):
        n = self.n_orbitals
        if len(self.rotations) != len(self.cores):
            raise ValidationError("per-leaf field lengths disagree")
        shape = "each leaf needs an N x N rotation and an N x N core"
        object.__setattr__(self, "rotations", _frozen_leaves(self.rotations, (n, n), shape))
        object.__setattr__(self, "cores", _frozen_leaves(self.cores, (n, n), shape))

    @property
    def n_leaves(self) -> int:
        return len(self.rotations)

    def reconstruct(self) -> TwoElectronTensor:
        n = self.n_orbitals
        g = np.zeros((n, n, n, n))
        for u, v in zip(self.rotations, self.cores):
            c = np.einsum("pk,qk->pqk", u, u).reshape(n * n, n)
            g += (c @ v @ c.T).reshape(n, n, n, n)
        return TwoElectronTensor(g)


def factorization_to_dict(
    fact: DoubleFactorization | FullRankFactorization,
    config: dict | None = None,
    extras: dict | None = None,
) -> dict:
    if isinstance(fact, FullRankFactorization):
        kind = "full_rank"
        leaves = [{"U": u.tolist(), "V": v.tolist()} for u, v in zip(fact.rotations, fact.cores)]
        shift_fields = {"a1_prime": fact.a1_prime}
    else:
        kind = "rank1"
        leaves = [
            {"U": u.tolist(), "W": w.tolist(), "alpha": alpha, "sign": sign, "xi": xi}
            for u, w, alpha, sign, xi in zip(
                fact.rotations, fact.factors, fact.shifts, fact.signs, fact.leaf_ranks
            )
        ]
        shift_fields = {"a1_prime": fact.a1_prime, "a2_prime": fact.a2_prime}
    out = {
        "kind": kind,
        "n_orbitals": fact.n_orbitals,
        "method": fact.method_tag,
        "leaves": leaves,
        **shift_fields,
        "thresholds": asdict(fact.thresholds),
    }
    if config is not None:
        out["config"] = config
    if extras:
        out.update(extras)
    return out


def finite_array(value, field: str) -> np.ndarray:
    """A record field as floats; a non-numeric, ragged or non-finite one is invalid."""
    try:
        out = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {field} in factorization record: {exc}") from exc
    if not np.all(np.isfinite(out)):
        raise ValidationError(f"non-finite {field} in factorization record")
    return out


def _exact_int(value, field: str) -> int:
    """A record field that must be an integer: 4 and 4.0 are, 4.9, "4" and true are not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not float(value).is_integer():
        raise ValidationError(f"{field} in factorization record must be an integer, got {value!r}")
    return int(value)


def factorization_from_dict(data: dict) -> DoubleFactorization | FullRankFactorization:
    """Parse a record; a missing, malformed or non-finite field is a ValidationError."""
    try:
        leaves = data["leaves"]
        thr = data.get("thresholds", {})
        fields = ("delta_df", "delta_alpha", "rho")
        thresholds = Thresholds(**{k: float(finite_array(thr.get(k, 0.0), k)) for k in fields})
        kind = data.get("kind", "full_rank" if leaves and "V" in leaves[0] else "rank1")
        common = dict(
            n_orbitals=_exact_int(data["n_orbitals"], "n_orbitals"),
            method_tag=str(data["method"]),
            rotations=tuple(finite_array(leaf["U"], "U") for leaf in leaves),
            thresholds=thresholds,
            a1_prime=float(finite_array(data.get("a1_prime", 0.0), "a1_prime")),
        )
        if kind == "full_rank":
            cores = tuple(finite_array(leaf["V"], "V") for leaf in leaves)
            return FullRankFactorization(**common, cores=cores)
        return DoubleFactorization(
            **common,
            factors=tuple(finite_array(leaf["W"], "W") for leaf in leaves),
            shifts=tuple(float(finite_array(leaf.get("alpha", 0.0), "alpha")) for leaf in leaves),
            signs=tuple(_exact_int(leaf.get("sign", 1), "sign") for leaf in leaves),
            leaf_ranks=tuple(_exact_int(leaf["xi"], "xi") for leaf in leaves),
            a2_prime=float(finite_array(data.get("a2_prime", 0.0), "a2_prime")),
        )
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed factorization record: {exc}") from exc


def finite_json(payload, indent: int | None = None) -> str:
    """Strict JSON text of ``payload``.

    NaN and ±inf have no JSON spelling, so a payload holding one raises
    NumericalError instead of producing a file other tools cannot parse.
    """
    try:
        return json.dumps(payload, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"output holds a non-finite number ({exc})") from exc


def save_factorization(
    path: str,
    fact: DoubleFactorization | FullRankFactorization,
    config: dict | None = None,
    extras: dict | None = None,
) -> None:
    """Write the record as one line of JSON; without indentation ``json`` takes its C encoder."""
    text = finite_json(factorization_to_dict(fact, config, extras))
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_record(path: str) -> dict:
    """The raw JSON content of a factorization record file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read factorization file: {exc}") from exc
    except ValueError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def load_factorization(path: str) -> DoubleFactorization | FullRankFactorization:
    return factorization_from_dict(read_record(path))
