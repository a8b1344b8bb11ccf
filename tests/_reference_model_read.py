"""The per-array model reader that the stacked one replaced.

Kept verbatim as the reference for ``test_model_read.py``: every array of a
model document decoded alone by ``_array_from_json`` (keys, dim, a Python
scan of its entries for booleans, finiteness), and every Hermitian one
checked again by its own ``HermitianOperator``, couplings first, then ``h``
and ``g``, the spectrum, ``rho0``, the code and ``gap_tol``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any

import numpy as np

from dressedmet.codespace import CodeSpace
from dressedmet.errors import ValidationError
from dressedmet.jsonio import check_keys, finite_number, positive_whole
from dressedmet.lindblad import spectrum_from_json
from dressedmet.operators import hermitian_part, require_hermitian
from dressedmet.simulate import ProbeModel


def _array_from_json(data: Any, what: str, ndim: int) -> np.ndarray:
    """The complex ``dim``-sided array of ``ndim`` axes that ``data`` encodes."""
    check_keys(data, what, ("dim", "re"), ("im",))
    shape = (positive_whole(data["dim"], f"{what} dim"),) * ndim
    try:  # no dtype is forced, so strings and booleans do not read as numbers
        re = np.asarray(data["re"])
        im = np.asarray(data.get("im", np.zeros_like(re)))
        numeric = re.dtype.kind in "iuf" and im.dtype.kind in "iuf"
    except ValueError:  # ragged lists
        numeric = False
    if numeric and (re.shape != shape or im.shape != shape):
        raise ValidationError(
            f"{what} JSON shape mismatch: dim={shape[0]}, re{re.shape}, im{im.shape}"
        )
    entries = [data["re"], data.get("im", [])]
    for _ in range(ndim):
        entries = itertools.chain.from_iterable(entries)
    if not numeric or bool in set(map(type, entries)):  # a bool among numbers reads as 0 or 1
        raise ValidationError(f"{what} JSON re/im must be numeric arrays of shape {shape}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError(f"{what} JSON has non-finite entries")
    arr = re.astype(complex)
    arr.imag = im  # set, not added, so a -0.0 keeps its sign
    return arr


def operator_from_json(data: dict) -> np.ndarray:
    return _array_from_json(data, "operator", 2)


def hermitian_from_json(data: dict) -> "HermitianOperator":
    return HermitianOperator(operator_from_json(data))


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A validated Hermitian matrix.

    Wrapping applies :func:`require_hermitian`; the stored Hermitian part is read-only.
    Most functions accept plain ndarrays too and only return this type where
    Hermiticity is part of their contract.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValidationError(f"operator must be a square matrix, got shape {m.shape}")
        require_hermitian(m, "operator")
        m = hermitian_part(m)
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __array__(self, dtype=None, copy=None):
        arr = self.entries
        if dtype is not None:
            arr = arr.astype(dtype)
        return np.array(arr) if copy else arr


def from_json_dict(obj: dict, cls=ProbeModel) -> ProbeModel:
    """``ProbeModel.from_json_dict`` as it was, over the reader above."""
    check_keys(obj, "model", ("h", "g", "couplings", "spectrum", "rho0"), ("code", "gap_tol"))
    couplings = tuple(hermitian_from_json(a) for a in obj["couplings"])
    return cls(
        h=hermitian_from_json(obj["h"]),
        g=hermitian_from_json(obj["g"]),
        couplings=couplings,
        spectrum=spectrum_from_json(obj["spectrum"], len(couplings)),
        rho0=operator_from_json(obj["rho0"]),
        code=CodeSpace.from_json_dict(obj["code"]) if obj.get("code") is not None else None,
        gap_tol=(finite_number(obj["gap_tol"], "model gap_tol")
                 if obj.get("gap_tol") is not None else None),
    )
