"""The JSON wire format: array codecs, the key rule, and JSON text.

A d x d operator travels as

    {"dim": d, "re": [[...], ...], "im": [[...], ...]}

with row-major real/imaginary parts; a state vector uses the same layout with
flat lists.  ``dim`` is a whole number and ``im`` may be omitted for real
data.  Every document reader names its keys through :func:`check_keys`: a
missing required key or a key it does not know is an error.
"""
from __future__ import annotations

import itertools
import json
import numbers
import os
import stat
from typing import Any, Sequence

import numpy as np

from .errors import ValidationError
from .operators import HermitianOperator, StateVector, as_matrix, as_vector


def check_keys(obj: Any, what: str, required: Sequence[str], optional: Sequence[str] = ()) -> None:
    """Require ``obj`` to be a dict holding every ``required`` key and no key outside both lists."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} JSON must be an object")
    missing = [k for k in required if k not in obj]
    if missing:
        raise ValidationError(f"missing {what} keys: {missing}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ValidationError(f"unknown {what} keys: {unknown}")


def positive_whole(value: Any, what: str) -> int:
    """``value`` as an int >= 1; ``4.0`` counts as 4, but ``4.5``, ``"4"`` and ``true`` do not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValidationError(f"{what} must be a whole number >= 1")
    return int(value)


def _array_to_json(arr: np.ndarray) -> dict:
    return {"dim": int(arr.shape[0]), "re": arr.real.tolist(), "im": arr.imag.tolist()}


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


def operator_to_json(op) -> dict:
    return _array_to_json(as_matrix(op))


def operator_from_json(data: dict) -> np.ndarray:
    return _array_from_json(data, "operator", 2)


def hermitian_from_json(data: dict) -> HermitianOperator:
    return HermitianOperator(operator_from_json(data))


def state_to_json(state) -> dict:
    return _array_to_json(as_vector(state))


def state_from_json(data: dict) -> StateVector:
    return StateVector(_array_from_json(data, "state", 1))


def load_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def json_text(obj: Any) -> str:
    """Standard JSON text (indent 2, final newline); non-finite floats raise."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"refusing to write non-standard JSON: {exc}") from None


def write_text(path, text: str) -> None:
    """Rewrite ``path`` in place with ``text`` (UTF-8), creating it if missing.

    The file is opened without truncation, written, and then cut at the end
    of the new text if it is a regular file that runs past it, so its inode,
    mode, hard links and symlinks stay as they were.  Truncating to zero
    first would let ext4's replace-via-truncate heuristic start writeback at
    close, tens of milliseconds per file.  Nothing is fsynced.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > fh.tell():
            fh.truncate()


def dump_json(obj: Any, path) -> None:
    """Write ``obj`` to ``path``; serialized first, so a refusal writes nothing."""
    write_text(path, json_text(obj))
