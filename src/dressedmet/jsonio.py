"""JSON (de)serialization for operators and states.

Wire format for a d x d operator:

    {"dim": d, "re": [[...], ...], "im": [[...], ...]}

with row-major real/imaginary parts.  State vectors use the same layout with
flat lists.  ``im`` may be omitted for real data.
"""
from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import ValidationError
from .operators import StateVector, as_matrix, as_vector


def operator_to_json(op) -> dict:
    m = as_matrix(op)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def operator_from_json(data: dict) -> np.ndarray:
    if not isinstance(data, dict) or "dim" not in data or "re" not in data:
        raise ValidationError("operator JSON must carry 'dim' and 're' fields")
    dim = int(data["dim"])
    re = np.asarray(data["re"], dtype=float)
    im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float)
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValidationError(
            f"operator JSON shape mismatch: dim={dim}, re{re.shape}, im{im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError("operator JSON has non-finite entries")
    return re + 1j * im


def state_to_json(state) -> dict:
    v = as_vector(state)
    return {
        "dim": int(v.shape[0]),
        "re": v.real.tolist(),
        "im": v.imag.tolist(),
    }


def state_from_json(data: dict) -> StateVector:
    if not isinstance(data, dict) or "dim" not in data or "re" not in data:
        raise ValidationError("state JSON must carry 'dim' and 're' fields")
    dim = int(data["dim"])
    re = np.asarray(data["re"], dtype=float).reshape(-1)
    im = np.asarray(data.get("im", np.zeros_like(re)), dtype=float).reshape(-1)
    if re.shape != (dim,) or im.shape != (dim,):
        raise ValidationError("state JSON shape mismatch")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValidationError("state JSON has non-finite entries")
    return StateVector(re + 1j * im)


def load_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def json_text(obj: Any) -> str:
    """Standard JSON text (indent 2, final newline); non-finite floats raise."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValidationError(f"refusing to write non-standard JSON: {exc}") from None


def dump_json(obj: Any, path) -> None:
    """Write ``obj`` to ``path``; serialized first, so a refusal writes nothing."""
    text = json_text(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
