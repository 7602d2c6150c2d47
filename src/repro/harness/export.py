"""Persist experiment results as JSON (for CI trend lines / notebooks)."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

from .experiments.common import ExperimentResult


def _jsonable(value: Any) -> Any:
    """Coerce numpy scalars / inf / nan / tuples into JSON-clean values."""
    if value is None or isinstance(value, (str, bool, int)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "tolist"):  # numpy array OR numpy scalar
        return _jsonable(value.tolist())
    if hasattr(value, "item"):  # other 0-d array-likes
        return _jsonable(value.item())
    return str(value)


def result_to_dict(result: ExperimentResult) -> dict:
    """A stable, JSON-clean representation of one experiment run."""
    return {
        "experiment": result.experiment,
        "rows": [_jsonable(r) for r in result.rows],
        "summary": _jsonable(result.summary),
    }


def save_json(result: ExperimentResult, path: str | Path) -> Path:
    """Write one experiment's rows + summary to ``path`` as JSON."""
    path = Path(path)
    path.write_text(json.dumps(result_to_dict(result), indent=1))
    return path
