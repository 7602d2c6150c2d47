"""Regenerate ``reference.json``, the modelled floats the checks compare to.

Run it only at a commit whose modelled outputs are known good (a change
that declares a cost-model change regenerates it)::

    PYTHONPATH=src python benchmarks/e2e/make_reference.py

Values that depend on the seed (the dynamic workload's per-epoch
maintenance) are stored for seeds ``0 .. REFERENCE_SEEDS - 1``; other
seeds are checked against the seed-free values only.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from workloads import REFERENCE_PATH, WORKLOADS, params_key, pinned_env

REFERENCE_SEEDS = 64


def values_for(name: str, seed: int, params: dict) -> dict:
    workload = WORKLOADS[name]
    with pinned_env(workload.env(params)), tempfile.TemporaryDirectory() as tmp:
        state = workload.setup(seed, params, Path(tmp))
        return workload.values(state, workload.main(state))


def reference_entry(name: str, params: dict, seeds) -> dict:
    """``{"*": seed-free values, "<seed>": seed-specific values}``."""
    seed_free = WORKLOADS[name].seed_free or (lambda key: True)
    entry: dict = {}
    for seed in seeds:
        values = values_for(name, seed, params)
        free = {k: v for k, v in values.items() if seed_free(k)}
        if entry.setdefault("*", free) != free:
            raise RuntimeError(f"{name}: seed-free values changed with seed {seed}")
        own = {k: v for k, v in values.items() if not seed_free(k)}
        if own:
            entry[str(seed)] = own
    return entry


def main() -> int:
    reference = {}
    for name, workload in WORKLOADS.items():
        # Two seeds confirm that seed-free values really are.
        seeds = range(2) if workload.seed_free is None else range(REFERENCE_SEEDS)
        reference[name] = {
            params_key(workload.params): reference_entry(name, workload.params, seeds)
        }
        print(f"{name}: {len(seeds)} seed(s)")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
