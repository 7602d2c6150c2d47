"""JSON export of experiment results."""

import json
import math

import numpy as np

from repro.harness.experiments import table2_devices
from repro.harness.experiments.common import ExperimentResult
from repro.harness.export import result_to_dict, save_json


def synthetic_result():
    return ExperimentResult(
        experiment="demo",
        rows=[
            {
                "matrix": "X",
                "speedup": np.float64(1.5),
                "n": float("inf"),
                "missing": float("nan"),
                "hist": (np.array([1, 2]), np.array([0.5, 0.5])),
            }
        ],
        renderer=lambda r: "demo",
        summary={"avg": np.float32(2.0)},
    )


class TestConversion:
    def test_numpy_scalars_become_floats(self):
        d = result_to_dict(synthetic_result())
        assert d["rows"][0]["speedup"] == 1.5
        assert isinstance(d["summary"]["avg"], float)

    def test_inf_and_nan_are_encoded(self):
        d = result_to_dict(synthetic_result())
        assert d["rows"][0]["n"] == "inf"
        assert d["rows"][0]["missing"] is None

    def test_arrays_become_lists(self):
        d = result_to_dict(synthetic_result())
        assert d["rows"][0]["hist"] == [[1, 2], [0.5, 0.5]]

    def test_strictly_json_serialisable(self):
        json.dumps(result_to_dict(synthetic_result()))


class TestRoundtrip:
    def test_save_and_load(self, tmp_path):
        path = save_json(synthetic_result(), tmp_path / "r.json")
        loaded = json.loads(path.read_text())
        assert loaded["experiment"] == "demo"

    def test_real_experiment(self, tmp_path):
        res = table2_devices.run()
        path = save_json(res, tmp_path / "t2.json")
        loaded = json.loads(path.read_text())
        assert len(loaded["rows"]) == 3
