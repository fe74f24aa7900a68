import json
import math

import numpy as np
import pytest

from consfloor.serialize import (
    json_dumps,
    read_dual_csv,
    read_policy_csv,
    sha256_bytes,
    write_dual_csv,
    write_policy_csv,
)
from consfloor.errors import ConfigError


def test_json_dumps_floats_round_trip_exactly():
    rng = np.random.default_rng(99)
    samples = list(rng.normal(size=50)) + list(10.0 ** rng.uniform(-300, 300, 50))
    samples += [0.0, -0.0, 1.0, -1.5, 1e-308, math.pi]
    back = json.loads(json_dumps([float(v) for v in samples]))
    for v, w in zip(samples, back, strict=True):
        assert np.float64(w).view(np.uint64) == np.float64(v).view(np.uint64)


def test_json_dumps_rejects_nonfinite():
    for v in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            json_dumps({"x": v})


def test_json_dumps_escapes_control_characters_and_keys():
    obj = {"out": "run\tA", "note": "line\nbreak", 'k"ey': 1.0, "back\\slash": "a\\b"}
    assert json.loads(json_dumps(obj)) == obj


def test_json_dumps_parses_and_is_deterministic():
    obj = {"a": 1, "b": [0.1, 2.5e-300, None, True], "c": {"d": "x\"y", "e": []},
           "f": 3.0}
    s1 = json_dumps(obj)
    s2 = json_dumps(obj)
    assert s1 == s2
    back = json.loads(s1)
    assert back["b"][0] == 0.1 and back["b"][1] == 2.5e-300
    assert back["c"]["d"] == 'x"y'
    assert back["f"] == 3.0
    assert s1.endswith("\n")


def test_dual_csv_roundtrip(tmp_path, si_grid):
    path = tmp_path / "dual.csv"
    data = write_dual_csv(path, si_grid)
    assert sha256_bytes(data) == sha256_bytes(path.read_bytes())
    cols = read_dual_csv(path)
    for name, ref in (("y", si_grid.y), ("v", si_grid.v),
                      ("v_y", si_grid.v_y), ("v_yy", si_grid.v_yy)):
        assert np.array_equal(cols[name], ref)


def test_policy_csv_roundtrip(tmp_path, spec_nh, nh_table):
    path = tmp_path / "policy.csv"
    write_policy_csv(path, nh_table)
    back = read_policy_csv(path, spec_nh, nh_table.x_star_list)
    for name in ("x", "V", "V_x", "V_xx", "c_star", "pi_star"):
        assert np.array_equal(getattr(back, name), getattr(nh_table, name))
    assert np.array_equal(back.region, nh_table.region)
    assert back.x_star_list == nh_table.x_star_list


def test_csv_header_is_validated(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ConfigError):
        read_dual_csv(path)
