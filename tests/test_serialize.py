import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from consfloor import DualGrid, PolicyTable
from consfloor.serialize import (
    _BLOCK_ROWS,
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


# float columns that stress the '%.16e' text: signed zero, the smallest
# subnormal, the largest finite float and 17-significant-digit values
_PINNED = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
           0.1, 1.0 / 3.0, math.pi, 2.2250738585072014e-308, 123456789.01234567,
           -9.8765432109876543e-300, 0.0, 1.0]


def _pinned_columns(n_cols):
    # each column is a rotation of _PINNED, so every value meets every column
    return [np.roll(np.array(_PINNED), j) for j in range(n_cols)]


def _reference_csv(header, cols, labels=None):
    # the per-element text of the original writers
    lines = [header]
    for i, row in enumerate(zip(*cols)):
        line = ",".join(f"{v:.16e}" for v in row)
        lines.append(line if labels is None else line + "," + str(labels[i]))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_dual_csv_bytes_are_pinned(tmp_path):
    y, v, v_y, v_yy = _pinned_columns(4)
    grid = DualGrid(y=y, v=v, v_y=v_y, v_yy=v_yy, residual_inf=0.0)
    data = write_dual_csv(tmp_path / "dual.csv", grid)
    assert data == _reference_csv("y,v,v_y,v_yy", (y, v, v_y, v_yy))
    assert (tmp_path / "dual.csv").read_bytes() == data
    cols = read_dual_csv(tmp_path / "dual.csv")
    for name, ref in zip(("y", "v", "v_y", "v_yy"), (y, v, v_y, v_yy)):
        assert np.array_equal(cols[name].view(np.uint64), ref.view(np.uint64))


def test_policy_csv_bytes_are_pinned(tmp_path, spec_nh):
    cols = _pinned_columns(6)
    region = np.array(["C", "U"] * (len(_PINNED) // 2))
    table = PolicyTable(spec_nh, *cols, region=region)
    data = write_policy_csv(tmp_path / "policy.csv", table)
    assert data == _reference_csv("x,V,V_x,V_xx,c_star,pi_star,region", cols, region)
    assert (tmp_path / "policy.csv").read_bytes() == data


@pytest.mark.parametrize("n_rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                                    2 * _BLOCK_ROWS + 1])
def test_csv_bytes_across_block_boundaries(tmp_path, spec_nh, n_rows):
    cols = [np.resize(c, n_rows) for c in _pinned_columns(6)]
    region = np.resize(np.array(["C", "U"]), n_rows)
    # a DualGrid needs 3 nodes; the writer reads only the named columns
    grid = SimpleNamespace(**dict(zip(("y", "v", "v_y", "v_yy"), cols)))
    data = write_dual_csv(tmp_path / "dual.csv", grid)
    assert data == _reference_csv("y,v,v_y,v_yy", cols[:4])
    assert (tmp_path / "dual.csv").read_bytes() == data
    table = PolicyTable(spec_nh, *cols, region=region)
    data = write_policy_csv(tmp_path / "policy.csv", table)
    assert data == _reference_csv("x,V,V_x,V_xx,c_star,pi_star,region", cols, region)
    assert (tmp_path / "policy.csv").read_bytes() == data
    if n_rows == 0:
        assert data == b"x,V,V_x,V_xx,c_star,pi_star,region\n"


def test_policy_csv_writer_transient_is_about_twice_the_file(tmp_path, spec_nh):
    """Rows are formatted a block at a time, so the writer holds little
    more than the encoded blocks and their join."""
    n_rows = 16384
    cols = [np.resize(c, n_rows) for c in _pinned_columns(6)]
    table = PolicyTable(spec_nh, *cols, region=np.resize(np.array(["C", "U"]), n_rows))
    tracemalloc.start()
    try:
        data = write_policy_csv(tmp_path / "policy.csv", table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(data), (peak, len(data))


_DUAL_HEADER = "y,v,v_y,v_yy\n"


# a malformed data row and the fault the reader names for it
_MALFORMED = {
    "1.0,2.0,3.0": "expected 4 cells, found 3",             # a cell short
    "1.0,2.0,3.0,4.0,5.0": "expected 4 cells, found 5",     # a cell over
    "1.0,2.0,x,4.0": "cell 3 ('x') is not a number",        # not a number
    "1.0,2.0,,4.0": "cell 3 ('') is not a number",          # empty cell
    "#1.0,2.0,3.0,4.0": "cell 1 ('#1.0') is not a number",  # not a comment
    "1_0,2.0,3.0,4.0": "cell 1 ('1_0') is not a number",    # float() takes it, loadtxt not
}


@pytest.mark.parametrize("row", list(_MALFORMED))
def test_malformed_csv_row_raises_config_error_naming_the_file(tmp_path, row):
    path = tmp_path / "bad-dual.csv"
    path.write_text(_DUAL_HEADER + "0.5,0.5,0.5,0.5\n" + row + "\n")
    with pytest.raises(ConfigError, match="bad-dual.csv: line 3: ") as err:
        read_dual_csv(path)
    assert str(err.value).endswith(_MALFORMED[row])
    assert "usecols" not in str(err.value)


def test_malformed_csv_row_line_counts_blank_lines(tmp_path):
    path = tmp_path / "dual.csv"
    path.write_text(_DUAL_HEADER + "\n1.0,2.0,3.0,4.0\n\n1.0,\uff12,3.0,4.0\n")
    with pytest.raises(ConfigError, match="line 5: cell 2 .* is not a number"):
        read_dual_csv(path)


def test_csv_blank_lines_are_skipped_and_columns_are_contiguous(tmp_path):
    path = tmp_path / "dual.csv"
    path.write_text(_DUAL_HEADER + "1.0,2.0,3.0,4.0\n\n5.0,6.0,7.0,8.0\n\n")
    cols = read_dual_csv(path)
    assert np.array_equal(cols["y"], [1.0, 5.0])
    assert np.array_equal(cols["v_yy"], [4.0, 8.0])
    assert all(c.dtype == np.float64 and c.flags.c_contiguous for c in cols.values())


def test_header_only_csv_gives_empty_columns(tmp_path, spec_nh, recwarn):
    dual = tmp_path / "dual.csv"
    dual.write_text(_DUAL_HEADER)
    cols = read_dual_csv(dual)
    assert list(cols) == ["y", "v", "v_y", "v_yy"]
    assert all(c.shape == (0,) and c.dtype == np.float64 for c in cols.values())
    policy = tmp_path / "policy.csv"
    policy.write_text("x,V,V_x,V_xx,c_star,pi_star,region")  # no final newline
    table = read_policy_csv(policy, spec_nh)
    assert table.x.shape == table.region.shape == (0,)
    assert len(recwarn) == 0


def test_single_row_policy_csv_gives_one_element_columns(tmp_path, spec_nh):
    path = tmp_path / "policy.csv"
    path.write_text("x,V,V_x,V_xx,c_star,pi_star,region\n1.0,2.0,3.0,-4.0,5.0,6.0,U\n")
    table = read_policy_csv(path, spec_nh)
    assert table.x.tolist() == [1.0] and table.V_xx.tolist() == [-4.0]
    assert table.region.tolist() == ["U"]


def test_policy_csv_region_labels_are_not_truncated(tmp_path, spec_nh):
    path = tmp_path / "policy.csv"
    path.write_text("x,V,V_x,V_xx,c_star,pi_star,region\n"
                    "1.0,1.0,1.0,-1.0,1.0,1.0,C\n"
                    "2.0,2.0,0.5,-1.0,2.0,1.0,CU\n"
                    "3.0,3.0,0.2,-1.0,3.0,1.0,boundary\n")
    table = read_policy_csv(path, spec_nh)
    assert table.region.tolist() == ["C", "CU", "boundary"]
