import numpy as np

from specluster.util import data_lines, fmt


def test_fmt_pins_special_floats_and_integer_types():
    values = [np.nan, np.inf, -np.inf, -0.0, np.float64(0.1), np.float64(-np.inf), np.int64(-7), 3, True]
    assert [fmt(v) for v in values] == ["nan", "inf", "-inf", "-0.0", "0.1", "-inf", "-7", "3", "1"]


def test_data_lines_drops_comments_and_blank_lines(tmp_path):
    path = tmp_path / "data.txt"
    path.write_text("# header\n\n 1 2 \n3 4# tail\n   # indented\n5=6 # a # b\n")
    assert list(data_lines(path)) == [(3, "1 2"), (4, "3 4"), (6, "5=6")]
