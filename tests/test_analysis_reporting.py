"""Benchmark table formatting."""

from repro.analysis.reporting import format_table


def test_format_table_aligns_columns():
    out = format_table(["name", "value"],
                       [["alpha", 1.0], ["beta-long", 123.456]],
                       title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert set(lines[2]) <= {"-", " "}
    # All rows share the header's column offsets.
    value_col = lines[1].index("value")
    assert lines[3][value_col:].strip() == "1.0"


def test_format_table_number_rendering():
    out = format_table(["v"], [[1234.5678], [12.345], [0.00123],
                               [float("nan")]])
    assert "1235" in out or "1234" in out
    assert "12.3" in out
    assert "0.00123" in out
    assert "nan" in out


def test_format_table_handles_strings_and_ints():
    out = format_table(["a", "b"], [["x", 3], ["y", 4]])
    assert "x" in out and "3" in out
