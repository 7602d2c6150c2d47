"""Text renderers: the paper's ∅/∞ notation and table shapes."""

from repro.harness.report import (
    NEVER_CELL,
    OOM_CELL,
    format_cell,
    render_table,
)


class TestCells:
    def test_none_is_oom(self):
        assert format_cell(None).strip() == OOM_CELL

    def test_nan_is_oom(self):
        assert format_cell(float("nan")).strip() == OOM_CELL

    def test_inf_is_never(self):
        assert format_cell(float("inf")).strip() == NEVER_CELL

    def test_large_uses_scientific(self):
        assert "e" in format_cell(1.6e5)

    def test_small_uses_scientific(self):
        assert "e" in format_cell(1e-5)

    def test_plain_float(self):
        assert format_cell(3.14159).strip() == "3.14"

    def test_int_passthrough(self):
        assert format_cell(12).strip() == "12"

    def test_string_passthrough(self):
        assert format_cell("abc").strip() == "abc"

    def test_width_respected(self):
        assert len(format_cell(1.0, width=15)) == 15


class TestTable:
    def test_structure(self):
        out = render_table(
            "Title", ["m", "a", "b"], [["X", 1.0, None], ["Y", 2.0, 3.0]]
        )
        lines = out.splitlines()
        assert lines[0] == "Title"
        assert set(lines[1]) == {"="}
        assert "X" in out and OOM_CELL in out

    def test_row_count(self):
        rows = [[f"r{i}", float(i)] for i in range(5)]
        out = render_table("T", ["m", "v"], rows)
        assert len(out.splitlines()) == 4 + 5  # title, rule, header, sep
