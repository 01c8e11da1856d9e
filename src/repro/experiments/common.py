"""Shared experiment infrastructure: result tables and formatting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass
class ExperimentResult:
    """A reproduced table/figure: rows plus the paper's reference values."""

    name: str
    description: str
    columns: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **fields: Any) -> None:
        self.rows.append(fields)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def row_where(self, key: str, value: Any) -> Dict[str, Any]:
        for row in self.rows:
            if row.get(key) == value:
                return row
        raise KeyError(f"no row with {key}={value!r}")

    # -- rendering -----------------------------------------------------------

    @staticmethod
    def _fmt(value: Any) -> str:
        if isinstance(value, float):
            if value == 0:
                return "0"  # covers -0.0 too: no stray sign
            # Format the magnitude and re-attach the sign, so a negative
            # value always renders exactly as "-" + its positive twin
            # (same threshold bucket, same precision, same width + 1).
            sign = "-" if value < 0 else ""
            magnitude = abs(value)
            if magnitude >= 1000:
                return f"{sign}{magnitude:,.0f}"
            if magnitude >= 10:
                return f"{sign}{magnitude:.1f}"
            return f"{sign}{magnitude:.3g}"
        return str(value)

    def to_text(self) -> str:
        widths = {col: len(col) for col in self.columns}
        rendered = []
        for row in self.rows:
            cells = {col: self._fmt(row.get(col, "")) for col in self.columns}
            rendered.append(cells)
            for col, cell in cells.items():
                widths[col] = max(widths[col], len(cell))
        lines = [f"== {self.name}: {self.description} =="]
        header = "  ".join(col.ljust(widths[col]) for col in self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        for cells in rendered:
            lines.append("  ".join(cells[col].ljust(widths[col])
                                   for col in self.columns))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def relative_error(measured: float, paper: float) -> float:
    """|measured - paper| / paper, guarding zero."""
    if paper == 0:
        return abs(measured)
    return abs(measured - paper) / abs(paper)
