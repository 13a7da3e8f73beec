"""README.md names the public surface: exactly the package's `__all__`."""

import re
from pathlib import Path

import ctoconv

README = Path(__file__).resolve().parent.parent / "README.md"


def _entry_point_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("## Entry points")
    end = text.index("\n## ", start + 1)
    return text[start:end]


def _listed_names() -> set:
    """Identifiers in backticks on the section's bullet lines."""
    bullets = "\n".join(
        line for line in _entry_point_section().splitlines()
        if line.startswith(("- ", "  "))
    )
    return set(re.findall(r"`([A-Za-z_]\w*)`", bullets))


def test_every_export_is_named_in_readme():
    text = README.read_text(encoding="utf-8")
    missing = [name for name in ctoconv.__all__ if f"`{name}`" not in text]
    assert missing == []


def test_entry_point_list_is_all():
    listed = _listed_names()
    assert listed - set(ctoconv.__all__) == set()
    assert set(ctoconv.__all__) - listed == set()


def test_all_names_exist():
    for name in ctoconv.__all__:
        assert hasattr(ctoconv, name), name
