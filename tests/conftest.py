"""Fixtures shared by the test modules."""

import pytest

from chromsym import formulas, graphs

# the families whose evaluators and graphs reach the four memoized general forms
GENERAL_FORM_FAMILIES = ("lollipop", "kpk", "kpk-b3", "pkp", "kkp", "kpc", "tadpole", "kpkp",
                         "kpkp-b3", "kayak", "infinity")


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty memos of the general expansions and chains for one test, restored after it."""
    for mod, held in ((formulas, "_memo_terms"), (graphs, "_memo_edges")):
        monkeypatch.setattr(mod, "_memo", {})
        monkeypatch.setattr(mod, held, 0)


def count_hits(mod, monkeypatch) -> list[bool]:
    """Whether each memo lookup of mod, from now on, finds its key stored."""
    hits = []
    remembered = mod._remembered

    def spy(key, make):
        hits.append(key in mod._memo)
        return remembered(key, make)
    monkeypatch.setattr(mod, "_remembered", spy)
    return hits
