"""Fixtures shared by the test modules."""

import pytest

from chromsym import formulas, graphs
from chromsym.symfunc import Memo

# the families whose evaluators and graphs reach the four memoized general forms
GENERAL_FORM_FAMILIES = ("lollipop", "kpk", "kpk-b3", "pkp", "kkp", "kpc", "tadpole", "kpkp",
                         "kpkp-b3", "kayak", "infinity")


@pytest.fixture
def fresh_memos(monkeypatch):
    """Empty memos of the general expansions and chains for one test, restored after it."""
    for mod in (formulas, graphs):
        monkeypatch.setattr(mod, "_memo", Memo(mod._memo.cap, mod._memo.size))


def count_hits(mod, monkeypatch) -> list[bool]:
    """Whether each lookup in mod's memo of general forms, from now on, finds its key stored."""
    hits = []
    remember = Memo.remember

    def spy(memo, key, make):
        if memo is mod._memo:
            hits.append(key in memo)
        return remember(memo, key, make)
    monkeypatch.setattr(Memo, "remember", spy)
    return hits
