"""Verification grids: each is exactly its family's admissible tuples, in order."""

from itertools import product

import pytest

from chromsym.compositions import ParameterError
from chromsym.families import FAMILIES

# the grid of these is indexed by the order of the untwinned base graph
_BASE_ORDER = {"tw-path", "tw-cycle"}


def _admissible(fam, max_n):
    """Tuples of the box [0, max_n + 1]^k that both constructor and evaluator take, up to max_n."""
    limit = max_n + (fam.tag in _BASE_ORDER)
    for values in product(range(max_n + 2), repeat=len(fam.params)):
        params = dict(zip(fam.params, values))
        try:
            if fam.build_graph(**params).n_vertices > limit:
                continue
            fam.evaluate(**params)
        except ParameterError:
            continue
        yield params


@pytest.mark.parametrize("tag", sorted(set(FAMILIES) - {"kchain"}))
def test_grid_is_admissible_tuples_in_order(tag):
    fam = FAMILIES[tag]
    for max_n in (0, 3, 6, 8):
        assert list(fam.grid(max_n)) == list(_admissible(fam, max_n)), max_n
