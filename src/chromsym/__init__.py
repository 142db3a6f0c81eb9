"""Exact chromatic symmetric functions in the elementary basis.

Closed-form positive e-expansions for paths, cycles, clique chains,
lollipops (plain, melting and twinned), clique-path chains, tadpoles, kayak
paddles and infinity graphs, together with a brute-force oracle for
differential verification.
"""

from .compositions import (
    composition_sum,
    compositions_min2,
    compositions_of,
    concat,
    gap,
    remove_part,
    reverse,
    rho,
    sigma,
    sigma_minus,
    theta,
    theta_minus,
    w,
    weak_compositions,
)
from .symfunc import ESymFunc, e_term, one, p_to_e, zero
from .graphs import (
    DoubleRootedGraph,
    Graph,
    RootedGraph,
    chain,
    complete,
    conjoin,
    cycle,
    disjoint_union,
    format_edge_list,
    graph_from_edges,
    infinity,
    k_chain,
    kayak,
    kkp,
    kpc,
    kpk,
    kpkp,
    lollipop,
    melting_lollipop,
    parse_edge_list,
    path,
    pkp,
    tadpole,
    tw_cycle,
    tw_lollipop,
    tw_path,
    twin,
)
from .oracle import (
    DEFAULT_EDGE_BUDGET,
    EdgeBudgetError,
    count_proper_colorings,
    csf_bruteforce,
    triple_deletion_check,
    x_tw_cycle_rec,
    x_tw_lollipop_rec,
    x_tw_path_rec,
    x_via_cpg,
    x_via_kpg,
)
from .formulas import (
    f123_check,
    x_cycle,
    x_infinity,
    x_kayak,
    x_kchain,
    x_kkp,
    x_kpc,
    x_kpk,
    x_kpk_b3,
    x_kpkp,
    x_kpkp_b3,
    x_lollipop,
    x_melting_lollipop,
    x_path,
    x_pkp,
    x_tadpole,
    x_tw_cycle,
    x_tw_lollipop,
    x_tw_path,
)
from .families import FAMILIES, get_family, run_verification

__version__ = "0.1.0"
