"""
Exact combinatorics of signed permutations, rank-r domino tableaux,
cycles, insertion, combinatorial cells, and an exact unequal-parameter
Kazhdan-Lusztig oracle, with exhaustive verification suites.
"""

from .wgroup import (
    DescentSet, compose, inverse, identity, length,
    tau_invariant, enhanced_tau_invariant, group_elements,
    parse_perm, format_perm, simple_generators,
)
from .shapes import staircase, addable_dominos, removable_dominos, diagonal
from .tableaux import (
    DominoTableau, TableauPair, TableauError, tau_of_tableau,
    enhanced_tau_of_tableau, enumerate_sdt,
)
from .cycles import (
    REGULAR, OPPOSITE, Cycle, ExtendedCycles, cycle_partition,
    move_through, noncore_orbit, extended_cycles, raise_rank,
)
from .insertion import insert, insertion_states, uninsert, asymptotic_bitableaux
from .cells import (
    CellPartition, class_of_tableau, combinatorial_cells, asymptotic_cells,
)
from .hecke import WeightFunction, kl_cells

__version__ = "0.1.0"
