"""Exact enumeration of adjacent-pair (vincular) pattern occurrences in
flattened permutations.

A permutation is flattened by writing its standard cycle form (minimum
first in each cycle, cycles by increasing minima) and erasing parentheses.
This package computes, exactly and with cross-checks against brute force:

* the distribution polynomials g_n(q) counting permutations of n by number
  of occurrences of 12-3, 21-3, 23-1, 32-1 or 31-2 in the flattened form,
  via coefficient recurrences (``recurrences``), with the prefix-refined
  family g_n(1k);
* closed forms for avoider counts, exact average and total occurrence
  counts, and the supporting Stirling/Bell/harmonic numbers
  (``closed_forms``);
* generating-function expansions over exact rationals (``series``);
* the marked-partition and run-reversal bijections behind the avoider
  counts (``bijections``);
* the brute-force oracle itself (``perm_core``) and the polynomial layer
  (``qpoly``).

``flatperm verify --suite all`` (or ``verification.run_suite``) replays
every identity against the oracle.
"""

from .bijections import (MarkedPartition, avoider_23_1_to_partition,
                         check_31_2_equivalence, enumerate_marked_partitions,
                         inverse_32_1_to_23_1, map_23_1_to_32_1,
                         partition_to_23_1_avoider)
from .closed_forms import (SpecialNumberCache, average_occurrences, avoiders,
                           limit_check, numbers, total_occurrences)
from .perm_core import (CycleForm, Permutation, VincularPattern3,
                        brute_distribution, brute_refined_distribution,
                        count_in_flattened_sense, count_occurrences,
                        enumerate_permutations, flatten, to_standard_cycle_form)
from .qpoly import (IdentityViolation, QPoly, Rational, complete_h,
                    e_on_qints_closed_form, elementary_e,
                    h_on_qint_window_closed_form, nonadjacent_e_prime,
                    q_binomial, q_factorial, q_int)
from .recurrences import (ALL_PATTERNS, DistributionTable, PatternId,
                          distribution_polynomial, distribution_table, g_12_3,
                          g_21_3, g_23_1, g_31_2, g_32_1, refined_g1k)
from .series import (PowerSeries, exp_series, expand_egf_12_3_avoid,
                     expand_egf_21_3_avoid, expand_G_r_31_2, sqrt_series)
from .verification import run_suite

__version__ = "0.1.0"

__all__ = [
    "ALL_PATTERNS", "CycleForm", "DistributionTable", "IdentityViolation",
    "MarkedPartition", "PatternId", "Permutation", "PowerSeries", "QPoly",
    "Rational", "SpecialNumberCache", "VincularPattern3",
    "average_occurrences", "avoider_23_1_to_partition", "avoiders",
    "brute_distribution", "brute_refined_distribution",
    "check_31_2_equivalence", "complete_h", "count_in_flattened_sense",
    "count_occurrences", "distribution_polynomial", "distribution_table",
    "e_on_qints_closed_form", "elementary_e", "enumerate_marked_partitions",
    "enumerate_permutations", "exp_series", "expand_G_r_31_2",
    "expand_egf_12_3_avoid", "expand_egf_21_3_avoid", "flatten", "g_12_3",
    "g_21_3", "g_23_1", "g_31_2", "g_32_1", "h_on_qint_window_closed_form",
    "inverse_32_1_to_23_1", "limit_check", "map_23_1_to_32_1",
    "nonadjacent_e_prime", "numbers", "partition_to_23_1_avoider",
    "q_binomial", "q_factorial", "q_int", "refined_g1k", "run_suite",
    "sqrt_series", "to_standard_cycle_form", "total_occurrences",
]
