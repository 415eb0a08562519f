"""Exact-arithmetic root systems, Weyl-group combinatorics, and finite
Tits-system (BN-pair) verification.

The Weyl side (``rootsys``, ``weyl``, ``cosets``) and the group side
(``fingrp``, ``titssys``) import apart; only ``cli`` loads both.  Importing
the package loads no submodule: each public name below, and each
submodule, loads on first use.
"""

from importlib import import_module

_NAMES = {
    "rootsys": (
        "RootSystem", "RootSystemSpec", "branch_node", "build_root_system", "coxeter_matrix",
        "dynkin_path", "is_end_node", "nondivisible_core", "reduced_form",
    ),
    "weyl": (
        "WeylElement", "act_on_weight", "element_of", "fundamental_weight", "is_minus_one",
        "length", "longest_element", "reduced_word_count", "reduced_words",
    ),
    "cosets": (
        "DoubleCosetReport", "ParabolicChoice", "WitnessReport", "double_coset_count",
        "double_coset_count_naive", "end_node_weight_sets", "root_count_gap_check",
        "third_coset_witness", "w0_negation_map",
    ),
    "fingrp": ("FiniteGroup", "affine_group", "fitting_subgroup", "special_linear_group"),
    "titssys": (
        "ClassificationFlags", "TitsReport", "TitsSystemCandidate", "check_axioms", "classify",
        "psl3_f2_nonstandard_system", "rank1_from_2transitive", "sl_rank1_column_system",
        "standard_sl_system", "star_property_check",
    ),
}
_HOME = {name: module for module, names in _NAMES.items() for name in names}
_SUBMODULES = {*_NAMES, "errors"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        # Importing a submodule binds it on the package.
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
