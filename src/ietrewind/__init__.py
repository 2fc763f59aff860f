"""Exact simulation of interval-exchange induction and recovery of the
starting data from visitation records alone.

Each public name is imported from its submodule on first access (PEP 562),
so ``import ietrewind`` loads no submodule and a command loads only what it
runs.
"""
from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {  # submodule -> the public names it defines
    "core": ("Pair", "Permutation", "BoundExceeded", "Unrealizable", "make_pair", "inverse", "project", "lift_perm",
             "compose", "perm_power", "identity_perm", "is_irreducible_pair", "is_irreducible_perm"),
    "rauzy": ("RauzyPath", "MalformedMatrix", "NonIrreducible", "rauzy_step_pair", "rauzy_step_perm", "simulate_pair",
              "simulate_perm", "type1_matrix", "decode_A", "is_complete", "c_completeness"),
    "zorich": ("ZorichMove", "MixedTypeBlock", "accelerate", "extract_move", "breakup", "winners_with_multiplicity"),
    "lifting": ("psi_matrix", "lift_step", "lift_zorich_path"),
    "recovery": ("PartiallyOrderedPair", "recover_pair", "recover_perm", "agrees", "agrees_perm", "enumerate_agreeing",
                 "enumerate_agreeing_perms", "enumerate_starting", "uniqueness_threshold", "uncertainty_profile"),
    "sharpness": ("PivotWitness", "SharpnessResult", "BadN", "build_ambiguous_path", "pivot_form",
                  "refresh_cycle_path", "halving_path", "has_definitive_positions"),
    "oracle": ("RealizabilityReport", "forward_simulate", "brute_force_initial_pairs", "brute_force_initial_perms"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
