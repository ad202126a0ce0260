"""Faults the self-test plants from outside ``ellhom``, to show that the
benchmark's checks can fail. Each fault wraps the bindings callers look up,
like the tracer does, and fires once.
"""

from __future__ import annotations

from ellhom import characters, koszul, linalg, pairings


def _rank_minus_one():
    """The first sparse_int_rank call with a nonzero rank returns rank - 1."""
    original = linalg.sparse_int_rank
    fired = []

    def faulty(rows):
        rank = original(rows)
        if rank and not fired:
            fired.append(True)
            return rank - 1
        return rank

    for module in (linalg, koszul, pairings):
        module.sparse_int_rank = faulty


def _weyl_coefficient():
    """The first weyl_character result gets its highest-weight coefficient
    raised by one."""
    original = characters.weyl_character
    fired = []

    def faulty(lam, rs):
        chi = original(lam, rs)
        if not fired:
            fired.append(True)
            chi.terms[tuple(lam)] += 1
        return chi

    characters.weyl_character = faulty


FAULTS = {"rank": _rank_minus_one, "weyl-coefficient": _weyl_coefficient}

# the workloads each fault must make fail
REACHES = {"rank": ("oracle", "weyl"), "weyl-coefficient": ("oracle", "lattice")}


def plant(name: str) -> None:
    FAULTS[name]()
