"""Alphabets, pairs and permutations: the combinatorial states of
interval-exchange induction.

A pair is stored as its two rows, i.e. the symbols listed in position order;
the bijections symbol -> position are derived views.  Positions are 1-based
throughout, matching the usual two-row notation.  Symbols are opaque
hashable tokens (ints, strings, ...): nothing below ever does arithmetic on
them, only equality and membership.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


def check_alphabet(symbols: Iterable) -> tuple:
    syms = tuple(symbols)
    if len(syms) < 2:
        raise ValueError("alphabet needs at least two symbols")
    if len(set(syms)) != len(syms):
        raise ValueError("alphabet symbols must be pairwise distinct")
    return syms


def sorted_symbols(symbols: Iterable) -> tuple:
    """Deterministic symbol order: natural sort when comparable, repr otherwise."""
    try:
        return tuple(sorted(symbols))
    except TypeError:
        return tuple(sorted(symbols, key=repr))


@dataclass(frozen=True)
class Pair:
    """Two orderings of one alphabet.

    ``alphabet`` fixes the index order used for visitation matrices; ``row0``
    and ``row1`` list the symbols of the two rows in position order.
    """

    alphabet: tuple
    row0: tuple
    row1: tuple

    def __post_init__(self):
        check_alphabet(self.alphabet)
        universe = set(self.alphabet)
        for row in (self.row0, self.row1):
            if len(row) != len(self.alphabet) or set(row) != universe:
                raise ValueError("each row must order exactly the alphabet symbols")

    @property
    def n(self) -> int:
        return len(self.alphabet)

    def row(self, t: int) -> tuple:
        return self.row0 if t == 0 else self.row1

    def position(self, t: int, symbol) -> int:
        """p_t(symbol): the 1-based position of ``symbol`` in row ``t``."""
        return self.row(t).index(symbol) + 1

    def inverse(self) -> "Pair":
        return Pair(self.alphabet, self.row1, self.row0)


def make_pair(row0, row1, alphabet=None) -> Pair:
    r0, r1 = tuple(row0), tuple(row1)
    if alphabet is None:
        alphabet = sorted_symbols(r0)
    return Pair(tuple(alphabet), r0, r1)


def inverse(pair: Pair) -> Pair:
    return pair.inverse()


def is_irreducible_pair(pair: Pair) -> bool:
    """No proper left prefix of the two rows carries the same symbol set."""
    seen0: set = set()
    seen1: set = set()
    for k in range(pair.n - 1):
        seen0.add(pair.row0[k])
        seen1.add(pair.row1[k])
        if seen0 == seen1:
            return False
    return True


@dataclass(frozen=True)
class Permutation:
    """A permutation of 1..n, stored as its image tuple (1-based)."""

    image: tuple

    def __post_init__(self):
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise ValueError("image must be a bijection of 1..n")

    @property
    def n(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.image):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))


def identity_perm(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def compose(f: Permutation, g: Permutation) -> Permutation:
    """f after g."""
    return Permutation(tuple(f.image[v - 1] for v in g.image))


def perm_power(p: Permutation, k: int) -> Permutation:
    out = identity_perm(p.n)
    for _ in range(k):
        out = compose(out, p)
    return out


def is_irreducible_perm(perm: Permutation) -> bool:
    top = 0
    for k in range(1, perm.n):
        top = max(top, perm.image[k - 1])
        if top == k:
            return False
    return True


def project(pair: Pair) -> Permutation:
    """Forget the labels: position i of row 0 maps to its row-1 position."""
    pos1 = {s: i + 1 for i, s in enumerate(pair.row1)}
    return Permutation(tuple(pos1[s] for s in pair.row0))


def lift_perm(perm: Permutation, tau) -> Pair:
    """Attach labels via tau: position i of row 0 carries symbol tau(i).

    ``tau`` is a labeling given as the symbol tuple (tau(1), ..., tau(n));
    row 0 of the result is tau itself and row 1 realises ``perm``.
    """
    tau = tuple(tau)
    if len(tau) != perm.n:
        raise ValueError("labeling size must match the permutation")
    row1 = [None] * perm.n
    for i, s in enumerate(tau):
        row1[perm.image[i] - 1] = s
    return make_pair(tau, tuple(row1), alphabet=sorted_symbols(tau))


# --- JSON-friendly plain-object forms -------------------------------------

def pair_to_obj(pair: Pair) -> dict:
    return {
        "alphabet": list(pair.alphabet),
        "p0": list(pair.row0),
        "p1": list(pair.row1),
    }


def _array(obj: dict, key: str) -> tuple:
    """``obj[key]`` as a tuple; it must be a JSON array (a list), not a string."""
    value = obj[key]
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON array")
    return tuple(value)


def pair_from_obj(obj: dict) -> Pair:
    return Pair(_array(obj, "alphabet"), _array(obj, "p0"), _array(obj, "p1"))


def perm_to_obj(perm: Permutation) -> dict:
    return {"n": perm.n, "image": list(perm.image)}


def perm_from_obj(obj: dict) -> Permutation:
    image = _array(obj, "image")
    n = obj.get("n")
    if n is not None and n != len(image):
        raise ValueError("declared n disagrees with the image length")
    return Permutation(image)
