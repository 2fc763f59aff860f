"""Alphabets, pairs and permutations: the combinatorial states of
interval-exchange induction.

A pair is stored as its two rows, i.e. the symbols listed in position order;
the bijections symbol -> position are derived views.  Positions are 1-based
throughout, matching the usual two-row notation.  Symbols are opaque
hashable tokens (ints, strings, ...): nothing below ever does arithmetic on
them, only equality and membership.
"""
from __future__ import annotations

from typing import Iterable


class BoundExceeded(Exception):
    """An enumeration or search would go past the work it is bounded by."""


class Unrealizable(Exception):
    """No induction path can produce the given record.

    ``step`` is the 1-based index, counted from the path start, of the move
    at which the contradiction surfaced.
    """

    def __init__(self, step: int, reason: str):
        super().__init__(f"step {step}: {reason}")
        self.step = step
        self.reason = reason


class Frozen:
    """Base of the immutable value classes: ``__init__`` sets each slot once
    through ``object.__setattr__``, and any later assignment raises.  Each
    class writes its own ``__eq__`` and ``__hash__`` over its fields."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name != "__weakref__")
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, as assignment raises
        return type(self), tuple(getattr(self, name) for name in self.__slots__ if name != "__weakref__")


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


class Pair(Frozen):
    """Two orderings of one alphabet.

    ``alphabet`` fixes the index order used for visitation matrices; ``row0``
    and ``row1`` list the symbols of the two rows in position order.
    """

    __slots__ = ("alphabet", "row0", "row1")

    def __init__(self, alphabet: tuple, row0: tuple, row1: tuple):
        check_alphabet(alphabet)
        universe = set(alphabet)
        for row in (row0, row1):
            if len(row) != len(alphabet) or set(row) != universe:
                raise ValueError("each row must order exactly the alphabet symbols")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "row0", row0)
        object.__setattr__(self, "row1", row1)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alphabet, self.row0, self.row1) == (other.alphabet, other.row0, other.row1)

    def __hash__(self):
        return hash((self.alphabet, self.row0, self.row1))

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


class Permutation(Frozen):
    """A permutation of 1..n, stored as its image tuple (1-based)."""

    __slots__ = ("image",)

    def __init__(self, image: tuple):
        if sorted(image) != list(range(1, len(image) + 1)):
            raise ValueError("image must be a bijection of 1..n")
        object.__setattr__(self, "image", image)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.image,) == (other.image,)

    def __hash__(self):
        return hash((self.image,))

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


def symbol_tuple(values, field: str) -> tuple:
    """``values`` as a tuple of symbols; a value that cannot be one, such as a
    JSON array or object, is a ValueError naming ``field``."""
    values = tuple(values)
    for s in values:
        try:
            hash(s)
        except TypeError:
            raise ValueError(f"{field} names {s!r}, which cannot be a symbol") from None
    return values


def _array(obj: dict, key: str) -> tuple:
    """``obj[key]`` as a tuple of symbols; it must be present and a JSON array (a list), not a string."""
    value = obj.get(key)
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON array")
    return symbol_tuple(value, key)


def pair_from_obj(obj: dict) -> Pair:
    return Pair(_array(obj, "alphabet"), _array(obj, "p0"), _array(obj, "p1"))


def perm_to_obj(perm: Permutation) -> dict:
    return {"n": perm.n, "image": list(perm.image)}


def perm_from_obj(obj: dict) -> Permutation:
    image = _array(obj, "image")
    if not {int}.issuperset(map(type, image)):
        raise ValueError("image must hold JSON integers")
    n = obj.get("n")
    if n is not None and n != len(image):
        raise ValueError("declared n disagrees with the image length")
    return Permutation(image)
