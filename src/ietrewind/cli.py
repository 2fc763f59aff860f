"""Command line front end: simulate, recover, verify, sharpness."""
from __future__ import annotations

import argparse
import codecs
import gc
import json
import random
import re
import sys
from functools import cached_property
from importlib import import_module
from itertools import chain, repeat
from operator import itemgetter

from .core import (
    BoundExceeded,
    Frozen,
    Unrealizable,
    inverse,
    pair_from_obj,
    pair_to_obj,
    perm_from_obj,
    perm_to_obj,
    symbol_tuple,
)
from .matrices import identity
from .rauzy import (
    MalformedMatrix,
    NonIrreducible,
    simulate_pair,
    simulate_perm,
    type1_matrix,
    walk_path,
)
from .zorich import MixedTypeBlock, ZorichMove, accelerate, extract_move

# Kept importable: perfbench/trace_child.py wraps these names in this module.
from .matrices import matmul  # noqa: F401
from .rauzy import c_completeness, decode_A, rauzy_step_pair, rauzy_step_perm  # noqa: F401
from .zorich import breakup  # noqa: F401

# Only what ``simulate`` runs is imported above.  A command calls the names
# below as globals of this module, bound by ``_bind`` (or ``__getattr__``) on
# first use; a name bound already is kept, so that a wrapper that
# perfbench/trace_child.py installs here before a command runs sees every call.
_LAZY = {
    "recovery": ("agrees", "agrees_perm", "decode_perm_matrices", "enumerate_agreeing", "enumerate_agreeing_perms",
                 "enumerate_starting", "recover_pair", "recover_perm", "recover_perm_moves"),
    "oracle": ("brute_force_initial_pairs", "brute_force_initial_perms", "forward_initial_pairs",
               "forward_initial_perms", "forward_simulate"),
    "sharpness": ("build_ambiguous_path",),
    "lifting": ("relabel",),
}


def _bind(*modules):
    """Import each of ``modules`` and bind its ``_LAZY`` names here, keeping any bound already."""
    bound = globals()
    for module in modules:
        names = vars(import_module(f".{module}", __package__))
        for name in _LAZY[module]:
            bound.setdefault(name, names[name])


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            _bind(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class InputError(ValueError):
    """A path file or option set that cannot be acted on."""


# --- path files ------------------------------------------------------------

def _parse_matrix(raw, n: int):
    """One path-file matrix as a tuple of int tuples: n rows of n JSON integers.

    A tuple is a matrix that :func:`_read_json` read from the file's bytes,
    its rows int tuples already, so only its shape is checked."""
    if not isinstance(raw, (list, tuple)) or len(raw) != n:
        raise InputError(f"matrices must have one row per symbol ({n})")
    if isinstance(raw, list):
        if not {list}.issuperset(map(type, raw)):
            raise MalformedMatrix("matrix rows must be JSON arrays")
        raw = tuple(map(tuple, raw))
        if not {int}.issuperset(map(type, chain.from_iterable(raw))):
            raise MalformedMatrix(f"matrix rows must each hold {n} integers")
    if any(len(row) != n for row in raw):
        raise MalformedMatrix(f"matrix rows must each hold {n} integers")
    return raw


def _record_move(item, flavor, kind, j, decoded, units):
    """The move of record ``j``: ``decoded`` from its matrix, which the record must
    name exactly (type when given), else a unit ZorichMove or type-1 ``(k, p)``
    built from it.  ``kind`` maps each symbol of the file to its JSON type, and
    ``units`` each winner and loser set read so far to their one ZorichMove."""
    try:
        winner, losers = item["winner"], item["losers"]
    except KeyError as exc:
        raise InputError(f"move record {j} has no {exc.args[0]}") from None
    except TypeError:
        raise InputError(f"move record {j} must be a JSON object") from None
    t, k, power = item.get("type"), item.get("k"), item.get("power", 1)
    if type(losers) is not list or type(power) is not int:
        raise InputError("a move record needs its losers as a JSON array and its power as an integer")
    if t is not None and (type(t) is not int or t not in (0, 1)):
        raise InputError("a move record's type must be 0, 1 or null")
    try:
        known = kind.get(winner) is type(winner)
        for s in losers:
            if kind.get(s) is not type(s):
                known = False
                break
    except TypeError:  # an array or object where a symbol belongs
        known = False
    if not known:
        raise _unknown_symbol(j, winner, losers, kind)
    named, losers = len(losers), frozenset(losers)
    if len(losers) != named:
        raise InputError("a move names a loser twice")
    perm, n = flavor == "permutation", len(kind)
    if not losers or winner in losers or (k is not None and (t != 1 or not perm or type(k) is not int)):
        raise InputError("a move needs losers other than its winner, and an integer k only with permutation type 1")
    if decoded is not None:
        if type(decoded) is tuple:  # a type-1 power (k, p)
            expected, steps = (decoded[0], {n}, decoded[0], 1), decoded[1]
        else:
            expected, steps = (decoded.winner, decoded.losers, None, 0 if perm else t), decoded.steps
        if (winner, losers, k) != expected[:3] or t not in (None, expected[3]):
            raise InputError(f"matrix {j} disagrees with its move record")
        if power != steps:
            raise InputError(f"matrix {j} bundles {steps} moves, record says {power}")
        return decoded
    if perm and t == 1:
        if type(k) is not int or not 1 <= k < n or power < 1 or winner != k or losers != {n}:
            raise InputError("type-1 records need k in 1..n-1, the winner k, the losers [n] and a positive power")
        return k, power
    if perm and (t != 0 or winner != n):
        raise InputError("without matrices, permutation records need a type, and type 0 the winner n")
    if power != named:
        raise InputError("grouped move records need their matrices to unpack")
    by_losers = units.get(winner)
    if by_losers is None:
        by_losers = units[winner] = {}
    move = by_losers.get(losers)
    if move is None:
        move = by_losers[losers] = ZorichMove(winner, losers, 1, losers)
    return move


def _unknown_symbol(j, winner, losers, kind) -> InputError:
    """The error for record ``j``, which names something that is not a symbol of the file."""
    for field, s in chain((("the winner", winner),), zip(repeat("a loser"), losers)):
        if type(s) in (list, dict) or kind.get(s) is not type(s):
            return InputError(f"{field} of move record {j} names {s!r}, which is not a symbol of the file")
    raise AssertionError("every symbol of the record is known")


def _array_field(obj, key) -> list:
    """``obj[key]``, which must be a JSON array when present and not null; [] otherwise.
    A tuple is an array that :func:`_read_json` read from the file's bytes."""
    value = obj.get(key)
    if value is None:
        return []
    if type(value) not in (list, tuple, _RecordTexts):
        raise InputError(f"{key} must be a JSON array")
    return value


def _record_head(head, kind):
    """``(k, losers as a frozenset, losers named)`` of the fields before a
    record's losers close, checked as :func:`_record_move` checks them, or
    None where a check fails.  Its other fields are the tail's to override
    (:func:`_record_tail`), or no record field."""
    k, losers = head.get("k"), head.get("losers")
    if type(losers) is not list or not losers or (k is not None and type(k) is not int):
        return None
    try:
        for s in losers:
            if kind.get(s) is not type(s):
                return None
    except TypeError:  # an array or object where a symbol belongs
        return None
    named = frozenset(losers)
    return (k, named, len(losers)) if len(named) == len(losers) else None


def _record_tail(tail, kind):
    """``(power, type, winner)`` of the fields after a record's losers close,
    checked as :func:`_record_move` checks them, or None where a check fails
    or the fields are not exactly these three, which the record then takes
    from its tail whatever its head holds."""
    power, t, winner = tail.get("power"), tail.get("type"), tail.get("winner")
    if (tail.keys() != {"power", "type", "winner"} or type(power) is not int
            or (t is not None and (type(t) is not int or t not in (0, 1)))):
        return None
    try:
        return (power, t, winner) if kind.get(winner) is type(winner) else None
    except TypeError:
        return None


def _moves_by_halves(records, flavor, kind):
    """The moves and types of :class:`_RecordTexts` without matrices, as
    :func:`_record_move` reads them, or None where one of its checks fails.

    Each distinct head and tail is checked once (:func:`_record_head`,
    :func:`_record_tail`), each distinct text's move and type are made from
    its two checked halves, and each record is mapped to its text's: no
    record is read as a dict."""
    if records.whole:
        return None
    heads, tails, units = {}, {}, {}  # units: each loser set -> winner -> its one ZorichMove
    for text, fields in records.heads.items():
        head = _record_head(fields, kind)
        if head is None:
            return None
        heads[text] = *head, units.setdefault(head[1], {})
    for text, fields in records.tails.items():
        tails[text] = _record_tail(fields, kind)
        if tails[text] is None:
            return None
    perm, n, made = flavor == "permutation", len(kind), {}
    for text, (head, _, tail) in zip(records.texts, records.cut):
        k, losers, named, row = heads[head]
        power, t, winner = tails[tail]
        if perm and t == 1:
            if k is None or not 1 <= k < n or power < 1 or winner != k or losers != {n}:
                return None
            made[text] = (k, power), t
            continue
        if k is not None or power != named or (perm and (t != 0 or winner != n)):
            return None
        if winner in row:
            made[text] = row[winner], t
        elif winner in losers:
            return None
        else:
            row[winner] = move = ZorichMove(winner, losers, 1, losers)
            made[text] = move, t
    made = list(map(made.__getitem__, records.pieces))
    return list(map(itemgetter(0), made)), list(map(itemgetter(1), made))


def _per_object(fn, items) -> list:
    """``[fn(j, item) for j, item in enumerate(items, 1)]``, with ``fn`` called
    once per distinct object, at its first place, so that an error names the
    first entry that has it.  ``items`` keeps each object alive, so no id is
    reused."""
    made = {}
    for j, item in enumerate(items, 1):
        if id(item) not in made:
            made[id(item)] = fn(j, item)
    return list(map(made.__getitem__, map(id, items)))


def load_path_file(obj: dict) -> dict:
    """Read a version-1 path file, checking and decoding each distinct entry once.

    ``moves`` has one move per entry, as both recoveries read them: decoded
    from the matrices if there are any, else built from the records, one
    shared object per distinct move; a :class:`ZorichMove`, or ``(k, p)``
    for a type-1 power.  One rule reads every record, with or without its
    matrix (:func:`_record_move`); records read from the file's bytes
    without matrices are read by their halves under the same checks
    (:func:`_moves_by_halves`).  ``types`` has the type each record names,
    or None; the records themselves are not kept.
    """
    _bind("recovery")  # its decoder, and the recovery of what is read
    if not isinstance(obj, dict) or obj.get("version") != 1 or type(obj["version"]) is not int:
        raise InputError("expected a version-1 path file")
    flavor = obj.get("flavor")
    if flavor not in ("pair", "permutation"):
        raise InputError("flavor must be 'pair' or 'permutation'")
    if flavor == "pair":
        alphabet = obj.get("alphabet")
        index = obj.get("index", alphabet)
        if not alphabet or not isinstance(alphabet, list) or not isinstance(index, list):
            raise InputError("pair files need an alphabet, and an index if any, as JSON arrays")
        alphabet, index = symbol_tuple(alphabet, "alphabet"), symbol_tuple(index, "index")
        typed = {(s, type(s)) for s in alphabet}  # by JSON type too: true is not the symbol 1
        if not len(index) == len(alphabet) == len(set(index)) or typed != set(zip(index, map(type, index))):
            raise InputError("index must list each alphabet symbol exactly once")
    else:
        n = obj.get("n")
        if not isinstance(n, int) or n < 2:
            raise InputError("permutation files need a size n")
        if n > sys.maxsize:
            raise InputError(f"n must not pass {sys.maxsize}")
        index = tuple(range(1, n + 1))
        alphabet = index
    n = len(index)
    records = _array_field(obj, "moves")
    raw = _array_field(obj, "matrices")
    if not records and not raw:
        raise InputError("a path file needs moves or matrices")
    if records and raw and len(records) != len(raw):
        raise InputError("moves and matrices must align one to one")
    # read from the file's bytes, the matrices and records of one text are one
    # object each: each distinct one is checked and decoded once (_per_object)
    matrices = _per_object(lambda j, m: _parse_matrix(m, n), raw)
    moves = [None] * len(records)
    if matrices:
        moves = _per_object(lambda j, m: extract_move(m, index), matrices) if flavor == "pair" else decode_perm_matrices(matrices)[0]
    kind, units, types = {s: type(s) for s in index}, {}, None
    if type(records) is _RecordTexts and not matrices:
        # by their halves; where that declines, as dicts, each distinct one once, as before: the same errors
        moves, types = _moves_by_halves(records, flavor, kind) or (
            _per_object(lambda j, item: _record_move(item, flavor, kind, j, None, units), records), None)
    else:
        moves = [_record_move(item, flavor, kind, j, move, units) for j, (item, move) in enumerate(zip(records, moves), 1)] or moves
    _array_field(obj, "grouping")  # checked only: each record and matrix carries its block
    start = obj.get("start")
    if start is not None:
        if type(start) is not dict:
            raise InputError("start must be a JSON object")
        start = pair_from_obj(start) if flavor == "pair" else perm_from_obj(start)
        if flavor == "pair" and tuple(start.alphabet) != alphabet:
            raise InputError("start and file alphabets differ")
        if flavor == "permutation" and start.n != n:
            raise InputError("start size and n differ")
        rows = (start.alphabet, start.row0, start.row1) if flavor == "pair" else (start.image,)
        for s in chain.from_iterable(rows):
            if kind.get(s) is not type(s):
                raise InputError(f"start names {s!r}, which is not a symbol of the file")
    return {
        "flavor": flavor,
        "alphabet": alphabet,
        "index": index,
        "types": types if types is not None else list(map(dict.get, records, repeat("type"))),  # records as dicts
        "moves": moves,
        "start": start,
    }


def _laid_out_matrices(data, i):
    """The matrices array laid out as the writer lays it out (below), whose
    first row's entries open at ``data[i]``: each matrix a tuple of int
    tuples, and the index past the array; ValueError where the text is not
    that layout.

    A matrix the writer lays out is the identity but for one row, so each
    is matched against the text of the n x n identity, n counted in the
    first row: the longest run of its rows at the matrix's start (found by
    halving over ``memoryview`` slices of that one text, so nothing is
    copied), the one row after it up to its close, and then the identity's
    rows after that one, up to the separator from the next matrix or the
    array's close.  Any other matrix (a permutation type-1 power, or a text
    such as ``-0``) is found by that separator or close and split on the
    separator between rows.  Each separator holds a raw newline, which no
    JSON string can, so a row whose text holds anything but integers fails.
    Each distinct row text is read with ``json.loads`` once, into one tuple
    that every row of that text shares, and so the matrices of one text
    share one tuple."""
    row_tail, sep = _ROW_TAIL.encode(), _ROW_SEP.encode()
    next_matrix, close = (_MATRIX_SEP + _ROW_HEAD).encode(), _MATRICES_TAIL.encode()
    n = data.count(_ENTRY_SEP.encode(), i, data.find(row_tail, i)) + 1
    if len(_ENTRY_SEP) * n * n > len(data):  # the identity's text would be longer than the file
        raise ValueError("the first matrix row is longer than the file lays out")
    unit = identity(n)
    rows = {_ENTRY_SEP.join(map(str, row)).encode(): row for row in unit}
    text = memoryview("".join(_row_json(row) + _ROW_SEP for row in unit).encode())
    stride, head = len(text) // n, len(_ROW_HEAD)
    runs = [text[head:k * stride + head] for k in range(n)]  # k rows from the first's entries, to the head of row k
    rests = [text[(k + 1) * stride - len(sep):-len(sep)] for k in range(n)]  # the rows after row k, each after its separator
    shared, matrices, starts = {}, [], data.startswith
    while True:
        lo, hi = 0, n - 1  # the longest run of identity rows at the matrix's start
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if starts(runs[mid], i) else (lo, mid - 1)
        at, rest = i + lo * stride, rests[lo]
        end = data.find(row_tail, at)
        after = end + len(row_tail) + len(rest)
        if end >= 0 and starts(rest, end + len(row_tail)) and starts((next_matrix, close), after):
            key = lo, data[at:end]
            m = shared.get(key)
            if m is None:
                m = shared[key] = unit[:lo] + (rows.get(key[1]) or _laid_out_row(key[1], rows),) + unit[lo + 1:]
        else:
            after = data.find(row_tail + next_matrix, i)
            if after < 0:
                after = data.find(row_tail + close, i)
                if after < 0:
                    raise ValueError("the matrices array is not closed")
            pieces = data[i:after].split(row_tail + sep + _ROW_HEAD.encode())
            m = tuple(rows.get(piece) or _laid_out_row(piece, rows) for piece in pieces)
            m = shared.setdefault(tuple(map(id, m)), m)
            after += len(row_tail)
        matrices.append(m)
        if starts(close, after):
            return matrices, after + len(close)
        i = after + len(next_matrix)


def _laid_out_row(piece, rows):
    """The int tuple of a matrix row whose text between its brackets is
    ``piece``, kept in ``rows`` by that text."""
    row = json.loads("[" + piece.decode("ascii") + "]")
    if not {int}.issuperset(map(type, row)):
        raise ValueError("a matrix row holds a value other than an integer")
    row = rows[piece] = tuple(row)
    return row


def _laid_out_records(data, i):
    """The moves array laid out as the writer lays it out (:func:`_records_json`),
    whose first record's fields open at ``data[i]``: its records as
    :class:`_RecordTexts`, and the index past the array; ValueError where
    the text is not that layout.

    The rest of the file is split on the separator between records, and the
    array's close is found in the last piece.  The separator holds raw
    newlines, which no JSON string can, so a piece that reads as the fields
    of one object is one record."""
    pieces = data.split(_RECORD_BREAK)  # data[i:].split(), without copying the file, when no separator starts before i
    if len(pieces[0]) < i:
        pieces = data[i:].split(_RECORD_BREAK)
    else:
        pieces[0] = pieces[0][i:]
    last = pieces[-1]
    close = last.find(_RECORDS_CLOSE)
    if close < 0:
        raise ValueError("the moves array is not closed")
    end = len(data) - len(last) + close + len(_RECORDS_CLOSE)
    pieces[-1] = last[:close]
    return _RecordTexts(pieces), end


def _json_fields(text):
    """The dict of a JSON object whose text between its braces is ``text``."""
    return json.loads("{" + text.decode("utf-8") + "}")


class _RecordTexts(tuple):
    """The records of a moves array read from the file's bytes, by their text.

    ``pieces`` holds each record's text between its braces.  Each distinct
    text is split where its losers array closes (``cut``, in the order of
    ``texts``), and each distinct head and tail is read with ``json.loads``
    once (``heads``, ``tails``): a file has a few hundred of each however
    many records it has.  A head is read with that close, and a tail as an
    object of its own; a tail with no field would leave a trailing comma.
    A text whose losers never close is read whole (``whole``).

    Read by ``len``, index or iteration, it is the records as ``json.loads``
    reads them: the head's fields and then the tail's, a later key winning,
    in one dict per distinct text that the records of that text share.
    Those dicts are built on first use; :func:`load_path_file` reads the
    halves and builds none.  It is a tuple only so that ``json.dumps``
    writes it as an array, which it does through ``__iter__``: it holds no
    items of its own, so the tuple methods it does not override see none."""

    def __new__(cls, pieces):
        return super().__new__(cls)

    def __init__(self, pieces):
        texts = self.texts = {}  # each distinct text, kept by itself: each record's text becomes that object
        self.pieces = list(map(texts.setdefault, pieces, pieces))
        cut = list(map(bytes.partition, texts, repeat(_LOSERS_CLOSE)))
        self.whole = {}
        tails = set(map(itemgetter(2), cut))
        if b"" in tails:  # a text whose losers never close, or close at its end
            self.whole = {text: _json_fields(text) for text, (_, sep, _) in zip(texts, cut) if not sep}
            cut = [halves if halves[1] else None for halves in cut]
            tails = {halves[2] for halves in cut if halves}
        self.cut = cut
        heads = {halves[0] for halves in cut if halves} if self.whole else set(map(itemgetter(0), cut))
        self.heads = {head: json.loads("{" + head.decode("utf-8") + "]}") for head in heads}
        self.tails = {tail: _json_fields(tail) for tail in tails}
        if not all(self.tails.values()):
            raise ValueError("a record's losers close before a trailing comma")

    @cached_property
    def records(self) -> tuple:
        """The records as dicts, built on first use."""
        heads, tails, whole = self.heads, self.tails, self.whole
        merged = [whole[text] if halves is None else {**heads[halves[0]], **tails[halves[2]]}
                  for text, halves in zip(self.texts, self.cut)]
        return tuple(map(dict(zip(self.texts, merged)).__getitem__, self.pieces))

    def __len__(self):
        return len(self.pieces)

    def __getitem__(self, j):
        return self.records[j]

    def __iter__(self):
        return iter(self.records)


def _laid_out_object(data):
    """``json.loads`` of the UTF-8 text ``data`` when it is a JSON object whose
    top-level ``matrices`` array, or else ``moves`` array, is laid out as the
    writer lays it out; that array is read from its bytes
    (:func:`_laid_out_matrices`, :func:`_laid_out_records`), and only the rest
    of the text is decoded and read by ``json.loads``, with a ``NaN`` in the
    array's place.  The result is taken only if that ``NaN`` is the one
    constant read and the value that its key keeps.  ValueError (or
    RecursionError) where it is not.

    The writer sorts keys, and those before ``matrices`` hold one value per
    symbol or block at most, so the array is looked for only where the first
    top-level key from ``m`` on opens: no search runs through a file's bulk.
    In a file with matrices the records are left to ``json.loads``: there
    is one per block, mostly distinct, so reading them from bytes saves
    little time and holds more memory than the objects it saves."""
    at = data.find(b'\n  "m') + 3
    for key, head, read in (("matrices", _MATRICES_OPEN, _laid_out_matrices), ("moves", _RECORDS_OPEN, _laid_out_records)):
        if data.startswith(b'"%s": %s' % (key.encode(), head), at):
            break
    else:
        raise ValueError("no matrices or moves laid out as the writer lays them out")
    at += len(key) + len('"": ')
    value, end = read(data, at + len(head))
    constants = []

    def constant(name):  # a fresh object per constant read, so each is told apart
        constants.append(object())
        return constants[-1]

    obj = json.loads(data[:at].decode("utf-8") + "NaN" + data[end:].decode("utf-8"), parse_constant=constant)
    if type(obj) is not dict or len(constants) != 1 or obj.get(key) is not constants[0]:
        raise ValueError("another constant, or the array inside another value or under a repeated key")
    obj[key] = value
    return obj


def _read_json(path):
    """The JSON value of the UTF-8 file at ``path`` ("-" for stdin), as
    ``json.loads`` gives it, except that a top-level ``matrices`` or
    ``moves`` array laid out as the writer lays it out is read from the
    file's bytes (:func:`_laid_out_object`): its matrices tuples of int
    tuples, one per distinct text, and its records a tuple in which the
    records of one text share one dict.  Any other file, and any that fails
    a check there, is read by ``json.loads``, with its errors.  Stdin is
    read as bytes too, when it decodes UTF-8 and has a binary buffer; else
    its text is read as ``sys.stdin.read()`` gives it."""
    try:
        if path != "-":
            with open(path, "rb") as fh:
                data = fh.read()
        elif hasattr(sys.stdin, "buffer"):
            data = sys.stdin.buffer.read()
        else:
            return json.loads(sys.stdin.read())
        if path != "-" or codecs.lookup(sys.stdin.encoding).name == "utf-8":
            try:
                return _laid_out_object(data)
            except (ValueError, RecursionError):
                pass
        if path == "-":  # decoded as sys.stdin.read() decodes it, which on POSIX leaves line ends as they are
            return json.loads(data.decode(sys.stdin.encoding, sys.stdin.errors))
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            text = None
        del data
        if text is None or "\r" in text:  # the text reader raises its error, or makes each line end "\n"
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    except OSError as exc:
        raise InputError(str(exc)) from exc


# --- output ----------------------------------------------------------------
#
# Every output is json.dumps(obj, sort_keys=True, indent=2) plus a newline.
# ``indent`` makes that call run Python's pure-Python encoder, which costs
# most of ``simulate``, ``sharpness`` and ``recover --trace``.  So a top-level
# ``matrices`` or permutation ``trace`` array (a permutation trace nests as
# matrices do), the ``moves`` and ``matrices`` of a path file, which
# ``simulate`` and ``sharpness`` hand over as the moves themselves
# (:class:`_Records`), and a flat integer ``types`` list at top level
# (``recover``) or under ``recovered`` (``verify``), are laid out at their
# known depth: a matrix of rows from the text of each distinct row object,
# a path file's matrix from its move between the identity rows, a record
# straight from its move into one template, the matrices a few dozen, the
# records a few hundred and the types a few thousand at a time; any other
# value, a list of record dicts included, goes through json.dumps.  Each
# bulk array is checked whole, then laid out one run at a time as the
# pieces are written, so the text of an output is never held whole.

# a record is the head with its k, its losers, then the tail with its power, type and winner
_MOVE_HEAD = '{\n      "k": %s,\n      "losers": [\n        '
_MOVE_TAIL = '\n      ],\n      "power": %s,\n      "type": %s,\n      "winner": %s\n    }'
# and what the reader takes from that layout: the open of a moves array, the break
# between two records, the array's close, and the close of a record's losers
_RECORDS_OPEN, _RECORD_BREAK = b"[\n    {\n      ", b"\n    },\n    {\n      "
_RECORDS_CLOSE, _LOSERS_CLOSE = b"\n    }\n  ]", b"\n      ],\n      "


class _Records(Frozen):
    """The ``moves`` and ``matrices`` of a path file before they are written:
    the moves (each a ZorichMove or a type-1 ``(k, p)``), one type per move,
    and each symbol's position in the index, by which a record lists its
    losers and a matrix lays out its rows.  ``runs``, when the producer
    hands them over, are unit moves as (winner, losers in order, type) per
    run, and the records are laid out from them; the moves and types may
    then be None, as ``sharpness`` hands them, which writes no matrices."""

    __slots__ = ("moves", "types", "position", "runs")

    def __init__(self, moves: tuple, types: tuple, position: dict, runs=None):
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "runs", runs)


_ARRAYS = {list, tuple}
_INTS_PER_PIECE = 4096
_RECORDS_PER_PIECE = 256


def _joined(head, sep, texts, tail):
    """The pieces of ``head + sep.join(texts) + tail``, one text at a time."""
    for text in texts:
        yield head + text
        head = sep
    yield tail


_ROW_HEAD, _ENTRY_SEP, _ROW_TAIL, _ROW_SEP = "[\n        ", ",\n        ", "\n      ]", ",\n      "
_MATRICES_HEAD, _MATRIX_SEP, _MATRICES_TAIL = "[\n    [\n      ", "\n    ],\n    [\n      ", "\n    ]\n  ]"
_MATRICES_OPEN = (_MATRICES_HEAD + _ROW_HEAD).encode()  # what the reader takes for the open of that layout
_MATRIX_CHARS_PER_PIECE = 1 << 18


def _row_json(row) -> str:
    return _ROW_HEAD + _ENTRY_SEP.join(map(str, row)) + _ROW_TAIL


def _matrices_json(mats):
    """The pieces of a top-level list of non-empty integer matrices as indent=2
    lays it out, or of the matrices of :class:`_Records`, else None.

    Each distinct row object is checked and rendered once, before the first
    piece: the producers share rows (the equal blocks of a permutation
    trace), so most rows are a dict hit on ``id(row)``.  The ids are stable
    because ``mats`` keeps every row alive.
    """
    if type(mats) is _Records:
        return _move_matrices_json(mats)
    if type(mats) not in _ARRAYS or not mats or not _ARRAYS.issuperset(map(type, mats)) or not all(mats):
        return None
    seen = {}  # id(row) -> its text
    for m in mats:
        if None not in map(seen.get, map(id, m)):
            continue
        for row in m:
            if id(row) not in seen:
                if type(row) not in _ARRAYS or not row or not {int}.issuperset(map(type, row)):
                    return None
                seen[id(row)] = _row_json(row)
    text = seen.__getitem__
    matrices = (_ROW_SEP.join(map(text, map(id, m))) for m in mats)
    return _joined(_MATRICES_HEAD, _MATRIX_SEP, matrices, _MATRICES_TAIL)


def _move_matrices_json(records):
    """The pieces of the v1 matrices of :class:`_Records`, one per move, as
    indent=2 lays them out.

    Every row of a move's matrix but one is a row of the identity: a
    ZorichMove's own row is its winner row of loser counts, and a type-1
    ``(k, p)``'s is row k of :func:`type1_matrix`, whose rows below k are
    identity rows in turn.  So each identity row and each distinct move's
    own row is rendered once, and a matrix is laid out from those texts, a
    few dozen matrices to a piece; no matrix is built.  No whole matrix text
    is kept: at n=32 there are hundreds of distinct ones.
    """
    moves, position = records.moves, records.position
    if not moves:
        return ("[]",)
    n = len(position)
    unit = identity(n)

    def led(row, i):  # the text of a row at position i, after the separator from the row above
        return (_ROW_SEP if i else "") + _row_json(row)

    rows = [led(row, i) for i, row in enumerate(unit)]
    by_id = {id(row): text for row, text in zip(unit, rows)}
    own = {}  # id(move) -> (the position of its own row, that row's text, the texts below it or None)

    def own_row(m):
        if type(m) is tuple:
            k = m[0]
            mat = type1_matrix(n, *m)
            below = [by_id.get(id(row)) or led(row, i) for i, row in enumerate(mat[k:], k)]
            return k - 1, led(mat[k - 1], k - 1), below
        w = position[m.winner]
        row = [0] * n
        row[w] = 1
        for s, c in m.counts().items():
            row[position[s]] += c
        return w, led(row, w), None

    def laid_out():
        per_piece = max(1, _MATRIX_CHARS_PER_PIECE // sum(map(len, rows)))
        head = _MATRICES_HEAD
        for i in range(0, len(moves), per_piece):
            piece = []
            for m in moves[i:i + per_piece]:
                mine = own.get(id(m))
                if mine is None:
                    mine = own[id(m)] = own_row(m)
                w, text, below = mine
                piece.append(head)
                piece += rows[:w]
                piece.append(text)
                piece += rows[w + 1:] if below is None else below
                head = _MATRIX_SEP
            yield "".join(piece)
        yield _MATRICES_TAIL

    return laid_out()


def _records_json(records):
    """The pieces of a top-level ``moves`` array of :class:`_Records` as indent=2
    lays it out, one v1 record per move, else None.

    A ZorichMove's record lists its losers by position, and a type-1 ``(k, p)``
    is the record of winner k, the one loser n, type 1 and power p.  Each
    symbol's text is rendered once, and so are the two halves of a unit
    move's record around it, so a unit move costs one concatenation, and
    from ``runs`` a run costs one join of its losers' heads on its tail.
    """
    if type(records) is not _Records:
        return None
    moves, types, position = records.moves, records.types, records.position
    if not (moves if records.runs is None else records.runs):
        return ("[]",)
    text = {s: json.dumps(s) for s in position}
    tails = [{s: _MOVE_TAIL % (1, t, x) for s, x in text.items()} for t in (0, 1)]
    if records.runs is not None:
        heads = {s: _MOVE_HEAD % "null" + x for s, x in text.items()}
        return _joined("[\n    ", ",\n    ", _run_records(records.runs, heads, tails), "\n  ]")
    heads = {frozenset((s,)): _MOVE_HEAD % "null" + x for s, x in text.items()}
    last, sep = json.dumps(len(position)), ",\n        "

    def record(m, t):
        if type(m) is tuple:
            k, p = m
            return _MOVE_HEAD % k + last + _MOVE_TAIL % (p, 1, k)
        named = sep.join([text[s] for s in sorted(m.losers, key=position.__getitem__)])
        return _MOVE_HEAD % "null" + named + _MOVE_TAIL % (m.steps, t, text[m.winner])

    def laid_out():
        for i in range(0, len(moves), _RECORDS_PER_PIECE):
            piece = zip(moves[i:i + _RECORDS_PER_PIECE], types[i:i + _RECORDS_PER_PIECE])
            yield ",\n    ".join([
                heads[m.losers] + tails[t][m.winner]  # a unit move, built as rauzy._unit builds it
                if type(m) is not tuple and m.max_count == 1 and m.losers_max is m.losers and len(m.losers) == 1
                else record(m, t)
                for m, t in piece
            ])

    return _joined("[\n    ", ",\n    ", laid_out(), "\n  ]")


def _run_records(runs, heads, tails):
    """The records of ``runs`` of unit moves, a few hundred to a piece: each
    run is its losers' heads joined on its one tail."""
    piece, size = [], 0
    for winner, losers, t in runs:
        tail = tails[t][winner]
        piece.append((tail + ",\n    ").join(map(heads.__getitem__, losers)) + tail)
        size += len(losers)
        if size >= _RECORDS_PER_PIECE:
            yield ",\n    ".join(piece)
            piece, size = [], 0
    if piece:
        yield ",\n    ".join(piece)


def _ints_json(values, pad="\n    "):
    """The pieces of a non-empty flat list of JSON integers as indent=2 lays it
    out with its items at ``pad`` (a newline and their indentation), else None."""
    if type(values) not in _ARRAYS or not values or not {int}.issuperset(map(type, values)):
        return None
    sep = "," + pad
    runs = (sep.join(map(str, values[i:i + _INTS_PER_PIECE])) for i in range(0, len(values), _INTS_PER_PIECE))
    return _joined("[" + pad, sep, runs, pad[:-2] + "]")


def _report_json(report):
    """The pieces of ``verify``'s nested report with its ``types`` laid out, else None."""
    if type(report) is not dict or "types" not in report or set(map(type, report)) != {str}:
        return None
    return _fields(report, _NESTED, "\n  ")


_BULK = {
    "matrices": _matrices_json,
    "moves": _records_json,
    "trace": _matrices_json,
    "types": _ints_json,
    "recovered": _report_json,
}
_NESTED = {"types": lambda types: _ints_json(types, "\n      ")}


def _fields(obj, bulk, pad):
    """The pieces of a dict with string keys as indent=2 lays it out with its
    closing brace at ``pad``; a key in ``bulk`` is laid out by its renderer
    unless that gives None.  Every key's layout is decided, and every other
    value rendered, before the first piece."""
    inner = pad + "  "
    parts = []
    for key in sorted(obj):
        render = bulk.get(key)
        pieces = render(obj[key]) if render else None
        if pieces is None:
            pieces = (json.dumps(obj[key], sort_keys=True, indent=2).replace("\n", inner),)
        parts.append(chain((("," if parts else "{") + inner + json.dumps(key) + ": ",), pieces))
    parts.append((pad + "}",))
    return chain.from_iterable(parts)


def _layout(obj):
    """The pieces of ``json.dumps(obj, sort_keys=True, indent=2)``."""
    if type(obj) is not dict or _BULK.keys().isdisjoint(obj) or set(map(type, obj)) != {str}:
        return (json.dumps(obj, sort_keys=True, indent=2),)
    return _fields(obj, _BULK, "\n")


def _dumps(obj):
    """``json.dumps(obj, sort_keys=True, indent=2)``, with the bulk arrays laid out directly."""
    return "".join(_layout(obj))


def _emit(obj, out_path):
    """Write ``obj`` to ``out_path`` (stdout for None or "-") piece by piece,
    opening it only once the whole layout is decided."""
    pieces = chain(_layout(obj), ("\n",))
    if out_path in (None, "-"):
        sys.stdout.writelines(pieces)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


# --- simulate --------------------------------------------------------------

def _split_tokens(text):
    out, depth, cur = [], 0, []
    for ch in text:
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        cur.append(ch)
    out.append("".join(cur))
    return [t.strip() for t in out if t.strip()]


_SCRIPT_MOVE = re.compile(r"([01])(?:x([0-9]+))?")
_SCRIPT_COUNT = re.compile(r"[0-9]+")


def parse_script(text):
    """Move script: comma-separated '0', '1', '1x6', plus one 'group(4,2)'."""
    types = []
    grouping = None
    for token in _split_tokens(text):
        if token.startswith("group(") and token.endswith(")"):
            if grouping is not None:
                raise InputError("only one group(...) token is allowed")
            sizes = [x.strip() for x in token[len("group("):-1].split(",")]
            if not all(_SCRIPT_COUNT.fullmatch(x) and int(x) > 0 for x in sizes):
                raise InputError(f"bad group token: {token}")
            grouping = [int(x) for x in sizes]
            continue
        move = _SCRIPT_MOVE.fullmatch(token)
        count = int(move[2] or 1) if move else 0
        if count <= 0:
            raise InputError(f"bad script token: {token}")
        types.extend([int(move[1])] * count)
    if not types:
        raise InputError("the script names no moves")
    if grouping is not None and sum(grouping) != len(types):
        raise InputError("group lengths must cover the scripted moves exactly")
    return types, grouping


def cmd_simulate(args) -> int:
    obj = _read_json(args.start)
    if type(obj) is dict and "image" in obj:
        start = perm_from_obj(obj)
        flavor = "permutation"
    elif type(obj) is dict and "p0" in obj:
        start = pair_from_obj(obj)
        flavor = "pair"
        # the records write each symbol as the alphabet writes it: 1, not true
        texts = {s: json.dumps(s) for s in start.alphabet}
        for s in chain(start.row0, start.row1):
            if json.dumps(s) != texts[s]:
                raise InputError(f"start names {json.dumps(s)} where its alphabet has {texts[s]}")
    else:
        raise InputError("start file must hold a pair (p0/p1) or a permutation (image)")

    grouping = path = None
    if args.script:
        types, grouping = parse_script(args.script)
    else:
        rng = random.Random(args.seed)
        if args.until_c_complete is not None:
            if args.until_c_complete < 1:
                raise InputError("--until-c-complete must be at least 1")
            path, _ = walk_path(start, rng, args.until_c_complete)
        elif args.length is not None:
            if args.length < 1:
                raise InputError("--length must be at least 1")
            types = [rng.randint(0, 1) for _ in range(args.length)]
        else:
            raise InputError("give --script, or --seed with --length/--until-c-complete")

    if path is None:
        path = simulate_pair(start, types) if flavor == "pair" else simulate_perm(start, types)
    if grouping:
        path = accelerate(path, grouping)

    index = path.index
    records = _Records(path.moves, path.types, {s: i for i, s in enumerate(index)})
    out = {
        "version": 1,
        "flavor": flavor,
        "index": list(index),
        "start": pair_to_obj(start) if flavor == "pair" else perm_to_obj(start),
        "moves": records,
        "matrices": records,
    }
    if flavor == "pair":
        out["alphabet"] = list(start.alphabet)
    else:
        out["n"] = start.n
    if grouping:
        out["grouping"] = list(grouping)
    _emit(out, args.out)
    return 0


# --- recover ---------------------------------------------------------------

def _blocks_obj(blocks, position):
    return [sorted(b, key=position.__getitem__) for b in blocks]


def _recover_report(data, trace=False):
    """The report, the knowledge, the pair types, and the agreeing starts (or None)."""
    position = {s: i for i, s in enumerate(data["index"])}
    types = None
    if data["flavor"] == "pair":
        result = recover_pair(data["moves"], alphabet=data["alphabet"], trace=trace)
        knowledge, types = result[0], result[1]
        unique = knowledge.is_settled()
        report = {
            "flavor": "pair",
            "Q0": _blocks_obj(knowledge.q0, position),
            "Q1": _blocks_obj(knowledge.q1, position),
            "types": list(types),
            "unique": unique,
            "pair": pair_to_obj(knowledge.settled_pair()) if unique else None,
        }
        if trace:
            report["trace"] = [
                {"Q0": _blocks_obj(p.q0, position), "Q1": _blocks_obj(p.q1, position)}
                for p in result[2]
            ]
        enumerate_starts = enumerate_starting
    else:
        result = recover_perm_moves(data["moves"], len(data["index"]), trace=trace)
        knowledge = result[0] if trace else result
        unique = all(len(b) == 1 for b in knowledge)
        image = None
        if unique:
            image = [0] * len(knowledge)
            for value, (slot,) in enumerate(knowledge, 1):
                image[slot - 1] = value
        report = {"flavor": "permutation", "Q": _blocks_obj(knowledge, position), "unique": unique, "pi": image}
        if trace:
            # one list per distinct block, so that the writer renders it once
            rows = {b: sorted(b, key=position.__getitem__) for b in set(chain.from_iterable(result[1]))}
            report["trace"] = [list(map(rows.__getitem__, blocks)) for blocks in result[1]]
        enumerate_starts = enumerate_agreeing_perms
    try:
        starts = enumerate_starts(knowledge)
    except BoundExceeded:
        starts = None
    report["count"] = None if starts is None else len(starts)
    return report, knowledge, types, starts


def cmd_recover(args) -> int:
    data = load_path_file(_read_json(args.path))
    report, _, _, _ = _recover_report(data, trace=args.trace)
    _emit(report, args.out)
    return 0


# --- verify ----------------------------------------------------------------

def cmd_verify(args) -> int:
    data = load_path_file(_read_json(args.path))
    report, recovered, types, starts = _recover_report(data)
    if args.oracle and starts is None:
        raise BoundExceeded("the oracle needs the agreeing starts, which are over the enumeration bound")
    if args.oracle:
        _bind("oracle")
    checks = {}
    start = data["start"]
    if data["flavor"] == "pair":
        if start is not None:
            checks["start_agrees"] = agrees(start, recovered) or agrees(inverse(start), recovered)
            stored = data["types"]
            if all(t is not None for t in stored) and len(stored) == len(types):
                flipped = [1 - t for t in types]
                checks["types_agree"] = stored in (list(types), flipped)
        if args.oracle:
            oracle = forward_initial_pairs(data["moves"], data["alphabet"])
            got = {(p.row0, p.row1) for p, _ in oracle.realizers}
            checks["oracle_matches"] = got == {(p.row0, p.row1) for p in starts}
    else:
        if start is not None:
            checks["start_agrees"] = agrees_perm(start, recovered)
        if args.oracle:
            found = forward_initial_perms(data["moves"], len(data["index"]))
            checks["oracle_matches"] = [p.image for p in found] == [p.image for p in starts]
    ok = all(checks.values()) if checks else True
    out = {"ok": ok, "checks": checks, "recovered": report}
    _emit(out, args.out)
    return 0 if ok else 3


# --- sharpness -------------------------------------------------------------

def _alternatives(start):
    """The starts that agree with the knowledge ``start``, the first of them,
    and the first other one that is not its inverse (or None)."""
    agreeing = enumerate_agreeing(start)
    first = agreeing[0]
    mate = None
    for cand in agreeing[1:]:
        if cand != inverse(first):
            mate = cand
            break
    return agreeing, first, mate


def _replays(runs, first, mate) -> bool:
    """Whether the record of ``runs`` plays out from ``first`` and from
    ``mate`` if there is one, replayed one run at a time, as it is written."""
    record, types = [(w, losers) for w, losers, _ in runs], [t for _, _, t in runs]
    return forward_simulate(first, record, types) and (mate is None or forward_simulate(mate, record, types))


def _sharpness_obj(n):
    """The output of ``sharpness --n n``, written from the builder's runs;
    the rest of the builder's result, its checkpoints among it, is freed on
    return."""
    _bind("sharpness", "recovery", "oracle")
    result = build_ambiguous_path(n)
    n = result.n
    index = tuple(range(1, n + 1))
    position = {s: i for i, s in enumerate(index)}
    agreeing, first, mate = _alternatives(result.start)
    return {
        "version": 1,
        "flavor": "pair",
        "alphabet": list(index),
        "index": list(index),
        "moves": _Records(None, None, position, result.runs),
        "report": {
            "stretches": result.depth,
            "unresolved": result.unresolved,
            "Q0": _blocks_obj(result.start.q0, position),
            "Q1": _blocks_obj(result.start.q1, position),
            "agreeing_count": len(agreeing),
            "alternatives": [pair_to_obj(first)] + ([pair_to_obj(mate)] if mate else []),
            "alternatives_verified": _replays(result.runs, first, mate),
        },
    }


def cmd_sharpness(args) -> int:
    _emit(_sharpness_obj(args.n), args.out)
    return 0


# --- entry point -----------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse, except that a usage error is malformed input (exit 4, with
    the JSON body) instead of argparse's exit 2, which means unrealizable."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="iet-rewind",
        description="Simulate interval-exchange induction moves and recover the start from the record.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="play a move sequence forward and emit the path file")
    sim.add_argument("--start", required=True, help="JSON file with the starting pair or permutation")
    sim.add_argument("--script", help="move script, e.g. '1x6,group(4,2)'")
    sim.add_argument("--seed", type=int, default=0, help="random seed for generated scripts")
    sim.add_argument("--length", type=int, help="number of random moves")
    sim.add_argument("--until-c-complete", type=int, help="random moves until this many complete stretches")
    sim.add_argument("--out", help="output file (default stdout)")
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("recover", help="rebuild knowledge of the start from a path file")
    rec.add_argument("path", help="path file ('-' for stdin)")
    rec.add_argument("--trace", action="store_true", help="include the backward knowledge states")
    rec.add_argument("--out", help="output file (default stdout)")
    rec.set_defaults(func=cmd_recover)

    ver = sub.add_parser("verify", help="check a path file's own start against recovery")
    ver.add_argument("path", help="path file ('-' for stdin)")
    ver.add_argument("--oracle", action="store_true", help="cross-check against an independent forward replay")
    ver.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted and ignored: the oracle runs in one process",
    )
    ver.add_argument("--out", help="output file (default stdout)")
    ver.set_defaults(func=cmd_verify)

    sha = sub.add_parser("sharpness", help="emit a maximally ambiguous path for a given size")
    sha.add_argument("--n", type=int, required=True, help="alphabet size (at least 8)")
    sha.add_argument("--out", help="output file (default stdout)")
    sha.set_defaults(func=cmd_sharpness)
    return parser


def main(argv=None) -> int:
    """Run one command; the cyclic collector is off while it runs, since
    nothing a command builds becomes garbage before it returns."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv) -> int:
    out = None
    try:
        try:
            args = build_parser().parse_args(argv)
            out = getattr(args, "out", None)
            return args.func(args)
        except Unrealizable as exc:
            _emit({"error": "unrealizable", "step": exc.step, "reason": exc.reason}, out)
            return 2
        except (
            InputError,
            MalformedMatrix,
            MixedTypeBlock,
            NonIrreducible,
            BoundExceeded,
            KeyError,
            TypeError,
            ValueError,
        ) as exc:
            _emit({"error": "bad input", "detail": str(exc)}, out)
            return 4
        except MemoryError:
            pass  # answered below, once the frames that held the record are gone
        _emit({"error": "bad input", "detail": "the record does not fit in memory"}, out)
        return 4
    except OSError as exc:
        # --out cannot be written, for the output or for the error body
        _emit({"error": "bad input", "detail": str(exc)}, None)
        return 4


if __name__ == "__main__":
    sys.exit(main())
