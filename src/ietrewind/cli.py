"""Command line front end: simulate, recover, verify, sharpness."""
from __future__ import annotations

import argparse
import json
import random
import re
import sys
from itertools import chain
from operator import itemgetter

from .core import (
    Pair,
    inverse,
    pair_from_obj,
    pair_to_obj,
    perm_from_obj,
    perm_to_obj,
)
from .oracle import brute_force_initial_perms, forward_initial_pairs, forward_simulate
from .rauzy import (
    MalformedMatrix,
    MoveRecord,
    NonIrreducible,
    record_matrix,
    simulate_pair,
    simulate_perm,
    walk_until_complete,
)
from .recovery import (
    BoundExceeded,
    Unrealizable,
    agrees,
    agrees_perm,
    decode_perm_matrices,
    enumerate_agreeing,
    enumerate_agreeing_perms,
    enumerate_starting,
    recover_pair,
    recover_perm_moves,
)
from .sharpness import BadN, build_ambiguous_path
from .zorich import MixedTypeBlock, ZorichMove, accelerate, extract_move

# Kept importable: perfbench/trace_child.py wraps these names in this module.
from .lifting import relabel  # noqa: F401
from .matrices import matmul  # noqa: F401
from .oracle import brute_force_initial_pairs  # noqa: F401
from .rauzy import c_completeness, decode_A, rauzy_step_pair, rauzy_step_perm  # noqa: F401
from .recovery import recover_perm  # noqa: F401
from .zorich import breakup  # noqa: F401


class InputError(ValueError):
    """A path file or option set that cannot be acted on."""


# --- path files ------------------------------------------------------------

def _serialize_moves(moves, position):
    return [
        {
            "winner": m.winner,
            "losers": sorted(m.losers, key=position.__getitem__),
            "type": m.type_tag,
            "k": m.k,
            "power": m.power,
        }
        for m in moves
    ]


def _record_fields(item):
    """A record's winner, losers, type, k and power: losers a JSON array, power an integer, type 0, 1 or null."""
    losers, t, power = item["losers"], item.get("type"), item.get("power", 1)
    if not isinstance(losers, list) or type(power) is not int:
        raise InputError("a move record needs its losers as a JSON array and its power as an integer")
    if t is not None and (type(t) is not int or t not in (0, 1)):
        raise InputError("a move record's type must be 0, 1 or null")
    return item["winner"], frozenset(losers), t, item.get("k"), power


def _parse_moves(items):
    return [
        MoveRecord(winner, losers, type_tag=t, k=k, power=power)
        for winner, losers, t, k, power in map(_record_fields, items)
    ]


def _parse_matrix(raw, n: int):
    """One path-file matrix as a tuple of int tuples: n rows of n JSON integers."""
    if not isinstance(raw, list) or len(raw) != n:
        raise InputError(f"matrices must have one row per symbol ({n})")
    mat = tuple(map(tuple, raw))
    if any(len(row) != n for row in mat) or not {int}.issuperset(map(type, chain.from_iterable(mat))):
        raise MalformedMatrix(f"matrix rows must each hold {n} integers")
    return mat


def _record_move(item, flavor, symbols):
    """The move of a record read without its matrix: (k, p) or a unit ZorichMove."""
    winner, losers, t, k, power = _record_fields(item)
    if winner not in symbols or not losers <= symbols:
        outside = next(s for s in (winner, *losers) if s not in symbols)
        raise InputError(f"move names {outside!r}, which is not a symbol of the file")
    if not losers or winner in losers or (k is not None and t != 1):
        raise InputError("a move needs losers other than its winner, and k only with type 1")
    n = len(symbols)
    if flavor == "permutation" and t == 1:
        if type(k) is not int or not 1 <= k < n or power < 1 or winner != k or losers != {n}:
            raise InputError("type-1 records need k in 1..n-1, the winner k, the losers [n] and a positive power")
        return k, power
    if flavor == "permutation" and (t != 0 or winner != n):
        raise InputError("without matrices, permutation records need a type, and type 0 the winner n")
    if power != len(losers):
        raise InputError("grouped move records need their matrices to unpack")
    return ZorichMove(winner, losers, 1, losers)


def _check_records(flavor, records, moves, n):
    """Each move record against the move decoded from its matrix."""
    for j, (record, move) in enumerate(zip(records, moves), 1):
        t = 0 if isinstance(move, ZorichMove) else 1
        if flavor == "permutation" and record.type_tag not in (None, t):
            raise InputError(f"matrix {j} disagrees with its move record")
        if t == 1:
            k, power = move
            if (record.winner, record.losers, record.k, record.power) != (k, {n}, k, power):
                raise InputError(f"matrix {j} disagrees with its move record")
        elif (flavor == "pair" and move.winner != record.winner) or move.losers != record.losers:
            raise InputError(f"matrix {j} disagrees with its move record")
        elif move.steps != record.power:
            raise InputError(f"matrix {j} bundles {move.steps} moves, record says {record.power}")


def load_path_file(obj: dict) -> dict:
    """Read a version-1 path file, checking and decoding each entry once.

    ``moves`` has one move per entry, as both recoveries read them: decoded
    from the matrices if there are any (the records are checked against
    them), else from the records; a :class:`ZorichMove`, or ``(k, p)`` for
    a type-1 power.
    """
    if not isinstance(obj, dict) or obj.get("version") != 1:
        raise InputError("expected a version-1 path file")
    flavor = obj.get("flavor")
    if flavor not in ("pair", "permutation"):
        raise InputError("flavor must be 'pair' or 'permutation'")
    if flavor == "pair":
        alphabet = obj.get("alphabet")
        index = obj.get("index", alphabet)
        if not alphabet or not isinstance(alphabet, list) or not isinstance(index, list):
            raise InputError("pair files need an alphabet, and an index if any, as JSON arrays")
        index, alphabet = tuple(index), tuple(alphabet)
        if not len(index) == len(alphabet) == len(set(index)) or set(index) != set(alphabet):
            raise InputError("index must list each alphabet symbol exactly once")
    else:
        n = obj.get("n")
        if not isinstance(n, int) or n < 2:
            raise InputError("permutation files need a size n")
        index = tuple(range(1, n + 1))
        alphabet = index
    n = len(index)
    records = obj.get("moves", [])
    raw = obj.get("matrices", [])
    if not records and not raw:
        raise InputError("a path file needs moves or matrices")
    if records and raw and len(records) != len(raw):
        raise InputError("moves and matrices must align one to one")
    matrices = tuple(_parse_matrix(m, n) for m in raw)
    if not matrices:
        symbols = set(index)
        moves = [_record_move(item, flavor, symbols) for item in records]
    else:
        moves = [extract_move(m, index) for m in matrices] if flavor == "pair" else decode_perm_matrices(matrices)[0]
        _check_records(flavor, _parse_moves(records), moves, n)
    start = None
    if obj.get("start") is not None:
        start = pair_from_obj(obj["start"]) if flavor == "pair" else perm_from_obj(obj["start"])
        if flavor == "pair" and tuple(start.alphabet) != alphabet:
            raise InputError("start and file alphabets differ")
        if flavor == "permutation" and start.n != n:
            raise InputError("start size and n differ")
    return {
        "flavor": flavor,
        "alphabet": alphabet,
        "index": index,
        "records": records,
        "moves": moves,
        "matrices": matrices,
        "grouping": tuple(obj["grouping"]) if obj.get("grouping") else None,
        "start": start,
    }


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}") from exc
    except OSError as exc:
        raise InputError(str(exc)) from exc


# --- output ----------------------------------------------------------------
#
# Every output is json.dumps(obj, sort_keys=True, indent=2) plus a newline.
# ``indent`` makes that call run Python's pure-Python encoder, which costs
# most of ``simulate`` and ``sharpness``.  So a top-level ``matrices`` or
# ``moves`` array of the shape those commands write is laid out at its known
# depth from compact C-encoder text or one template per record; any other
# value goes through json.dumps itself.

_MATRIX_LAYOUT = (  # compact separator -> its indent-2 form, replaced in this order
    (",", ",\n        "),
    ("]],\n        [[", "\n      ]\n    ],\n    [\n      [\n        "),
    ("],\n        [", "\n      ],\n      [\n        "),
)
_MOVE_KEYS = frozenset(("k", "losers", "power", "type", "winner"))
_MOVE = (
    '{\n      "k": %s,\n      "losers": [\n        %s\n      ],\n'
    '      "power": %s,\n      "type": %s,\n      "winner": %s\n    }'
)
_ARRAYS = {list, tuple}
_SCALARS = {int, str, type(None)}  # no two values of these types are equal with different JSON


def _matrices_json(mats):
    """A top-level list of non-empty integer matrices as indent=2 lays it out, else None."""
    if type(mats) not in _ARRAYS or not mats or not _ARRAYS.issuperset(map(type, mats)) or not all(mats):
        return None
    rows = list(chain.from_iterable(mats))
    if not _ARRAYS.issuperset(map(type, rows)) or not all(rows):
        return None
    if not {int}.issuperset(map(type, chain.from_iterable(rows))):
        return None
    text = json.dumps(mats, separators=(",", ":"))  # "[[[1,0],[0,1]],[[...]]]"
    for compact, indented in _MATRIX_LAYOUT:
        text = text.replace(compact, indented)
    return "[\n    [\n      [\n        " + text[3:-3] + "\n      ]\n    ]\n  ]"


def _moves_json(moves):
    """A top-level list of move records as indent=2 lays it out, else None."""
    if type(moves) not in _ARRAYS or not moves or set(map(type, moves)) != {dict}:
        return None
    if set(map(frozenset, moves)) != {_MOVE_KEYS}:
        return None
    scalars = list(map(itemgetter("k", "power", "type", "winner"), moves))
    losers = list(map(itemgetter("losers"), moves))
    if not _ARRAYS.issuperset(map(type, losers)) or not all(losers):
        return None
    values = [*chain.from_iterable(scalars), *chain.from_iterable(losers)]
    if not _SCALARS.issuperset(map(type, values)):
        return None
    text = {v: json.dumps(v) for v in set(values)}.__getitem__
    sep = ",\n        "
    records = [
        _MOVE % (text(k), sep.join(map(text, b)), text(power), text(t), text(winner))
        for (k, power, t, winner), b in zip(scalars, losers)
    ]
    return "[\n    " + ",\n    ".join(records) + "\n  ]"


_BULK = {"matrices": _matrices_json, "moves": _moves_json}


def _dumps(obj):
    """``json.dumps(obj, sort_keys=True, indent=2)``, with the bulk arrays laid out directly."""
    if type(obj) is not dict or _BULK.keys().isdisjoint(obj) or set(map(type, obj)) != {str}:
        return json.dumps(obj, sort_keys=True, indent=2)
    items = []
    for key in sorted(obj):
        render = _BULK.get(key)
        text = render(obj[key]) if render else None
        if text is None:
            text = json.dumps(obj[key], sort_keys=True, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {text}")
    return "{\n" + ",\n".join(items) + "\n}"


def _emit(obj, out_path):
    text = _dumps(obj) + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    if "image" in obj:
        start = perm_from_obj(obj)
        flavor = "permutation"
    elif "p0" in obj:
        start = pair_from_obj(obj)
        flavor = "pair"
    else:
        raise InputError("start file must hold a pair (p0/p1) or a permutation (image)")

    grouping = None
    if args.script:
        types, grouping = parse_script(args.script)
    else:
        rng = random.Random(args.seed)
        if args.until_c_complete is not None:
            if args.until_c_complete < 1:
                raise InputError("--until-c-complete must be at least 1")
            types, _ = walk_until_complete(start, rng, args.until_c_complete)
        elif args.length is not None:
            if args.length < 1:
                raise InputError("--length must be at least 1")
            types = [rng.randint(0, 1) for _ in range(args.length)]
        else:
            raise InputError("give --script, or --seed with --length/--until-c-complete")

    path = simulate_pair(start, types) if flavor == "pair" else simulate_perm(start, types)
    if grouping:
        zpath = accelerate(path, grouping)
        moves, matrices = zpath.moves, zpath.matrices
    else:
        moves, matrices = path.moves, path.matrices

    index = path.index
    position = {s: i for i, s in enumerate(index)}
    out = {
        "version": 1,
        "flavor": flavor,
        "index": list(index),
        "start": pair_to_obj(start) if flavor == "pair" else perm_to_obj(start),
        "moves": _serialize_moves(moves, position),
        "matrices": matrices,
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
            report["trace"] = [_blocks_obj(b, position) for b in result[1]]
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
    checks = {}
    start = data["start"]
    if data["flavor"] == "pair":
        if start is not None:
            checks["start_agrees"] = agrees(start, recovered) or agrees(inverse(start), recovered)
            stored = [item.get("type") for item in data["records"]]
            if (
                not data["grouping"]
                and all(t is not None for t in stored)
                and len(stored) == len(types)
            ):
                flipped = [1 - t for t in types]
                checks["types_agree"] = stored in (list(types), flipped)
        if args.oracle:
            units = [unit for move in data["moves"] for unit in move.units()]
            oracle = forward_initial_pairs(units, data["alphabet"])
            got = {(p.row0, p.row1) for p, _ in oracle.realizers}
            checks["oracle_matches"] = got == {(p.row0, p.row1) for p in starts}
    else:
        if start is not None:
            checks["start_agrees"] = agrees_perm(start, recovered)
        if args.oracle:
            index = data["index"]
            evidence = data["matrices"] or [record_matrix(r, index) for r in _parse_moves(data["records"])]
            found = brute_force_initial_perms(evidence, len(index))
            checks["oracle_matches"] = [p.image for p in found] == [p.image for p in starts]
    ok = all(checks.values()) if checks else True
    out = {"ok": ok, "checks": checks, "recovered": report}
    _emit(out, args.out)
    return 0 if ok else 3


# --- sharpness -------------------------------------------------------------

def cmd_sharpness(args) -> int:
    result = build_ambiguous_path(args.n)
    n = result.n
    index = tuple(range(1, n + 1))
    position = {s: i for i, s in enumerate(index)}
    agreeing = enumerate_agreeing(result.start)
    first = agreeing[0]
    mate = None
    for cand in agreeing[1:]:
        if cand != inverse(first):
            mate = cand
            break
    moves = [(m.winner, m.losers) for m in result.moves]
    types = [m.type_tag for m in result.moves]
    verified = forward_simulate(first, moves, types) and (
        mate is None or forward_simulate(mate, moves, types)
    )
    out = {
        "version": 1,
        "flavor": "pair",
        "alphabet": list(index),
        "index": list(index),
        "moves": _serialize_moves(result.moves, position),
        "report": {
            "stretches": result.depth,
            "unresolved": result.unresolved,
            "Q0": _blocks_obj(result.start.q0, position),
            "Q1": _blocks_obj(result.start.q1, position),
            "agreeing_count": len(agreeing),
            "alternatives": [pair_to_obj(first)] + ([pair_to_obj(mate)] if mate else []),
            "alternatives_verified": verified,
        },
    }
    _emit(out, args.out)
    return 0


# --- entry point -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Unrealizable as exc:
        _emit({"error": "unrealizable", "step": exc.step, "reason": exc.reason}, getattr(args, "out", None))
        return 2
    except (
        InputError,
        MalformedMatrix,
        MixedTypeBlock,
        NonIrreducible,
        BoundExceeded,
        BadN,
        KeyError,
        TypeError,
        ValueError,
    ) as exc:
        _emit({"error": "bad input", "detail": str(exc)}, getattr(args, "out", None))
        return 4


if __name__ == "__main__":
    sys.exit(main())
