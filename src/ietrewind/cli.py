"""Command line front end: simulate, recover, verify, sharpness."""
from __future__ import annotations

import argparse
import json
import random
import sys

from .core import (
    Pair,
    inverse,
    pair_from_obj,
    pair_to_obj,
    perm_from_obj,
    perm_to_obj,
)
from .matrices import winner_row_matrix
from .oracle import brute_force_initial_pairs, brute_force_initial_perms, forward_simulate
from .rauzy import (
    MalformedMatrix,
    MoveRecord,
    NonIrreducible,
    simulate_pair,
    simulate_perm,
    type1_matrix,
    walk_until_complete,
)
from .recovery import (
    AllEmpty,
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
from .zorich import MixedTypeBlock, accelerate, extract_move

# Kept importable: perfbench/trace_child.py wraps these names in this module.
from .lifting import relabel  # noqa: F401
from .matrices import matmul  # noqa: F401
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


def _parse_moves(items):
    return [
        MoveRecord(
            item["winner"],
            frozenset(item["losers"]),
            type_tag=item.get("type"),
            k=item.get("k"),
            power=item.get("power", 1),
        )
        for item in items
    ]


def _check_records(flavor, moves, decoded):
    """Each move record against the decoded move of its matrix."""
    for j, (record, move) in enumerate(zip(moves, decoded), 1):
        if flavor == "permutation":
            t, move = move
            if record.type_tag is not None and record.type_tag != t:
                raise InputError(f"matrix {j} disagrees with its move record")
            if t == 1:
                if (record.k, record.power) != move:
                    raise InputError(f"matrix {j} disagrees with its move record")
                continue
        elif move.winner != record.winner:
            raise InputError(f"matrix {j} disagrees with its move record")
        if move.losers != frozenset(record.losers):
            raise InputError(f"matrix {j} disagrees with its move record")
        if move.steps != record.power:
            raise InputError(f"matrix {j} bundles {move.steps} moves, record says {record.power}")


def load_path_file(obj: dict) -> dict:
    if not isinstance(obj, dict) or obj.get("version") != 1:
        raise InputError("expected a version-1 path file")
    flavor = obj.get("flavor")
    if flavor not in ("pair", "permutation"):
        raise InputError("flavor must be 'pair' or 'permutation'")
    if flavor == "pair":
        alphabet = obj.get("alphabet")
        if not alphabet:
            raise InputError("pair files need an alphabet")
        index = tuple(obj.get("index", alphabet))
        alphabet = tuple(alphabet)
    else:
        n = obj.get("n")
        if not isinstance(n, int) or n < 2:
            raise InputError("permutation files need a size n")
        index = tuple(range(1, n + 1))
        alphabet = index
    moves = _parse_moves(obj.get("moves", []))
    matrices = tuple(tuple(tuple(int(v) for v in row) for row in m) for m in obj.get("matrices", []))
    if not moves and not matrices:
        raise InputError("a path file needs moves or matrices")
    if moves and matrices and len(moves) != len(matrices):
        raise InputError("moves and matrices must align one to one")
    # the one decode of the matrices: ZorichMoves, or (moves, n) for permutations
    decoded = None
    if matrices and flavor == "pair":
        decoded = [extract_move(mat, index) for mat in matrices]
    elif matrices:
        decoded = decode_perm_matrices(matrices)
    if moves and matrices:
        _check_records(flavor, moves, decoded if flavor == "pair" else decoded[0])
    start = None
    if obj.get("start") is not None:
        start = pair_from_obj(obj["start"]) if flavor == "pair" else perm_from_obj(obj["start"])
        if flavor == "pair" and tuple(start.alphabet) != alphabet:
            raise InputError("start and file alphabets differ")
        if flavor == "permutation" and start.n != len(index):
            raise InputError("start size and n differ")
    return {
        "flavor": flavor,
        "alphabet": alphabet,
        "index": index,
        "moves": moves,
        "matrices": matrices,
        "decoded": decoded,
        "grouping": tuple(obj["grouping"]) if obj.get("grouping") else None,
        "start": start,
    }


def _emit(obj, out_path):
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


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


def parse_script(text):
    """Move script: comma-separated '0', '1', '1x6', plus one 'group(4,2)'."""
    types = []
    grouping = None
    for token in _split_tokens(text):
        if token.startswith("group(") and token.endswith(")"):
            if grouping is not None:
                raise InputError("only one group(...) token is allowed")
            inner = token[len("group("):-1]
            try:
                grouping = [int(x) for x in inner.split(",")] if inner.strip() else []
            except ValueError as exc:
                raise InputError(f"bad group token: {token}") from exc
            continue
        base, _, reps = token.partition("x")
        if base not in ("0", "1"):
            raise InputError(f"bad script token: {token}")
        count = 1
        if reps:
            try:
                count = int(reps)
            except ValueError as exc:
                raise InputError(f"bad script token: {token}") from exc
            if count <= 0:
                raise InputError(f"bad script token: {token}")
        types.extend([int(base)] * count)
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
            types, _ = walk_until_complete(start, rng, args.until_c_complete)
        elif args.length is not None:
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
        "matrices": [[list(row) for row in m] for m in matrices],
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

def _unit_pair_moves(data):
    if data["decoded"] is not None:
        return [unit for move in data["decoded"] for unit in move.units()]
    for m in data["moves"]:
        if m.power != len(m.losers):
            raise InputError("grouped move records need their matrices to unpack")
    return [(m.winner, frozenset(m.losers)) for m in data["moves"]]


def _perm_matrices(data):
    n = len(data["index"])
    mats = []
    for record in data["moves"]:
        if record.type_tag == 1:
            if record.k is None:
                raise InputError("type-1 records need k to rebuild matrices")
            mats.append(type1_matrix(n, record.k, record.power))
        elif record.type_tag == 0:
            if record.power != len(record.losers):
                raise InputError("grouped type-0 records need their matrices to unpack")
            mats.append(winner_row_matrix(n, n - 1, {loser - 1: 1 for loser in sorted(record.losers)}))
        else:
            raise InputError("permutation records need explicit types to rebuild matrices")
    return tuple(mats)


def _blocks_obj(blocks, position):
    return [sorted(b, key=position.__getitem__) for b in blocks]


def _recover_report(data, trace=False):
    position = {s: i for i, s in enumerate(data["index"])}
    if data["flavor"] == "pair":
        units = _unit_pair_moves(data)
        result = recover_pair(units, alphabet=data["alphabet"], trace=trace)
        pop, types = result[0], result[1]
        unique = pop.is_settled()
        try:
            count = len(enumerate_starting(pop))
        except BoundExceeded:
            count = None
        report = {
            "flavor": "pair",
            "Q0": _blocks_obj(pop.q0, position),
            "Q1": _blocks_obj(pop.q1, position),
            "types": list(types),
            "unique": unique,
            "pair": pair_to_obj(pop.settled_pair()) if unique else None,
            "count": count,
        }
        if trace:
            report["trace"] = [
                {"Q0": _blocks_obj(p.q0, position), "Q1": _blocks_obj(p.q1, position)}
                for p in result[2]
            ]
        return report, pop, types, units
    mats = data["matrices"] or _perm_matrices(data)
    moves, n = data["decoded"] or decode_perm_matrices(mats)
    result = recover_perm_moves(moves, n, trace=trace)
    blocks = result[0] if trace else result
    unique = all(len(b) == 1 for b in blocks)
    image = None
    if unique:
        img = [0] * len(data["index"])
        value = 1
        for b in blocks:
            img[next(iter(b)) - 1] = value
            value += 1
        image = img
    try:
        count = len(enumerate_agreeing_perms(blocks))
    except BoundExceeded:
        count = None
    report = {
        "flavor": "permutation",
        "Q": _blocks_obj(blocks, position),
        "unique": unique,
        "pi": image,
        "count": count,
    }
    if trace:
        report["trace"] = [_blocks_obj(b, position) for b in result[1]]
    return report, blocks, None, mats


def cmd_recover(args) -> int:
    data = load_path_file(_read_json(args.path))
    report, _, _, _ = _recover_report(data, trace=args.trace)
    _emit(report, args.out)
    return 0


# --- verify ----------------------------------------------------------------

def cmd_verify(args) -> int:
    data = load_path_file(_read_json(args.path))
    report, recovered, types, evidence = _recover_report(data)
    checks = {}
    if data["flavor"] == "pair":
        start = data["start"]
        if start is not None:
            checks["start_agrees"] = agrees(start, recovered) or agrees(inverse(start), recovered)
            stored = [m.type_tag for m in data["moves"]]
            if (
                not data["grouping"]
                and all(t is not None for t in stored)
                and len(stored) == len(types)
            ):
                flipped = [1 - t for t in types]
                checks["types_agree"] = stored in (list(types), flipped)
        if args.oracle:
            oracle = brute_force_initial_pairs(evidence, data["alphabet"], jobs=args.jobs)
            expected = {(p.row0, p.row1) for p in enumerate_starting(recovered)}
            got = {(p.row0, p.row1) for p, _ in oracle.realizers}
            checks["oracle_matches"] = got == expected
    else:
        start = data["start"]
        if start is not None:
            checks["start_agrees"] = agrees_perm(start, recovered)
        if args.oracle:
            found = brute_force_initial_perms(evidence, len(data["index"]))
            expected = enumerate_agreeing_perms(recovered)
            checks["oracle_matches"] = [p.image for p in found] == [p.image for p in expected]
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
    agreeing = enumerate_agreeing(result.start, bound=n)
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
    ver.add_argument("--oracle", action="store_true", help="cross-check against brute force (small sizes)")
    ver.add_argument("--jobs", type=int, default=1, help="parallel workers for the oracle")
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
        AllEmpty,
        KeyError,
        TypeError,
        ValueError,
    ) as exc:
        _emit({"error": "bad input", "detail": str(exc)}, getattr(args, "out", None))
        return 4


if __name__ == "__main__":
    sys.exit(main())
