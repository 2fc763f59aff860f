"""Byte-for-byte golden outputs of the command line tool.

Each case runs one subcommand in-process on fixed inputs and compares the
exit code and the sha256 of the bytes written to ``--out`` with a stored
digest, so that an internal refactor cannot change a single output byte.
Grouped permutation files are only simulated here: their recovery is
covered by the oracle property tests in ``test_recovery.py``.

Run this module as a script to print the digests of the current code.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from ietrewind.cli import main

_PAIR_12 = {
    "alphabet": list("abcdefghijkl"),
    "p0": list("abcdefghijkl"),
    "p1": list("gkcialebjfdh"),
}
_PERM_12 = {"n": 12, "image": [12, 5, 9, 1, 7, 3, 11, 2, 8, 4, 10, 6]}
_PAIR_6 = {"alphabet": [1, 2, 3, 4, 5, 6], "p0": [1, 2, 3, 4, 5, 6], "p1": [4, 6, 2, 5, 1, 3]}
_PERM_6 = {"n": 6, "image": [3, 6, 1, 5, 2, 4]}

GOLDEN = {
    'simulate-pair': (0, '6104822489a9bb3fd574c50d68e0cc22b17d4642e787a1c9a8be0d13b62021e9'),
    'simulate-pair-grouped': (0, 'd1485efeb5f939ba0561fe7ed79630702d1c28d51fae3d36ee40608c583acb0c'),
    'recover-trace-pair-plain': (0, '5c03ef3098423546b1c05b93bd73013a8f055833dc42b26c74d8b9304a22a10f'),
    'verify-pair-plain': (0, '8863dfd02024ac57fd5892ec0550c331913f26abec4e530d19878abba6a75541'),
    'recover-trace-pair-grouped': (0, '58b742549eeda21033e3bf5dbf0498c8ec1081f6f37a736f6c8d2cc41be2ed4d'),
    'verify-pair-grouped': (0, 'f61a46dcbaf8973a61ee380bda1671217fb1994f46bb17e1ffb8d4f825b0bff6'),
    'simulate-perm': (0, '1004106cd3a0120573a0a8373465d8290e9afc3abd699d039a2b6afaa5ba47c9'),
    'simulate-perm-grouped': (0, '3354eebde9c5dcfeffd08b22ca4370af7d6a028fe1c7fdbc18c2307ee14d9116'),
    'recover-perm-plain': (0, '26cf5ceb52407fa065aa23c4b777a425b8e974e529e9705bf220834ef5498b8c'),
    'walk-pair': (0, '1de0ef3cb2ddb2bf7abd76539bfad52bbed25983b9c5edb8e4e1fdc7293046fc'),
    'verify-oracle-pair': (0, '293016c9dfec4ab6acae0bb2602b409d83db05052a50d4a03f9cae1d13b11285'),
    'walk-perm': (0, '1947376a66e89744064e0a5dd5b2acdf7936a80c7943c41ccf99fc34f1ab6d7a'),
    'verify-oracle-perm': (0, 'eb998332a7086ce473730cf2c6733436a08068149b09bf5d3fa1c7c46f675e48'),
    'sharpness-40': (0, 'ce40962983242f1ad6db4e54b49e11ec5bab9715cd463de7fcd533952ff02765'),
    'recover-trace-sharpness-40': (0, '2e3c57c2f08d8b16315eeb5b44a546d75b5fac6962ecd5b548d0312e601efc21'),
}


def _runs_script(types) -> str:
    """A move script that groups ``types`` by maximal same-type runs."""
    runs = []
    for t in types:
        if runs and runs[-1][0] == t:
            runs[-1][1] += 1
        else:
            runs.append([t, 1])
    moves = ",".join(f"{t}x{c}" for t, c in runs)
    return f"{moves},group({','.join(str(c) for _, c in runs)})"


def golden_outputs(work: Path) -> dict:
    """Run every golden case in ``work``; name -> (exit code, sha256)."""
    outputs = {}

    def run(name, *argv):
        out = work / f"{name}.json"
        code = main([*argv, "--out", str(out)])
        outputs[name] = (code, hashlib.sha256(out.read_bytes()).hexdigest())
        return str(out)

    def start_file(name, obj):
        path = work / f"{name}-start.json"
        path.write_text(json.dumps(obj))
        return str(path)

    for flavor, obj in (("pair", _PAIR_12), ("perm", _PERM_12)):
        start = start_file(flavor, obj)
        plain = run(f"simulate-{flavor}", "simulate", "--start", start, "--seed", "11", "--length", "300")
        types = [m["type"] for m in json.loads(Path(plain).read_text())["moves"]]
        grouped = run(f"simulate-{flavor}-grouped", "simulate", "--start", start, "--script", _runs_script(types))
        if flavor == "pair":
            for label, path in (("plain", plain), ("grouped", grouped)):
                run(f"recover-trace-pair-{label}", "recover", path, "--trace")
                run(f"verify-pair-{label}", "verify", path)
        else:
            run("recover-perm-plain", "recover", plain)

    for flavor, obj in (("pair", _PAIR_6), ("perm", _PERM_6)):
        start = start_file(f"{flavor}-6", obj)
        walk = run(f"walk-{flavor}", "simulate", "--start", start, "--seed", "2", "--until-c-complete", "3")
        run(f"verify-oracle-{flavor}", "verify", walk, "--oracle")

    sharp = run("sharpness-40", "sharpness", "--n", "40")
    run("recover-trace-sharpness-40", "recover", sharp, "--trace")
    return outputs


def test_outputs_match_golden_digests(tmp_path):
    got = golden_outputs(tmp_path)
    assert sorted(got) == sorted(GOLDEN)
    for name, expected in GOLDEN.items():
        assert got[name] == expected, name


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, entry in golden_outputs(Path(tmp)).items():
            print(f"    {name!r}: {entry!r},")
    sys.exit(0)
