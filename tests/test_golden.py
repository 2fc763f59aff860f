"""Byte-for-byte golden outputs of the command line tool.

Each case runs one subcommand in-process on fixed inputs and compares the
exit code and the sha256 of the bytes written to ``--out`` with a stored
digest, so that an internal refactor cannot change a single output byte.
A grouped permutation file is recovered, and checked against the oracle,
from its type-1 powers and type-0 blocks as the reader decodes them.

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
    'recover-trace-pair-plain': (0, '73a3b3a0d57e4672279b4e82dbd9ae484fe1ad4d45468a6d9e38d8d30949955d'),
    'verify-pair-plain': (0, 'ffa5b179162b8c12f5b959d113adee3a24733e1658e2585dc4b215541a0360ea'),
    'recover-trace-pair-grouped': (0, '5968904f7dd327e613b2f176ce7dd68e1632c04eac1c7d1f831631c4ba140f72'),
    'verify-pair-grouped': (0, 'd42d23d7405449296b07eb21987143ded9a7e7e8c916a21ea46fc49fce5767e1'),
    'simulate-perm': (0, '1004106cd3a0120573a0a8373465d8290e9afc3abd699d039a2b6afaa5ba47c9'),
    'simulate-perm-grouped': (0, '3354eebde9c5dcfeffd08b22ca4370af7d6a028fe1c7fdbc18c2307ee14d9116'),
    'recover-perm-plain': (0, 'c22cb93721773ea7c5cb76c1b8595009934f95696544e2e18b7c92bca167d6c0'),
    'recover-perm-grouped': (0, 'c22cb93721773ea7c5cb76c1b8595009934f95696544e2e18b7c92bca167d6c0'),
    'verify-oracle-perm-grouped': (0, 'a74ecb38437e39e3b4d34bbf03286696763bab87b02d9b79bf921a8a76471b95'),
    'walk-pair': (0, '1de0ef3cb2ddb2bf7abd76539bfad52bbed25983b9c5edb8e4e1fdc7293046fc'),
    'verify-oracle-pair': (0, '293016c9dfec4ab6acae0bb2602b409d83db05052a50d4a03f9cae1d13b11285'),
    'walk-perm': (0, '1947376a66e89744064e0a5dd5b2acdf7936a80c7943c41ccf99fc34f1ab6d7a'),
    'verify-oracle-perm': (0, 'eb998332a7086ce473730cf2c6733436a08068149b09bf5d3fa1c7c46f675e48'),
    'sharpness-40': (0, 'ce40962983242f1ad6db4e54b49e11ec5bab9715cd463de7fcd533952ff02765'),
    'recover-trace-sharpness-40': (0, '73c657741876cfbc74cbf65fce7ae26faf87a1f162c8c433d43219bc5bf2eef3'),
    'recover-sharpness-40': (0, 'ba92cf4ba24eccd9471cf6a58aff6401d8e88856ff275e65aa673e0f6010d58b'),
    'verify-sharpness-40': (0, 'c8538b86c7df8293aa3947486e8f823234021a936b19013904211ffd3631bcb1'),
    'sharpness-129': (0, '24c25455432a6e6468381d3acec9b2f0e5effe77b2be3e54bcc2d59ab6f9701a'),
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
            run("recover-perm-grouped", "recover", grouped)
            run("verify-oracle-perm-grouped", "verify", grouped, "--oracle")

    for flavor, obj in (("pair", _PAIR_6), ("perm", _PERM_6)):
        start = start_file(f"{flavor}-6", obj)
        walk = run(f"walk-{flavor}", "simulate", "--start", start, "--seed", "2", "--until-c-complete", "3")
        run(f"verify-oracle-{flavor}", "verify", walk, "--oracle")

    sharp = run("sharpness-40", "sharpness", "--n", "40")
    run("recover-trace-sharpness-40", "recover", sharp, "--trace")
    run("recover-sharpness-40", "recover", sharp)
    run("verify-sharpness-40", "verify", sharp)
    run("sharpness-129", "sharpness", "--n", "129")  # the benchmark's smallest size
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
