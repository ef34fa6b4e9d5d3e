"""Byte-identity references: print each output's sha256 prefix beside the expected one.

Run it from the repository root with ``PYTHONPATH=src python tests/_references.py``.
It exits 1 if any prefix differs.  The prefixes were read on one machine's
numpy and BLAS; a library with other rounding may give other bytes, so this
is a tool for checking that a change keeps every output as it was, not a test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from fairlinreg import SweepConfig, gv_code, run_lower_bound_report, run_sweep
from fairlinreg.cli import main

# d = 5, M = 3: the mixed-gate model of the CI's console-script checks
MIX_PARAMS = {
    "d": 5, "M": 3,
    "beta": [[1.0, 0.2, 0.0, -0.3, 0.1], [0.5, 0.5, 0.5, 0.0, 0.0], [0.0, -0.8, 0.3, 0.2, 0.4]],
    "mu": [[0.1, 0.0, 0.2, 0.0, -0.1], [0.0, 0.3, 0.0, 0.1, 0.0], [-0.2, 0.0, 0.0, 0.3, 0.2]],
    "p": [0.55, 0.3, 0.15], "sigma_x": 1.0, "sigma_xi": 1.0, "B": 1.5, "U": 1.0,
}


def _cli(tmp: Path, argv: list[str], out: str) -> bytes:
    """The bytes ``main`` writes to ``out`` in ``tmp``; a nonzero exit is an error."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = main([arg.format(tmp=tmp) for arg in argv] + ["--out", str(tmp / out)])
    if code != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return (tmp / out).read_bytes()


def _gv_code_bytes() -> bytes:
    code = gv_code(32, 8, 4, 2000, seed=1)
    print(f"  gv_code(32, 8, 4, 2000, seed=1): K = {code.size}, "
          f"min distance {code.min_block_distance} (expected 1980, 4)")
    return code.codewords.tobytes()


def references(tmp: Path) -> list[tuple[str, str, object]]:
    """(name, expected sha256 prefix, thunk giving the output's bytes) for every reference."""
    (tmp / "mix.json").write_text(json.dumps(MIX_PARAMS))
    sweep = SweepConfig(n_grid=(300, 600, 16000), d_grid=(2, 3), M_grid=(2, 3), trials=70, seed=6)
    gen, fit = ["generate", "--params", "{tmp}/mix.json"], ["fit", "--d", "5", "--M", "3"]
    lb = ["lower-bound", "--d"]
    return [
        ("lower-bound report d=9 M=4", "bda02a5b5fa9", lambda: run_lower_bound_report(
            9, 4, [2000, 32000], 1.0, 1.0, 1.0, seed=7, trials=10, code_budget=300,
        ).to_csv_text().encode()),
        ("lower-bound report 3 n, B_s per group", "375cd6e27cbd", lambda: run_lower_bound_report(
            9, 4, [1000, 2000, 4000], [1, 2, 1, 2], 1.2, 0.8, seed=3, trials=70, code_budget=200,
        ).to_csv_text().encode()),
        *(
            (f"sweep at threads={threads}", "a8cf83c4c5d8",
             lambda threads=threads: run_sweep(sweep, threads=threads).to_csv_text().encode())
            for threads in (1, 3)
        ),
        ("diagnose --seed 0", "89a300f767e5",
         lambda: _cli(tmp, ["diagnose", "--seed", "0"], "diag0.csv")),
        ("diagnose --seed 5", "705e73de3795",
         lambda: _cli(tmp, ["diagnose", "--seed", "5"], "diag5.csv")),
        ("gv_code codewords", "94d28fd75bb7", _gv_code_bytes),
        ("generate mix --n 300 --seed 3", "73125b071013",
         lambda: _cli(tmp, gen + ["--n", "300", "--seed", "3"], "mix300.csv")),
        ("fit mix n=300 --seed 1", "c5fefbd47878",
         lambda: _cli(tmp, fit + ["--data", "{tmp}/mix300.csv", "--seed", "1"], "fit300.json")),
        ("generate mix --n 25000 --seed 3", "d74446106f56",
         lambda: _cli(tmp, gen + ["--n", "25000", "--seed", "3"], "mix25k.csv")),
        ("fit mix n=25000 --seed 1", "563df98a40f3",
         lambda: _cli(tmp, fit + ["--data", "{tmp}/mix25k.csv", "--seed", "1"], "fit25k.json")),
        ("lower-bound --d 9 --M 4 --n-grid 2000,4000 --trials 40 --seed 5", "bd5106e74d91",
         lambda: _cli(tmp, lb + ["9", "--M", "4", "--n-grid", "2000,4000", "--trials", "40",
                                 "--seed", "5"], "lb9.csv")),
        ("lower-bound --d 17 --M 8 --n-grid 2000,32000 --trials 3", "dd0017ae9999",
         lambda: _cli(tmp, lb + ["17", "--M", "8", "--n-grid", "2000,32000", "--trials", "3"],
                      "lb17.csv")),
    ]


def main_references() -> int:
    mismatches = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, expected, output in references(Path(tmp)):
            got = hashlib.sha256(output()).hexdigest()[:len(expected)]
            ok = got == expected
            mismatches += not ok
            print(f"{'ok  ' if ok else 'DIFF'} {got} expected {expected}  {name}")
    print(f"{mismatches} mismatch(es)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main_references())
