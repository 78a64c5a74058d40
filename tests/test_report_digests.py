"""The report bytes of every subcommand, pinned by SHA-256 digests.

Each argv in ``report_digests.json`` runs through ``cli.main`` from the
root of the checkout, once per format: the digest is of the JSON report
without its ``duration_s`` line, or of the CSV text.  A change that keeps
every report the same keeps every digest.  After a deliberate change of
the reports, re-record the file from the root of the checkout with

    PYTHONPATH=src python tests/test_report_digests.py
"""

import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from bertinilab.cli import EXIT_OK, build_parser, main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "report_digests.json"

ARGVS = (
    "zeta --scheme schemes/p1z.json --p 2 --s 3 --r 6",
    "zeta --scheme schemes/conic_f2.json --p 3 --s 3",
    "zeta --scheme schemes/p1z.json --p 2 --s 2 --r 0",
    "fiber-density --scheme schemes/p1z.json --p 2 --d 3 --r 1",
    "fiber-density --scheme schemes/p1z.json --p 2 --d 3 --r 1 --count fiber",
    "fiber-density --scheme schemes/conic_f2.json --p 3 --d 2 --r 2",
    "fiber-density --scheme schemes/p2z.json --p 2 --d 2 --r 1 --mode mc "
    "--samples 3000 --seed 4",
    "fiber-density --scheme schemes/elliptic_a1_b1.json --p 3 --d 2 --r 2 --mode mc "
    "--samples 2000 --count fiber",
    "multi-fiber --d 8 --B 10000 --prime-bound 7 --r 4 --samples 500 --seed 1",
    "multi-fiber --n 2 --d 2 --B 100 --prime-bound 5 --r 1 --samples 300 "
    "--classification fiber",
    "multi-fiber --d 3 --B 10 --prime-bound 3 --r 0 --samples 100",
    "multi-fiber --d 8 --B 10000 --prime-bound 3 --r 8 --samples 2000 --seed 3",
    "multi-fiber --d 6 --B 1000 --prime-bound 13 --r 3 --samples 2000 --seed 4 "
    "--classification fiber",
    "bsw --d 3 --R 100 --T 100 --samples 300 --seed 2",
    "bsw --d 5 --R 30 --T 200 --samples 500 --seed 5",
    "equidist --h 3 --B 10 --N 9",
    "verify-bounds --p-list 2,3 --e-max 3 --r-max 3",
    "classify --scheme schemes/p1z.json --p 7 --section 7 --point 1:0",
)
FORMATS = ("json", "csv")


def report_digest(argv: str, fmt: str, out: Path) -> str:
    """SHA-256 of the report of ``bertini argv --format fmt``, written to
    out, with the JSON report's duration_s line removed."""
    assert main(argv.split() + ["--format", fmt, "--output", str(out)]) == EXIT_OK
    text = out.read_text(encoding="utf-8")
    if fmt == "json":
        text = re.sub(r'^  "duration_s": .*\n', "", text, count=1, flags=re.M)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", ARGVS)
def test_report_bytes_are_pinned(argv, fmt, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    recorded = json.loads(DIGESTS.read_text())[f"{argv} --format {fmt}"]
    assert report_digest(argv, fmt, tmp_path / "report") == recorded


def test_every_subcommand_is_pinned():
    (subcommands,) = (action.choices for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert {argv.split()[0] for argv in ARGVS} == set(subcommands)


if __name__ == "__main__":
    import os
    import tempfile

    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        digests = {f"{argv} --format {fmt}": report_digest(argv, fmt, Path(tmp) / "report")
                   for argv in ARGVS for fmt in FORMATS}
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
