"""Command-line interface: dispatch, reports, exit taxonomy, reproducibility."""

import json
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bertinilab import cli, fiberlab
from bertinilab.cli import (EXIT_BUDGET, EXIT_CONFIG, EXIT_OK, build_parser,
                            main, render_report, run)
from bertinilab.projgeom import ProjectiveScheme, save_scheme
from bertinilab.zetas import local_zeta_inverse, projective_counts


@pytest.fixture(scope="module")
def scheme_files(tmp_path_factory, conic):
    root = tmp_path_factory.mktemp("schemes")
    p1 = root / "p1z.json"
    p2 = root / "p2z.json"
    conic_file = root / "conic.json"
    save_scheme(p1, ProjectiveScheme(1, 1, name="P1_Z"))
    save_scheme(p2, ProjectiveScheme(2, 2, name="P2_Z"))
    save_scheme(conic_file, conic)
    return {"p1": str(p1), "p2": str(p2), "conic": str(conic_file)}


def invoke(argv):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args, run(args)


def test_zeta_subcommand_value(scheme_files):
    args, results = invoke(["zeta", "--scheme", scheme_files["p1"],
                            "--p", "2", "--s", "2", "--r", "4"])
    expected = local_zeta_inverse(projective_counts(2, 1, 4), 2, 4, 1)
    assert Fraction(results["value_num"], results["value_den"]) == expected.value
    assert results["a_e"] == [3, 1, 2, 3]
    assert Fraction(results["error_bound_num"], results["error_bound_den"]) == \
        expected.error_bound


@pytest.mark.parametrize("name, m, depths", [("conic", 1, (8, 5, 3, 3, 2)),
                                             ("p2", 2, (6, 3, 2, 2, 1))])
def test_zeta_default_depth(scheme_files, name, m, depths):
    """Without --r, zeta runs at the deepest r with p^(r max(m, 1)) <= 2^12
    whose point table passes the scan check; s cycles through m+1..m+3."""
    for i, (p, r) in enumerate(zip((2, 3, 5, 7, 11), depths)):
        s = m + 1 + i % 3
        _, results = invoke(["zeta", "--scheme", scheme_files[name],
                             "--p", str(p), "--s", str(s)])
        assert (results["s"], results["r"], len(results["a_e"])) == (s, r, r)


def test_classify_subcommand(scheme_files):
    _, results = invoke(["classify", "--scheme", scheme_files["p2"], "--p", "5",
                         "--section", "X^2+5*Y^2-Z^2", "--point", "[0:1:0]"])
    assert results["arithmetic"] == "RegularPoint"
    assert results["fiber"] == "SingularPoint"
    assert results["rescued"] is True


def test_fiber_density_subcommand(scheme_files):
    _, results = invoke(["fiber-density", "--scheme", scheme_files["p1"],
                         "--p", "2", "--d", "5", "--r", "1"])
    assert Fraction(results["value_num"], results["value_den"]) == Fraction(343, 512)
    assert results["certified_equal"] is True


def test_equidist_subcommand():
    _, results = invoke(["equidist", "--h", "3", "--B", "8", "--N", "5"])
    assert results["ratio"] == "64/27"


def test_verify_bounds_subcommand():
    _, results = invoke(["verify-bounds", "--p-list", "2,3", "--e-max", "4",
                         "--r-max", "4"])
    assert results["ok"] is True and results["violations"] == []


def test_reproducible_payloads(scheme_files):
    argv = ["fiber-density", "--scheme", scheme_files["p1"], "--p", "2",
            "--d", "10", "--r", "2", "--mode", "mc", "--samples", "500",
            "--seed", "31"]
    args1, res1 = invoke(argv)
    report1 = json.loads(render_report(args1, res1, 1.23))
    args2, res2 = invoke(argv)
    report2 = json.loads(render_report(args2, res2, 9.87))   # different wall clock
    assert report1.pop("duration_s") != report2.pop("duration_s")
    assert report1 == report2


def test_config_echo_roundtrip(scheme_files):
    argv = ["multi-fiber", "--d", "4", "--B", "100", "--prime-bound", "2",
            "--r", "2", "--samples", "200", "--seed", "7"]
    args, results = invoke(argv)
    echo = json.loads(render_report(args, results, 0.0))["config"]
    rebuilt = []
    for key, value in sorted(echo.items()):
        rebuilt += [f"--{key.replace('_', '-')}", str(value)]
    args2 = build_parser().parse_args(["multi-fiber"] + rebuilt)
    assert {k: v for k, v in vars(args2).items() if k not in ("output", "format")} \
        == {k: v for k, v in vars(args).items() if k not in ("output", "format")}


def test_exit_codes(scheme_files, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "2",
                 "--r", "3", "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["subcommand"] == "zeta"
    # config errors: unreadable scheme, precondition violation, bad flags
    assert main(["zeta", "--scheme", "no-such-file.json", "--p", "2",
                 "--s", "2"]) == EXIT_CONFIG
    assert main(["zeta", "--scheme", scheme_files["p1"], "--p", "2",
                 "--s", "1", "--r", "3"]) == EXIT_CONFIG
    assert main(["zeta", "--bogus-flag"]) == EXIT_CONFIG
    assert main(["multi-fiber", "--n", "0", "--d", "4", "--B", "100",
                 "--prime-bound", "2", "--r", "2", "--samples", "200"]) == EXIT_CONFIG
    assert main(["zeta", "--scheme", scheme_files["p1"], "--p", "0",
                 "--s", "3"]) == EXIT_CONFIG
    assert main(["fiber-density", "--scheme", scheme_files["p1"], "--p", "2",
                 "--d", "4", "--r", "1", "--mode", "mc", "--samples", "100",
                 "--seed", "-1"]) == EXIT_CONFIG
    # enumeration budget, the lift-ring cap, and a truncation too long to print
    assert main(["fiber-density", "--scheme", scheme_files["p1"], "--p", "5",
                 "--d", "9", "--r", "1"]) == EXIT_BUDGET
    assert main(["fiber-density", "--scheme", scheme_files["p1"], "--p", "2",
                 "--d", "3", "--r", "13", "--mode", "mc",
                 "--samples", "100"]) == EXIT_BUDGET
    assert main(["zeta", "--scheme", scheme_files["p1"], "--p", "3", "--s", "3",
                 "--r", "13"]) == EXIT_BUDGET
    # bsw checks no prime below 2, so T < 2 leaves no reference
    for T in ("0", "-5", "1"):
        assert main(["bsw", "--d", "3", "--R", "10", "--T", T,
                     "--samples", "10"]) == EXIT_CONFIG
    # verify-bounds certifies primes only
    for p_list in ("6", "4,1", ""):
        assert main(["verify-bounds", f"--p-list={p_list}", "--e-max", "2",
                     "--r-max", "2", "--dims", "1"]) == EXIT_CONFIG
    capsys.readouterr()


def test_digit_cap_is_checked_before_computing(scheme_files, monkeypatch, capsys):
    """Long integers are printed through decimal, which ignores
    sys.set_int_max_str_digits: DIGIT_CAP is the only guard on report size."""
    def refuse(*args):
        raise AssertionError("the truncation was computed")
    monkeypatch.setattr(cli, "local_zeta_inverse", refuse)
    assert main(["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "3",
                 "--r", "21"]) == EXIT_BUDGET
    assert "2000000 digits" in capsys.readouterr().err
    fiber = cli._load(scheme_files["p1"]).fiber(2)
    cli._check_digits(fiber.point_table(20), 3, 20)     # about 1.89e6 digits


def test_multi_fiber_digit_cap(monkeypatch, capsys):
    """multi-fiber refuses, before any truncation, a reference whose
    denominator prod_p p^E_p has DIGIT_CAP digits or more."""
    def refuse(*args):
        raise AssertionError("a truncation was computed")
    monkeypatch.setattr(fiberlab, "local_zeta_inverse", refuse)
    assert main(["multi-fiber", "--d", "8", "--B", "10000", "--prime-bound", "7",
                 "--r", "7", "--samples", "100"]) == EXIT_BUDGET
    assert "2000000 digits" in capsys.readouterr().err
    # r = 6 (about 0.39e6 digits) still runs; s = 3 on P^1
    fiberlab.check_digits([projective_counts(p, 1, 6) for p in (2, 3, 5, 7)], 3, 6)


def test_main_restores_int_digit_limit(scheme_files, tmp_path, monkeypatch, capsys):
    """main raises sys.set_int_max_str_digits to DIGIT_CAP for run, render
    and write only; the caller's limit is back after success and failure."""
    seen = []
    render = cli.render_report

    def spy(*args):
        seen.append(sys.get_int_max_str_digits())
        return render(*args)
    monkeypatch.setattr(cli, "render_report", spy)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        assert main(["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "2",
                     "--r", "3", "--output", str(tmp_path / "r.json")]) == EXIT_OK
        assert sys.get_int_max_str_digits() == 5000
        assert main(["zeta", "--scheme", scheme_files["p1"], "--p", "2",
                     "--s", "1", "--r", "3"]) == EXIT_CONFIG
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)
    assert seen == [cli.DIGIT_CAP]
    capsys.readouterr()


@contextmanager
def unlimited_int_text():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def test_int_text_edge_integers():
    """0, +-1, and 2^k, 2^k - 1, 10^k, 10^k +- 1 around the leaf size and
    the splice threshold, with both signs."""
    edges = {0, 1}
    for bits in (cli._LEAF_BITS, cli.LONG_INT_BITS):
        k10 = int(bits * 0.30103)         # 10^k10 has about `bits` bits
        for k in range(-2, 3):
            edges |= {2 ** (bits + k), 2 ** (bits + k) - 1}
            edges |= {10 ** (k10 + k) + d for d in (-1, 0, 1)}
    with unlimited_int_text():
        for n in sorted(edges | {-n for n in edges}):
            assert cli._int_text(n) == str(n), n


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(1, 332_000), seed=st.integers(0, 2 ** 32),
       sign=st.sampled_from((1, -1)))
def test_int_text_equals_str(bits, seed, sign):
    """Random integers of up to about 10^5 digits."""
    n = sign * random.Random(seed).getrandbits(bits)
    with unlimited_int_text():
        assert cli._int_text(n) == str(n)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_long_integers_render_as_plain_str(scheme_files, tmp_path, monkeypatch, fmt):
    """Above LONG_INT_BITS the report splices in _int_text's digits; the
    text must be what plain str gives, apart from duration_s."""
    argv = ["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "3",
            "--r", "16", "--format", fmt]

    def report(name):
        out = tmp_path / name
        assert main(argv + ["--output", str(out)]) == EXIT_OK
        return [line for line in out.read_text().splitlines()
                if '"duration_s"' not in line]

    seen, convert = [], cli._int_text

    def spy(n):
        seen.append(n)
        return convert(n)
    monkeypatch.setattr(cli, "_int_text", spy)
    fast = report("fast")
    assert max(seen).bit_length() > cli.LONG_INT_BITS     # 117,842 digits
    monkeypatch.setattr(cli, "_int_text", str)
    assert fast == report("plain")


def test_csv_format(scheme_files, capsys):
    assert main(["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "2",
                 "--r", "2", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["value"] == "405/1024"
    assert row["a_e"] == "3;1"


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
