"""Command-line interface: dispatch, reports, exit taxonomy, reproducibility."""

import csv
import io
import json
import os
import random
import subprocess
import sys
import tomllib
from decimal import Decimal
from fractions import Fraction
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import bertinilab
from bertinilab import arithlab, cli, sampling, zetas
from bertinilab.arithlab import equidistribution_audit
from bertinilab.cli import (EXIT_BUDGET, EXIT_CONFIG, EXIT_INTERNAL, EXIT_OK,
                            build_parser, main, render_report, run)
from bertinilab.fiberlab import FiberClassifier
from bertinilab.projgeom import (SchemeFiber, load_scheme, rational_closed_point,
                                 scheme_from_dict)
from bertinilab.zetas import (PointCountTable, local_zeta_inverse, primes_up_to,
                              projective_counts)

SCHEMES = Path(__file__).resolve().parent.parent / "schemes"


@pytest.fixture(scope="module")
def scheme_files():
    """The shipped P^1, P^2 and conic files; test_projgeom pins them to the
    p1, p2 and conic fixtures."""
    files = {"p1": "p1z.json", "p2": "p2z.json", "conic": "conic_f2.json"}
    return {key: str(SCHEMES / name) for key, name in files.items()}


def invoke(argv):
    """The parsed argv and the results of ``run`` as the JSON report prints
    them; integers are read through Decimal, which has no digit limit."""
    args = build_parser().parse_args(argv)
    text = render_report(args, run(args), 0.0)
    return args, json.loads(text, parse_int=lambda t: int(Decimal(t)))["results"]


def test_zeta_subcommand_value(scheme_files):
    args, results = invoke(["zeta", "--scheme", scheme_files["p1"],
                            "--p", "2", "--s", "2", "--r", "4"])
    expected = local_zeta_inverse(projective_counts(2, 1, 4), 2, 4, 1)
    assert Fraction(int(results["value_num"]), int(results["value_den"])) == expected.value
    assert results["a_e"] == [3, 1, 2, 3]
    assert Fraction(results["error_bound_num"], results["error_bound_den"]) == \
        expected.error_bound


@pytest.mark.parametrize("name, m, depths", [("conic", 1, (5, 3, 3, 2, 2)),
                                             ("p2", 2, (6, 3, 2, 2, 1))])
def test_zeta_default_depth(scheme_files, name, m, depths):
    """Without --r, zeta runs at the deepest r with p^(r max(m, 1)) <= 2^12
    whose point table passes the scan check; s cycles through m+1..m+3."""
    # the conic is a double line mod 2, which zeta refuses
    primes = (3, 5, 7, 11, 13) if name == "conic" else (2, 3, 5, 7, 11)
    for i, (p, r) in enumerate(zip(primes, depths)):
        s = m + 1 + i % 3
        _, results = invoke(["zeta", "--scheme", scheme_files[name],
                             "--p", str(p), "--s", str(s)])
        assert (results["s"], results["r"], len(results["a_e"])) == (s, r, r)


def test_shipped_scheme_files_run(tmp_path):
    """Every shipped scheme file loads, and zeta accepts it at p = 3."""
    paths = sorted(SCHEMES.glob("*.json"))
    assert paths
    for path in paths:
        s = load_scheme(path).m + 2
        assert main(["zeta", "--scheme", str(path), "--p", "3", "--s", str(s),
                     "--r", "1", "--output", str(tmp_path / "out.json")]) == EXIT_OK, \
            path.name


def test_zeta_refuses_a_singular_fiber(tmp_path):
    """zeta checks the fiber's smoothness up to its depth before the table,
    as fiber-density does through its jets: the elliptic curve is singular
    at (1, 1, 1) mod 2 and (1, 0, 20) mod 31, and the conic
    X^2 + Y^2 + Z^2 is the double line (X + Y + Z)^2 mod 2."""
    assert main(["zeta", "--scheme", str(SCHEMES / "conic_f2.json"), "--p", "2",
                 "--s", "2", "--output", str(tmp_path / "out.json")]) == EXIT_CONFIG
    path = SCHEMES / "elliptic_a1_b1.json"
    for p, r in (("2", "3"), ("31", "1")):
        assert main(["zeta", "--scheme", str(path), "--p", p, "--s", "2",
                     "--r", r, "--output", str(tmp_path / "out.json")]) == EXIT_CONFIG
        assert main(["fiber-density", "--scheme", str(path), "--p", p, "--d", "1",
                     "--r", "1", "--mode", "mc", "--samples", "100",
                     "--output", str(tmp_path / "out.json")]) == EXIT_CONFIG
    assert main(["zeta", "--scheme", str(path), "--p", "3", "--s", "2",
                 "--r", "3", "--output", str(tmp_path / "out.json")]) == EXIT_OK
    _, results = invoke(["zeta", "--scheme", str(path), "--p", "3", "--s", "2",
                         "--r", "3"])
    assert results["a_e"] == [4, 6, 8]


def test_classify_subcommand(scheme_files):
    _, results = invoke(["classify", "--scheme", scheme_files["p2"], "--p", "5",
                         "--section", "X^2+5*Y^2-Z^2", "--point", "[0:1:0]"])
    assert results["arithmetic"] == "RegularPoint"
    assert results["fiber"] == "SingularPoint"
    assert results["rescued"] is True


def test_classify_accepts_values_with_a_leading_minus(scheme_files, tmp_path):
    """A section with a negative leading coefficient and a point with a
    negative coordinate, given as the next argument or after '=', under
    the full flag names or the abbreviations that argparse resolves to
    them: every spelling exits 0 with the same report."""
    reports = []
    for flags in (("--section", "--point"), ("--sec", "--poi"), ("--se", "--po")):
        for joined in (False, True):
            argv = ["classify", "--scheme", scheme_files["p1"], "--p", "3"]
            for flag, value in zip(flags, ("-7*X^2+5*X*Y", "-1:1")):
                argv += [f"{flag}={value}"] if joined else [flag, value]
            out = tmp_path / f"report-{len(reports)}.json"
            assert main(argv + ["--output", str(out)]) == EXIT_OK, argv
            report = json.loads(out.read_text(encoding="utf-8"))
            report.pop("duration_s")
            reports.append(report)
    assert all(report == reports[0] for report in reports)
    assert reports[0]["config"]["section"] == "-7*X^2+5*X*Y"
    assert reports[0]["results"]["point"] == [1, 2]


def test_fiber_density_subcommand(scheme_files):
    _, results = invoke(["fiber-density", "--scheme", scheme_files["p1"],
                         "--p", "2", "--d", "5", "--r", "1"])
    assert Fraction(results["value_num"], results["value_den"]) == Fraction(343, 512)
    assert results["certified_equal"] is True


def test_equidist_subcommand():
    _, results = invoke(["equidist", "--h", "3", "--B", "8", "--N", "5"])
    assert results["ratio"] == "64/27"


def test_equidist_digit_cap(capsys):
    """A class count of DIGIT_CAP or more digits (here 67^2000000, 3.65e6
    digits) is a budget refusal, exit 3, before any power is formed."""
    assert main(["equidist", "--h", "2000000", "--B", "100", "--N", "3"]) == EXIT_BUDGET
    assert "2000000 digits" in capsys.readouterr().err


def test_verify_bounds_subcommand():
    _, results = invoke(["verify-bounds", "--p-list", "2,3", "--e-max", "4",
                         "--r-max", "4"])
    assert results["ok"] is True and results["violations"] == []
    # depth 0 estimates c0 on the depth-1 point table, not on an empty one
    _, results = invoke(["verify-bounds", "--p-list", "2,3", "--e-max", "0",
                         "--r-max", "0"])
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
    # a prime bound below 2 leaves a product over no fibers
    assert main(["multi-fiber", "--d", "4", "--B", "100", "--prime-bound", "1",
                 "--r", "2", "--samples", "200"]) == EXIT_CONFIG
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
    # ... also with an exponent past float range, whose digit count
    # x * log10(p) would overflow
    assert main(["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "3",
                 "--r", "2000"]) == EXIT_BUDGET
    assert main(["multi-fiber", "--d", "2", "--B", "100", "--prime-bound", "7",
                 "--r", "2000", "--samples", "10"]) == EXIT_BUDGET
    assert main(["equidist", "--h", str(10 ** 400), "--B", "100",
                 "--N", "3"]) == EXIT_BUDGET
    # the elliptic curve mod 2 is singular at [1:1:1]: classify refuses a
    # section through it, but reports a section off it, because the value
    # test runs before the smoothness test
    elliptic = str(SCHEMES / "elliptic_a1_b1.json")
    capsys.readouterr()
    assert main(["classify", "--scheme", elliptic, "--p", "2", "--section", "X+Y",
                 "--point", "1:1:1"]) == EXIT_CONFIG
    assert "fiber is singular at (1, 1, 1); smoothness test refused" in \
        capsys.readouterr().err
    assert main(["classify", "--scheme", elliptic, "--p", "2", "--section", "X",
                 "--point", "1:1:1", "--output", str(out)]) == EXIT_OK
    results = json.loads(out.read_text())["results"]
    assert results["arithmetic"] == results["fiber"] == "NotOnDivisor"
    # bsw checks no prime below 2, so T < 2 leaves no reference
    for T in ("0", "-5", "1"):
        assert main(["bsw", "--d", "3", "--R", "10", "--T", T,
                     "--samples", "10"]) == EXIT_CONFIG
    # ... and samples no polynomial from a height ball of radius R < 1
    capsys.readouterr()
    for R in ("0", "-1"):
        assert main(["bsw", "--d", "3", "--R", R, "--T", "100",
                     "--samples", "10"]) == EXIT_CONFIG
        assert "need a height bound R >= 1" in capsys.readouterr().err
    # verify-bounds certifies primes only
    for p_list in ("6", "4,1", ""):
        assert main(["verify-bounds", f"--p-list={p_list}", "--e-max", "2",
                     "--r-max", "2", "--dims", "1"]) == EXIT_CONFIG
    # ... at nonnegative depths
    for e_max, r_max in (("-2", "-2"), ("-1", "2"), ("2", "-1")):
        assert main(["verify-bounds", "--p-list", "2", "--e-max", e_max,
                     "--r-max", r_max]) == EXIT_CONFIG
    # a negative degree on P^1 (the gcd path) as on P^2
    for n in ("1", "2"):
        assert main(["multi-fiber", "--n", n, "--d", "-1", "--B", "10",
                     "--prime-bound", "3", "--r", "2", "--samples", "100"]) == EXIT_CONFIG
    capsys.readouterr()


def test_census_budget_refusal_is_short(scheme_files, capsys):
    """An exhaustive census past the budget exits 3 with a short message:
    the count 9^2500001 is named, never formed or printed (its 2.4 million
    digits would pass the int-to-string limit)."""
    capsys.readouterr()
    for d in ("2000", "2500000"):
        assert main(["fiber-density", "--scheme", scheme_files["p1"], "--p", "3",
                     "--d", d, "--r", "1"]) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err == (f"budget exceeded: 9^{int(d) + 1} sections exceed "
                       "the exhaustive budget\n")
        assert len(err.encode()) < 200


def test_deep_projective_truncation_refused_before_its_table(scheme_files, monkeypatch,
                                                           capsys):
    """A truncation of P^n whose denominator, at least s p^(rn) powers of p,
    passes the digit cap is refused from p, s and r before any point
    table exists, with a message that names them and not the exponent
    (at r = 60000 that has 18,000 digits).  An s <= m or a negative r is
    refused the same way, as the truncation's configuration error, on
    every fiber."""
    def refuse(*args):
        raise AssertionError("a point table was built")
    monkeypatch.setattr(SchemeFiber, "point_table", refuse)
    capsys.readouterr()
    for name, s, r, head in (("p1", 1, 60000, "s = 1 is outside the convergence region"),
                             ("p2", 2, 30000, "s = 2 is outside the convergence region"),
                             ("conic", 1, 60000, "s = 1 is outside the convergence region"),
                             ("p1", 3, -1, "need r >= 0"),
                             ("p2", 4, -1, "need r >= 0")):
        assert main(["zeta", "--scheme", scheme_files[name], "--p", "2", "--s", str(s),
                     "--r", str(r)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {head}")
    for argv, head in ((["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "3",
                         "--r", "60000"], "p = 2, s = 3, r = 60000"),
                       (["multi-fiber", "--d", "8", "--B", "10000", "--prime-bound", "7",
                         "--r", "20000", "--samples", "100"], "p = 2, s = 3, r = 20000")):
        assert main(argv) == EXIT_BUDGET
        err = capsys.readouterr().err
        assert err == (f"budget exceeded: the truncation at {head} has a "
                       f"denominator of more than {zetas.DIGIT_CAP} digits\n")
        assert len(err) < 300


@pytest.mark.parametrize("n", [1, 2, 3])
def test_projective_truncation_check_refuses_only_what_the_cap_refuses(n):
    """Wherever ``check_truncation`` refuses, the exact exponent of the
    truncation passes the digit cap too, so no accepted report changes;
    at r = 0 and on a fiber with forms it passes, and s <= m is the
    truncation's ValueError at any depth."""
    scheme = scheme_from_dict({"n": n, "m": n})
    refused = 0
    for p in (2, 3, 5, 7):
        fiber = scheme.fiber(p)
        for s in (n + 1, n + 2):
            fiber.check_truncation(s, 0)
            for r in range(1, 30):
                try:
                    fiber.check_truncation(s, r)
                except zetas.BudgetExceeded:
                    refused += 1
                    table = projective_counts(p, n, r)
                    x = zetas.truncation_exponent(zetas.closed_point_counts(table), s, r)
                    with pytest.raises(zetas.BudgetExceeded):
                        zetas._check_digits([(p, x)])
                    break
        with pytest.raises(ValueError, match="outside the convergence region"):
            fiber.check_truncation(n, 10 ** 9)
    assert refused == 8
    load_scheme(SCHEMES / "conic_f2.json").fiber(3).check_truncation(3, 10 ** 9)


def test_unwritable_output_is_a_config_error(scheme_files, tmp_path, capsys):
    """--output into a missing directory or onto a directory exits 2 with
    one error line, no traceback."""
    argv = ["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "3", "--r", "2"]
    capsys.readouterr()
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        assert main(argv + ["--output", str(target)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the report: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_digit_cap_is_checked_before_computing(scheme_files, capsys):
    """Long integers are printed through decimal, which ignores
    sys.set_int_max_str_digits: the DIGIT_CAP check inside
    local_zeta_inverse is the only guard on report size."""
    assert main(["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "3",
                 "--r", "21"]) == EXIT_BUDGET
    assert "2000000 digits" in capsys.readouterr().err
    # r = 20 (about 1.89e6 digits) passes the guard
    a = zetas.closed_point_counts(projective_counts(2, 1, 20))
    zetas._check_digits([(2, zetas.truncation_exponent(a, 3, 20))])


def test_multi_fiber_digit_cap(monkeypatch, capsys):
    """multi-fiber refuses, before any local product or bound, a reference
    whose denominator prod_p p^E_p has DIGIT_CAP digits or more."""
    def refuse(*args):
        raise AssertionError("a product or bound was computed")
    for name in ("_product_value", "_decimal_digits", "c0_estimate"):
        monkeypatch.setattr(zetas, name, refuse)
    assert main(["multi-fiber", "--d", "8", "--B", "10000", "--prime-bound", "7",
                 "--r", "7", "--samples", "100"]) == EXIT_BUDGET
    assert "2000000 digits" in capsys.readouterr().err
    monkeypatch.undo()
    # r = 6 (about 0.39e6 digits) still runs; s = 3 on P^1
    tables = {p: projective_counts(p, 1, 6) for p in (2, 3, 5, 7)}
    assert zetas.global_zeta_inverse(tables, 3, 7, 6, 1).value > 0


def test_bsw_digit_cap(monkeypatch, capsys):
    """bsw builds its reference, prod_{p <= T} (1 - p^-2), before the first
    sample, so a T whose denominator prod p^2 passes the digit cap exits 3
    without drawing one: at a cap of 1,000 digits T = 2000 (about 1,700
    digits) is refused and T = 1000 (about 830) runs."""
    drawn = []

    def spy(*args):
        drawn.append(args)
        return height_ball(*args)

    height_ball = sampling.uniform_height_ball
    monkeypatch.setattr(sampling, "uniform_height_ball", spy)
    monkeypatch.setattr(zetas, "DIGIT_CAP", 1000)
    bsw = ["bsw", "--d", "3", "--R", "10", "--samples", "10"]
    assert main(bsw + ["--T", "2000"]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "1000 digits" in err and not drawn
    # the message names a few of the 303 prime powers, not all of them
    assert "2^2 * 3^2 * 5^2 * 7^2 * ... (298 more) * 1999^2 " in err
    assert main(bsw + ["--T", "1000"]) == EXIT_OK
    assert drawn


def test_error_bound_digit_cap(monkeypatch, capsys):
    """The digit cap covers the error bound too: multi-fiber reads it, and
    refuses one whose denominator has DIGIT_CAP digits or more, before it
    draws a sample (at a cap of 1,000 digits, the bound over the primes up
    to 2000 at r = 0, whose truncation is 1); zeta at s = 10^7, r = 0,
    which exited 1 on the int-to-text limit, exits 3."""
    drawn = []
    monkeypatch.setattr(sampling, "uniform_box", lambda *args: drawn.append(args))
    with monkeypatch.context() as patch:
        patch.setattr(zetas, "DIGIT_CAP", 1000)
        assert main(["multi-fiber", "--d", "1", "--B", "10000000", "--prime-bound",
                     "2000", "--r", "0", "--samples", "10"]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "budget exceeded: the error bound's denominator 2^1 * 3^3 * 5^3 * 7^3 * "
        "... (298 more) * 1999^3 has more than 1000 digits\n")
    assert not drawn
    assert main(["zeta", "--scheme", str(SCHEMES / "p1z.json"), "--p", "2",
                 "--s", "10000000", "--r", "0"]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "budget exceeded: the error bound's denominator 2^9999998 has more "
        f"than {zetas.DIGIT_CAP} digits\n")


def test_uncovered_box_refused_before_the_sieve(monkeypatch, capsys):
    """multi-fiber names the least prime p with p^2 > 2B + 1 (2 for a
    negative B), as the first sieved prime with that property did, and
    refuses a box that does not cover the residues mod p^2 before it sieves
    up to the prime bound: --B 100 --prime-bound 10^8 exits 2 at once."""
    sieve = arithlab.primes_up_to
    expected = {B: next(p for p in sieve(100) if p * p > 2 * B + 1)
                for B in range(-3, 1200)}

    def refuse(n):
        raise AssertionError("sieved")
    monkeypatch.setattr(arithlab, "primes_up_to", refuse)
    for B, p in expected.items():
        with pytest.raises(ValueError, match=rf"^box \[-{B},{B}\] does not cover the "
                                             rf"residues mod {p}\^2$"):
            arithlab.multi_fiber_experiment(1, B, p, 1, 1, 0)
    assert expected[100] == 17 and expected[-3] == 2
    assert main(["multi-fiber", "--d", "1", "--B", "100", "--prime-bound", "100000000",
                 "--r", "1", "--samples", "1"]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "error: box [-100,100] does not cover the residues mod 17^2\n"
    monkeypatch.setattr(arithlab, "primes_up_to", sieve)
    assert arithlab.multi_fiber_experiment(1, 100, 13, 1, 1, 0).extras["primes"] == \
        [2, 3, 5, 7, 11, 13]


def test_refused_references_build_nothing_past_the_refusal(monkeypatch, capsys):
    """bsw checks the digits of its denominator prod_{p <= T} p^2 before it
    builds any point table, and multi-fiber checks each fiber as its prime
    comes: a refused reference builds no table, and no fiber past the prime
    that refuses (p = 130,337 on P^1 at s = 3, r = 1)."""
    tables, fibers = [], []
    post_init, fiber_init = PointCountTable.__post_init__, SchemeFiber.__init__

    def table_spy(self):
        tables.append(self.p)
        post_init(self)

    def fiber_spy(self, scheme, p):
        fibers.append(p)
        fiber_init(self, scheme, p)
    monkeypatch.setattr(PointCountTable, "__post_init__", table_spy)
    monkeypatch.setattr(SchemeFiber, "__init__", fiber_spy)
    with monkeypatch.context() as patch:
        patch.setattr(zetas, "DIGIT_CAP", 1000)
        assert main(["bsw", "--d", "3", "--R", "10", "--T", "2000",
                     "--samples", "1"]) == EXIT_BUDGET
    assert "... (298 more) * 1999^2 has more than 1000 digits" in capsys.readouterr().err
    assert tables == []
    assert main(["multi-fiber", "--d", "1", "--B", str(10 ** 15), "--prime-bound",
                 "200000", "--r", "1", "--samples", "1"]) == EXIT_BUDGET
    assert capsys.readouterr().err == (
        "budget exceeded: the truncation at p = 130337, s = 3, r = 1 has a "
        f"denominator of more than {zetas.DIGIT_CAP} digits\n")
    assert tables == [] and fibers == primes_up_to(130337)


def test_multi_fiber_inverts_each_table_once(monkeypatch, capsys):
    """The reference of multi-fiber inverts each prime's point table and
    estimates its c0 once: the digit guard, the local truncations and the
    tail bound share them.  bsw, which reports the bound 8/T, estimates no
    c0 at all: the bounds are formed only when read."""
    seen = {"closed_point_counts": [], "c0_estimate": []}
    for name in seen:
        def spy(table, *args, _name=name, _fn=getattr(zetas, name)):
            seen[_name].append(table.p)
            return _fn(table, *args)
        monkeypatch.setattr(zetas, name, spy)
    assert main(["multi-fiber", "--d", "8", "--B", "10000", "--prime-bound", "7",
                 "--r", "4", "--samples", "100"]) == EXIT_OK
    assert seen == {name: [2, 3, 5, 7] for name in seen}
    seen = {name: [] for name in seen}
    assert main(["bsw", "--d", "3", "--R", "10", "--T", "100", "--samples", "10"]) \
        == EXIT_OK
    capsys.readouterr()
    assert seen == {"closed_point_counts": primes_up_to(100), "c0_estimate": []}


def test_internal_failures_exit_4(scheme_files, monkeypatch, capsys):
    """A disagreement of Dedekind's criterion with the mod-p^2 classifier
    names the polynomial; a point table that no scheme has (N = (3, 4) mod
    2 gives a_2 = 1/2) is an inconsistent table.  Both exit 4."""
    from bertinilab import arithlab
    dedekind, asked = arithlab._dedekind_criterion, []

    def flipped(f, p, disc):
        asked.append(f)
        return not dedekind(f, p, disc)
    monkeypatch.setattr(arithlab, "_dedekind_criterion", flipped)
    assert main(["bsw", "--d", "3", "--R", "10", "--T", "100", "--samples", "20"]) \
        == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "internal invariant failed" in err and f"for {asked[-1]}" in err
    monkeypatch.setattr(SchemeFiber, "point_table",
                        lambda self, e_max: PointCountTable(2, (3, 4)))
    assert main(["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "2",
                 "--r", "2"]) == EXIT_INTERNAL
    assert "a_2 = 1/2" in capsys.readouterr().err


def test_depth_zero_reports_a_tail_bound(scheme_files):
    """At r = 0 the product is empty (value 1) but the tail bound is not:
    c0 comes from the depth-1 point table, where N_1 = p + 1 on P^1."""
    _, results = invoke(["zeta", "--scheme", scheme_files["p1"], "--p", "2",
                         "--s", "2", "--r", "0"])
    assert (results["value_num"], results["value_den"]) == (1, 1)
    # 4 c0 p^-(s - m) with c0 = 3/2
    assert (results["error_bound_num"], results["error_bound_den"]) == (3, 1)
    _, results = invoke(["fiber-density", "--scheme", scheme_files["p1"], "--p", "2",
                         "--d", "3", "--r", "0", "--mode", "mc", "--samples", "100"])
    assert (results["reference_num"], results["reference_den"]) == (1, 1)
    # s = 3: 4 (3/2) 2^-2
    assert (results["reference_error_num"], results["reference_error_den"]) == (3, 2)
    _, results = invoke(["multi-fiber", "--d", "3", "--B", "10", "--prime-bound", "3",
                         "--r", "0", "--samples", "100"])
    # 4 (3/2) 2^-2 + 4 (4/3) 3^-2 = 113/54
    assert (results["reference_error_num"], results["reference_error_den"]) == (113, 54)
    # the exhaustive census is exact: no reference error, at r = 0 too
    _, results = invoke(["fiber-density", "--scheme", scheme_files["p1"], "--p", "2",
                         "--d", "3", "--r", "0"])
    assert results["reference_error_num"] == 0


_CONIC = {"name": "conic", "n": 2, "m": 1,
          "defining_forms": [[[[2, 0, 0], 1], [[0, 2, 0], 1], [[0, 0, 2], 1]]]}


@pytest.mark.parametrize("changes", [
    {"n": "2"}, {"n": True}, {"m": 1.0}, {"m": None},
    {"defining_forms": {"0": []}},
    {"defining_forms": [[[[2, 0, 0], 1.5], [[0, 2, 0], 1], [[0, 0, 2], 1]]]},
    {"defining_forms": [[[[2, 0, 0], "1"], [[0, 2, 0], 1], [[0, 0, 2], 1]]]},
    {"defining_forms": [[[[2, 0, 0], True], [[0, 2, 0], 1], [[0, 0, 2], 1]]]},
    {"defining_forms": [[[[2, 0], 1], [[0, 2, 0], 1]]]},           # n exponents
    {"defining_forms": [[[[3, -1, 0], 1], [[0, 2, 0], 1]]]},       # a negative one
    {"defining_forms": [[[[2.0, 0, 0], 1], [[0, 2, 0], 1]]]},
    {"defining_forms": [[[[True, 1, 0], 1], [[0, 2, 0], 1]]]},
    {"defining_forms": [[[[2, 0, 0], 1, 0]]]},                     # not a pair
    {"defining_forms": ["X^2 + Y^2"]},
    {},                                                             # a list
])
def test_malformed_scheme_files_are_config_errors(tmp_path, capsys, changes):
    """A scheme file of the wrong types is a ValueError (exit 2), not a
    silently rounded coefficient or a crash; so is one that holds no object."""
    doc = {**_CONIC, **changes} if changes else [_CONIC]
    with pytest.raises(ValueError):
        scheme_from_dict(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for r in ("1", "2"):
        assert main(["zeta", "--scheme", str(path), "--p", "3", "--s", "3",
                     "--r", r]) == EXIT_CONFIG
    capsys.readouterr()


def test_point_schemes_and_oversized_boxes_are_config_errors(tmp_path, capsys):
    """A scheme file on P^0 loads, but a census or a classification on it
    has no monomial basis (exit 2).  A box bound of 2^62, past the int64
    sampler's range, exits 2; 2^62 - 1 runs."""
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"n": 0, "m": 0}))
    for argv in (["fiber-density", "--scheme", str(path), "--p", "3", "--d", "2",
                  "--r", "1"],
                 ["classify", "--scheme", str(path), "--p", "3", "--section", "1",
                  "--point", "1"]):
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: need n >= 1 and d >= 0\n"
    box = ["multi-fiber", "--d", "2", "--prime-bound", "7", "--r", "1",
           "--samples", "10", "--B"]
    assert main(box + [str(2 ** 62)]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        "error: box bound too large for the int64 sampler\n"
    assert main(box + [str(2 ** 62 - 1)]) == EXIT_OK
    capsys.readouterr()


def test_main_keeps_the_callers_int_digit_limit(tmp_path, monkeypatch, capsys):
    """main leaves sys.set_int_max_str_digits alone: render_report runs
    under the caller's limit, which is the same after a success and after a
    failure.  Every integer of a report prints through decimal, so a
    reference_error of about 2,500 digits prints under a limit of 640."""
    seen = []
    render = cli.render_report

    def spy(*args):
        seen.append(sys.get_int_max_str_digits())
        return render(*args)
    monkeypatch.setattr(cli, "render_report", spy)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    mf = ["multi-fiber", "--d", "1", "--B", "10000000", "--prime-bound", "2000",
          "--r", "0", "--samples", "10"]
    try:
        for fmt in ("json", "csv"):
            assert main(mf + ["--format", fmt, "--output", str(tmp_path / fmt)]) == EXIT_OK
            assert sys.get_int_max_str_digits() == 640
        assert main(mf[:-1] + ["0"]) == EXIT_CONFIG
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(old)
    assert seen == [640, 640]
    results = json.loads((tmp_path / "json").read_text(),
                         parse_int=lambda t: int(Decimal(t)))["results"]
    assert len(str(Decimal(results["reference_error_den"]))) > 640
    row = next(csv.DictReader(io.StringIO((tmp_path / "csv").read_text())))
    num, den = (int(Decimal(t)) for t in row["reference_error"].split("/"))
    assert Fraction(num, den) == Fraction(results["reference_error_num"],
                                          results["reference_error_den"])
    capsys.readouterr()


def test_long_ints_become_exact_decimals(unlimited_int_digits):
    """``cli._decimal`` prints the digits of plain str, for both signs, on
    both sides of its split and several splits past it, at powers of two
    and all-ones values."""
    rng = random.Random(7)
    split = cli._SPLIT_BITS
    values = [0, 1, 2 ** split, 2 ** split - 1, 2 ** (4 * split), 2 ** (4 * split) - 1]
    for bits in (2, split - 1, split, split + 1, 3 * split + 5, 200_000):
        values.append(rng.getrandbits(bits) | 1 << bits - 1)
    for n in values:
        for m in (n, -n):
            got = cli._decimal(m)
            assert got == int(got) and str(got) == str(m), m.bit_length()


def test_module_entry_point_under_the_strictest_int_digit_limit():
    """``python -X int_max_str_digits=640 -m bertinilab.cli multi-fiber``
    prints a reference_error whose denominator has about 2,500 digits and
    exits 0: no report relies on a lifted int-to-text limit."""
    root = Path(bertinilab.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    proc = subprocess.run(
        [sys.executable, "-X", "int_max_str_digits=640", "-m", "bertinilab.cli",
         "multi-fiber", "--d", "1", "--B", "10000000", "--prime-bound", "2000",
         "--r", "0", "--samples", "10"], env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    den = json.loads(proc.stdout, parse_int=Decimal)["results"]["reference_error_den"]
    assert len(str(den)) > 640


def _report_lines(argv, path):
    """The lines of the report of ``main(argv)`` written to path, without
    duration_s."""
    assert main(argv + ["--output", str(path)]) == EXIT_OK
    return [line for line in path.read_text().splitlines()
            if '"duration_s"' not in line]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_long_integers_render_as_plain_str(scheme_files, tmp_path, unlimited_int_digits,
                                           fmt):
    """A deep zeta truncation and the multi-fiber reference, a product over
    four primes, are printed from their factored products in decimal, with
    the digits plain str gives for their Fractions."""
    tables = {p: projective_counts(p, 1, 5) for p in (2, 3, 5, 7)}
    cases = [   # 117,842 and 56,639 digits
        (["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "3", "--r", "16"],
         "value", local_zeta_inverse(projective_counts(2, 1, 16), 3, 16, 1).value),
        (["multi-fiber", "--d", "8", "--B", "10000", "--prime-bound", "7", "--r", "5",
          "--samples", "10"],
         "reference", zetas.global_zeta_inverse(tables, 3, 7, 5, 1).value),
    ]
    text = tmp_path / "report"
    for argv, key, value in cases:
        assert main(argv + ["--format", fmt, "--output", str(text)]) == EXIT_OK
        num, den = str(value.numerator), str(value.denominator)
        if fmt == "json":
            results = json.loads(text.read_text(), parse_int=str)["results"]
            assert (results[key + "_num"], results[key + "_den"]) == (num, den)
        else:
            old_limit = csv.field_size_limit(len(num) + len(den) + 1)
            try:
                (row,) = csv.DictReader(io.StringIO(text.read_text()))
            finally:
                csv.field_size_limit(old_limit)
            assert row[key] == f"{num}/{den}"


def test_zeta_never_forms_the_int_product(scheme_files, tmp_path, monkeypatch):
    """bertini zeta prints its truncation from the factored product: with
    ZetaTruncation.value refusing, --r 16 still exits 0 with the same
    digits."""
    argv = ["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "3", "--r", "16"]
    before = _report_lines(argv, tmp_path / "before")

    def refuse(self):
        raise RuntimeError("the int product was formed")
    monkeypatch.setattr(zetas.ZetaTruncation, "value", property(refuse))
    assert _report_lines(argv, tmp_path / "after") == before


@pytest.mark.parametrize("argv", [
    ["multi-fiber", "--d", "8", "--B", "10000", "--prime-bound", "7", "--r", "5",
     "--samples", "10"],
    ["multi-fiber", "--n", "2", "--d", "2", "--B", "100", "--prime-bound", "7",
     "--r", "2", "--samples", "100"],
    ["fiber-density", "--scheme", "conic", "--p", "3", "--d", "2", "--r", "4",
     "--mode", "mc", "--samples", "100"],
], ids=["multi-fiber", "multi-fiber-n2", "fiber-density-mc"])
def test_references_never_form_the_int_product(scheme_files, tmp_path, monkeypatch,
                                               argv):
    """Density reports print their truncation references from the factored
    products too: with the value of every truncation, over one prime or
    many, refusing, each command still exits 0 with the same report."""
    argv = [scheme_files.get(a, a) for a in argv]
    before = _report_lines(argv, tmp_path / "before")

    def refuse(self):
        raise RuntimeError("the int product was formed")
    monkeypatch.setattr(zetas.ZetaTruncation, "value", property(refuse))
    assert _report_lines(argv, tmp_path / "after") == before


def test_equidist_long_counts_print_as_plain_str(tmp_path, unlimited_int_digits):
    """Class counts 2^h and 3^h at h = 100,000, and their ratio, print as
    plain str gives the audit's integers."""
    aud = equidistribution_audit(100_000, 4, 4)          # 2B + 1 = 9 = 2 * 4 + 1
    assert (aud.min_count, aud.max_count) == (2 ** 100_000, 3 ** 100_000)
    low, high = str(aud.min_count), str(aud.max_count)
    out = tmp_path / "equidist.json"
    assert main(["equidist", "--h", "100000", "--B", "4", "--N", "4",
                 "--output", str(out)]) == EXIT_OK
    results = json.loads(out.read_text(), parse_int=str)["results"]
    assert (results["min_count"], results["max_count"], results["ratio"]) == \
        (low, high, f"{high}/{low}")


def test_csv_format(scheme_files, capsys):
    assert main(["zeta", "--scheme", scheme_files["p1"], "--p", "2", "--s", "2",
                 "--r", "2", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    header = lines[0].split(",")
    row = dict(zip(header, lines[1].split(",")))
    assert row["value"] == "405/1024"
    assert row["a_e"] == "3;1"


@pytest.mark.parametrize("argv, key", [
    (["fiber-density", "--scheme", "p1", "--p", "2", "--d", "3", "--r", "1"],
     "certificate"),
    (["multi-fiber", "--d", "4", "--B", "10", "--prime-bound", "3", "--r", "1",
      "--samples", "100"], "singular_by_prime"),
])
def test_csv_dict_cells(scheme_files, capsys, argv, key):
    """A dict of the results is one CSV cell of JSON, which parses back to
    the dict of the JSON report."""
    argv = [scheme_files.get(a, a) for a in argv]
    assert main(argv) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "csv"]) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 1
    assert isinstance(report["results"][key], dict)
    assert json.loads(rows[0][key]) == report["results"][key]


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK


def test_module_entry_point_and_console_script():
    """``python -m bertinilab.cli --version`` prints the version and exits
    0, and the ``bertini`` script of pyproject.toml names cli.main."""
    root = Path(bertinilab.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run([sys.executable, "-m", "bertinilab.cli", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout.strip()) == (0, bertinilab.__version__), \
        proc.stderr
    with open(root / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["bertini"]
    module, name = target.split(":")
    assert getattr(import_module(module), name) is main


def test_refusals_of_points_off_the_scheme_and_malformed_schemes(scheme_files, tmp_path,
                                                                 capsys):
    """Exit 2 with the module's message: a point off the scheme, a declared
    dimension m > n, and a defining form that is not homogeneous."""
    assert main(["classify", "--scheme", scheme_files["conic"], "--p", "3",
                 "--section", "X", "--point", "1:0:0"]) == EXIT_CONFIG
    assert "does not lie on" in capsys.readouterr().err
    for changes, message in (({"m": 3}, "need 0 <= m <= n"),
                             ({"defining_forms": [[[[2, 0, 0], 1], [[0, 1, 0], 1]]]},
                              "must be homogeneous")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**_CONIC, **changes}))
        assert main(["zeta", "--scheme", str(path), "--p", "3", "--s", "3",
                     "--r", "1"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("section, verdict", [
    ("7", ("RegularPoint", "SingularPoint", True)),
    ("0", ("SingularPoint", "SingularPoint", False)),
    ("49", ("SingularPoint", "SingularPoint", False)),
    ("3", ("NotOnDivisor", "NotOnDivisor", False))])
def test_classify_degree_zero_sections(scheme_files, section, verdict):
    """A constant c on P^1 mod 7 at [1:0]: off the divisor unless 7 | c, and
    then singular on the fiber (its partials are 0) and arithmetically
    regular exactly when 49 does not divide c, the rescue.  The census of a
    degree-0 classifier at that point reads the same on the row (c)."""
    _, results = invoke(["classify", "--scheme", scheme_files["p1"], "--p", "7",
                         "--section", section, "--point", "1:0"])
    assert (results["arithmetic"], results["fiber"], results["rescued"]) == verdict
    fib = load_scheme(scheme_files["p1"]).fiber(7)
    cls = FiberClassifier(fib, 0, [rational_closed_point(fib, (1, 0))])
    any_arith, any_fiber, rescued = cls.census(np.array([[int(section) % 49]]))
    assert (any_arith[0], any_fiber[0], rescued == 1) == (
        verdict[0] == "SingularPoint", verdict[1] == "SingularPoint", verdict[2])


def test_verify_bounds_reports_violations(monkeypatch, capsys):
    """With c0 = 0 every bound of the audit is 0 and fails: the report lists
    violations of boundXp, zetafinite and zetaintegral with ok false, and
    verify-bounds still exits 0, since violations are report content."""
    monkeypatch.setattr(zetas, "c0_estimate", lambda table, k: Fraction(0))
    report = zetas.verify_section_bounds([2, 3], 2, 2, (1,))
    assert report.ok is False
    assert {v["check"] for v in report.violations} == {"boundXp", "zetafinite",
                                                        "zetaintegral"}
    assert main(["verify-bounds", "--p-list", "2,3", "--e-max", "2", "--r-max", "2",
                 "--dims", "1"]) == EXIT_OK
    assert '"ok": false' in capsys.readouterr().out
