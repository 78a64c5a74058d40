"""Command-line front end: experiment orchestration, seeded reproducibility,
JSON/CSV report emission.

Exit status taxonomy: 0 success, 2 configuration error (bad flags,
unreadable scheme file, parameter outside a module precondition),
3 enumeration budget exceeded, 4 internal invariant failure.  Reports
echo the configuration and the seed; two runs with identical
configuration and seed produce byte-identical ``results`` payloads
(wall-clock duration lives outside the payload).
"""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import json
import re
import sys
import time
from fractions import Fraction

from . import __version__, sampling
from .arithlab import (InternalCheckError, bsw_experiment,
                       equidistribution_audit, multi_fiber_experiment)
from .fiberlab import (DIGIT_CAP, SectionModP2, check_digits, classify_point_detail,
                       fiber_density_exhaustive, fiber_density_mc)
from .projgeom import (BudgetExceeded, load_scheme, parse_form, parse_point,
                       rational_closed_point)
from .zetas import InconsistentTable, local_zeta_inverse, verify_section_bounds

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# default zeta truncation: the deepest r with p^(r max(m, 1)) below this
# cap (about this many points at the top degree) whose point table the
# fiber's scan check admits.  Deeper truncations (pass --r) are exact
# rationals with very long integers.
DEFAULT_DEPTH_CAP = 1 << 12
# integers longer than this are printed through decimal (_int_text), up to
# fiberlab.DIGIT_CAP digits
LONG_INT_BITS = 1 << 15
# _int_text converts pieces of at most this many bits with plain Decimal(n)
_LEAF_BITS = 3000


class ConfigError(Exception):
    pass


def _int_list(text):
    return [int(s) for s in text.split(",") if s.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bertini",
        description="Desk-scale experiments on densities of sections with "
                    "regular divisor, with exact zeta references.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the report to this path")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for orchestration; results never depend on it")

    z = sub.add_parser("zeta", parents=[common],
                       help="truncated local inverse zeta value of one fiber")
    z.add_argument("--scheme", required=True)
    z.add_argument("--p", type=int, required=True)
    z.add_argument("--s", type=int, required=True)
    z.add_argument("--r", type=int, default=None)

    fd = sub.add_parser("fiber-density", parents=[common],
                        help="density of sections mod p^2 with no singular point")
    fd.add_argument("--scheme", required=True)
    fd.add_argument("--p", type=int, required=True)
    fd.add_argument("--d", type=int, required=True)
    fd.add_argument("--r", type=int, required=True)
    fd.add_argument("--mode", choices=("exhaustive", "mc"), default="exhaustive")
    fd.add_argument("--samples", type=int, default=10000)
    fd.add_argument("--seed", type=int, default=0)
    fd.add_argument("--count", choices=("arithmetic", "fiber"), default="arithmetic")

    mf = sub.add_parser("multi-fiber", parents=[common],
                        help="integer sections classified on every fiber p <= bound")
    mf.add_argument("--n", type=int, default=1)
    mf.add_argument("--d", type=int, required=True)
    mf.add_argument("--B", type=int, required=True)
    mf.add_argument("--prime-bound", type=int, required=True)
    mf.add_argument("--r", type=int, required=True)
    mf.add_argument("--samples", type=int, required=True)
    mf.add_argument("--seed", type=int, default=0)
    mf.add_argument("--classification", choices=("arithmetic", "fiber"),
                    default="arithmetic")

    bw = sub.add_parser("bsw", parents=[common],
                        help="density of maximal orders among monic polynomials")
    bw.add_argument("--d", type=int, required=True)
    bw.add_argument("--R", type=int, required=True)
    bw.add_argument("--T", type=int, required=True)
    bw.add_argument("--samples", type=int, required=True)
    bw.add_argument("--seed", type=int, default=0)
    bw.add_argument("--fiber-cap", type=int, default=7)

    cl = sub.add_parser("classify", parents=[common],
                        help="classify one section at one rational point")
    cl.add_argument("--scheme", required=True)
    cl.add_argument("--p", type=int, required=True)
    cl.add_argument("--section", required=True)
    cl.add_argument("--point", required=True)

    vb = sub.add_parser("verify-bounds", parents=[common],
                        help="audit the convergence inequalities on a grid")
    vb.add_argument("--p-list", type=_int_list, default=[2, 3, 5, 7, 11])
    vb.add_argument("--e-max", type=int, default=10)
    vb.add_argument("--r-max", type=int, default=10)
    vb.add_argument("--dims", type=_int_list, default=[1, 2])

    eq = sub.add_parser("equidist", parents=[common],
                        help="exact residue-class counts of a coefficient box")
    eq.add_argument("--h", type=int, required=True)
    eq.add_argument("--B", type=int, required=True)
    eq.add_argument("--N", type=int, required=True)

    return parser


def _load(path):
    try:
        return load_scheme(path)[0]
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scheme file {path}: {exc}") from exc


def _default_depth(fiber) -> int:
    """The depth of ``bertini zeta`` without --r (see DEFAULT_DEPTH_CAP); at least 1."""
    r = 1
    while (fiber.p ** ((r + 1) * max(fiber.m, 1)) <= DEFAULT_DEPTH_CAP
           and fiber.table_fits(r + 1)):
        r += 1
    return r


def _check_digits(table, s: int, r: int):
    """Refuse a truncation whose denominator p^(sum s e a_e) passes DIGIT_CAP."""
    check_digits([table], s, r)


def _config_echo(args) -> dict:
    skip = {"subcommand", "output", "format"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def run(args) -> dict:
    sub = args.subcommand
    if sub == "zeta":
        scheme = _load(args.scheme)
        fiber = scheme.fiber(args.p)
        r = args.r if args.r is not None else _default_depth(fiber)
        table = fiber.point_table(r)
        _check_digits(table, args.s, r)
        trunc = local_zeta_inverse(table, args.s, r, fiber.m)
        return trunc.as_report()
    if sub == "fiber-density":
        scheme = _load(args.scheme)
        if args.mode == "exhaustive":
            est = fiber_density_exhaustive(scheme, args.p, args.d, args.r,
                                           count=args.count)
        else:
            est = fiber_density_mc(scheme, args.p, args.d, args.r,
                                   args.samples, args.seed, count=args.count)
        return est.as_report()
    if sub == "multi-fiber":
        est = multi_fiber_experiment(args.d, args.B, args.prime_bound, args.r,
                                     args.samples, args.seed, n=args.n,
                                     classification=args.classification)
        return est.as_report()
    if sub == "bsw":
        est = bsw_experiment(args.d, args.R, args.T, args.samples, args.seed,
                             fiber_cap=args.fiber_cap)
        return est.as_report()
    if sub == "classify":
        scheme = _load(args.scheme)
        fiber = scheme.fiber(args.p)
        section = SectionModP2(
            parse_form(args.section, scheme.n, modulus=args.p ** 2), args.p)
        coords = parse_point(args.point, scheme.n)
        x = rational_closed_point(fiber, coords)
        arith, fib = classify_point_detail(section, x, fiber)
        return {"p": args.p, "point": list(x.rep), "section": args.section,
                "arithmetic": arith, "fiber": fib,
                "rescued": fib == "SingularPoint" and arith == "RegularPoint"}
    if sub == "verify-bounds":
        rep = verify_section_bounds(args.p_list, args.e_max, args.r_max,
                                    fiber_dims=tuple(args.dims))
        return rep.as_report()
    if sub == "equidist":
        return equidistribution_audit(args.h, args.B, args.N).as_report()
    raise ConfigError(f"unknown subcommand {sub!r}")   # pragma: no cover


def _int_text(n: int) -> str:
    """``str(n)`` in subquadratic time.

    Python 3.11's ``int.__str__`` is quadratic, libmpdec's multiplication
    is not.  This is the method of CPython 3.12's
    ``_pylong.int_to_decimal_string``: split |n| by bit length into pieces
    of at most _LEAF_BITS bits, convert each with ``Decimal`` and rebuild
    hi * 2^w + lo exactly (Inexact is trapped), with the powers of 2
    cached for the call.
    """
    pow2 = {}

    def two_to(w):
        if w not in pow2:
            half = w >> 1
            pow2[w] = (decimal.Decimal(1 << w) if w <= _LEAF_BITS
                       else two_to(half) * two_to(w - half))
        return pow2[w]

    def convert(m, w):
        if w <= _LEAF_BITS:
            return decimal.Decimal(m)
        half = w >> 1
        hi = m >> half
        return convert(hi, w - half) * two_to(half) + convert(m - (hi << half), half)

    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(n), abs(n).bit_length()))
    return "-" + digits if n < 0 else digits


def _csv_payload(results: dict) -> str:
    flat = {}
    for key, value in results.items():
        if isinstance(value, Fraction):
            flat[key] = f"{_int_text(value.numerator)}/{_int_text(value.denominator)}"
        elif isinstance(value, dict):
            flat[key] = json.dumps(value, sort_keys=True)
        elif isinstance(value, list):
            flat[key] = ";".join(str(v) for v in value)
        else:
            flat[key] = value
    num_den = [k[:-4] for k in list(flat) if k.endswith("_num")]
    for stem in num_den:
        if f"{stem}_den" in flat:
            num, den = flat.pop(stem + "_num"), flat.pop(stem + "_den")
            flat[stem] = f"{_int_text(num)}/{_int_text(den)}"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=sorted(flat))
    writer.writeheader()
    writer.writerow(flat)
    return buf.getvalue()


# json.dumps writes the placeholder of _spliced, a NUL and then i, as this
_PLACEHOLDER = re.compile(r'"\\u0000(\d+)"')


def _spliced(value, texts: list):
    """``value`` ready for json.dumps: each Fraction becomes {"num", "den"}
    and each integer longer than LONG_INT_BITS a placeholder string, a NUL
    and then i, where texts[i] (appended here) is its decimal text."""
    if isinstance(value, Fraction):
        value = {"num": value.numerator, "den": value.denominator}
    if isinstance(value, dict):
        return {k: _spliced(v, texts) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_spliced(v, texts) for v in value]
    if type(value) is int and value.bit_length() > LONG_INT_BITS:
        texts.append(_int_text(value))
        return f"\0{len(texts) - 1}"
    return value


def render_report(args, results: dict, duration: float) -> str:
    """The report text that ``main`` writes, in the chosen format."""
    if args.format == "csv":
        return _csv_payload(results)
    texts = []
    report = {
        "tool": "bertinilab",
        "version": __version__,
        "subcommand": args.subcommand,
        "config": _config_echo(args),
        "prng": sampling.PRNG_NAME,
        "results": _spliced(results, texts),
        "duration_s": round(duration, 3),
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    return _PLACEHOLDER.sub(lambda m: texts[int(m.group(1))], text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config status
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    # deep exact truncations are long, and json prints those below
    # LONG_INT_BITS: the raised limit holds for run, render and write
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DIGIT_CAP)
    start = time.monotonic()
    try:
        results = run(args)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InternalCheckError, InconsistentTable) as exc:
        print(f"internal invariant failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    else:
        full = render_report(args, results, time.monotonic() - start)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(full)
                if not full.endswith("\n"):
                    fh.write("\n")
        else:
            print(full)
        return EXIT_OK
    finally:
        sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":       # pragma: no cover
    sys.exit(main())
