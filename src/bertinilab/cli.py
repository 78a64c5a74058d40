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
from .fiberlab import (REGULAR, classify_point_detail, fiber_density_exhaustive,
                       fiber_density_mc)
from .projgeom import (SINGULAR, load_scheme, parse_form, parse_point,
                       rational_closed_point)
from .zetas import (BudgetExceeded, InconsistentTable, exact_context,
                    local_zeta_inverse, verify_section_bounds)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

# default zeta truncation: the deepest r with p^(r max(m, 1)) below this
# cap (about this many points at the top degree) whose point table the
# fiber's scan check admits.  Deeper truncations (pass --r) are exact
# rationals with very long integers.
DEFAULT_DEPTH_CAP = 1 << 12


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
        return load_scheme(path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read scheme file {path}: {exc}") from exc


def _default_depth(fiber) -> int:
    """The depth of ``bertini zeta`` without --r (see DEFAULT_DEPTH_CAP); at least 1."""
    r = 1
    while (fiber.p ** ((r + 1) * max(fiber.m, 1)) <= DEFAULT_DEPTH_CAP
           and fiber.table_fits(r + 1)):
        r += 1
    return r


def _config_echo(args) -> dict:
    skip = {"subcommand", "output", "format"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def run(args):
    """The results of the subcommand as exact values: a dict or an object
    with ``as_report``, holding Fractions and zeta truncations that
    ``render_report`` prints."""
    sub = args.subcommand
    if sub == "zeta":
        scheme = _load(args.scheme)
        fiber = scheme.fiber(args.p)
        r = args.r if args.r is not None else _default_depth(fiber)
        fiber.check_truncation(args.s, r)
        if fiber.forms:
            fiber.validate_smooth(r)        # a bad prime is a ValueError
        t = local_zeta_inverse(fiber.point_table(r), args.s, r, fiber.m)
        return {"p": fiber.p, "s": args.s, "r": r, "value": t,
                "error_bound": t.error_bound, "a_e": list(t.a[0])}
    if sub == "fiber-density":
        scheme = _load(args.scheme)
        if args.mode == "exhaustive":
            return fiber_density_exhaustive(scheme, args.p, args.d, args.r,
                                            count=args.count)
        return fiber_density_mc(scheme, args.p, args.d, args.r,
                                args.samples, args.seed, count=args.count)
    if sub == "multi-fiber":
        return multi_fiber_experiment(args.d, args.B, args.prime_bound, args.r,
                                      args.samples, args.seed, n=args.n,
                                      classification=args.classification)
    if sub == "bsw":
        return bsw_experiment(args.d, args.R, args.T, args.samples, args.seed,
                              fiber_cap=args.fiber_cap)
    if sub == "classify":
        scheme = _load(args.scheme)
        fiber = scheme.fiber(args.p)
        section = parse_form(args.section, scheme.n)
        x = rational_closed_point(fiber, parse_point(args.point, scheme.n))
        arith, fib = classify_point_detail(section, x, fiber)
        return {"p": args.p, "point": list(x.rep), "section": args.section,
                "arithmetic": arith, "fiber": fib,
                "rescued": fib == SINGULAR and arith == REGULAR}
    if sub == "verify-bounds":
        return verify_section_bounds(args.p_list, args.e_max, args.r_max,
                                     fiber_dims=tuple(args.dims))
    if sub == "equidist":
        return equidistribution_audit(args.h, args.B, args.N)
    raise ConfigError(f"unknown subcommand {sub!r}")   # pragma: no cover


# json.dumps writes the placeholder of _printed, a NUL and then i, as this
_PLACEHOLDER = re.compile(r'"\\u0000(\d+)"')

# past this many bits an int becomes a Decimal by halves (``_decimal``)
_SPLIT_BITS = 1 << 12


def _decimal(n: int) -> decimal.Decimal:
    """n as an exact integral Decimal.  Decimal(n) is quadratic in the
    digits of n, so past ``_SPLIT_BITS`` bits n is split as hi * 2^k + lo,
    k the largest power of two below its bit length, and each half is
    converted the same way: the work goes to libmpdec's subquadratic
    products, and each power 2^k is formed once."""
    powers = {}

    def convert(n):
        bits = n.bit_length()
        if bits <= _SPLIT_BITS:
            return decimal.Decimal(n)
        k = 1 << (bits - 1).bit_length() - 1
        if k not in powers:
            powers[k] = decimal.Decimal(2) ** k
        return convert(n >> k) * powers[k] + convert(n & (1 << k) - 1)

    with decimal.localcontext(exact_context()):
        return convert(n) if n >= 0 else -convert(-n)


def _printed(value, texts: list | None):
    """``value``, a result of ``run``, in printable form: the one place that
    prints exact values.  An object with ``as_report`` is replaced by its
    report.  Under a key k, a Fraction, or anything with
    ``decimal_digits()`` (a zeta truncation, printed from its factors),
    becomes the keys k_num and k_den for JSON, and the text n/d under k for
    CSV (``texts`` None), both parts as exact integral Decimals (a
    Fraction's through ``_decimal``), whose str ignores
    sys.set_int_max_str_digits.  For JSON, each Decimal (which
    json cannot serialize) becomes a placeholder string, a NUL and then i,
    where texts[i] (appended here) is its str."""
    if hasattr(value, "as_report"):
        value = value.as_report()
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            pair = (tuple(map(_decimal, v.as_integer_ratio())) if isinstance(v, Fraction)
                    else v.decimal_digits() if hasattr(v, "decimal_digits") else None)
            if pair is None:
                out[k] = _printed(v, texts)
            elif texts is None:
                out[k] = "{}/{}".format(*pair)
            else:
                out[f"{k}_num"], out[f"{k}_den"] = (_printed(x, texts) for x in pair)
        return out
    if isinstance(value, (list, tuple)):
        return [_printed(v, texts) for v in value]
    if texts is not None and isinstance(value, decimal.Decimal):
        texts.append(str(value))
        return f"\0{len(texts) - 1}"
    return value


def _csv_payload(results: dict) -> str:
    """One CSV row of the printed results: nested dicts as JSON, lists
    joined by semicolons."""
    flat = {}
    for key, value in results.items():
        if isinstance(value, dict):
            flat[key] = json.dumps(value, sort_keys=True)
        elif isinstance(value, list):
            flat[key] = ";".join(str(v) for v in value)
        else:
            flat[key] = value
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=sorted(flat))
    writer.writeheader()
    writer.writerow(flat)
    return buf.getvalue()


def render_report(args, results, duration: float) -> str:
    """The report text that ``main`` writes, in the chosen format."""
    if args.format == "csv":
        return _csv_payload(_printed(results, None))
    texts = []
    report = {
        "tool": "bertinilab",
        "version": __version__,
        "subcommand": args.subcommand,
        "config": _config_echo(args),
        "prng": sampling.PRNG_NAME,
        "results": _printed(results, texts),
        "duration_s": round(duration, 3),
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    return _PLACEHOLDER.sub(lambda m: texts[int(m.group(1))], text)


def _signed_values_joined(argv) -> list:
    """argv with ``--section V`` and ``--point V`` spelled ``--section=V``
    and ``--point=V`` where V starts with a minus sign (a negative leading
    coefficient or coordinate), which argparse would read as an option;
    also after ``--se``/``--po`` and the longer abbreviations argparse
    resolves to them (``--s`` is ambiguous, ``--p`` is the prime)."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if (len(flag) >= 4 and ("--section".startswith(flag) or "--point".startswith(flag))
                and arg.startswith("-") and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_signed_values_joined(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config status
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
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
    full = render_report(args, results, time.monotonic() - start)
    if not args.output:
        print(full)
        return EXIT_OK
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(full if full.endswith("\n") else full + "\n")
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":       # pragma: no cover
    sys.exit(main())
