"""Command-line front end.

Subcommands:

* ``verify``   -- run a verification suite on one algebra, emit a report;
* ``critical`` -- print the two critical twist values;
* ``moyal``    -- emit the quantization-lab tables (components, pairing);
* ``show``     -- print one operator in the canonical text format;
* ``algebras`` -- list the built-in algebra selectors.

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or
configuration error.  ``verify --seed`` only places failure witnesses.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from . import jordan, moyal, rep, verify
from .ring import EXPONENT_LIMIT, ParseError, RingError, _parse_fraction

RANK_LIMITS = {"sym": 4, "full": 4, "spin": 8}

# argparse's own pattern for a negative number takes integers and decimals
# only, so "--lam -1/2" would read "-1/2" as an unknown option
_NEGATIVE_NUMBER = re.compile(r"^-\d+(?:/\d+)?$|^-\d*\.\d+$")

USAGE_ERROR = 2
CHECK_FAILURE = 1


class UsageError(Exception):
    pass


def _load_algebra(selector: str, force: bool = False) -> jordan.JordanAlgebra:
    try:
        kind, size = jordan.parse_selector(selector)
        if size > RANK_LIMITS[kind] and not force:
            raise UsageError(
                f"{selector} exceeds the desk-scale limit {kind}:{RANK_LIMITS[kind]}; pass --force to override")
        return jordan.from_selector(selector)
    except ValueError as exc:
        raise UsageError(str(exc))


def _parse_twist(text: str) -> Fraction:
    try:
        return _parse_fraction(text)
    except ParseError:
        raise UsageError(f"bad twist value {text!r}; expected a rational like 5/7")


def _emit(text: str, output: str | None, mode: str = "w") -> None:
    if output is not None:
        try:
            with open(output, mode, encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write --output {output!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    J = _load_algebra(args.algebra, args.force)
    lam = _parse_twist(args.lam) if args.lam is not None else rep.GENERIC_TWIST
    try:
        # the module is stable at l0, so module-stability has no criticality witness there
        if "hmodule" in verify._suite_selection(args.suite) and lam == rep.critical_pair(J)[0]:
            raise UsageError(f"--lam {lam} is the lower critical twist l0 of {J.selector}; "
                             "pass a generic twist")
        report = verify.run_suite(J, selection=args.suite, seed=args.seed,
                                  lam_value=lam)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.format == "json":
        _emit(report.to_json(), args.output)
    else:
        _emit(report.to_text(), args.output)
    return 0 if report.overall == "pass" else CHECK_FAILURE


def cmd_critical(args) -> int:
    J = _load_algebra(args.algebra, args.force)
    try:
        lo, hi = verify.critical_values(J)
    except RingError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return CHECK_FAILURE
    if args.format == "json":
        _emit(json.dumps({"algebra": J.selector, "critical": [str(lo), str(hi)]}) + "\n",
              args.output)
    else:
        _emit(f"{lo}, {hi}\n", args.output)
    return 0


def cmd_moyal(args) -> int:
    which = args.check
    if not 0 <= 2 * args.max_degree < EXPONENT_LIMIT:  # products of degree-N monomials stay packable
        raise UsageError(f"--max-degree must be in 0..{EXPONENT_LIMIT // 2 - 1}, got {args.max_degree}")
    payload: dict = {}
    if which in ("pairing", "all"):
        payload["pairing"] = moyal.pairing_table(args.max_degree)
    if which in ("components", "all"):
        payload["components"] = moyal.component_table(args.max_degree)
    if not payload:
        raise UsageError(f"unknown moyal table {which!r}; expected pairing|components|all")
    ok = all(row["matches_closed_form"] for row in payload.get("pairing", ()))
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
        return 0 if ok else CHECK_FAILURE
    lines = []
    if "pairing" in payload:
        lines.append("Q(xi^p, zeta^q)")
        for row in payload["pairing"]:
            if row["Q"] != "0":
                lines.append(f"  p={row['p']} q={row['q']}  Q = {row['Q']}")
        if ok:
            lines.append("  all values match 2^-p p! on the diagonal, 0 off it")
    if "components" in payload:
        lines.append("graded components of the circle product")
        for row in payload["components"]:
            comps = ", ".join(f"C{p}={v}" for p, v in row["components"].items())
            lines.append(f"  {row['phi']} o {row['psi']}:  {comps if comps else '0'}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if ok else CHECK_FAILURE


def cmd_show(args) -> int:
    J = _load_algebra(args.algebra, args.force)
    sel = args.op
    lam = None
    if args.lam is not None:
        lam = _parse_twist(args.lam)
    try:
        gen = rep.generator_from_selector(J, sel.removeprefix("eta:"))
        # looked up on rep at call time, so a traced family is the one called
        plus_of, minus_of = (rep.eta_plus, rep.eta_minus) if sel.startswith("eta:") else (rep.pi_plus, rep.pi_minus)
        op = plus_of(J, gen.element) if gen.side == "plus" else minus_of(J, gen.element, lam)
    except ValueError as exc:
        raise UsageError(str(exc))
    _emit(f"{op}\n", args.output)
    return 0


def cmd_algebras(args) -> int:
    if args.action != "list":
        raise UsageError(f"unknown algebras action {args.action!r}; expected 'list'")
    lines = ["selector  n  r  m"]
    entries = (
        [f"sym:{r}" for r in range(1, RANK_LIMITS["sym"] + 1)]
        + [f"full:{r}" for r in range(1, RANK_LIMITS["full"] + 1)]
        + [f"spin:{p}" for p in range(2, RANK_LIMITS["spin"] + 1)]
    )
    for sel in entries:
        J = jordan.from_selector(sel)
        lines.append(f"{sel:<8}  {J.n:<2} {J.r}  {J.m}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistedops",
        description="exact verification of twisted-operator identities on Jordan-algebra coordinates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, algebra=True, formats=True):
        if algebra:
            p.add_argument("--algebra", required=True, help="sym:<r> | full:<r> | spin:<p>")
            p.add_argument("--force", action="store_true", help="override the desk-scale rank limits")
        if formats:
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--output", help="write to a file instead of stdout")

    def twist(p, text):
        p.add_argument("--lam", help=text)
        p._negative_number_matcher = _NEGATIVE_NUMBER

    pv = sub.add_parser("verify", help="run a verification suite")
    common(pv)
    pv.add_argument("--seed", type=int, default=0, help="picks the rational point at which a failing identity's residual is shown")
    pv.add_argument("--suite", default="all",
                    help=f"comma list of: {', '.join(verify.SUITE_ORDER)} (or 'all')")
    twist(pv, "generic rational twist for span/witness computations, not l0 with hmodule (default 5/7)")
    pv.set_defaults(fn=cmd_verify)

    pc = sub.add_parser("critical", help="print the two critical twist values")
    common(pc)
    pc.set_defaults(fn=cmd_critical)

    pm = sub.add_parser("moyal", help="quantization-lab tables")
    common(pm, algebra=False)
    pm.add_argument("--max-degree", type=int, default=4)
    pm.add_argument("--check", default="all", help="pairing | components | all")
    pm.set_defaults(fn=cmd_moyal)

    ps = sub.add_parser("show", help="print one operator in canonical text form")
    common(ps, formats=False)
    ps.add_argument("--op", required=True, help="p+:<i> | p-:<j> | idem | eta:<same>")
    twist(ps, "specialize the twist to a rational value")
    ps.set_defaults(fn=cmd_show)

    pa = sub.add_parser("algebras", help="list the built-in algebras")
    pa.add_argument("action", nargs="?", default="list")
    common(pa, algebra=False, formats=False)
    pa.set_defaults(fn=cmd_algebras)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already; normalize others
        return USAGE_ERROR if exc.code not in (0,) else 0
    try:
        fresh = args.output is not None and not os.path.exists(args.output)
        _emit("", args.output, "a")  # an unwritable --output fails before any work
        if fresh:  # the probe leaves no file of its own behind
            os.remove(args.output)
        return args.fn(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
