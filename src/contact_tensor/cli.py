"""Command line front end.

    contact-tensor report <file> [--format text|json] [--strict] [--lint]
                                 [--set name=value]...
    contact-tensor sweep <file> [--lambda a,b,...] [--mu a,b,...]
                                [--format csv|json]
    contact-tensor demo <id> [report flags]
    contact-tensor export <id> [-o <file>]

Exit codes: 0 success, 1 usage or input error, 2 validation failure
under --strict, 3 internal self-check breach.  Color in text mode is
controlled by CONTACT_TENSOR_COLOR=0|1 (default off).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from fractions import Fraction

from .catalog import CatalogEntry, CatalogError, build, entry_ids
from .classify import SelfCheckError
from .expr import ExprError
from .frame import FrameError
from .manifest import (ManifestError, entry_from_ingest, export_entry,
                       load_manifest, manifest_to_json, to_json)
from .report import (analyse, build_report, failed_self_checks,
                     render_json, render_text)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_INTERNAL = 3

SWEEP_LAMBDA_DEFAULT = "1/4,1/2,1,3/2"
SWEEP_MU_DEFAULT = "-1,0,1,2"


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract here is 1
    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _color_enabled() -> bool:
    return os.environ.get("CONTACT_TENSOR_COLOR", "0") == "1"


def _parse_rational(raw: str, flag: str) -> Fraction:
    # 'm/n' or a decimal 'm.f' with exponent 'e<k>': neither numerator nor
    # denominator has more digits than the mantissa plus |k|, so a value
    # past the int/str digit limit is refused before it is built
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    mantissa, _, exponent = raw.lower().partition("e")
    try:
        digits = (sum(c.isdigit() for c in mantissa)
                  + (abs(int(exponent)) if exponent else 0))
        if limit and digits > limit:
            raise CliError(f"{flag}: {raw!r} has more than {limit} digits, "
                           "the interpreter's int/str conversion limit")
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"{flag}: {raw!r} is not a rational number") from None


def _parse_set(values: list[str]) -> dict[str, Fraction]:
    raws: dict[str, str] = {}
    for item in values:
        name, sep, raw = item.partition("=")
        if not sep or not name:
            raise CliError(f"--set expects name=value, got {item!r}")
        if name in raws:
            raise CliError(f"--set {name} is given more than once")
        raws[name] = raw
    return {name: _parse_rational(raw, f"--set {name}")
            for name, raw in raws.items()}


def _apply_set(entry: CatalogEntry, bindings: dict[str, Fraction]) -> CatalogEntry:
    if not bindings:
        return entry
    try:
        return entry.substitute(bindings)
    except (ExprError, FrameError) as exc:
        raise CliError(str(exc)) from None


@contextlib.contextmanager
def _digit_limit():
    # str() of an integer past the interpreter's int/str digit limit
    # raises ValueError wherever an expression is written out: ingest's and
    # h's error texts, the report's tables and diagnostics, the sweep cells
    try:
        yield
    except ValueError:
        raise CliError("a number in the result has more than "
                       f"{sys.get_int_max_str_digits()} digits, the "
                       "interpreter's int/str conversion limit") from None


def _emit_report(entry: CatalogEntry, args, out) -> int:
    report = build_report(entry)
    if args.format == "json":
        out.write(render_json(report))
    else:
        out.write(render_text(report, color=_color_enabled()))
    if args.lint:
        for d in report["diagnostics"]:
            print(f"lint: {d}", file=sys.stderr)
    failed_checks = failed_self_checks(report["self_check"])
    if failed_checks:
        print("internal self-check failure: " + ", ".join(failed_checks),
              file=sys.stderr)
        return EXIT_INTERNAL
    if args.strict:
        problems = report["diagnostics"]
        invalid_contact = report["classification"]["contact_valid"] is False
        if problems or invalid_contact:
            for p in problems:
                print(f"strict: {p}", file=sys.stderr)
            if invalid_contact:
                print("strict: contact metric axioms do not hold",
                      file=sys.stderr)
            return EXIT_VALIDATION
    return EXIT_OK


def _cmd_report(args) -> int:
    result = load_manifest(args.file)
    entry = _apply_set(entry_from_ingest(result), _parse_set(args.set))
    return _emit_report(entry, args, sys.stdout)


def _cmd_demo(args) -> int:
    entry = _apply_set(build(args.id), _parse_set(args.set))
    return _emit_report(entry, args, sys.stdout)


def _cmd_export(args) -> int:
    entry = build(args.id)
    text = manifest_to_json(export_entry(entry))
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"{args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_grid(raw: str, flag: str) -> list[Fraction]:
    values = []
    for chunk in raw.split(","):
        chunk = chunk.strip()
        if chunk:
            values.append(_parse_rational(chunk, flag))
    if not values:
        raise CliError(f"{flag}: empty grid")
    return values


_SWEEP_COLUMNS = ("lambda", "mu", "skipped", "kappa", "flat",
                  "locally_symmetric", "phi_symmetric",
                  "locally_phi_symmetric", "phi_recurrent",
                  "phi_recurrent_status", "locally_phi_recurrent_status")


def _sweep_row(entry: CatalogEntry, lam: Fraction, mu: Fraction) -> dict:
    row: dict = {"lambda": str(lam), "mu": str(mu)}
    if lam == 0:
        row["skipped"] = True
        for key in _SWEEP_COLUMNS[3:]:
            row[key] = None
        return row
    row["skipped"] = False
    # the row needs only the verdicts and the self checks, not a report
    try:
        with _digit_limit():
            analysis = analyse(_apply_set(entry, {"lambda": lam, "mu": mu}))
            c = analysis.classification
            km = c.kappa_mu
            row["kappa"] = (None if km is None or km.kappa is None
                            else str(km.kappa))
    except CliError as exc:
        raise CliError(f"lambda={lam}, mu={mu}: {exc}") from None
    failed_checks = failed_self_checks(analysis.self_check)
    if failed_checks:
        raise SelfCheckError(", ".join(failed_checks))
    rec = c.phi_recurrent
    # the local verdicts are None where the local scope is undefined
    loc_sym, loc_rec = c.locally_phi_symmetric, c.locally_phi_recurrent
    row["flat"] = c.flat
    row["locally_symmetric"] = c.locally_symmetric.ok
    row["phi_symmetric"] = c.phi_symmetric.ok
    row["locally_phi_symmetric"] = loc_sym and loc_sym.ok
    row["phi_recurrent"] = rec.status in ("recurrent", "trivially_recurrent")
    row["phi_recurrent_status"] = rec.status
    row["locally_phi_recurrent_status"] = loc_rec and loc_rec.status
    return row


def _cmd_sweep(args) -> int:
    result = load_manifest(args.file)
    entry = entry_from_ingest(result)
    params = {s.name for s in entry.manifold.symbols.parameters()}
    missing = {"lambda", "mu"} - params
    if missing:
        raise CliError("sweep needs a manifest with parameters 'lambda' "
                       f"and 'mu'; missing {sorted(missing)}")
    if entry.structure is None:
        raise CliError("sweep needs a manifest with a contact structure "
                       "(phi and xi)")
    lams = _parse_grid(args.lam, "--lambda")
    mus = _parse_grid(args.mu, "--mu")
    rows = [_sweep_row(entry, lam, mu) for lam in lams for mu in mus]
    if args.format == "json":
        doc = {"schema_version": 1, "name": result.name,
               "grid": {"lambda": [str(v) for v in lams],
                        "mu": [str(v) for v in mus]},
               "rows": rows}
        sys.stdout.write(to_json(doc))
    else:
        sys.stdout.write(",".join(_SWEEP_COLUMNS) + "\n")
        for row in rows:
            cells = []
            for key in _SWEEP_COLUMNS:
                val = row[key]
                cells.append("" if val is None else str(val).lower()
                             if isinstance(val, bool) else str(val))
            sys.stdout.write(",".join(cells) + "\n")
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    # parse_args changes no parser (append copies its default list)
    parser = _Parser(prog="contact-tensor",
                     description="frame-based contact metric manifold "
                                 "calculator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_report_flags(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--strict", action="store_true",
                       help="exit 2 when validation diagnostics appear")
        p.add_argument("--lint", action="store_true",
                       help="echo diagnostics to stderr")
        p.add_argument("--set", action="append", default=[],
                       metavar="NAME=VALUE",
                       help="bind a parameter to a rational before "
                            "computing (repeatable)")

    p_report = sub.add_parser("report", help="full report for a manifest")
    p_report.add_argument("file")
    add_report_flags(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_sweep = sub.add_parser("sweep",
                             help="classify over a (lambda, mu) grid")
    p_sweep.add_argument("file")
    p_sweep.add_argument("--lambda", dest="lam",
                         default=SWEEP_LAMBDA_DEFAULT,
                         help=f"comma list (default {SWEEP_LAMBDA_DEFAULT})")
    p_sweep.add_argument("--mu", dest="mu", default=SWEEP_MU_DEFAULT,
                         help=f"comma list (default {SWEEP_MU_DEFAULT})")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_demo = sub.add_parser("demo", help="report for a built-in example")
    p_demo.add_argument("id", help="one of: " + ", ".join(entry_ids()))
    add_report_flags(p_demo)
    p_demo.set_defaults(func=_cmd_demo)

    p_export = sub.add_parser("export",
                              help="write a built-in example as a manifest")
    p_export.add_argument("id", help="one of: " + ", ".join(entry_ids()))
    p_export.add_argument("-o", "--output", default=None)
    p_export.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        with _digit_limit():
            return args.func(args)
    except (CliError, CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ManifestError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_USAGE
    except SelfCheckError as exc:
        print(f"internal self-check failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
