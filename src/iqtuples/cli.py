"""Command-line interface.

Data goes to stdout, diagnostics to stderr. Exit status: 0 on success,
1 on a hypothesis rejection (or a failed verification), 2 on resource
budget exhaustion, 3 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import sys

from . import arith, classno, families, lehmer, lrn
from .errors import BudgetError, DomainError, HypothesisRejection

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _emit(records: list[dict], fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        for rec in records:
            print(json.dumps(rec, separators=(",", ":")))
    elif fmt == "csv":
        if not records:
            return
        fields = list(records[0].keys())
        w = csv.writer(sys.stdout)
        w.writerow(fields)
        for rec in records:
            w.writerow([rec.get(f, "") for f in fields])
    else:
        for line in text_lines:
            print(line)


def _check_line(c: dict) -> str:
    """One hypothesis check of a record, as a line of text output."""
    return f"  check {c['check']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})"


def _tuple_text(rec: dict) -> list[str]:
    lines = [
        f"{rec['kind']} n={rec['n']} k={rec['k']} ell={rec['ell']} d={rec['d']}"
    ]
    lines += map(_check_line, rec["hypotheses"])
    for w in rec["warnings"]:
        lines.append(f"  warning: {w}")
    for m in rec["members"]:
        h = "-" if m["class_number"] is None else m["class_number"]
        div = "-" if m["divisible"] is None else m["divisible"]
        lines.append(
            f"  offset {m['offset']:>6}: radicand={m['radicand']} "
            f"squarefree={m['squarefree_part']} cofactor={m['cofactor']} "
            f"h={h} divisible={div} [{m['status']}]"
        )
    lines.append(f"  all divisible: {rec['all_divisible']}")
    return lines


def _tuple_exit(t: families.FamilyTuple, verified: bool) -> int:
    if not verified:
        return EXIT_OK
    verdict = t.all_divisible
    if verdict is True:
        return EXIT_OK
    if verdict is None:
        return EXIT_BUDGET
    return EXIT_REJECTED


def _emit_tuple(t: families.FamilyTuple, fmt: str, header: bool = True) -> None:
    if fmt == "csv":
        w = csv.writer(sys.stdout)
        if header:
            w.writerow(families.CSV_FIELDS)
        for row in families.to_csv_rows(t):
            w.writerow(row)
    elif fmt == "json":
        print(families.to_json_line(t))
    else:
        for line in _tuple_text(families.to_json_dict(t)):
            print(line)


def _cmd_classnum(args) -> int:
    if (args.d is None) == (args.D is None):
        raise _UsageError("classnum needs exactly one of -d (radicand) or -D (discriminant)")
    if args.method == "dirichlet" and args.with_forms:
        raise _UsageError("--with-forms lists the forms the form count walks; it needs --method forms")
    if args.d is not None:
        if args.method == "dirichlet":
            res = classno.class_number_dirichlet(classno.fundamental_discriminant(args.d))
        else:
            res = classno.field_class_number(args.d, args.with_forms)
        label = f"h(Q(sqrt({args.d})))"
    else:
        if args.method == "dirichlet":
            res = classno.class_number_dirichlet(args.D)
        else:
            res = classno.class_number_forms(args.D, args.with_forms)
        label = f"h*({args.D})"
    rec = {
        "command": "classnum",
        "discriminant": res.discriminant,
        "h": res.h,
        "method": res.method,
    }
    lines = [f"{label} = {res.h}   (discriminant {res.discriminant}, {res.method})"]
    if res.reduced_forms is not None:
        rec["reduced_forms"] = [[f.a, f.b, f.c] for f in res.reduced_forms]
        lines.extend(f"  ({f.a}, {f.b}, {f.c})" for f in res.reduced_forms)
    _emit([rec], args.format, lines)
    return EXIT_OK


def _cmd_squarefree(args) -> int:
    dec = arith.squarefree_decompose(args.m)
    rec = {"command": "squarefree", "m": dec.n, "s": dec.s, "f": dec.f}
    _emit([rec], args.format, [f"{dec.n} = {dec.s} * {dec.f}^2"])
    return EXIT_OK


def _cmd_lehmer(args) -> int:
    p = lehmer.LehmerParams(args.a, args.b)
    val = lehmer.lehmer_number(p, args.t)
    rec = {"command": "lehmer", "a": args.a, "b": args.b, "t": args.t, "value": val}
    _emit([rec], args.format, [f"L_{args.t}({args.a}, {args.b}) = {val}"])
    return EXIT_OK


def _cmd_pdiv(args) -> int:
    p = lehmer.LehmerParams(args.a, args.b)
    divs = sorted(lehmer.primitive_divisors(p, args.t))
    rec = {
        "command": "pdiv", "a": args.a, "b": args.b, "t": args.t,
        "primitive_divisors": divs, "has_primitive_divisor": bool(divs),
    }
    shown = ", ".join(map(str, divs)) if divs else "none"
    _emit([rec], args.format, [f"primitive divisors of L_{args.t}({args.a}, {args.b}): {shown}"])
    return EXIT_OK


def _cmd_lrn_solve(args) -> int:
    inst = lrn.LrnInstance(args.d, args.l, args.z_max)
    if args.method == "brute":
        sols = lrn.solve_brute(inst)
    else:
        sols = lrn.solve_structured(inst)
        if args.method == "both":
            brute = [(s.x, s.y, s.z) for s in lrn.solve_brute(inst)]
            if [(s.x, s.y, s.z) for s in sols] != brute:
                print("solver disagreement, structured vs brute", file=sys.stderr)
                return EXIT_REJECTED
    records = []
    lines = [f"x^2 + {args.d}*y^2 = {args.l}^z, z <= {args.z_max}: {len(sols)} solution(s)"]
    for s in sols:
        rec = {
            "command": "lrn-solve", "d": args.d, "ell": args.l, "z_max": args.z_max,
            "x": s.x, "y": s.y, "z": s.z,
        }
        if s.decomposition:
            dc = s.decomposition
            rec.update(eps=dc.eps, mu=dc.mu, a=dc.a, b=dc.b, s=dc.s, t=dc.t)
            lines.append(
                f"  ({s.x}, {s.y}, {s.z}) = {dc.eps:+d} * ({dc.a} {'+' if dc.mu > 0 else '-'} "
                f"{dc.b}*sqrt(-{args.d}))^{dc.t}, s = {dc.s}"
            )
        else:
            lines.append(f"  ({s.x}, {s.y}, {s.z})")
        records.append(rec)
    _emit(records, args.format, lines)
    return EXIT_OK


def _cmd_thm31(args) -> int:
    rep = lrn.theorem31_verify(args.l, args.n, args.p)
    rec = {
        "command": "thm31", "ell": rep.ell, "n": rep.n, "p": rep.p,
        "accepted": rep.accepted, "rejection": rep.rejection, "branch": rep.branch,
        "d": rep.d, "r": rep.r, "h": rep.h, "verdict": rep.verdict,
        "anomaly": rep.anomaly,
        "hypotheses": [dict(vars(c)) for c in rep.hypotheses],
        "trace": rep.trace,
    }
    lines = [f"(ell, n, p) = ({rep.ell}, {rep.n}, {rep.p})"]
    lines += map(_check_line, rec["hypotheses"])
    if rep.accepted:
        lines.append(f"  d = {rep.d}, r = {rep.r} (ell^n - p^2 = d*r^2), branch: {rep.branch}")
        lines.append(f"  h*(-4d) = h*({-4 * rep.d}) = {rep.h}")
        lines.append(f"  verdict: {rep.n} | h is {rep.verdict}")
    else:
        lines.append(f"  rejected: {rep.rejection}")
    _emit([rec], args.format, lines)
    if not rep.accepted:
        return EXIT_REJECTED
    return EXIT_OK if rep.verdict else EXIT_REJECTED


def _run_tuple(args, build) -> int:
    t = build()
    if args.verify:
        t = families.verify_tuple(t)
    _emit_tuple(t, args.format)
    return _tuple_exit(t, args.verify)


def _cmd_verify(args) -> int:
    worst = EXIT_OK
    header = True  # one CSV header, before the first tuple's rows
    # read bytes where the stream has them and decode each line alone: a text
    # stream decodes whole chunks, so a bad byte would be blamed on an earlier line
    lines = getattr(args.file, "buffer", args.file)
    try:
        for lineno, line in enumerate(lines, 1):
            try:  # ValueError covers bad UTF-8, malformed JSON and every DomainError
                line = line.decode() if isinstance(line, bytes) else line
                if not line.strip():
                    continue
                t = families.verify_tuple(families.from_json_dict(json.loads(line)))
            except ValueError as e:
                raise DomainError(f"line {lineno}: {e}") from None
            _emit_tuple(t, args.format, header)
            header = False
            worst = max(worst, _tuple_exit(t, True))
    finally:
        if args.file is not sys.stdin:
            args.file.close()
    return worst


def _cmd_tables(args) -> int:
    tables = lehmer.exceptional_tables()
    rec = {"command": "tables", **tables}
    lines = [f"defective Lehmer pair tables, version {tables['version']}"]
    for t, entries in tables["finite"].items():
        lines.append(f"  t = {t}: " + ", ".join(f"({a}, {b})" for a, b in entries))
    for t, fams in tables["families"].items():
        for f in fams:
            lines.append(f"  t = {t}: family {f['form']}")
    if args.t is not None:
        if args.a is None or args.b is None:
            raise _UsageError("table membership check needs -t, -a and -b together")
        p = lehmer.LehmerParams(args.a, args.b)
        member = lehmer.exceptional_table_lookup(args.t, p)
        rec = {"command": "tables", "t": args.t, "a": args.a, "b": args.b, "in_table": member}
        lines = [f"({args.a}, {args.b}) at t = {args.t}: {'in table' if member else 'not in table'}"]
    _emit([rec], args.format, lines)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, suppress: bool) -> None:
    # Shared flags are valid before or after the subcommand; the subparser
    # copies use SUPPRESS defaults so they never clobber a value given
    # before the subcommand.
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    p.add_argument("--format", choices=("text", "json", "csv"), default=dflt("text"))
    p.add_argument("--rho-budget", type=int, default=dflt(arith.Limits.rho_budget),
                   help="rho iteration budget of every factorization")
    p.add_argument("--sf-budget", type=int, default=dflt(arith.Limits.sf_budget),
                   help="largest |square-free part| whose class number is counted: "
                        "|D| up to it for D = 1 (mod 4), up to 4 times it for D = 0 (mod 4)")
    p.add_argument("-v", "--verbose", action="store_true", default=dflt(False),
                   help="progress to stderr")


def build_parser() -> argparse.ArgumentParser:
    """The whole command line as one parser: usage, --help and the reference parse_argv matches."""
    return _parsers()[0]


@functools.cache  # parsing keeps no state, and building costs more than a small command
def _parsers() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser, dict, dict]:
    """(the whole parser, the shared flags alone, each subcommand's parser by name, the shared defaults)."""
    shared = _Parser(prog="iqtuples", add_help=False)
    _add_common(shared, suppress=False)
    p = _Parser(prog="iqtuples", description=__doc__, parents=[shared])
    common = _Parser(add_help=False)
    _add_common(common, suppress=True)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    c = sub.add_parser("classnum", parents=[common],
                       help="class number of a field or discriminant")
    c.add_argument("-d", type=int, help="square-free radicand of the field")
    c.add_argument("-D", type=int, help="form discriminant (0 or 1 mod 4)")
    c.add_argument("--method", choices=("forms", "dirichlet"), default="forms")
    c.add_argument("--with-forms", action="store_true")

    c = sub.add_parser("squarefree", parents=[common], help="square-free decomposition m = s*f^2")
    c.add_argument("-m", type=int, required=True)

    c = sub.add_parser("lehmer", parents=[common], help="Lehmer number for parameters (a, b)")
    c.add_argument("-a", type=int, required=True)
    c.add_argument("-b", type=int, required=True)
    c.add_argument("-t", type=int, required=True, help="index")

    c = sub.add_parser("pdiv", parents=[common], help="primitive divisors of a Lehmer number")
    c.add_argument("-a", type=int, required=True)
    c.add_argument("-b", type=int, required=True)
    c.add_argument("-t", type=int, required=True, help="index")

    c = sub.add_parser("lrn-solve", parents=[common], help="solve x^2 + d*y^2 = ell^z")
    c.add_argument("-d", type=int, required=True)
    c.add_argument("-l", type=int, required=True, help="ell")
    c.add_argument("--z-max", type=int, required=True)
    c.add_argument("--method", choices=("structured", "brute", "both"), default="structured")

    c = sub.add_parser("thm31", parents=[common], help="verify n | h for Q(sqrt(p^2 - ell^n))")
    c.add_argument("-l", type=int, required=True, help="ell")
    c.add_argument("-n", type=int, required=True)
    c.add_argument("-p", type=int, required=True)

    c = sub.add_parser("quadruple", parents=[common], help="construct the offsets {0, 1, 4, 4p^2} tuple")
    c.add_argument("-n", type=int, required=True)
    c.add_argument("-p", type=int, required=True)
    c.add_argument("-k", type=int, required=True)
    c.add_argument("--verify", action="store_true")

    c = sub.add_parser("quintuple", parents=[common], help="construct the offsets {0, 1, 4, 36, 100} tuple")
    c.add_argument("-n", type=int, required=True)
    c.add_argument("-k", type=int, required=True)
    c.add_argument("--verify", action="store_true")

    c = sub.add_parser("tuples", parents=[common], help="construct the (pi(m)+2)-tuple")
    c.add_argument("-n", type=int, required=True)
    c.add_argument("-m", type=int, required=True)
    c.add_argument("-k", type=int, required=True)
    c.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    c.add_argument("--verify", action="store_true")

    c = sub.add_parser("verify", parents=[common], help="verify tuple JSON lines from a file or stdin")
    c.add_argument("file", nargs="?", type=argparse.FileType("r"), default="-",
                   help="JSON-lines file (default stdin)")

    c = sub.add_parser("tables", parents=[common], help="dump the defective Lehmer pair tables")
    c.add_argument("-t", type=int, help="check membership at this index")
    c.add_argument("-a", type=int)
    c.add_argument("-b", type=int)
    return p, shared, sub.choices, vars(shared.parse_args([]))


def parse_argv(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), parsing each token once.

    argv is split at the first subcommand name. No shared flag takes a
    subcommand name as its value, so in a valid argv that name is the
    subcommand. The tokens before it, which may only be shared flags, are
    parsed with their defaults (a fresh copy of the defaults when there are
    none), and the tokens after it by that subcommand's own parser into the
    same Namespace. Where argv names no subcommand, or either part is
    refused, the whole parser parses argv, so usage, --help and every usage
    error read as they always have.
    """
    parser, shared, commands, defaults = _parsers()
    i = next((i for i, token in enumerate(argv) if token in commands), None)
    if i is None:
        return parser.parse_args(argv)
    try:
        args = shared.parse_args(argv[:i]) if i else argparse.Namespace(**defaults)
        args.command = argv[i]
        return commands[argv[i]].parse_args(argv[i + 1:], args)
    except _UsageError:
        parser.parse_args(argv)  # raises the whole parser's own message
        raise


def main(argv=None) -> int:
    try:
        args = parse_argv(sys.argv[1:] if argv is None else argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    # basicConfig is a no-op once the root logger has a handler, so -v sets
    # the package logger's level on every call instead
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("iqtuples").setLevel(logging.INFO if args.verbose else logging.WARNING)
    handlers = {
        "classnum": _cmd_classnum,
        "squarefree": _cmd_squarefree,
        "lehmer": _cmd_lehmer,
        "pdiv": _cmd_pdiv,
        "lrn-solve": _cmd_lrn_solve,
        "thm31": _cmd_thm31,
        "quadruple": lambda a: _run_tuple(a, lambda: families.quadruple(a.n, a.p, a.k)),
        "quintuple": lambda a: _run_tuple(a, lambda: families.quintuple(a.n, a.k)),
        "tuples": lambda a: _run_tuple(a, lambda: families.pi_tuple(a.n, a.m, a.k, a.mode)),
        "verify": _cmd_verify,
        "tables": _cmd_tables,
    }
    try:
        with arith.limits(rho_budget=args.rho_budget, sf_budget=args.sf_budget):
            return handlers[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisRejection as e:
        print(f"rejected: {e}", file=sys.stderr)
        return EXIT_REJECTED
    except BudgetError as e:
        print(f"budget exhausted: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError as e:  # a sieve or table larger than the machine
        print(f"budget exhausted: out of memory: {str(e) or 'an allocation failed'}",
              file=sys.stderr)
        return EXIT_BUDGET
    except DomainError as e:
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        if "integer string conversion" not in str(e):
            raise
        print(f"invalid input: a result has more than {sys.get_int_max_str_digits()} digits, "
              "Python's limit for printing an integer (PYTHONINTMAXSTRDIGITS raises it)",
              file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
