"""Command-line interface: every operation with uniform exact-rational I/O.

JSON is the machine format (rationals are strings, never floats; key order
is canonical so output is byte-deterministic).  ``--format pretty`` renders
unicode math for the commands that print an element or a polynomial;
``chartable`` defaults to CSV and ``verify`` to a table.  Each command
accepts only the formats it renders.  Exit codes: 0 success (including
conjecture counterexamples), 1 domain error, 2 usage.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import sys
from itertools import islice

from .content import OrdinaryPSumExpr, hat_F, hat_p, phi_series_check, psi, psi_direct
from .explorer import (
    LAB_CAP,
    P2_CAP,
    _check_cap,
    deg1_conjecture_scan,
    p2_experiment,
    structure_constants,
)
from .expr import parse_and_eval
from .factorial import p_star, p_star_eval
from .frakp import deg1, expand_gamma_in_frak, expand_p_in_frak, frak_p_eval
from .partitions import (
    OddPartition,
    StrictPartition,
    _repeated_tuples,
    _strict_tuples,
    g,
    g_skew,
)
from .plancherel import (
    average_bruteforce,
    average_mu_bruteforce,
    average_mu_symbolic,
    average_symbolic,
    prob,
    prob_mu,
)
from .rational import rat_str
from .schurq import character_table, q


# The formats of a command that prints an element as JSON records or terms.
PRETTY = ("json", "pretty")

# Default bound on the largest shape size avg walks, n + |mu| with --n and
# deg f + 1 + |mu| with --symbolic: at 80 a command takes about 0.3 s (E_n)
# or 1 s (a deformed average, which also sweeps the skew counts) with --n,
# and up to about 6 s (hatp[39]) with --symbolic.
AVG_N_CAP = 80


class UsageError(Exception):
    """Options that parse but do not go together; exit 2 like argparse."""


def ascii_int(text: str) -> int:
    """An argparse type: an optionally signed integer in ASCII digits, so
    that int()'s underscores, spaces and other digit scripts exit 2."""
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return int(text)


def _emit_json(obj):
    print(json.dumps(obj, ensure_ascii=False))


def _emit_element(args, element, symbol="p"):
    """JSON records, or with --format pretty one line of terms; a
    polynomial in n takes the symbol "n^↓{}"."""
    if args.format == "pretty":
        print(element.render(symbol, "·"))
    else:
        _emit_json(element.to_json_obj())


# --- subcommand handlers ---------------------------------------------------------


def _write_json_list(tuples):
    # the partitions as a JSON list of strings, a few thousand at a time
    write = sys.stdout.write
    write("[")
    sep = ""
    while chunk := [f'"{",".join(map(str, parts))}"' for parts in islice(tuples, 4096)]:
        write(sep + ", ".join(chunk))
        sep = ", "
    write("]")


def cmd_enum(args):
    # the bytes of _emit_json({"n": ..., "strict": [...], "odd": [...]}),
    # written as the partitions are generated rather than kept
    _check_cap("n", args.n, args.cap)
    if args.n < 0:
        raise ValueError("n must be nonnegative")
    sys.stdout.write(f'{{"n": {args.n}, "strict": ')
    _write_json_list(_strict_tuples(args.n))
    sys.stdout.write(', "odd": ')
    _write_json_list(_repeated_tuples(args.n, 2))
    sys.stdout.write("}\n")


def cmd_g(args):
    print(g(StrictPartition.from_text(args.partition)))


def cmd_gskew(args):
    lam = StrictPartition.from_text(args.lam)
    mu = StrictPartition.from_text(args.mu)
    print(g_skew(lam, mu))


def cmd_prob(args):
    lam = StrictPartition.from_text(args.partition)
    if args.mu is not None:
        mu = StrictPartition.from_text(args.mu)
        value = prob_mu(mu, args.n, lam)
        _emit_json({"n": args.n, "mu": str(mu), "lambda": str(lam),
                    "prob": rat_str(value)})
    else:
        value = prob(args.n, lam)
        _emit_json({"n": args.n, "lambda": str(lam), "prob": rat_str(value)})


def cmd_qfunc(args):
    lam = StrictPartition.from_text(args.partition)
    _check_cap("|lambda|", lam.size, args.cap)
    _emit_element(args, q(lam))


def cmd_chartable(args):
    _check_cap("k", args.k, args.cap)
    table = character_table(args.k)
    rows = zip(table.strict, table._rows)  # the integer entries
    if args.format == "json":
        _emit_json({
            "k": args.k,
            "rows": [
                {
                    "lambda": str(lam),
                    "values": {str(rho): str(x) for rho, x in zip(table.odd, row)},
                }
                for lam, row in rows
            ],
        })
        return
    import csv

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["lambda/rho"] + [str(rho) for rho in table.odd])
    for lam, row in rows:
        writer.writerow([str(lam), *row])


def cmd_pstar(args):
    mu = StrictPartition.from_text(args.partition)
    _check_cap("|mu|", mu.size, args.cap)
    _emit_element(args, p_star(mu))


def cmd_pstar_eval(args):
    mu = StrictPartition.from_text(args.mu)
    lam = StrictPartition.from_text(args.lam)
    print(rat_str(p_star_eval(mu, lam)))


def cmd_frak_expand_p(args):
    _emit_element(args, expand_p_in_frak(OddPartition.from_text(args.rho)), "𝔭")


def cmd_frak_eval(args):
    rho = OddPartition.from_text(args.rho)
    lam = StrictPartition.from_text(args.lam)
    print(rat_str(frak_p_eval(rho, lam)))


def cmd_frak_deg1(args):
    element = parse_and_eval(args.expr)
    print(deg1(expand_gamma_in_frak(element)))


def cmd_avg(args):
    if args.format == "pretty" and not args.symbolic:
        raise UsageError("--format pretty needs --symbolic")
    mu = StrictPartition.from_text(args.mu) if args.mu is not None else None
    # --cap bounds the largest shapes walked: of size n + |mu| at one n, and
    # deg f + 1 + |mu| at the last node of a symbolic average
    m, plus_mu = (0, "") if mu is None else (mu.size, " + |mu|")
    if not args.symbolic:
        _check_cap("n" + plus_mu, args.n + m, args.cap)
    element = parse_and_eval(args.f)
    if args.symbolic:
        _check_cap("deg f + 1" + plus_mu, max(element.degree(), 0) + 1 + m, args.cap)
        poly = (average_symbolic(element) if mu is None
                else average_mu_symbolic(element, mu))
        _emit_element(args, poly, "n^↓{}")
    else:
        value = (average_bruteforce(element, args.n) if mu is None
                 else average_mu_bruteforce(element, mu, args.n))
        _emit_json({"n": args.n, "mu": str(mu) if mu is not None else None,
                    "f": args.f, "value": rat_str(value)})


def cmd_content_hatp(args):
    _emit_element(args, hat_p(args.k))


def cmd_content_hatf(args):
    expr = OrdinaryPSumExpr.from_json_obj(json.loads(args.psum))
    _emit_element(args, hat_F(expr))


def cmd_psi(args):
    if args.format == "pretty" and args.lam is not None:
        raise UsageError("--format pretty does not go with --lambda")
    if args.lam is not None:
        lam = StrictPartition.from_text(args.lam)
        value = psi_direct(args.k, lam)
        _emit_json({"k": args.k, "lambda": str(lam), "value": rat_str(value)})
    else:
        _emit_element(args, psi(args.k))


def cmd_phi_check(args):
    lam = StrictPartition.from_text(args.lam)
    ok = phi_series_check(lam, args.order)
    _emit_json({"lambda": str(lam), "order": args.order, "identity_holds": ok})


def cmd_lab_scan(args):
    report = deg1_conjecture_scan(args.max, cap=args.cap)
    _emit_json(report.to_json_obj())


def cmd_lab_p2(args):
    report = p2_experiment(args.max_n, cap=args.cap)
    _emit_json(report.to_json_obj())


def cmd_lab_fstruct(args):
    sigma = OddPartition.from_text(args.sigma)
    tau = OddPartition.from_text(args.tau)
    records = structure_constants(sigma, tau, cap=args.cap)
    _emit_json({
        "sigma": str(sigma),
        "tau": str(tau),
        "records": [rec.to_json_obj() for rec in records],
    })


def cmd_verify(args):
    from .verify import run_all

    results = run_all()
    if args.format == "json":
        _emit_json([
            {"key": r.key, "description": r.description, "ok": r.ok,
             "detail": r.detail}
            for r in results
        ])
    else:
        width = max(len(r.key) for r in results)
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            print(f"[{status}] {r.key:<{width}}  {r.detail}")
    return 0 if all(r.ok for r in results) else 1


# --- parser ------------------------------------------------------------------------


# The subcommands, in the order of build_parser.
COMMANDS = ("enum", "g", "gskew", "prob", "qfunc", "chartable", "pstar",
            "pstar-eval", "frak", "avg", "content", "psi", "phi-check", "lab",
            "verify")


def _build_formatter(prog: str) -> argparse.HelpFormatter:
    # While the tree is built, argparse formats text only to check each
    # metavar and to name the subparsers' prog, and neither reads the width;
    # an explicit one spares HelpFormatter its import of shutil.
    return argparse.HelpFormatter(prog, width=80)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with ``command`` of that one alone.

    A one-subcommand parser parses the same and prints the same bytes for
    every argv that starts with its command: its usage line names all the
    subcommands, as the full parser's does.  Help and usage errors are
    argparse's own, at the terminal's width.
    """
    parser = argparse.ArgumentParser(
        prog="superq",
        description="Exact computations with supersymmetric functions on "
                    "strict partitions.",
        formatter_class=_build_formatter,
    )
    parsers = [parser]
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(COMMANDS) + "}")

    def nested(name, help_text):
        """A top-level subcommand with subcommands of its own, or None when
        the parser is for another command."""
        if command is None or name == command:
            parsers.append(sub.add_parser(name, help=help_text,
                                          formatter_class=_build_formatter))
            return parsers[-1]
        return None

    def add(name, handler, help_text, formats=("json",), group=sub):
        """A subcommand that renders the given formats; the first is the
        default, and any other is a usage error.  None when the parser is
        for another command."""
        if group is sub and command is not None and name != command:
            return None
        p = group.add_parser(name, help=help_text, formatter_class=_build_formatter)
        parsers.append(p)
        p.set_defaults(func=handler)
        p.add_argument("--format", choices=formats, default=formats[0])
        return p

    if p := add("enum", cmd_enum, "list strict and odd partitions of n"):
        p.add_argument("n", type=ascii_int)
        p.add_argument("--cap", type=ascii_int, default=80,
                       help="largest n allowed (default %(default)s: about 0.6 s "
                            "and 17 MB, as the output is written while the "
                            "partitions are generated; each 10 added to n "
                            "multiplies the time by about 2.3)")

    if p := add("g", cmd_g, "number of standard shifted tableaux of a shape"):
        p.add_argument("partition")

    if p := add("gskew", cmd_gskew, "number of standard tableaux of a skew shape"):
        p.add_argument("lam", metavar="lambda")
        p.add_argument("mu")

    if p := add("prob", cmd_prob, "shifted Plancherel probability of a shape"):
        p.add_argument("n", type=ascii_int)
        p.add_argument("partition")
        p.add_argument("--mu", default=None)

    if p := add("qfunc", cmd_qfunc, "Schur Q-function in the power-sum basis",
                PRETTY):
        p.add_argument("partition")
        p.add_argument("--cap", type=ascii_int, default=30,
                       help="largest |lambda| allowed (default %(default)s: "
                            "about 0.2 s and 19 MB, mostly the character "
                            "table of degree |lambda|, which chartable caps "
                            "alike)")

    if p := add("chartable", cmd_chartable, "projective character table of degree k",
                ("csv", "json")):
        p.add_argument("k", type=ascii_int)
        p.add_argument("--cap", type=ascii_int, default=30,
                       help="largest k allowed (default %(default)s: about 0.2 s "
                            "and 19 MB; each 2 added to k multiplies the time "
                            "by about 1.4 and the memory by about 1.25)")

    if p := add("pstar", cmd_pstar, "factorial Schur P*-function in the p-basis",
                PRETTY):
        p.add_argument("partition")
        p.add_argument("--cap", type=ascii_int, default=30,
                       help="largest |mu| allowed (default %(default)s: about 0.1 s "
                            "for every mu of that size; each 2 added to |mu| "
                            "multiplies that by about 1.3)")

    if p := add("pstar-eval", cmd_pstar_eval, "closed-form value P*_mu(lambda)"):
        p.add_argument("mu")
        p.add_argument("lam", metavar="lambda")

    if frak := nested("frak", "the deformed power-sum basis"):
        frak_sub = frak.add_subparsers(dest="frak_command", required=True)
        p = add("expand-p", cmd_frak_expand_p, "expand p_rho in the frak-p basis",
                PRETTY, frak_sub)
        p.add_argument("rho")
        p = add("eval", cmd_frak_eval, "closed-form value frak_p(rho)(lambda)",
                group=frak_sub)
        p.add_argument("rho")
        p.add_argument("lam", metavar="lambda")
        p = add("deg1", cmd_frak_deg1, "deg1 filtration degree of an expression",
                group=frak_sub)
        p.add_argument("expr")

    if p := add("avg", cmd_avg, "shifted Plancherel average of an expression",
                PRETTY):
        p.add_argument("--f", required=True, metavar="EXPR")
        p.add_argument("--mu", default=None)
        mode = p.add_mutually_exclusive_group(required=True)
        mode.add_argument("--symbolic", action="store_true",
                          help="polynomial in n, all three bases")
        mode.add_argument("--n", type=ascii_int, help="exact value at this n")
        p.add_argument("--cap", type=ascii_int, default=AVG_N_CAP,
                       help="largest shape size walked, n + |mu| with --n and "
                            "deg f + 1 + |mu| with --symbolic (default "
                            "%(default)s: with --n about 0.3 s and 15 MB for "
                            "E_n, about 1 s and 35 MB for a deformed average, "
                            "each 10 added multiplying the time by about 2.3; "
                            "with --symbolic up to about 6 s, for hatp[39], "
                            "while hatp[40] needs --cap 82)")

    if content := nested("content", "content evaluations"):
        content_sub = content.add_subparsers(dest="content_command", required=True)
        p = add("hatp", cmd_content_hatp, "the supersymmetric function hat-p_k",
                PRETTY, content_sub)
        p.add_argument("k", type=ascii_int)
        p = add("hatF", cmd_content_hatf, "hat-F for a power-sum expansion",
                PRETTY, content_sub)
        p.add_argument("--psum", required=True,
                       help='JSON list like [{"partition": "2", "coeff": "1"}]')

    if p := add("psi", cmd_psi, "Han-Xiong corner function", PRETTY):
        p.add_argument("k", type=ascii_int)
        p.add_argument("--lambda", dest="lam", default=None)

    if p := add("phi-check", cmd_phi_check, "corner generating-series identity check"):
        p.add_argument("lam", metavar="lambda")
        p.add_argument("order", type=ascii_int)

    if lab := nested("lab", "conjecture laboratory"):
        lab_sub = lab.add_subparsers(dest="lab_command", required=True)
        p = add("deg1-scan", cmd_lab_scan, "scan deg1 filtration conjecture",
                group=lab_sub)
        p.add_argument("--max", type=ascii_int, required=True)
        p.add_argument("--cap", type=ascii_int, default=LAB_CAP,
                       help="largest --max allowed (default %(default)s)")
        p = add("p2", cmd_lab_p2, "E_n[p2] table and quadratic-fit failure",
                group=lab_sub)
        p.add_argument("--max-n", type=ascii_int, default=6)
        p.add_argument("--cap", type=ascii_int, default=P2_CAP,
                       help="largest --max-n allowed (default %(default)s)")
        p = add("fstruct", cmd_lab_fstruct, "structure constants of a product",
                group=lab_sub)
        p.add_argument("sigma")
        p.add_argument("tau")
        p.add_argument("--cap", type=ascii_int, default=LAB_CAP,
                       help="largest |sigma| + |tau| allowed (default %(default)s)")

    add("verify", cmd_verify, "run the full paper-identity golden suite",
        ("pretty", "json"))

    for p in parsers:
        p.formatter_class = argparse.HelpFormatter
    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code.

    With no argv, ``main`` runs as the program (the ``superq`` script,
    ``python -m superq``): it reads ``sys.argv`` and first freezes the
    collector with ``gc.freeze()``.  Everything loaded by then lives until
    the process ends, so it is moved out of every later collection,
    including the full ones that run at interpreter exit.  ``main(argv)``
    with an explicit list is a call from a caller that owns its process,
    and it leaves the collector as it found it.
    """
    if argv is None:
        gc.freeze()
        argv = sys.argv[1:]
    # argparse hands everything after a leading subcommand to that
    # subcommand's parser, so building it alone changes no output
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        result = args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (ValueError, TypeError) as exc:
        message = str(exc)
    except (RecursionError, MemoryError, OverflowError) as exc:
        message = f"input too large ({type(exc).__name__})"
    else:
        return result or 0
    print(json.dumps({"error": {"kind": "domain", "message": message}}),
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
