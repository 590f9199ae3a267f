"""Command-line front end: emptiness proofs, certificate verification,
Waldschmidt bounds, the two numeric criteria, thresholds, oracle queries and
grid sweeps.  JSON on stdout for single queries, CSV for sweeps."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import (
    bound_fact_to_dict,
    chudnovsky_check,
    containment_threshold,
    hh_check,
    report_to_dict,
    verdict_segments,
    waldschmidt_lower_bound,
)
from .core import AffineValue, FatPointSystem
from .reduction import (
    ReductionError,
    certificate_from_json,
    certificate_to_json,
    prove_empty,
    prove_with_script,
    to_canonical_json,
    verify_certificate,
)

EX_OK = 0
EX_FALSE = 1
EX_PROOF_FAILURE = 2
EX_USAGE = 64
EX_INTERNAL = 70

# what malformed input raises; `run` also turns an OSError into exit 70
_MALFORMED = (
    ReductionError, ValueError, KeyError, TypeError, AttributeError, IndexError, RecursionError
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EX_USAGE)


def _affine(text: str) -> AffineValue:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return AffineValue(0, int(parts[0]))
        if len(parts) == 2:
            return AffineValue(int(parts[0]), int(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected INT or SLOPE,INTERCEPT, got {text!r}")


def _mults(text: str) -> list[tuple[AffineValue, int]]:
    out = []
    for item in text.split(";"):
        if not item:
            continue
        value, _, count = item.rpartition(":")
        if not value:
            raise argparse.ArgumentTypeError(f"expected VALUE:COUNT, got {item!r}")
        try:
            out.append((_affine(value), int(count)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad count in {item!r}")
    if not out:
        raise argparse.ArgumentTypeError("empty multiplicity list")
    return out


def _emit(data: dict) -> None:
    sys.stdout.write(to_canonical_json(data) + "\n")


def __getattr__(name):
    # `linear_system_dim` stays a module attribute without loading numpy at
    # import; the oracle commands import the oracle when they run
    if name != "linear_system_dim":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .oracle import linear_system_dim

    globals()[name] = linear_system_dim
    return linear_system_dim


def _oracle_config(args):
    """OracleConfig from the flags given; an absent flag keeps the config's
    default, and FATPOINT_SEED replaces the default seed."""
    from .oracle import OracleConfig

    seed = args.seed
    if seed is None and "FATPOINT_SEED" in os.environ:
        seed = int(os.environ["FATPOINT_SEED"])
    given = {"prime": args.prime, "trials": args.trials, "seed": seed}
    return OracleConfig(**{k: v for k, v in given.items() if v is not None})


def _concrete(value: AffineValue, what: str) -> int:
    if value.slope != 0:
        raise ValueError(f"{what} must be concrete (slope 0), got {value}")
    return value.intercept


def _cmd_prove_empty(args) -> int:
    system = FatPointSystem.build(args.n, args.degree, args.mults)
    if args.script:
        with open(args.script) as fh:
            cert = prove_with_script(system, json.load(fh))
    else:
        cert = prove_empty(system)
    if cert is None:
        sys.stderr.write(
            to_canonical_json({"failure": "no emptiness proof found", "system": str(system)})
            + "\n"
        )
        return EX_PROOF_FAILURE
    sys.stdout.write(certificate_to_json(cert) + "\n")
    return EX_OK


def _cmd_verify(args) -> int:
    if args.cert == "-":
        text = sys.stdin.read()
    else:
        with open(args.cert) as fh:
            text = fh.read()
    try:
        cert = certificate_from_json(text)
    except _MALFORMED as exc:
        reason = f"malformed certificate: {type(exc).__name__}: {exc}"
        _emit({"ok": False, "failed_step": None, "reason": reason})
        return EX_FALSE
    result = verify_certificate(cert)
    _emit({"ok": result.ok, "failed_step": result.failed_step, "reason": result.reason})
    return EX_OK if result.ok else EX_FALSE


def _cmd_bound(args) -> int:
    _emit(bound_fact_to_dict(waldschmidt_lower_bound(args.n, args.points)))
    return EX_OK


def _cmd_check(args) -> int:
    # looked up per call, so that a patched check is the one run
    report = (hh_check if args.check == "hh" else chudnovsky_check)(args.n, args.points)
    _emit(report_to_dict(report))
    return EX_OK if report.verdict else EX_FALSE


def _cmd_threshold(args) -> int:
    r = containment_threshold(args.n, args.points)
    _emit({"N": args.n, "s": args.points, "r_threshold": r})
    return EX_OK


def _cmd_oracle_dim(args) -> int:
    from .oracle import linear_system_dim

    mults = []
    for value, count in args.mults:
        mults.extend([_concrete(value, "oracle multiplicity")] * count)
    degree = _concrete(args.degree, "oracle degree")
    report = linear_system_dim(args.n, degree, mults, _oracle_config(args))
    _emit(report.to_dict())
    return EX_OK


def _cmd_alpha(args) -> int:
    from .oracle import alpha_symbolic_power

    config = _oracle_config(args)
    alpha = alpha_symbolic_power(args.n, args.points, args.power, config)
    _emit(
        {
            "N": args.n,
            "s": args.points,
            "m": args.power,
            "alpha": alpha,
            "p": config.prime,
            "trials": config.trials,
            "seed": config.seed,
        }
    )
    return EX_OK


def _cmd_sweep(args) -> int:
    check = hh_check if args.check == "hh" else chudnovsky_check
    sys.stdout.write("N,s,bound,rhs,verdict\n")
    all_true = True
    # bound, rhs and verdict are constant on a segment: one check for each
    for first, last in verdict_segments(args.n, args.start, args.stop, args.check):
        report = check(args.n, first)
        all_true &= report.verdict
        suffix = (
            f"{report.bound.numerator}/{report.bound.denominator},"
            f"{report.rhs.numerator}/{report.rhs.denominator},"
            f"{'true' if report.verdict else 'false'}\n"
        )
        sys.stdout.writelines(f"{args.n},{s},{suffix}" for s in range(first, last + 1))
    return EX_OK if all_true else EX_FALSE


def build_parser() -> _Parser:
    parser = _Parser(prog="fatpoints")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("prove-empty", _cmd_prove_empty, help="search for an emptiness certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=_affine, required=True)
    p.add_argument("--mults", type=_mults, required=True)
    p.add_argument("--script", help="JSON proof script file")

    p = add("verify", _cmd_verify, help="verify a certificate file ('-' for stdin)")
    p.add_argument("--cert", required=True)

    for name, func, check in (
        ("bound", _cmd_bound, None),
        ("hh-check", _cmd_check, "hh"),
        ("chudnovsky", _cmd_check, "chudnovsky"),
        ("threshold", _cmd_threshold, None),
    ):
        p = add(name, func)
        p.set_defaults(check=check)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--points", type=int, required=True)

    p = add("oracle-dim", _cmd_oracle_dim, help="Monte Carlo dimension of a concrete system")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degree", type=_affine, required=True)
    p.add_argument("--mults", type=_mults, required=True)
    _add_oracle_flags(p)

    p = add("alpha", _cmd_alpha, help="initial degree of a symbolic power via the oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--power", type=int, required=True)
    _add_oracle_flags(p)

    p = add("sweep", _cmd_sweep, help="per-count verdict table over a range")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--check", choices=["hh", "chudnovsky"], required=True)
    return parser


def _add_oracle_flags(p) -> None:
    p.add_argument("--prime", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    try:
        return args.func(args)
    except (*_MALFORMED, OSError) as exc:
        sys.stderr.write(
            to_canonical_json({"error": str(exc), "kind": type(exc).__name__}) + "\n"
        )
        return EX_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
