"""Command-line front end with line-oriented JSON output.

Every subcommand prints one JSON object per line (command echo, inputs,
status, payload) to stdout, or to FILE with --out FILE.  Exit codes: 0
on success, 1 when a checked claim fails (a witness was found where
none was expected), 2 on usage errors, including arguments a command
rejects as out of range and an --out FILE that cannot be written.
Diagnostics go to stderr.

Commands that check a set of claims print one record per claim and
exit 1 if any fails: `euler-jacobi` without --a checks every exponent,
and `bm` without --a and --b sweeps the ten Ballantine-Merca pairs,
each record carrying the classification's verdict on its triple
(a, min(b, 24), max(b, 24)) as `expected` (verified for the seven
conjectured pairs, refuted for the other three).  Together with
`classify`, these three streams reproduce the paper's results.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import classify, partition, quadform, theta
from .numth import primes_in_class

_EXIT_OK = 0
_EXIT_CLAIM_FAILED = 1
_EXIT_USAGE = 2


def _emit(records: list[dict], args) -> None:
    lines = [json.dumps(rec, separators=(",", ":")) for rec in records]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _record(args, **payload) -> dict:
    rec = {"command": args.command, "inputs": dict(args.echo)}
    rec.update(payload)
    return rec


def _weber_dict(cert: quadform.WeberCertificate) -> dict:
    return {"p": cert.prime.p, "u": cert.prime.u, "v": cert.prime.v,
            "D": cert.prime.D,
            "passing_pair": [cert.passing_pair.y, cert.passing_pair.z],
            "failing_pair": [cert.failing_pair.y, cert.failing_pair.z],
            "index": cert.index}


def _certificate_dict(cert: classify.Certificate) -> dict:
    out = {"status": cert.status, "terms": cert.n_terms}
    if cert.witness is not None:
        out["witness"] = cert.witness
    if cert.weber is not None:
        out["weber"] = _weber_dict(cert.weber)
    return out


def _cmd_series(args):
    support = theta.theta_exponents(args.m, args.terms).tolist()
    return [_record(args, status="ok", support=support)], _EXIT_OK


def _cmd_eta(args):
    series = theta.eta_power_series(args.power, args.terms)
    return [_record(args, status="ok", support=list(series.support))], _EXIT_OK


def _cmd_euler_jacobi(args):
    exponents = [args.a] if args.a is not None else list(theta.EULER_JACOBI_EXPONENTS)
    records, code = [], _EXIT_OK
    for a in exponents:
        witness = theta.euler_jacobi_check(a, args.terms)
        rec = _record(args, a=a, status=classify.witness_status(witness),
                      witness=witness)
        records.append(rec)
        if witness is not None:
            code = _EXIT_CLAIM_FAILED
    return records, code


def _cmd_partition(args):
    parity = np.unpackbits(partition.partition_parity(args.terms).byte_array(),
                           count=args.terms, bitorder="little").tolist()
    return [_record(args, status="ok", parity=parity)], _EXIT_OK


def _cmd_bm(args):
    if args.a is not None and args.b is not None:
        witness = partition.bm_first_failure(args.a, args.b, args.max)
        rec = _record(args, status=classify.witness_status(witness), witness=witness)
        return [rec], _EXIT_OK if witness is None else _EXIT_CLAIM_FAILED
    if args.a is not None or args.b is not None:
        raise ValueError("--a and --b must be given together")
    records, code = [], _EXIT_OK
    for a, b in partition.BM_CONJECTURED_PAIRS + partition.BM_REFUTED_PAIRS:
        witness = partition.bm_first_failure(a, b, args.max)
        status = classify.witness_status(witness)
        expected = (classify.VERIFIED if (a, b) in partition.BM_CONJECTURED_PAIRS
                    else classify.REFUTED)
        records.append(_record(args, a=a, b=b, status=status, witness=witness,
                               expected=expected))
        if status != expected:
            code = _EXIT_CLAIM_FAILED
    return records, code


def _cmd_repcount(args):
    n = quadform.repcount(args.b, args.c, args.k)
    return [_record(args, status="ok", count=n, parity=n % 2)], _EXIT_OK


def _cmd_lemma_sols(args):
    sols = quadform.lemma34_solutions(args.bp, args.cp, args.target)
    rec = _record(args, status="ok", solutions=[[s.y, s.z] for s in sols])
    code = _EXIT_OK
    if args.u is not None or args.v is not None:
        if args.u is None or args.v is None:
            raise ValueError("--u and --v must be given together")
        ok = quadform.lemma34_check(args.bp, args.cp, args.u, args.v)
        rec["check"] = ok
        rec["status"] = "ok" if ok else "failed"
        code = _EXIT_OK if ok else _EXIT_CLAIM_FAILED
    return [rec], code


def _cmd_lemma_p(args):
    try:
        cls = quadform.lemma32_residue(args.u, args.v, args.strict)
    except ArithmeticError as exc:
        return [_record(args, status="failed", error=str(exc))], _EXIT_CLAIM_FAILED
    primes = primes_in_class(cls, 5)
    return [_record(args, status="ok", q=cls.q, Q=cls.Q,
                    certified_primes=primes)], _EXIT_OK


def _cmd_weber(args):
    if args.reject:
        if args.b is None or args.c is None:
            raise ValueError("--reject needs --b and --c")
        cert = quadform.weber_reject(args.b, args.c, args.bound)
        if cert is None:
            return [_record(args, status="no_certificate")], _EXIT_OK
        return ([_record(args, status="weber_refuted", **_weber_dict(cert))],
                _EXIT_CLAIM_FAILED)
    if args.d is None:
        raise ValueError("either --reject --b --c or --d is required")
    wp = quadform.find_weber_prime(args.d, args.s, args.t, args.m, args.bound)
    if wp is None:
        return [_record(args, status="not_found")], _EXIT_OK
    return [_record(args, status="ok", p=wp.p, u=wp.u, v=wp.v, D=wp.D)], _EXIT_OK


def _cmd_verify(args):
    cert = classify.verify_triple(args.a, args.b, args.c, args.terms)
    code = _EXIT_OK if cert.status == classify.VERIFIED else _EXIT_CLAIM_FAILED
    return [_record(args, **_certificate_dict(cert))], code


def _cmd_classify(args):
    report = classify.run_classification(args.terms)
    records = [_record(args, kind="candidate", triple=list(c.triple.as_tuple()),
                       **_certificate_dict(c))
               for c in report.certificates]
    records.append(_record(
        args, kind="family", rule="v2(d) in {2, 3}",
        checked_d_up_to=classify.FAMILY_MAX_D,
        consistent=report.family_consistent))
    records.append(_record(
        args, kind="summary", status="ok" if report.ok else "failed",
        verified=[list(c.triple.as_tuple()) for c in report.verified],
        refuted=len(report.refuted),
        weak_bound_admits=[list(t.as_tuple()) for t in report.weak_bound_admits],
        mismatches=report.mismatches))
    return records, _EXIT_OK if report.ok else _EXIT_CLAIM_FAILED


def _cmd_brute(args):
    found = classify.brute_search(args.bound, args.terms)
    predicted = classify.theorem_prediction(args.bound)
    match = found == predicted
    records = [_record(args, kind="triple", triple=list(t.as_tuple()))
               for t in found]
    records.append(_record(args, kind="summary",
                           status="ok" if match else "failed",
                           count=len(found), matches_theorem=match))
    return records, _EXIT_OK if match else _EXIT_CLAIM_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="theta-parity",
        description="verify and search mod-2 theta-function identities")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--out", metavar="FILE", default=None,
                       help="write the output stream to FILE instead of stdout")
        p.set_defaults(fn=fn)
        return p

    p = add("series", _cmd_series, help="support of the theta series f_m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)

    p = add("eta", _cmd_eta, help="support of (q;q)_inf^a mod 2")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--power", type=int, default=1, choices=theta.EULER_JACOBI_EXPONENTS)

    p = add("euler-jacobi", _cmd_euler_jacobi,
            help="check (q;q)_inf^a = f_{24/a} mod 2")
    p.add_argument("--a", type=int, default=None, choices=theta.EULER_JACOBI_EXPONENTS)
    p.add_argument("--terms", type=int, required=True)

    p = add("partition", _cmd_partition, help="parity table of p(n)")
    p.add_argument("--terms", type=int, required=True)

    p = add("bm", _cmd_bm,
            help="Ballantine-Merca check for a pair (a, b), or for all ten pairs")
    p.add_argument("--a", type=int, default=None)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--max", type=int, required=True)

    p = add("repcount", _cmd_repcount, help="representation count at one index")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("lemma-sols", _cmd_lemma_sols,
            help="solutions of c'y^2 + b'z^2 = target (optionally check the two-pair prediction)")
    p.add_argument("--bp", type=int, required=True)
    p.add_argument("--cp", type=int, required=True)
    p.add_argument("--target", type=int, required=True)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--v", type=int, default=None)

    p = add("lemma-p", _cmd_lemma_p, help="residue class forcing u | p^2-1 and (-v/p) = -1")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--strict", action="store_true",
                   help="additionally pin v2(p^2-1) = v2(Q)")

    p = add("weber", _cmd_weber, help="find a Weber prime, or search for a refutation certificate")
    p.add_argument("--d", dest="d", type=int, default=None, help="form coefficient D")
    p.add_argument("--s", type=int, default=0)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--reject", action="store_true", help="refutation mode")
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--c", type=int, default=None)

    p = add("verify", _cmd_verify, help="check f_a = f_b*f_c below a truncation")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--terms", type=int, required=True)

    p = add("classify", _cmd_classify, help="reproduce the classification theorem")
    p.add_argument("--terms", type=int, default=10 ** 6)

    p = add("brute", _cmd_brute, help="exhaustive search over b <= c <= bound")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--terms", type=int, default=2000)

    return parser


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.echo = {k: v for k, v in sorted(vars(args).items())
                 if k not in ("fn", "command", "out", "echo")
                 and v is not None}
    try:
        records, code = args.fn(args)
        _emit(records, args)
    except (ValueError, OSError) as exc:  # OSError: an unwritable --out
        print(f"{args.command}: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
