"""Command line front end.

Commands:
  field-info     parameters and canonical modulus of F_{q^m}
  commit         bind a witness vector to a random codeword, write the file
  verify         check a witness vector against a stored commitment
  vault lock     hide a key among chaff points indexed by feature elements
  vault unlock   recover the key with an overlapping feature set
  simulate       seeded experiment campaigns with pass/fail verdicts

Element vectors cross the boundary as text files, one canonical hex
string per line.  Commitments, vaults, and reports are canonical JSON,
so the same command with the same flags, seed, and inputs reproduces
output files byte for byte.

Exit codes: 0 success or accept; 1 protocol reject, failed verdict, or
a broken always-true guarantee; 2 usage, parameter, or input errors.
"""

import argparse
import json
import random
import sys

from .analysis import (
    mc_decode_roundtrip,
    mc_independence,
    mc_overlap_tightness,
    mc_subspace_tightness,
    save_report,
    sweep_basic_tightness,
    sweep_generalized_tightness,
)
from .commitment import (
    code_from_commitment,
    commit as build_commitment,
    load_commitment,
    save_commitment,
    verify as check_witness,
)
from .errors import ClaimViolation, RankfuzzError, save_json
from .fields import ExtField, ext_field, modulus_string
from .gabidulin import GabidulinCode
from .vault import VaultParams, load_vault, lock, save_vault, unlock


def _canonical_points(field: ExtField, n: int) -> tuple:
    # monomial basis elements 1, x, ..., x^(n-1)
    return tuple(field.q**i for i in range(n))


def _read_hex_vector(field: ExtField, path: str, expect: int) -> tuple:
    with open(path, "r", encoding="ascii") as fh:
        words = fh.read().split()
    if len(words) != expect:
        raise RankfuzzError(f"{path}: expected {expect} elements, found {len(words)}")
    return field.vec_from_hex(words)


def _write_hex_vector(field: ExtField, vec, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for v in vec:
            fh.write(field.to_hex(v) + "\n")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# Commands.


def _cmd_field_info(args) -> int:
    fld = ext_field(args.q, args.m)
    info = {
        "q": fld.q,
        "m": fld.m,
        "order": fld.order,
        "modulus": modulus_string(fld),
        "modulus_coeffs": list(fld.modulus),
    }
    if args.format == "json":
        _print_json(info)
    else:
        for k in ("q", "m", "order", "modulus"):
            print(f"{k} = {info[k]}")
    return 0


def _cmd_commit(args) -> int:
    fld = ext_field(args.q, args.m)
    code = GabidulinCode(fld, args.n, args.k, args.s, _canonical_points(fld, args.n))
    witness = _read_hex_vector(fld, args.witness, args.n)
    com = build_commitment(code, witness, random.Random(args.seed))
    save_commitment(com, args.out)
    summary = {
        "written": args.out,
        "q": args.q,
        "m": args.m,
        "n": args.n,
        "k": args.k,
        "s": args.s,
        "tolerated_rank": code.t,
    }
    if args.format == "json":
        _print_json(summary)
    else:
        print(f"commitment written to {args.out} (tolerates rank {code.t})")
    return 0


def _cmd_verify(args) -> int:
    com = load_commitment(args.commitment)
    code = code_from_commitment(com)
    witness = _read_hex_vector(code.field, args.witness, com.n)
    res = check_witness(code, witness, com)
    outcome = {"accepted": bool(res), "reason": res.reason}
    if res:
        outcome["codeword"] = [code.field.to_hex(c) for c in res.codeword]
    if args.out:
        save_json(outcome, args.out)
    if args.format == "json":
        _print_json(outcome)
    elif res:
        print("accepted")
        for h in outcome["codeword"]:
            print(h)
    else:
        print("rejected")
    if not res:
        print(f"reason: {res.reason}", file=sys.stderr)
        return 1
    return 0


def _cmd_vault_lock(args) -> int:
    params = VaultParams(q=args.q, m=args.m, n=args.n, ell=args.ell, s=args.s)
    fld = params.field
    feats = _read_hex_vector(fld, args.features, args.n)
    key = _read_hex_vector(fld, args.key, args.ell)
    vault = lock(params, feats, key, random.Random(args.seed))
    save_vault(vault, args.out)
    if args.format == "json":
        _print_json({"written": args.out, "points": fld.order, "tolerated_rank": params.t})
    else:
        print(f"vault written to {args.out} (tolerates distance {2 * params.t})")
    return 0


def _cmd_vault_unlock(args) -> int:
    vault = load_vault(args.vault)
    fld = vault.params.field
    witness = _read_hex_vector(fld, args.witness, vault.params.n)
    res = unlock(vault, witness)
    if not res:
        if args.format == "json":
            _print_json({"ok": False, "reason": "unlock_failure", "detail": res.reason})
        else:
            print("unlock failed")
        print("reason: unlock_failure", file=sys.stderr)
        return 1
    _write_hex_vector(fld, res.key, args.key_out)
    if args.format == "json":
        _print_json({"ok": True, "key_file": args.key_out})
    else:
        print(f"key recovered to {args.key_out}")
    return 0


def _verdict_exit(verdict: str, strict: bool) -> int:
    if verdict in ("exact_match", "within_3sigma"):
        return 0
    if verdict == "flagged":
        return 1 if strict else 0
    return 1


def _finish_simulate(report, args) -> int:
    if args.out:
        save_report(report, args.out)
    if args.format == "json":
        _print_json(report.to_dict())
    else:
        d = report.to_dict()
        shown = " ".join(f"{k}={v}" for k, v in sorted(d["params"].items()))
        line = f"{d['claim']} {shown}: {d['successes']}/{d['trials']} = {d['estimate']:.6f}"
        if d["formula"]:
            line += f" vs {d['formula']['numerator']}/{d['formula']['denominator']}"
        if d.get("points"):
            fails = ", ".join(f"{1 - p['estimate']:.4f}" for p in d["points"])
            line += f" [failure rates: {fails}]"
        print(line)
        print(f"verdict: {d['verdict']}")
    return _verdict_exit(report.verdict, args.strict)


def _cmd_simulate(args) -> int:
    claim = args.claim
    if claim == "lemma2":
        report = mc_independence(args.q, args.m, args.n, args.trials, args.seed)
    elif claim == "prop2":
        report = mc_overlap_tightness(
            args.q, args.n, args.u, args.ell, args.s, args.trials, args.seed
        )
    elif claim == "prop4":
        report = mc_subspace_tightness(
            args.q, args.m, args.n, args.u, args.v, args.ell, args.s, args.trials, args.seed
        )
    elif claim == "thm3":
        report = sweep_basic_tightness(
            args.q_sweep, args.n, args.ell, args.s, args.trials, args.seed, args.distribution
        )
    elif claim == "thm5":
        report = sweep_generalized_tightness(
            args.q, args.m_sweep, args.n, args.ell, args.s, args.trials, args.seed, args.distribution
        )
    else:  # roundtrip
        report = mc_decode_roundtrip(
            args.q, args.m, args.n, args.k, args.s, args.trials, args.seed
        )
    return _finish_simulate(report, args)


# ---------------------------------------------------------------------------
# Parser.


def _int_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


def _add_common(p, *, seed=True, fmt=True):
    if seed:
        p.add_argument("--seed", type=int, default=0, help="deterministic randomness seed")
    if fmt:
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="stdout style"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankfuzz",
        description="rank-metric fuzzy authentication: commitments, vaults, experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="show parameters of F_{q^m}")
    p.add_argument("--q", type=int, required=True, help="prime base field size")
    p.add_argument("--m", type=int, required=True, help="extension degree")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_field_info)

    p = sub.add_parser("commit", help="bind a witness vector to a random codeword")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="witness length")
    p.add_argument("--k", type=int, required=True, help="code dimension")
    p.add_argument("--s", type=int, default=1, help="twist exponent")
    p.add_argument("--witness", required=True, help="hex vector file, n lines")
    p.add_argument("--out", required=True, help="commitment JSON path")
    _add_common(p)
    p.set_defaults(func=_cmd_commit)

    p = sub.add_parser("verify", help="check a witness against a commitment")
    p.add_argument("--commitment", required=True, help="commitment JSON path")
    p.add_argument("--witness", required=True, help="hex vector file")
    p.add_argument("--out", default=None, help="optional outcome JSON path")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_verify)

    vault = sub.add_parser("vault", help="feature-keyed key protection")
    vsub = vault.add_subparsers(dest="vault_command", required=True)

    p = vsub.add_parser("lock", help="hide a key among chaff points")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="feature count")
    p.add_argument("--ell", type=int, required=True, help="key length")
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--features", required=True, help="hex vector file, n lines")
    p.add_argument("--key", required=True, help="hex vector file, ell lines")
    p.add_argument("--out", required=True, help="vault JSON path")
    _add_common(p)
    p.set_defaults(func=_cmd_vault_lock)

    p = vsub.add_parser("unlock", help="recover the key with a witness set")
    p.add_argument("--vault", required=True, help="vault JSON path")
    p.add_argument("--witness", required=True, help="hex vector file, n lines")
    p.add_argument("--key-out", required=True, help="recovered key path")
    _add_common(p, seed=False)
    p.set_defaults(func=_cmd_vault_unlock)

    sim = sub.add_parser("simulate", help="run a seeded experiment campaign")
    ssub = sim.add_subparsers(dest="claim", required=True)

    def sim_parser(token, help_text):
        q = ssub.add_parser(token, help=help_text)
        q.add_argument("--trials", type=int, default=10**4)
        q.add_argument("--out", default=None, help="report JSON path")
        q.add_argument("--strict", action="store_true", help="flagged verdicts exit 1")
        _add_common(q)
        q.set_defaults(func=_cmd_simulate, claim=token)
        return q

    p = sim_parser("lemma2", "independence rate of uniform element subsets")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sim_parser("prop2", "tightness rate at fixed set overlap, m = n")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", type=int, required=True, help="common element count")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--s", type=int, default=1)

    p = sim_parser("prop4", "tightness rate at fixed set and span overlap")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--u", type=int, required=True, help="common element count")
    p.add_argument("--v", type=int, required=True, help="span overlap dimension")
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--s", type=int, default=1)

    p = sim_parser("thm3", "failure trend of the m = n scheme as q grows")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--q-sweep", type=_int_list, default=[2, 3, 5], help="comma list")
    p.add_argument(
        "--distribution", choices=("uniform_u", "uniform_w"), default="uniform_u"
    )

    p = sim_parser("thm5", "failure trend of the completed scheme as m grows")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--m-sweep", type=_int_list, default=[4, 5, 6], help="comma list")
    p.add_argument(
        "--distribution", choices=("uniform_u", "uniform_w"), default="uniform_u"
    )

    p = sim_parser("roundtrip", "decode success rate within half distance")
    p.set_defaults(trials=10**3)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, default=1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ClaimViolation as exc:
        print(f"reason: claim_violation ({exc})", file=sys.stderr)
        return 1
    except RankfuzzError as exc:
        # a feature-set refusal prints its reason token, as a protocol
        # outcome does, but exits 2 like every input error
        print(f"reason: {exc.reason}" if exc.reason else f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
