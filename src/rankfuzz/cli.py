"""Command line front end.

Commands:
  field-info     parameters and canonical modulus of F_{q^m}
  commit         bind a witness vector to a random codeword, write the file
  verify         check a witness vector against a stored commitment
  vault lock     hide a key among chaff points indexed by feature elements
  vault unlock   recover the key with an overlapping feature set
  simulate       seeded experiment campaigns with pass/fail verdicts

Element vectors cross the boundary as text files, one canonical hex
string per line, and a file with the wrong number of names is refused
by ExtField.check_sized.  Commitments, vaults, and reports are canonical
JSON, so the same command with the same flags, seed, and inputs
reproduces output files byte for byte.  Every command prints through
_emit: its record as errors.canonical_json under --format json, else
its text lines.

Each flag that several commands take is declared once, in _FLAGS, and
each simulate claim once, in _CLAIMS, with the campaign it calls and
the flags it passes to it by keyword.  A claim's parameters are checked
before its first trial: a sweep refuses values that do not increase,
and a witness shape that cannot be drawn, such as u = 0 at q = 2 and
m = n = 2, is refused with its reason.  main() parses with one parser,
built on its first call and kept for the life of the process.

Exit codes: 0 success or accept; 1 protocol reject, failed verdict, or
a broken always-true guarantee; 2 usage, parameter, or input errors.
"""

import argparse
import functools
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
from .errors import ClaimViolation, RankfuzzError, canonical_json, save_json
from .fields import ExtField, ext_field, modulus_string
from .gabidulin import GabidulinCode
from .vault import VaultParams, load_vault, lock, save_vault, unlock


def _canonical_points(field: ExtField, n: int) -> tuple:
    # monomial basis elements 1, x, ..., x^(n-1)
    return tuple(field.q**i for i in range(n))


def _read_hex_vector(field: ExtField, path: str, expect: int) -> tuple:
    with open(path, "r", encoding="ascii") as fh:
        return field.check_sized(field.vec_from_hex(fh.read().split()), expect, path)


def _write_hex_vector(field: ExtField, vec, path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for v in vec:
            fh.write(field.to_hex(v) + "\n")


def _emit(args, record, *lines) -> None:
    print(canonical_json(record) if args.format == "json" else "\n".join(lines))


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
    _emit(args, info, *(f"{k} = {info[k]}" for k in ("q", "m", "order", "modulus")))
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
    _emit(args, summary, f"commitment written to {args.out} (tolerates rank {code.t})")
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
    _emit(args, outcome, "accepted" if res else "rejected", *outcome.get("codeword", ()))
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
    summary = {"written": args.out, "points": fld.order, "tolerated_rank": params.t}
    _emit(args, summary, f"vault written to {args.out} (tolerates distance {2 * params.t})")
    return 0


def _cmd_vault_unlock(args) -> int:
    vault = load_vault(args.vault)
    fld = vault.params.field
    witness = _read_hex_vector(fld, args.witness, vault.params.n)
    res = unlock(vault, witness)
    if not res:
        failure = {"ok": False, "reason": "unlock_failure", "detail": res.reason}
        _emit(args, failure, "unlock failed")
        print("reason: unlock_failure", file=sys.stderr)
        return 1
    _write_hex_vector(fld, res.key, args.key_out)
    _emit(args, {"ok": True, "key_file": args.key_out}, f"key recovered to {args.key_out}")
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
    d = report.to_dict()
    shown = " ".join(f"{k}={v}" for k, v in sorted(d["params"].items()))
    line = f"{d['claim']} {shown}: {d['successes']}/{d['trials']} = {d['estimate']:.6f}"
    if d["formula"]:
        line += f" vs {d['formula']['numerator']}/{d['formula']['denominator']}"
    if d.get("points"):
        fails = ", ".join(f"{1 - p['estimate']:.4f}" for p in d["points"])
        line += f" [failure rates: {fails}]"
    _emit(args, d, line, f"verdict: {d['verdict']}")
    return _verdict_exit(report.verdict, args.strict)


def _cmd_simulate(args) -> int:
    campaign, _, flags, _ = _CLAIMS[args.claim]
    kwargs = {name: getattr(args, name) for name in flags}
    report = campaign(**kwargs, trials=args.trials, seed=args.seed)
    return _finish_simulate(report, args)


# ---------------------------------------------------------------------------
# Parser.


def _int_list(text: str) -> list:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {text!r}")


# Each flag more than one command takes, by the name it parses to, which
# is also the keyword of every campaign that takes it: option string and
# add_argument keywords.
_FLAGS = {
    "q": ("--q", dict(type=int, required=True, help="prime base field size")),
    "m": ("--m", dict(type=int, required=True, help="extension degree")),
    "n": ("--n", dict(type=int, required=True, help="feature or witness count")),
    "k": ("--k", dict(type=int, required=True, help="code dimension")),
    "ell": ("--ell", dict(type=int, required=True, help="key length")),
    "s": ("--s", dict(type=int, default=1, help="twist exponent")),
    "u": ("--u", dict(type=int, required=True, help="common element count")),
    "v": ("--v", dict(type=int, required=True, help="span overlap dimension")),
    "q_values": ("--q-sweep", dict(type=_int_list, default=[2, 3, 5], help="comma list")),
    "m_values": ("--m-sweep", dict(type=_int_list, default=[4, 5, 6], help="comma list")),
    "distribution": (
        "--distribution", dict(choices=("uniform_u", "uniform_w"), default="uniform_u")
    ),
    "seed": ("--seed", dict(type=int, default=0, help="deterministic randomness seed")),
    "format": ("--format", dict(choices=("text", "json"), default="text", help="stdout style")),
}

# Each simulate claim: campaign, default trial count, the _FLAGS it passes
# to the campaign by name, and help line.
_CLAIMS = {
    "lemma2": (mc_independence, 10**4, ("q", "m", "n"),
               "independence rate of uniform element subsets"),
    "prop2": (mc_overlap_tightness, 10**4, ("q", "n", "u", "ell", "s"),
              "tightness rate at fixed set overlap, m = n"),
    "prop4": (mc_subspace_tightness, 10**4, ("q", "m", "n", "u", "v", "ell", "s"),
              "tightness rate at fixed set and span overlap"),
    "thm3": (sweep_basic_tightness, 10**4, ("n", "ell", "s", "q_values", "distribution"),
             "failure trend of the m = n scheme as q grows"),
    "thm5": (sweep_generalized_tightness, 10**4, ("q", "n", "ell", "s", "m_values", "distribution"),
             "failure trend of the completed scheme as m grows"),
    "roundtrip": (mc_decode_roundtrip, 10**3, ("q", "m", "n", "k", "s"),
                  "decode success rate within half distance"),
}


def _add_flags(p, *names) -> None:
    for name in names:
        option, kwargs = _FLAGS[name]
        p.add_argument(option, dest=name, **kwargs)


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with one error: line, without the usage block."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    # add_subparsers builds every subcommand parser from this same class
    parser = _Parser(
        prog="rankfuzz",
        description="rank-metric fuzzy authentication: commitments, vaults, experiments",
    )
    # each prog= is the prefix argparse would otherwise format from a usage line
    sub = parser.add_subparsers(required=True, prog=parser.prog)

    p = sub.add_parser("field-info", help="show parameters of F_{q^m}")
    _add_flags(p, "q", "m", "format")
    p.set_defaults(func=_cmd_field_info)

    p = sub.add_parser("commit", help="bind a witness vector to a random codeword")
    p.add_argument("--witness", required=True, help="hex vector file, n lines")
    p.add_argument("--out", required=True, help="commitment JSON path")
    _add_flags(p, "q", "m", "n", "k", "s", "seed", "format")
    p.set_defaults(func=_cmd_commit)

    p = sub.add_parser("verify", help="check a witness against a commitment")
    p.add_argument("--commitment", required=True, help="commitment JSON path")
    p.add_argument("--witness", required=True, help="hex vector file")
    p.add_argument("--out", default=None, help="optional outcome JSON path")
    _add_flags(p, "format")
    p.set_defaults(func=_cmd_verify)

    vault = sub.add_parser("vault", help="feature-keyed key protection")
    vsub = vault.add_subparsers(required=True, prog=vault.prog)

    p = vsub.add_parser("lock", help="hide a key among chaff points")
    p.add_argument("--features", required=True, help="hex vector file, n lines")
    p.add_argument("--key", required=True, help="hex vector file, ell lines")
    p.add_argument("--out", required=True, help="vault JSON path")
    _add_flags(p, "q", "m", "n", "ell", "s", "seed", "format")
    p.set_defaults(func=_cmd_vault_lock)

    p = vsub.add_parser("unlock", help="recover the key with a witness set")
    p.add_argument("--vault", required=True, help="vault JSON path")
    p.add_argument("--witness", required=True, help="hex vector file, n lines")
    p.add_argument("--key-out", required=True, help="recovered key path")
    _add_flags(p, "format")
    p.set_defaults(func=_cmd_vault_unlock)

    sim = sub.add_parser("simulate", help="run a seeded experiment campaign")
    ssub = sim.add_subparsers(required=True, prog=sim.prog)
    for claim, (_, trials, flags, help_text) in _CLAIMS.items():
        p = ssub.add_parser(claim, help=help_text)
        p.add_argument("--trials", type=int, default=trials)
        p.add_argument("--out", default=None, help="report JSON path")
        p.add_argument("--strict", action="store_true", help="flagged verdicts exit 1")
        _add_flags(p, "seed", "format", *flags)
        p.set_defaults(func=_cmd_simulate, claim=claim)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import, and kept: parsing
    # leaves no state in it, so later calls parse exactly as a fresh one
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
