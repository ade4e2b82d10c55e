"""Seeded operation rounds for each workload, with an oracle for every outcome.

A round is a generator of Op records.  The runner times op.call(),
checks the result with op.check() outside the timed region, and sends
the result back into the generator, so later operations of the round can
use it (a verify needs its commitment).  Round r draws everything from
Random(f"{workload}:{seed}:{r}"), so it is the same work in every run
with that seed.

Inputs come from the benchmark's own F_2 arithmetic (gf2), never from
the library's samplers, and every expected outcome is derived from what
the benchmark planted:

- a genuine reading lies within the decoding radius t and must be
  accepted with the planted codeword or key;
- a commitment impostor lies at rank exactly t + 1 and must be rejected;
- a vault unlock must succeed exactly when table[W] - kappa(W) has rank
  at most t, which the benchmark computes because it chose kappa;
- a campaign must raise no ClaimViolation and its merged report must not
  carry a failed verdict;
- each CLI enrolment runs twice with the same seed, and the two files
  must be byte-identical.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import rankfuzz
from rankfuzz import analysis, cli

import gf2
from shapes import FIELDS

REJECT_REASONS = ("decoding_failure", "digest_mismatch")


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def attempt_rank(index: int, t: int) -> int:
    """Error rank of authentication attempt `index` against radius t.

    Every third attempt is an impostor, at rank t + 1.  A fixed, uneven
    mix keeps each latency percentile inside one mode of the
    genuine/impostor cost split instead of on the boundary between them.
    The genuine attempts cycle through ranks 0..t, since decoding cost
    depends on the rank, so every run sees the same mix of ranks.
    """
    group, slot = divmod(index, 3)
    return t + 1 if slot == 2 else (2 * group + slot) % (t + 1)


def run_cli(argv) -> int:
    """rankfuzz.cli.main in-process, console output discarded; the exit code."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            return cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            return exc.code


def file_digest(path: Path) -> bytes:
    return hashlib.sha256(path.read_bytes()).digest()


def write_hex(path: Path, vec, m: int) -> None:
    path.write_text("".join(gf2.to_hex(v, m) + "\n" for v in vec), encoding="ascii")


def read_hex(path: Path, m: int) -> tuple[int, ...]:
    return tuple(gf2.from_hex(w, m) for w in path.read_text(encoding="ascii").split())


def xor_vec(a, b) -> tuple[int, ...]:
    return tuple(x ^ y for x, y in zip(a, b))


class Workload:
    """Fields built at set-up, the work directory, and the round generator."""

    name = ""
    lib_kinds: tuple[str, ...] = ()
    cli_kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.fields = []
        self.ext_field_s = 0.0
        self.table_build_s = 0.0
        for q, m in FIELDS[self.name]:
            t0 = perf_counter()
            field = rankfuzz.ext_field(q, m)
            t1 = perf_counter()
            field.mul(1, 1)  # builds the log/exp tables when q^m <= 2^16
            t2 = perf_counter()
            self.ext_field_s += t1 - t0
            self.table_build_s += t2 - t1
            self.fields.append(field)

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{r}")

    def round(self, r: int):
        raise NotImplementedError

    def finish(self) -> list[str]:
        """Checks that span a whole phase of rounds; returns problems found."""
        return []


class _Commitments(Workload):
    """Commit and verify on a binary field, in the library and through the CLI."""

    m = n = k = 0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.field = self.fields[0]
        self.t = (self.n - self.k) // 2

    def reading(self, witness, rng, rank: int):
        return xor_vec(witness, gf2.rank_error(self.n, self.m, rank, rng))

    def commitment_ok(self, com, witness) -> bool:
        return len(com.offset) == self.n and com.digest == gf2.digest(
            xor_vec(witness, com.offset), self.m
        )

    @staticmethod
    def verify_ok(res, codeword, accept: bool) -> bool:
        if accept:
            return res.accepted and tuple(res.codeword) == codeword
        return not res.accepted and res.reason in REJECT_REASONS

    def commit_user(self, rng, attempt: int):
        n, m = self.n, self.m
        points = tuple(gf2.independent_elements(n, m, rng))
        code = rankfuzz.GabidulinCode(self.field, n, self.k, 1, points)
        witness = tuple(rng.getrandbits(m) for _ in range(n))
        commit_rng = random.Random(rng.getrandbits(64))
        com = yield Op(
            "commit",
            lambda: rankfuzz.commit(code, witness, commit_rng),
            lambda c: self.commitment_ok(c, witness),
        )
        codeword = xor_vec(witness, com.offset)
        rank = attempt_rank(attempt, self.t)
        reading = self.reading(witness, rng, rank)
        yield Op(
            "verify",
            lambda: rankfuzz.verify(code, reading, com),
            lambda res: self.verify_ok(res, codeword, rank <= self.t),
        )

    def cli_commit(self, rng, first_index: int, verifies: int):
        """cli_commit twice with one seed, then `verifies` cli_verify calls."""
        m, d = self.m, self.workdir
        witness = tuple(rng.getrandbits(m) for _ in range(self.n))
        write_hex(d / "witness.hex", witness, m)
        args = ["commit", "--q", 2, "--m", m, "--n", self.n, "--k", self.k,
                "--witness", d / "witness.hex", "--seed", rng.getrandbits(31)]
        first, second = d / "commitment-a.json", d / "commitment-b.json"

        stored = {}

        def commit_ok(code: int) -> bool:
            data = json.loads(first.read_text())
            offset = [gf2.from_hex(h, m) for h in data["offset"]]
            stored["codeword"] = codeword = xor_vec(witness, offset)
            return code == 0 and len(codeword) == self.n and (
                bytes.fromhex(data["digest"]) == gf2.digest(codeword, m)
            )

        yield Op("cli_commit", lambda: run_cli(args + ["--out", first]), commit_ok)
        yield Op(
            "cli_commit",
            lambda: run_cli(args + ["--out", second]),
            lambda code: code == 0 and file_digest(first) == file_digest(second),
        )
        codeword = [gf2.to_hex(c, m) for c in stored["codeword"]]
        outcome = d / "outcome.json"
        for i in range(verifies):
            rank = attempt_rank(first_index + i, self.t)
            write_hex(d / "reading.hex", self.reading(witness, rng, rank), m)
            argv = ["verify", "--commitment", first, "--witness", d / "reading.hex",
                    "--out", outcome, "--format", "json"]

            def verify_ok(code: int, accept: bool = rank <= self.t) -> bool:
                got = json.loads(outcome.read_text())
                if accept:
                    return code == 0 and got["accepted"] and got["codeword"] == codeword
                return code == 1 and not got["accepted"]

            yield Op("cli_verify", lambda: run_cli(argv), verify_ok)
        for path in (first, second, outcome):
            path.unlink()


class AuthTable(_Commitments):
    """Enrol and authenticate at q=2, m=16, where fields are table-backed."""

    name = "auth-table"
    lib_kinds = ("commit", "verify", "lock", "unlock")
    cli_kinds = ("cli_commit", "cli_verify", "cli_lock", "cli_unlock")
    m, n, k = 16, 16, 8  # commitment: t = 4
    ell = 4  # vault key length: t = 6
    # per round; the cheap operations get more samples, which steadies
    # their p90 against short stalls
    vault_users = 12
    unlocks_per_vault = 3
    commit_users = 36
    cli_verifies = 3

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.params = rankfuzz.VaultParams(q=2, m=self.m, n=self.n, ell=self.ell)
        self.vault_t = self.params.t
        self.poly = gf2.poly_int(self.field.modulus)

    def round(self, r: int):
        rng = self.rng(r)
        unlocks = self.unlocks_per_vault
        for i in range(self.vault_users):
            first = (r * self.vault_users + i) * unlocks
            yield from self.vault_user(rng, range(first, first + unlocks))
        for i in range(self.commit_users):
            yield from self.commit_user(rng, r * self.commit_users + i)
        yield from self.cli_vault(rng, r)
        yield from self.cli_commit(rng, r * self.cli_verifies, self.cli_verifies)

    def vault_inputs(self, rng):
        features = gf2.independent_elements(self.n, self.m, rng)
        key = tuple(rng.getrandbits(self.m) for _ in range(self.ell))
        return features, key

    def vault_witness(self, table, features, key, rng, rank: int):
        """A witness missing `rank` features (an impostor, past t, shares at
        most 4), and whether unlock must accept it."""
        n = self.n
        u = n - rank if rank <= self.vault_t else rng.randint(0, 4)
        witness = gf2.independent_elements(
            n, self.m, rng, avoid=frozenset(features), start=rng.sample(features, u)
        )
        kappa = gf2.linear_map(key, self.m, self.poly)
        error = [table[w] ^ kappa(w) for w in witness]
        return tuple(witness), gf2.xor_rank(error) <= self.vault_t

    def lock_ok(self, vault, features, key) -> bool:
        table = vault.table
        if len(table) != 1 << self.m or vault.key_digest != gf2.digest(key, self.m):
            return False
        kappa = gf2.linear_map(key, self.m, self.poly)
        if any(table[x] != kappa(x) for x in features):
            return False
        # chaff is drawn from everything except kappa(x)
        chaff = set(range(0, 1 << self.m, 1021)) - set(features)
        return all(table[x] != kappa(x) for x in chaff)

    @staticmethod
    def unlock_ok(res, key, accept: bool) -> bool:
        if accept:
            return res.key is not None and tuple(res.key) == key
        return res.key is None and res.reason in REJECT_REASONS

    def vault_user(self, rng, attempts):
        """One lock, then an unlock per attempt index."""
        features, key = self.vault_inputs(rng)
        lock_rng = random.Random(rng.getrandbits(64))
        vault = yield Op(
            "lock",
            lambda: rankfuzz.lock(self.params, features, key, lock_rng),
            lambda v: self.lock_ok(v, features, key),
        )
        for attempt in attempts:
            rank = attempt_rank(attempt, self.vault_t)
            witness, accept = self.vault_witness(vault.table, features, key, rng, rank)
            yield Op(
                "unlock",
                lambda: rankfuzz.unlock(vault, witness),
                lambda res: self.unlock_ok(res, key, accept),
            )

    def cli_vault(self, rng, r: int):
        """cli_lock twice with one seed, then a genuine and an impostor cli_unlock."""
        m, d = self.m, self.workdir
        features, key = self.vault_inputs(rng)
        seed = rng.getrandbits(31)
        write_hex(d / "features.hex", features, m)
        write_hex(d / "key.hex", key, m)
        args = ["vault", "lock", "--q", 2, "--m", m, "--n", self.n, "--ell", self.ell,
                "--features", d / "features.hex", "--key", d / "key.hex", "--seed", seed]
        first, second = d / "vault-a.json", d / "vault-b.json"
        yield Op("cli_lock", lambda: run_cli(args + ["--out", first]), lambda code: code == 0)
        yield Op(
            "cli_lock",
            lambda: run_cli(args + ["--out", second]),
            lambda code: code == 0 and file_digest(first) == file_digest(second),
        )
        # The same lock in the library, outside any timed region, gives the
        # table the oracle needs without parsing the 6 MB file.
        table = rankfuzz.lock(self.params, features, key, random.Random(seed)).table
        key_out = d / "key-out.hex"
        for rank in (r % (self.vault_t + 1), self.vault_t + 1):
            witness, accept = self.vault_witness(table, features, key, rng, rank)
            write_hex(d / "witness.hex", witness, m)
            key_out.unlink(missing_ok=True)
            argv = ["vault", "unlock", "--vault", first, "--witness", d / "witness.hex",
                    "--key-out", key_out]

            def unlock_ok(code: int, accept: bool = accept) -> bool:
                if accept:
                    return code == 0 and read_hex(key_out, m) == key
                return code == 1 and not key_out.exists()

            yield Op("cli_unlock", lambda: run_cli(argv), unlock_ok)
        for path in (first, second):
            path.unlink()
        key_out.unlink(missing_ok=True)


class AuthBigfield(_Commitments):
    """Commit and verify at q=2, m=32, past the 2^16 table limit."""

    name = "auth-bigfield"
    lib_kinds = ("commit", "verify")
    cli_kinds = ("cli_commit", "cli_verify")
    m, n, k = 32, 8, 4  # t = 2
    users = 3

    def round(self, r: int):
        rng = self.rng(r)
        for i in range(self.users):
            yield from self.commit_user(rng, r * self.users + i)
        yield from self.cli_commit(rng, r, 1)


# Acceptance-test shapes, one trial per call.
CAMPAIGNS = {
    "prop2": lambda seed, i: analysis.mc_overlap_tightness(
        q=2, n=8, u=4, ell=2, trials=1, seed=seed, start=i
    ),
    "prop4": lambda seed, i: analysis.mc_subspace_tightness(
        q=2, m=6, n=4, u=1, v=2, ell=1, trials=1, seed=seed, start=i
    ),
    "thm3": lambda seed, i: analysis.mc_scheme_tightness(
        "basic", q=3, m=4, n=4, ell=1, trials=1, seed=seed, start=i
    ),
    "roundtrip": lambda seed, i: analysis.mc_decode_roundtrip(
        q=3, m=5, n=5, k=1, trials=1, seed=seed, start=i
    ),
}

# `rankfuzz simulate` commands whose claimed rate is exactly 1, so any
# miss is a defect rather than sampling noise.
CLI_CAMPAIGNS = {
    "cli_roundtrip": ["simulate", "roundtrip", "--q", 3, "--m", 5, "--n", 5, "--k", 1],
    "cli_prop2": ["simulate", "prop2", "--q", 2, "--n", 8, "--u", 8, "--ell", 2],
}


class Campaign(Workload):
    """Seeded campaigns through `analysis`, and `rankfuzz simulate`."""

    name = "campaign"
    lib_kinds = tuple(CAMPAIGNS)
    cli_kinds = tuple(CLI_CAMPAIGNS)
    trials_per_round = 16  # per claim
    cli_trials = 8

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.merged = dict.fromkeys(CAMPAIGNS)

    @staticmethod
    def trial_ok(claim: str, report) -> bool:
        # a single trial of roundtrip must decode; the statistical
        # claims are judged on the merged report in finish()
        return report.trials == 1 and (claim != "roundtrip" or report.successes == 1)

    def round(self, r: int):
        rng = self.rng(r)
        for j in range(self.trials_per_round):
            index = r * self.trials_per_round + j
            for claim, run in CAMPAIGNS.items():
                report = yield Op(
                    claim,
                    lambda: run(self.seed, index),
                    lambda rep, claim=claim: self.trial_ok(claim, rep),
                )
                merged = self.merged[claim]
                if merged is not None:
                    report = analysis.merge_reports(merged, report)
                self.merged[claim] = report
        d = self.workdir
        first, second = d / "report-a.json", d / "report-b.json"
        for kind, argv in CLI_CAMPAIGNS.items():
            args = argv + ["--trials", self.cli_trials, "--seed", rng.getrandbits(31),
                           "--format", "json"]

            def report_ok(code: int) -> bool:
                rep = json.loads(first.read_text())
                return (
                    code == 0
                    and rep["trials"] == rep["successes"] == self.cli_trials
                    and rep["verdict"] == "within_3sigma"
                )

            yield Op(kind, lambda: run_cli(args + ["--out", first]), report_ok)
            yield Op(
                kind,
                lambda: run_cli(args + ["--out", second]),
                lambda code: code == 0 and file_digest(first) == file_digest(second),
            )
        for path in (first, second):
            path.unlink()

    def finish(self) -> list[str]:
        problems = [
            f"{claim}: merged campaign verdict failed"
            for claim, merged in self.merged.items()
            if merged is not None and merged.verdict == "failed"
        ]
        self.merged = dict.fromkeys(CAMPAIGNS)
        return problems


WORKLOAD_CLASSES = {cls.name: cls for cls in (AuthTable, AuthBigfield, Campaign)}
