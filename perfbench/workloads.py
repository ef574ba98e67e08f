"""Input builders for the four benchmark workloads.

Each builder writes the workload's input files into a work directory and
returns its command pool (every command the workload can ever issue, so the
recorded report digests cover every input) and the stream a run issues.  The
stream does not depend on the seed; the seed orders each pass over it.
Expected answers come from how the inputs are made, never from the checker
under test:

* corpus algebras pass by construction (`make_commutative_va` validates
  commutativity, associativity and the derivation on its own);
* `fixtures/a3_mutated.json` fails;
* compose-diff on a valid chiral algebra prints ZERO (the Jacobi identity);
* the delta identities are true by the delta calculus, and their
  sign-flipped copies are false on every box that meets their support;
* a mutant's VA and chiral verdicts agree pairwise (criterion 7).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from chiralva import serialize
from chiralva.equivalence import va_to_chiral
from chiralva.fixtures import corpus, truncated_poly_va
from chiralva.vertex import bump_structure_constant, mutation_sites, tensor_with_ox

WORKLOADS = ("corpus-cli", "mutant-sweep", "va-ladder", "delta-window")

WORK = "<work>"  # stands for the work directory in argv keys and reports
ROOT = "<root>"  # stands for the checkout root


@dataclass(frozen=True)
class Command:
    """One CLI invocation with its known answer.

    `argv` uses the WORK/ROOT placeholders; `key` (the joined argv) names the
    recorded report digest.  `expect_code` is None when the verdict is only
    known relative to a partner command of the same `group`.
    """

    argv: tuple[str, ...]
    expect_code: int | None
    expect_text: tuple[str, ...] = ()
    group: str | None = None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def kind(self) -> str:
        return self.argv[0]

    def concrete(self, work: str, root: str) -> list[str]:
        return [a.replace(WORK, work).replace(ROOT, root) for a in self.argv]


@dataclass
class Workload:
    name: str
    pool: list[Command]
    stream: list[Command]
    pass_seconds: float  # nominal time of one pass; fixes the pass count
    shuffle: random.Random = field(repr=False)

    def passes(self, seconds: float) -> int:
        """Whole passes that fit `seconds` at the nominal pace, at least one.
        The count depends only on the arguments, so every run of a workload
        weighs its commands the same way."""
        return max(1, round(seconds / self.pass_seconds))

    def pass_order(self) -> list[Command]:
        """The stream in this pass's seeded order."""
        order = list(self.stream)
        self.shuffle.shuffle(order)
        return order


def _write(work: Path, rel: str, text: str) -> str:
    path = work / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return f"{WORK}/{rel}"


PASS = ("result: PASS",)
FAIL = ("result: FAIL",)


# ---------------------------------------------------------------------------
# corpus-cli


# A fixed seed draws the generator triples; every run issues all of them, so
# the run seed only orders each pass and cannot shift the latency quantiles.
COMPOSE_POOL_SEED = 20260
COMPOSE_POOL = 24


def _compose_pool(path: str, V, rng: random.Random) -> list[Command]:
    lo, hi = V.global_support()
    out = []
    for _ in range(COMPOSE_POOL):
        ms = [str(rng.randint(lo - 1, hi + 1)) for _ in range(3)]
        names = [rng.choice(V.basis_names) for _ in range(3)]
        out.append(Command(("compose-diff", path, *ms, *names), 0, ("result: ZERO",)))
    return out


def build_corpus_cli(work: Path, small: bool) -> tuple[list, list]:
    pool_rng = random.Random(COMPOSE_POOL_SEED)
    pool, stream = [], []
    for name, V in corpus():
        va = _write(work, f"corpus/{name}.va.json", serialize.dumps(V))
        ch = _write(work, f"corpus/{name}.ch.json", serialize.dumps(va_to_chiral(V, checked=False)))
        fixed = [
            Command(("check-va", va), 0, PASS),
            Command(("check-chiral", ch), 0, PASS),
            Command(("roundtrip", va), 0, ("roundtrip: EXACT",) + PASS),
        ]
        composes = _compose_pool(ch, V, pool_rng)
        pool += fixed + composes
        if small and name != "trivial-rank1":
            continue
        stream += fixed + (composes[:2] if small else composes)
    mutated = Command(("check-va", f"{ROOT}/fixtures/a3_mutated.json"), 1, FAIL)
    pool.append(mutated)
    stream.append(mutated)
    return pool, stream


# ---------------------------------------------------------------------------
# mutant-sweep


MUTANTS_PER_ALGEBRA = 30
SMALL_MUTANTS = 4


def build_mutant_sweep(work: Path, small: bool) -> tuple[list, list]:
    pool = []
    for name, V in corpus():
        for site in mutation_sites(V, MUTANTS_PER_ALGEBRA):
            mutant = bump_structure_constant(V, *site)
            stem = f"mutants/{name}__{'_'.join(map(str, site))}"
            va = _write(work, stem + ".va.json", serialize.dumps(mutant))
            ch = _write(work, stem + ".ch.json", serialize.dumps(va_to_chiral(mutant, checked=False)))
            pool.append(Command(("check-va", va, "--format", "json"), None, group=stem))
            pool.append(Command(("check-chiral", ch, "--format", "json"), None, group=stem))
    # The seed fixes the order (a fresh shuffle every pass).  Every mutant
    # runs: the five passing mutants cost full sweeps, so dropping any of
    # them would move throughput by several percent from seed to seed.
    stream = pool[: 2 * SMALL_MUTANTS] if small else list(pool)
    return pool, stream


def _json_verdicts(stdout: str) -> dict:
    doc = json.loads(stdout)
    verdicts = {c["name"]: c["passed"] for c in doc["checks"]}
    for check in doc["checks"]:
        for line in check["details"]:
            if line.startswith("part (b)"):
                verdicts["d-module-part-b"] = line.endswith(": PASS")
    verdicts["passed"] = doc["passed"]
    return verdicts


def mutant_pair_agrees(va_stdout: str, ch_stdout: str) -> bool:
    """Criterion 7: skew <-> chiral-skew, jacobi <-> chiral-jacobi,
    d-derivative <-> part (b) of the D-module-morphism check."""
    va, ch = _json_verdicts(va_stdout), _json_verdicts(ch_stdout)
    return (
        va["skew-symmetry"] == ch["chiral-skew"]
        and va["jacobi"] == ch["chiral-jacobi"]
        and va["d-derivative"] == ch["d-module-part-b"]
    )


def verdict_matches_code(stdout: str, code: int) -> bool:
    return code == (0 if json.loads(stdout)["passed"] else 1)


# ---------------------------------------------------------------------------
# va-ladder


LADDER_ORDERS = (4, 5, 6)
LADDER_DERIVATION = (Fraction(0), Fraction(0), Fraction(1), Fraction(1, 2))


def build_va_ladder(work: Path, small: bool) -> tuple[list, list]:
    pool = []
    for order in LADDER_ORDERS:
        V = tensor_with_ox(truncated_poly_va(order, list(LADDER_DERIVATION)))
        path = _write(work, f"ladder/order{order}.va.json", serialize.dumps(V))
        pool.append(Command(("check-va", path), 0, PASS))
    return pool, pool[:1] if small else list(pool)


# ---------------------------------------------------------------------------
# delta-window


DELTA_BOX = "--box=-20:20"
SMALL_DELTA_BOX = "--box=-4:4"
IDENTITY_BOXES = ("--box=-4:4", "--box=-6:6", "--box=-8:8")

# Each template lists its true instances as (lhs, rhs) in the README grammar.
# A pass checks every instance on every box, as stated and sign-flipped, so
# half the identities are negative controls.  The seed orders each pass; it
# does not pick instances, because their costs differ by up to 30x and a
# seeded pick would move the latency quantiles from seed to seed.
IDENTITY_TEMPLATES = (
    # three-term Jacobi delta identity
    [("x0^-1 * delta((x1-x2)/x0) - x0^-1 * delta((x2-x1)/(-x0))",
      "x2^-1 * delta((x1-x0)/x2)")],
    # two-term delta identity
    [("x1^-1 * delta((x2+x0)/x1)", "x2^-1 * delta((x1-x0)/x2)")],
    # derivative transport
    [("deriv(x1, x2^-1 * delta(x1/x2))", "-1 * deriv(x2, x2^-1 * delta(x1/x2))")],
    # symmetry of the delta
    [("x2^-1 * delta(x1/x2)", "x1^-1 * delta(x2/x1)")],
    # substitution x1 -> x2 under the delta
    [(f"x1^{k} * x2^-1 * delta(x1/x2)", f"x2^{k} * x2^-1 * delta(x1/x2)")
     for k in (-2, -1, 1, 2, 3)],
    # the delta as the difference of the two expansions of (x1-x2)^-1
    [("iota(x1,x2)^-1 + iota(x2,x1)^-1", "x2^-1 * delta(x1/x2)")],
    # (x1-x2) (x1-x2)^-k = (x1-x2)^-(k-1) in one expansion domain
    [(f"(x1 - x2) * iota(x1,x2)^-{k}", f"iota(x1,x2)^-{k - 1}") for k in (2, 3, 4)],
    # finite binomial powers
    [("iota(x1,x2)^2", "x1^2 - 2*x1*x2 + x2^2"),
     ("iota(x1,x2)^3", "x1^3 - 3*x1^2*x2 + 3*x1*x2^2 - x2^3")],
)


def _identity(lhs: str, rhs: str, box: str, flipped: bool) -> Command:
    if flipped:
        return Command(("delta-suite", "--lhs", lhs, "--rhs", f"-1 * ({rhs})", box), 1, FAIL)
    return Command(("delta-suite", "--lhs", lhs, "--rhs", rhs, box), 0, PASS)


def build_delta_window(work: Path, small: bool) -> tuple[list, list]:
    suites = [Command(("delta-suite", DELTA_BOX), 0, PASS),
              Command(("delta-suite", SMALL_DELTA_BOX), 0, PASS)]
    identities = []
    for template in IDENTITY_TEMPLATES:
        for lhs, rhs in template:
            for box in IDENTITY_BOXES:
                identities += [_identity(lhs, rhs, box, False), _identity(lhs, rhs, box, True)]
    pool = suites + identities
    if small:
        return pool, [suites[1]] + identities[:2]
    return pool, [suites[0]] + identities


# builder and the nominal seconds of one full pass (2-core x86 VM, py3.11)
BUILDERS = {
    "corpus-cli": (build_corpus_cli, 30.0),
    "mutant-sweep": (build_mutant_sweep, 10.0),
    "va-ladder": (build_va_ladder, 14.0),
    "delta-window": (build_delta_window, 5.0),
}


def build(name: str, work: Path, seed: int, small: bool = False) -> Workload:
    builder, pass_seconds = BUILDERS[name]
    pool, stream = builder(work, small)
    return Workload(name, pool, stream, 1.0 if small else pass_seconds, random.Random(seed))
