"""The benchmark workloads: a seed generates the inputs, the inputs give divcorr CLI lines.

The seed picks only the shifts h and the sieve window; the program sees the
generated command lines and never the seed.  Every shift comes from SHIFTS,
and bench/golden.json holds references for the whole of SHIFTS, so any seed
is checked in full.  Sizes are set so that one iteration of each workload
takes 3-14 s on a 2-core machine and a run of 40 s holds two to thirteen
iterations.  On a shared machine one iteration varies by 10-50%, and the
machine's speed drifts over tens of seconds, so a run's median spreads less
from run to run the longer the run: the estermann sweep and the polynomial,
both analytic, share one workload, which leaves time for 40 s runs.

Each Invocation is one fresh `divcorr` process; out-dir, cache-dir and
`--threads 1` are added by the runner.  `rows` are the report rows the
invocation must produce (see check.py for what a row is).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import check

SHIFTS = tuple(range(1, 13))

ESTERMANN_Q = 100_000
ESTERMANN_SHIFTS = 3

DECADES_X = (10**4, 10**5, 10**6)
DISTRIBUTION_X = (10**5, 10**6, 2 * 10**6)

POLY_K, POLY_L = 3, 2
POLY_EULER_A = ("1/2", "2/3")
POLY_DIRICHLET_Q = 1000

SIEVE_K = 3
SIEVE_WINDOW = 3 * 10**6
SIEVE_LO_MIN, SIEVE_LO_SPAN = 10**8, 10**8


@dataclass(frozen=True)
class Invocation:
    argv: tuple
    rows: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: dict
    invocations: tuple
    # whether times are rescaled to the reference speed (speed.py)
    rescale: bool = True


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def analytic(rng: random.Random) -> Workload:
    """The estermann sweep (float varphi tables), then the k=3 polynomial from
    Euler-product jets and from the mpmath varphi twin."""
    hs = sorted(rng.sample(SHIFTS, ESTERMANN_SHIFTS))
    estermann = Invocation(
        argv=("estermann", "--source", "dirichlet", "--Q", str(ESTERMANN_Q), "--h", _csv(hs)),
        rows=tuple(check.estermann_key(ESTERMANN_Q, h) for h in hs))
    h = rng.choice(SHIFTS)
    hd = sorted(rng.sample(SHIFTS, 2))
    kl = ("--k", str(POLY_K), "--l", str(POLY_L))
    euler = Invocation(
        argv=("polynomial", *kl, "--h", str(h), "--A", _csv(POLY_EULER_A), "--source", "euler"),
        rows=tuple(check.polynomial_key("euler", None, POLY_K, POLY_L, h, A)
                   for A in POLY_EULER_A))
    dirichlet = Invocation(
        argv=("polynomial", *kl, "--h", _csv(hd), "--A", "1/2", "--source", "dirichlet",
              "--Q", str(POLY_DIRICHLET_Q)),
        rows=tuple(check.polynomial_key("dirichlet", POLY_DIRICHLET_Q, POLY_K, POLY_L, hh, "1/2")
                   for hh in hd))
    return Workload("analytic", {"h_estermann": hs, "h_euler": h, "h_dirichlet": hd},
                    (estermann, euler, dirichlet))


def brute_decades(rng: random.Random) -> Workload:
    h = rng.choice(SHIFTS)
    theorem23 = Invocation(
        argv=("verify", "theorem23", "--k", "2", "--l", "2", "--A", "1/2",
              "--h", str(h), "--x", _csv(DECADES_X)),
        rows=tuple(check.theorem23_key(2, 2, "1/2", h, x) for x in DECADES_X))
    distribution = Invocation(
        argv=("distribution", "--k", "3", "--A", "1/2", "--x", _csv(DISTRIBUTION_X)),
        rows=tuple(check.distribution_key(3, "1/2", x) for x in DISTRIBUTION_X))
    return Workload("brute-decades", {"h": h}, (theorem23, distribution))


def sieve_cache(rng: random.Random) -> Workload:
    lo = SIEVE_LO_MIN + rng.randrange(SIEVE_LO_SPAN)
    hi = lo + SIEVE_WINDOW - 1
    # the same command twice against one cache dir: the first sieves and
    # writes the cache, the second reads it
    inv = Invocation(
        argv=("sieve", "--k", str(SIEVE_K), "--lo", str(lo), "--hi", str(hi)),
        rows=(check.sieve_key(SIEVE_K, lo, hi),))
    # about half of it reads and writes the cache file, which the speed job
    # does not do: over two sets of ten runs its spread was 0.08 and 0.23
    # rescaled, 0.05 and 0.07 raw
    return Workload("sieve-cache", {"lo": lo, "hi": hi}, (inv, inv), rescale=False)


BUILDERS = {
    "analytic": analytic,
    "brute-decades": brute_decades,
    "sieve-cache": sieve_cache,
}


def build(name: str, seed: int) -> Workload:
    """The workload's inputs for this seed; the same seed gives the same inputs."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"))


def golden_invocations() -> list[tuple]:
    """CLI lines whose reports cover every row any seed can ask for."""
    every = _csv(SHIFTS)
    return [
        ("estermann", "--source", "dirichlet", "--Q", str(ESTERMANN_Q), "--h", every),
        ("verify", "theorem23", "--k", "2", "--l", "2", "--A", "1/2", "--h", every,
         "--x", _csv(DECADES_X)),
        ("distribution", "--k", "3", "--A", "1/2", "--x", _csv(DISTRIBUTION_X)),
        ("polynomial", "--k", str(POLY_K), "--l", str(POLY_L), "--h", every,
         "--A", _csv(POLY_EULER_A), "--source", "euler"),
        ("polynomial", "--k", str(POLY_K), "--l", str(POLY_L), "--h", every, "--A", "1/2",
         "--source", "dirichlet", "--Q", str(POLY_DIRICHLET_Q)),
    ]
