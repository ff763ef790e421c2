"""Seeded job lists for the benchmark workloads.

A job is one CLI invocation: the generated quiver file it reads and the argv
given to `quiverhom.cli.main`.  The seed only chooses among finitely many
vertex numberings of the quivers, so every job any seed can produce is in
`job_pool()`, and the golden set covers all of them.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORK_DIR = "bench/.work"
PRIME = "F2147483647"
WORKLOADS = ("colimit", "random_modules", "prime_field")
DEFAULT_SEED = 1


@dataclass(frozen=True)
class Job:
    command: str
    quiver: str          # file stem under WORK_DIR
    args: tuple = ()     # extra CLI flags after --quiver
    sweep: bool = False  # part of the three-cycle truncation sweep

    @property
    def argv(self) -> list:
        return [self.command, "--quiver", f"{WORK_DIR}/{self.quiver}.quiver", *self.args, "--json"]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def trunc(self) -> int:
        return int(self.args[self.args.index("--trunc") + 1])


def cycle_name(order) -> str:
    """File stem of the oriented cycle visiting 1-based vertices in `order`."""
    return "cycle-" + "-".join(str(v) for v in order)


def quiver_text(name: str) -> str:
    """Quiver file contents for a stem made by this module."""
    if name == "kronecker":
        return "vertices: 2\narrow u 1 2\narrow v 1 2\n"
    order = [int(v) for v in name.split("-")[1:]]
    succ = {v: order[(k + 1) % len(order)] for k, v in enumerate(order)}
    lines = [f"vertices: {len(order)}"]
    lines += [f"arrow {chr(ord('a') + v - 1)} {v} {succ[v]}" for v in sorted(succ)]
    return "\n".join(lines) + "\n"


LOOP = cycle_name([1])
TWO = cycle_name([1, 2])
THREE = cycle_name([1, 2, 3])


def cycle_orders(n: int) -> list:
    """Every numbering of an oriented n-cycle, as vertex orders from vertex 1."""
    return [(1, *rest) for rest in itertools.permutations(range(2, n + 1))]


def _colimit(c4: str, c5: str) -> list:
    jobs = [Job("localcoh", THREE, ("--trunc", str(n)), sweep=True) for n in (12, 16, 20, 24)]
    jobs += [Job("localcoh", q, ("--trunc", "12")) for q in (LOOP, TWO, c4, c5)]
    for q in (TWO, THREE, c4, c5):
        jobs += [Job(cmd, q, ("--trunc", "12")) for cmd in ("nakayama", "cy", "asreg")]
    return jobs


# verify's own --seed draws the random modules.  The draws are fixed,
# because one draw can cost twice another, and renumbering a quiver changes
# the draws; on this workload the benchmark seed only orders the jobs.
RANDOM_MODULES = tuple(
    Job("verify", q, ("--trunc", "12", "--seed", str(s), "--cases", str(c)))
    for q, s, c in ((LOOP, 7, 32), (TWO, 3, 8), ("kronecker", 3, 8), (THREE, 3, 4)))


def _prime_field(c4: str) -> list:
    jobs = [Job("localcoh", THREE, ("--trunc", str(n), "--field", PRIME), sweep=True) for n in (12, 20)]
    jobs += [Job(cmd, c4, ("--trunc", "12", "--field", PRIME)) for cmd in ("nakayama", "cy")]
    jobs += [Job(j.command, j.quiver, j.args + ("--field", PRIME)) for j in RANDOM_MODULES[:3]]
    return jobs


def jobs_for(workload: str, seed: int) -> list:
    """The job list of one run: a pure function of workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    c4 = cycle_name(rng.choice(cycle_orders(4)))
    c5 = cycle_name(rng.choice(cycle_orders(5)))
    if workload == "colimit":
        jobs = _colimit(c4, c5)
    elif workload == "random_modules":
        jobs = list(RANDOM_MODULES)
    elif workload == "prime_field":
        jobs = _prime_field(c4)
    else:
        raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")
    rng.shuffle(jobs)
    return jobs


def job_pool() -> list:
    """Every job some seed can produce, without duplicates."""
    jobs = {j.key: j for j in RANDOM_MODULES}
    for c4 in map(cycle_name, cycle_orders(4)):
        for c5 in map(cycle_name, cycle_orders(5)):
            jobs.update((j.key, j) for j in _colimit(c4, c5))
        jobs.update((j.key, j) for j in _prime_field(c4))
    return list(jobs.values())
