"""Workload definitions: the CLI invocations each workload runs.

A workload seed selects a rotation of a fixed pool of consecutive instance
seeds 0..POOL-1: instance seeds run b, b+1, ... modulo POOL from
b = seed mod POOL.  Every seed therefore runs the same instance set in a
different order.  Two facts force the pool: the golden digests are stored
for a finite set of invocations, and per-instance cost varies more than
tenfold between neighbouring seeds (tree n=8 takes 0.4 s on seed 4 and
7.4 s on seed 1), so a seed-dependent instance set could not hold any
timing within a tenth.

One exception: the `lcst` metric instance must carry `singlegroup`
valuations, because the CLI embeds only those, so it uses the first grid
seed at or after b whose valuations are singlegroup.

Instance files are written under WORK_DIR during set-up; solves read them
back with --in/--tree.  Paths are relative to the checkout root, and the
worker runs there, so the records (whose config digest covers the path) are
the same on every machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

POOL = 2
WORK_DIR = ".bench_work"


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        """Golden-table key: the argument vector, space-joined."""
        return " ".join(self.argv)


@dataclass
class Plan:
    files: list[tuple[str, str]] = field(default_factory=list)  # (path, spec)
    invocations: list[Invocation] = field(default_factory=list)

    def instance(self, workload: str, spec: str) -> str:
        """Register an instance file for `spec` and return its path."""
        name = spec.replace(":", "-").replace("=", "")
        path = f"{WORK_DIR}/{workload}/{name}.lcov"
        self.files.append((path, spec))
        return path

    def run(self, *argv) -> None:
        self.invocations.append(Invocation(tuple(str(a) for a in argv)))


def rotation(base: int) -> list[int]:
    return [(base + i) % POOL for i in range(POOL)]


def first_singlegroup_grid(n: int, start: int, parse_genspec) -> int:
    seed = start
    while parse_genspec(f"grid:n={n}:seed={seed}").valuations.kind \
            != "singlegroup":
        seed += 1
    return seed


# The embedded LP's size depends on the embedding: this instance takes 3 s
# with embed seed 0 and 55-92 s with seeds 1 and 6, past any run length.
LCST_GRID_N = 10
LCST_EMBED_SEED = 0


def lcst_tree(base: int, parse_genspec) -> Plan:
    plan = Plan()
    for n in (6, 7):
        for s in rotation(base):
            path = plan.instance("lcst-tree", f"tree:n={n}:seed={s}")
            plan.run("lcst", "--tree", path, "--seed", s)
    plan.run("lcst", "--tree", "fixtures/star.lcov", "--seed", base)
    s = first_singlegroup_grid(LCST_GRID_N, base, parse_genspec)
    path = plan.instance("lcst-tree", f"grid:n={LCST_GRID_N}:seed={s}")
    plan.run("lcst", "--in", path, "--embed-seed", LCST_EMBED_SEED,
             "--seed", s)
    return plan


def sop_grid(base: int, parse_genspec) -> Plan:
    plan = Plan()
    for n in (7, 8):
        for s in rotation(base):
            path = plan.instance("sop-grid", f"grid:n={n}:seed={s}")
            plan.run("sop", "--in", path, "--solver", "greedy", "--seed", s)
    for s in rotation(base):
        path = plan.instance("sop-grid", f"grid:n=12:seed={s}")
        plan.run("mlsc", "--in", path, "--solver", "greedy", "--seed", s)
    # the brute-force oracles and the suite's thread fan-out run only here
    for s in rotation(base):
        path = plan.instance("sop-grid", f"explicit:n={RANK_N}:seed={s}")
        plan.run("rank", "--in", path, "--oracle", "--seed", s)
        path = plan.instance("sop-grid", f"uniform:n={MLSC_N}:seed={s}")
        plan.run("mlsc", "--in", path, "--solver", "exact", "--oracle",
                 "--seed", s)
    plan.run("suite", "ranking-lemmas", "--seeds", SUITE_SEEDS,
             "--jobs", SUITE_JOBS, "--seed", base)
    return plan


RANK_N = 8                      # brute_force_ranking cap
MLSC_N = 7                      # brute_force_latency cap
SUITE_SEEDS = 160               # the battery draws its own seeds 0..N-1
SUITE_JOBS = 2                  # nproc here; fixed so hosts compare


STO_SAMPLES = 250
STO_FIXED = (
    ("ssc", "--domain", "4", "--sets", "0,1;2,3",
     "--elements", "0:1/2,2:1/2|1:1|3:1/2,0:1/2", "--lengths", "1,2,1",
     "--oracle"),
    ("filters", "--queries", "0,1;1", "--selectivities", "1/2,1/3",
     "--lengths", "1,2", "--latency", "--oracle"),
    ("sgmssc", "--domain", "3", "--sets", "0,1;2", "--reqs", "1,1",
     "--elements", "0:1/2,1:1/2|2:1", "--lengths", "2,1", "--oracle"),
)


def stochastic(base: int, parse_genspec) -> Plan:
    plan = Plan()
    for n in (3, 4):
        for s in rotation(base):
            path = plan.instance("stochastic", f"stochastic:n={n}:seed={s}")
            plan.run("wssr", "--in", path, "--oracle",
                     "--samples", STO_SAMPLES, "--seed", s)
    for n in (6, 7, 8):                 # past the exact cap: Monte-Carlo
        for s in rotation(base):
            path = plan.instance("stochastic", f"stochastic:n={n}:seed={s}")
            plan.run("wssr", "--in", path, "--samples", STO_SAMPLES,
                     "--seed", s)
    for argv in STO_FIXED:
        plan.run(*argv, "--samples", STO_SAMPLES, "--seed", base)
    return plan


WORKLOADS = {
    "lcst-tree": lcst_tree,
    "sop-grid": sop_grid,
    "stochastic": stochastic,
}


def plan_for(workload: str, seed: int, parse_genspec) -> Plan:
    return WORKLOADS[workload](seed % POOL, parse_genspec)
