"""Seeded workloads: the braidings, the CLI jobs, and what each job must say.

An instance is a diagonal braiding written with exponents of one primitive
N-th root of unity z: q_ii = z^d_i and q_ij q_ji = z^p_ij.  The seed picks
a Galois conjugate (every exponent times some k prime to N) and then a
twist-equivalent split q_ij = z^s, q_ji = z^(p_ij - s) of each product.
Neither move changes the root system or the order of any root's scalar,
so the known Hilbert series in ``answers`` holds for every seed.

Setup jobs prepare inputs (finite structures, fusion data); timed jobs are
what a pass measures.  Both are checked against known answers.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from functools import partial
from math import gcd, prod
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

import answers


@dataclass(frozen=True)
class Instance:
    name: str
    order: int                   # N: all exponents are of a primitive N-th root
    diagonal: Tuple[int, ...]    # d_i
    products: Tuple[Tuple[int, int, int], ...]  # (i, j, p_ij) for i < j, 0 if absent
    roots: answers.Roots         # positive roots as (content, order of q_beta)

    @property
    def rank(self) -> int:
        return len(self.diagonal)


def _line(name: str, n: int) -> Instance:
    return Instance(name, n, (1,), (), (((1,), n),))


QP = Instance("qp", 2, (1, 1), ((0, 1, 0),), (((1, 0), 2), ((0, 1), 2)))
A2_Z3 = Instance("a2z3", 3, (1, 1), ((0, 1, -1),),
                 (((1, 0), 3), ((0, 1), 3), ((1, 1), 3)))
A2_M1 = Instance("a2m1", 2, (1, 1), ((0, 1, 1),),
                 (((1, 0), 2), ((0, 1), 2), ((1, 1), 2)))
A3_M1 = Instance("a3m1", 2, (1, 1, 1), ((0, 1, 1), (1, 2, 1), (0, 2, 0)),
                 (((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2),
                  ((1, 1, 0), 2), ((0, 1, 1), 2), ((1, 1, 1), 2)))
Z3_Z3 = Instance("z3z3", 3, (1, 1), ((0, 1, 0),), (((1, 0), 3), ((0, 1), 3)))
Z4_Z4 = Instance("z4z4", 4, (1, 1), ((0, 1, 0),), (((1, 0), 4), ((0, 1), 4)))
EXT3 = Instance("ext3", 2, (1, 1, 1), ((0, 1, 0), (1, 2, 0), (0, 2, 0)),
                (((1, 0, 0), 2), ((0, 1, 0), 2), ((0, 0, 1), 2)))
LINE7 = _line("line7", 7)


def _power(n: int, e: int) -> str:
    e %= n
    if e == 0:
        return "1"
    if n == 2:
        return "-1"
    return f"zeta({n})" if e == 1 else f"zeta({n})^{e}"


def braiding_documents(inst: Instance, rng: random.Random, with_conjugate: bool = False) -> list:
    """The seed's Galois conjugate and twist split of an instance.

    With ``with_conjugate`` the complex conjugate (every exponent negated)
    follows.  Exponents past phi(N) have more nonzero coordinates and cost
    more to multiply; a pair holds each exponent once with each sign, which
    keeps the pair's cost level across seeds.
    """
    n = inst.order
    k = rng.choice([k for k in range(1, n) if gcd(k, n) == 1] or [1])
    splits = [rng.randrange(n) for _ in inst.products]
    docs = []
    for sign in ((1, -1) if with_conjugate else (1,)):
        q = [[_power(n, 0)] * inst.rank for _ in range(inst.rank)]
        for i, d in enumerate(inst.diagonal):
            q[i][i] = _power(n, sign * k * d)
        for (i, j, p), s in zip(inst.products, splits):
            q[i][j] = _power(n, sign * s)
            q[j][i] = _power(n, sign * (k * p - s))
        docs.append({"type": "diagonal", "q": q})
    return docs


@dataclass(frozen=True)
class Job:
    key: str                      # unique within a workload
    args: Tuple[str, ...]         # arguments after `nicholsforge`
    check: Callable[[dict], List[str]]


@dataclass
class Workload:
    name: str
    files: dict                   # file name -> document written during setup
    setup: List[Job]
    jobs: List[Job]


def _nichols_job(inst: Instance, cutoff: int, oracle: Optional[int] = None,
                 threads: Optional[int] = None, emit: Optional[str] = None) -> Job:
    args = ["nichols", f"{inst.name}.json", "--max-degree", str(cutoff)]
    if oracle is not None:
        args += ["--oracle-degree", str(oracle)]
    if threads is not None:
        args += ["--threads", str(threads)]
    if emit is not None:
        args += ["--emit-hopf", emit]
    args.append("--json")
    key = f"{inst.name}:nichols:{cutoff}" + (":emit" if emit else "")
    return Job(key, tuple(args),
               partial(answers.check_nichols, roots=inst.roots, cutoff=cutoff,
                       oracle_degree=oracle))


def _emit(inst: Instance) -> Job:
    """Certify the instance finite and write its structure constants."""
    cutoff = len(answers.hilbert_series(inst.roots))
    return _nichols_job(inst, cutoff, emit=f"{inst.name}_hopf.json")


# job kind -> (command, extra arguments, check, its keyword arguments)
_HOPF_COMMANDS = {
    "verify": ("verify", (), answers.check_verify, {}),
    "gr-radical": ("gr", ("--filtration", "radical"), answers.check_gr, {"kind": "radical"}),
    "gr-coradical": ("gr", ("--filtration", "coradical"), answers.check_gr,
                     {"kind": "coradical"}),
    "degenerate": ("degenerate", ("--filtration", "coradical"), answers.check_degenerate,
                   {"kind": "coradical"}),
    "is-nichols": ("is-nichols", (), answers.check_is_nichols, {}),
}


def _hopf_job(inst: Instance, which: str) -> Job:
    command, extra, check, kwargs = _HOPF_COMMANDS[which]
    args = (command, f"{inst.name}_hopf.json", *extra, "--json")
    return Job(f"{inst.name}:{which}", args, partial(check, roots=inst.roots, **kwargs))


def _center_file(factors: Sequence[int]) -> str:
    return f"center_{'x'.join(map(str, factors))}.json"


def _fusion_gen(factors: Sequence[int]) -> Job:
    group = ",".join(map(str, factors))
    args = ("fusion-gen", "--group", group, "--out", _center_file(factors), "--json")
    return Job(f"gen:{group}", args, partial(answers.check_fusion_gen, factors=tuple(factors)))


def _fusion_verify(factors: Sequence[int]) -> Job:
    data = _center_file(factors)
    return Job(f"verify:{data}", ("fusion-verify", data, "--threads", "1", "--json"),
               partial(answers.check_fusion_verify, simples=prod(factors) ** 2))


def _documents(rng: random.Random, instances: Sequence[Instance]) -> dict:
    return {f"{inst.name}.json": braiding_documents(inst, rng)[0] for inst in instances}


def oracle_lines(rng: random.Random) -> Workload:
    # One oracle thread: on a 2-vCPU shared host two threads are no faster
    # and double the spread of a job's time.  The traced run times the pool
    # on two threads as well.
    lines = [_line(f"line{n}", n) for n in range(2, 6)]
    jobs = [_nichols_job(inst, inst.order + 1, inst.order + 1, threads=1) for inst in lines]
    jobs.append(_nichols_job(QP, 6, 6, threads=1))
    return Workload("oracle-lines", _documents(rng, lines + [QP]), [], jobs)


def engine_cartan(rng: random.Random) -> Workload:
    conj = replace(A2_Z3, name="a2z3conj")
    files = dict(zip(["a2z3.json", "a2z3conj.json"], braiding_documents(A2_Z3, rng, True)))
    files.update(_documents(rng, [A3_M1]))
    jobs = [_nichols_job(A2_Z3, 6), _nichols_job(conj, 6), _nichols_job(A3_M1, 5)]
    return Workload("engine-cartan", files, [], jobs)


# Which commands run on which structure: every command and every structure
# at least once, with one pass near three seconds on a 2-core machine.  The
# 16-dimensional zeta_4 (x) zeta_4 makes thousands of tiny rrefs and is the
# slowest job whatever the seed, since zeta_4 and zeta_4^3 are equally sparse.
_HOPF_PLAN = (
    (QP, ("verify", "is-nichols")),
    (A2_M1, ("gr-coradical", "degenerate")),
    (EXT3, ("gr-coradical",)),
    (Z3_Z3, ("gr-radical",)),
    (Z4_Z4, ("is-nichols",)),
    (LINE7, ("degenerate",)),
)


def hopf_structure(rng: random.Random) -> Workload:
    instances = [inst for inst, _ in _HOPF_PLAN]
    jobs = [_hopf_job(inst, which) for inst, plan in _HOPF_PLAN for which in plan]
    return Workload("hopf-structure", _documents(rng, instances),
                    [_emit(inst) for inst in instances], jobs)


def fusion_center(rng: random.Random) -> Workload:
    """Drinfeld-center data has no free parameter, so the seed is unused."""
    groups = ((3,), (2,))
    return Workload("fusion-center", {}, [_fusion_gen(g) for g in groups],
                    [_fusion_verify(g) for g in groups])


def smoke(rng: random.Random) -> Workload:
    """A few-second workload touching every command, for the benchmark's tests."""
    line2 = _line("line2", 2)
    jobs = [_nichols_job(line2, 3, 3, threads=1)]
    jobs += [_hopf_job(QP, which) for which in _HOPF_COMMANDS]
    jobs.append(_fusion_verify((2,)))
    return Workload("smoke", _documents(rng, [line2, QP]),
                    [_emit(QP), _fusion_gen((2,))], jobs)


BUILDERS = {
    "oracle-lines": oracle_lines,
    "engine-cartan": engine_cartan,
    "hopf-structure": hopf_structure,
    "fusion-center": fusion_center,
    "smoke": smoke,
}
# The traced run reports each of these parts on its own.
PARTS = ("oracle-lines", "engine-cartan", "hopf-structure", "fusion-center")

# The timed workloads join two parts each, so that a run of a fixed length
# repeats every job as often as the host's drifting speed needs (see
# ``reference``): the nichols engine with and without the oracle, and the
# finished structures with the fusion checkers.
BENCH_WORKLOADS = {
    "nichols": ("oracle-lines", "engine-cartan"),
    "structures": ("hopf-structure", "fusion-center"),
}


def build(name: str, seed: int) -> Workload:
    if name in BENCH_WORKLOADS:
        parts = [build(part, seed) for part in BENCH_WORKLOADS[name]]
        files = {}
        for part in parts:
            files.update(part.files)
        return Workload(name, files, [j for p in parts for j in p.setup],
                        [j for p in parts for j in p.jobs])
    # One generator per part, so adding a job elsewhere never shifts the
    # inputs of another part.
    return BUILDERS[name](random.Random(f"{name}:{seed}"))


def write_inputs(workload: Workload, directory: Path) -> None:
    for name, doc in workload.files.items():
        (directory / name).write_text(json.dumps(doc, sort_keys=True) + "\n")
