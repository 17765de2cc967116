"""Known answers for the benchmark's jobs, from closed forms only.

A Nichols algebra of diagonal type with a finite root system has the
multigraded Hilbert series

    prod over positive roots b of (1 + t^b + t^(2b) + ... + t^((N_b - 1) b)),

where N_b is the order of the root's braiding scalar (Heckenberger,
*Arithmetic root systems*; Andruskiewitsch-Schneider, *Pointed Hopf
algebras*).  Every expectation below is derived from that product or from
instance counts of the fusion checks, never from another run of the
program, so a wrong engine cannot vouch for itself.

Each check takes the parsed ``--json`` report and returns a list of
problems; an empty list means the report is right.
"""

from __future__ import annotations

from math import prod
from typing import Dict, List, Sequence, Tuple

Content = Tuple[int, ...]
Roots = Sequence[Tuple[Content, int]]

AXIOMS = ("antipode-left", "antipode-right", "assoc", "bialgebra", "coassoc",
          "counit", "unit", "well-formed")


def multigraded_series(roots: Roots) -> Dict[Content, int]:
    """Dimension of each letter content, from the root-system product."""
    rank = len(roots[0][0])
    series = {(0,) * rank: 1}
    for beta, order in roots:
        grown: Dict[Content, int] = {}
        for content, dim in series.items():
            for m in range(order):
                key = tuple(c + m * b for c, b in zip(content, beta))
                grown[key] = grown.get(key, 0) + dim
        series = grown
    return series


def hilbert_series(roots: Roots) -> List[int]:
    """Total-degree Hilbert series, top coefficient last."""
    dims: Dict[int, int] = {}
    for content, dim in multigraded_series(roots).items():
        dims[sum(content)] = dims.get(sum(content), 0) + dim
    return [dims.get(d, 0) for d in range(max(dims) + 1)]


def _expect(problems: List[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


def _all_true(problems: List[str], what: str, verdicts: dict) -> None:
    failed = sorted(k for k, v in verdicts.items() if v is not True)
    if failed:
        problems.append(f"{what} not passed: {', '.join(failed)}")


def check_nichols(report: dict, roots: Roots, cutoff: int, oracle_degree) -> List[str]:
    """Graded dimensions, termination and oracle rows of `nichols`."""
    problems: List[str] = []
    series = hilbert_series(roots)
    dims = (series + [0] * (cutoff + 1))[: cutoff + 1]
    finite = len(series) <= cutoff
    res = report["results"]
    _expect(problems, "rank", res["rank"], len(roots[0][0]))
    _expect(problems, "dims", res["dims"], dims)
    _expect(problems, "termination", res["termination"],
            "finite" if finite else "undetermined-at-cutoff")
    _expect(problems, "hilbert_series", res["hilbert_series"], series if finite else dims)
    _expect(problems, "total_dim", res["total_dim"], sum(series) if finite else None)
    if oracle_degree is None:
        _expect(problems, "oracle rows", res["oracle"], [])
    else:
        want = [{"agree": True, "degree": d, "engine": dims[d], "oracle": dims[d]}
                for d in range(oracle_degree + 1)]
        _expect(problems, "oracle rows", res["oracle"], want)
    return problems


def check_verify(report: dict, roots: Roots) -> List[str]:
    problems: List[str] = []
    res = report["results"]
    _all_true(problems, "axioms", res["axioms"])
    _expect(problems, "axiom keys", sorted(res["axioms"]), list(AXIOMS))
    _expect(problems, "connected", res["connected"], True)
    _expect(problems, "coconnected", res["coconnected"], True)
    _expect(problems, "graded", res["graded"], True)
    _expect(problems, "total_dim", res["total_dim"], sum(hilbert_series(roots)))
    return problems


def _layer_dims(roots: Roots, kind: str) -> list:
    """Per-content dimensions of each filtration layer, as `gr` prints them.

    For a Nichols algebra both filtrations come from the degree grading:
    coradical layer i holds the degrees <= i, radical layer -j the
    degrees >= j.
    """
    series = multigraded_series(roots)
    top = max(sum(c) for c in series)
    if kind == "coradical":
        return [{"index": i, "dims": sorted([list(c), d] for c, d in series.items()
                                            if sum(c) <= i)}
                for i in range(top + 1)]
    return [{"index": -j, "dims": sorted([list(c), d] for c, d in series.items() if sum(c) >= j)}
            for j in range(top, -1, -1)]


def check_gr(report: dict, roots: Roots, kind: str) -> List[str]:
    problems: List[str] = []
    res = report["results"]
    top = len(hilbert_series(roots)) - 1
    _expect(problems, "filtration", res["filtration"], kind)
    _all_true(problems, "conditions", res["conditions"])
    _all_true(problems, "output axioms", res["output_axioms"])
    _expect(problems, "window", res["window"], [0, top] if kind == "coradical" else [-top, 0])
    _expect(problems, "layers", res["layers"], _layer_dims(roots, kind))
    return problems


def check_degenerate(report: dict, roots: Roots, kind: str) -> List[str]:
    """Every member of the orbit and its limit is again the Nichols algebra."""
    problems: List[str] = []
    res = report["results"]
    rank = len(roots[0][0])
    _expect(problems, "filtration", res["filtration"], kind)
    _all_true(problems, "limit axioms", res["limit_axioms"])
    _expect(problems, "limit equals gr", res["limit_equals_associated_graded"], True)
    _expect(problems, "primitive dims", res["primitive_dims"], [rank] * len(res["samples"]))
    _expect(problems, "limit primitive dim", res["limit_primitive_dim"], rank)
    return problems


def check_is_nichols(report: dict, roots: Roots) -> List[str]:
    problems: List[str] = []
    res = report["results"]
    rank = len(roots[0][0])
    pairing = res["pairing"]
    _expect(problems, "verdict", res["verdict"], "nichols")
    _expect(problems, "pairing", pairing,
            {"dim_dual_primitives": rank, "dim_primitives": rank, "rank": rank,
             "verdict": "nichols"})
    _expect(problems, "generation", res["generation"],
            {"dual_primitives_generate": True, "primitives_generate": True,
             "verdict": "nichols"})
    _expect(problems, "gragrc verdict", res["gragrc"]["verdict"], "nichols-by-gragrc")
    return problems


def check_fusion_verify(report: dict, simples: int) -> List[str]:
    """Instance counts of each coherence check for data with n simples."""
    n = simples
    want = {"pentagon": n ** 4, "units": n ** 2, "duality": 2 * n, "braiding": 2 * n ** 3}
    problems: List[str] = []
    checks = report["results"]["checks"]
    _expect(problems, "checks", [c["check"] for c in checks],
            ["well-formed", "pentagon", "units", "duality", "braiding"])
    for c in checks:
        if not c["passed"] or c["failures"]:
            problems.append(f"{c['check']} failed at {c['failures'][:2]}")
        if c["check"] in want:
            _expect(problems, f"{c['check']} instances", c["checked"], want[c["check"]])
    return problems


def check_fusion_gen(report: dict, factors: Sequence[int]) -> List[str]:
    """The center of a group of order g has g^2 simples."""
    problems: List[str] = []
    _expect(problems, "fusion-gen", report["results"],
            {"factors": list(factors), "simples": prod(factors) ** 2})
    return problems
