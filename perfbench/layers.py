"""Which package functions the traced run wraps, and the per-layer metrics.

Shared by the launcher, which installs the wrappers inside a job process,
and by the analysis in ``spans``, which turns the recorded spans into the
metrics listed in BENCHMARK.json.  Nothing here imports the package.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

# (module, attribute path, span name, attribute recorded with the span).
# An attribute path "Cls.meth" patches the class; a plain name is rebound in
# every package module that imported it.  "cells" is rows x cols of the
# first argument, "result_cells" that of the returned matrix, "checked" the
# instance count of a fusion report.
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("nicholsforge._kernel", "active.rref_rows", "_kernel.rref_rows", "cells"),
    ("nicholsforge.linalg", "rref", "linalg.rref", ""),
    ("nicholsforge.linalg", "kernel", "linalg.kernel", ""),
    ("nicholsforge.linalg", "quotient", "linalg.quotient", ""),
    ("nicholsforge.linalg", "Matrix.__matmul__", "linalg.matmul", ""),
    ("nicholsforge.linalg", "Matrix.kron", "linalg.kron", ""),
    ("nicholsforge.freehopf", "GradedQuotient.free_shuffle", "freehopf.free_shuffle", ""),
    ("nicholsforge.freehopf", "_shuffle_block", "freehopf.shuffle_block", "result_cells"),
    ("nicholsforge.freehopf", "primitives", "freehopf.primitives", ""),
    ("nicholsforge.freehopf", "quotient_by_hopf_ideal", "freehopf.quotient_by_hopf_ideal", ""),
    ("nicholsforge.freehopf", "GradedQuotient.cop_block", "freehopf.cop_block", ""),
    ("nicholsforge.freehopf", "GradedQuotient.mul_block", "freehopf.mul_block", ""),
    ("nicholsforge.nichols", "nichols_compute", "nichols.nichols_compute", ""),
    ("nicholsforge.nichols", "symmetrizer_rank", "nichols.symmetrizer_rank", ""),
    ("nicholsforge.structconst", "verify_axioms", "structconst.verify_axioms", ""),
    ("nicholsforge.structconst", "check_connected", "structconst.check_connected", ""),
    ("nicholsforge.structconst", "check_coconnected", "structconst.check_coconnected", ""),
    ("nicholsforge.structconst", "from_nichols", "structconst.from_nichols", ""),
    ("nicholsforge.filtration", "radical_filtration", "filtration.radical_filtration", ""),
    ("nicholsforge.filtration", "coradical_filtration", "filtration.coradical_filtration", ""),
    ("nicholsforge.filtration", "filtration_conditions", "filtration.filtration_conditions", ""),
    ("nicholsforge.filtration", "associated_graded", "filtration.associated_graded", ""),
    ("nicholsforge.filtration", "degenerate_limit", "filtration.degenerate_limit", ""),
    ("nicholsforge.filtration", "primitive_dims_along_path",
     "filtration.primitive_dims_along_path", ""),
    ("nicholsforge.dualize", "pairing_report", "dualize.pairing_report", ""),
    ("nicholsforge.dualize", "generation_check", "dualize.generation_check", ""),
    ("nicholsforge.dualize", "gragrc_check", "dualize.gragrc_check", ""),
    ("nicholsforge.fusion", "well_formed", "fusion.well_formed", "checked"),
    ("nicholsforge.fusion", "verify_pentagon", "fusion.verify_pentagon", "checked"),
    ("nicholsforge.fusion", "verify_units", "fusion.verify_units", "checked"),
    ("nicholsforge.fusion", "verify_duality", "fusion.verify_duality", "checked"),
    ("nicholsforge.fusion", "verify_braiding", "fusion.verify_braiding", "checked"),
    ("nicholsforge.formats", "fusion_from_json", "formats.fusion_from_json", ""),
    ("nicholsforge.formats", "hopf_from_json", "formats.hopf_from_json", ""),
    ("nicholsforge.formats", "canonical_dumps", "formats.canonical_dumps", ""),
)

# The thread pool gets its own wrapper, which hands the pool's span to the
# worker threads as their parent.
PMAP = ("nicholsforge._threads", "pmap", "_threads.pmap")

# Calls counted in a separate pass without spans, so that the cost of
# counting these very frequent calls never lands inside a span.
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("nicholsforge._kernel", "active.poly_mul", "kernel.poly_mul.calls"),
    ("nicholsforge._kernel", "active.poly_inv", "kernel.poly_inv.calls"),
    ("nicholsforge.scalars", "Scalar.__mul__", "scalars.mul.calls"),
)

CLI_COMMANDS = ("nichols", "verify", "gr", "degenerate", "is-nichols",
                "fusion-verify", "fusion-gen")

# The spans each workload was built to stress: a name ending in "."
# matches every span of that layer.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "oracle-lines": ("nichols.symmetrizer_rank",),
    "engine-cartan": ("freehopf.",),
    "hopf-structure": ("structconst.", "filtration.", "dualize."),
    "fusion-center": ("fusion.verify_pentagon",),
}

# Per-layer metrics from spans: (metric, span name, statistic).  A metric
# name starts with a letter or a digit, so it drops a module's leading "_".
SPAN_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("kernel.rref_rows.calls", "_kernel.rref_rows", "calls"),
    ("kernel.rref_rows.s", "_kernel.rref_rows", "s"),
    ("kernel.rref_rows.cells", "_kernel.rref_rows", "attr_sum"),
    ("kernel.rref_rows.max_cells", "_kernel.rref_rows", "attr_max"),
    ("linalg.rref.calls", "linalg.rref", "calls"),
    ("linalg.rref.s", "linalg.rref", "s"),
    ("linalg.kernel.s", "linalg.kernel", "s"),
    ("linalg.quotient.s", "linalg.quotient", "s"),
    ("linalg.matmul.calls", "linalg.matmul", "calls"),
    ("linalg.matmul.s", "linalg.matmul", "s"),
    ("linalg.kron.calls", "linalg.kron", "calls"),
    ("linalg.kron.s", "linalg.kron", "s"),
    ("freehopf.free_shuffle.calls", "freehopf.free_shuffle", "calls"),
    ("freehopf.free_shuffle.s", "freehopf.free_shuffle", "s"),
    ("freehopf.shuffle_blocks_built", "freehopf.shuffle_block", "calls"),
    ("freehopf.shuffle_cells", "freehopf.shuffle_block", "attr_sum"),
    ("freehopf.primitives.calls", "freehopf.primitives", "calls"),
    ("freehopf.primitives.s", "freehopf.primitives", "s"),
    ("freehopf.quotient_by_hopf_ideal.calls", "freehopf.quotient_by_hopf_ideal", "calls"),
    ("freehopf.quotient_by_hopf_ideal.s", "freehopf.quotient_by_hopf_ideal", "s"),
    ("freehopf.cop_block.s", "freehopf.cop_block", "s"),
    ("freehopf.mul_block.s", "freehopf.mul_block", "s"),
    ("nichols.nichols_compute.s", "nichols.nichols_compute", "s"),
    ("nichols.nichols_compute.self_s", "nichols.nichols_compute", "self_s"),
    ("nichols.symmetrizer_rank.calls", "nichols.symmetrizer_rank", "calls"),
    ("nichols.symmetrizer_rank.s", "nichols.symmetrizer_rank", "s"),
    ("nichols.symmetrizer_rank.self_s", "nichols.symmetrizer_rank", "self_s"),
    ("structconst.verify_axioms.calls", "structconst.verify_axioms", "calls"),
    ("structconst.verify_axioms.s", "structconst.verify_axioms", "s"),
    ("structconst.check_connected.s", "structconst.check_connected", "s"),
    ("structconst.check_coconnected.s", "structconst.check_coconnected", "s"),
    ("structconst.from_nichols.s", "structconst.from_nichols", "s"),
    ("filtration.radical_filtration.s", "filtration.radical_filtration", "s"),
    ("filtration.coradical_filtration.s", "filtration.coradical_filtration", "s"),
    ("filtration.filtration_conditions.s", "filtration.filtration_conditions", "s"),
    ("filtration.associated_graded.s", "filtration.associated_graded", "s"),
    ("filtration.degenerate_limit.s", "filtration.degenerate_limit", "s"),
    ("filtration.primitive_dims_along_path.s", "filtration.primitive_dims_along_path", "s"),
    ("dualize.pairing_report.s", "dualize.pairing_report", "s"),
    ("dualize.generation_check.s", "dualize.generation_check", "s"),
    ("dualize.gragrc_check.s", "dualize.gragrc_check", "s"),
    ("fusion.well_formed.s", "fusion.well_formed", "s"),
    ("fusion.well_formed.checked", "fusion.well_formed", "attr_sum"),
    ("fusion.verify_pentagon.s", "fusion.verify_pentagon", "s"),
    ("fusion.verify_pentagon.checked", "fusion.verify_pentagon", "attr_sum"),
    ("fusion.verify_units.s", "fusion.verify_units", "s"),
    ("fusion.verify_duality.s", "fusion.verify_duality", "s"),
    ("fusion.verify_braiding.s", "fusion.verify_braiding", "s"),
    ("fusion.verify_braiding.checked", "fusion.verify_braiding", "attr_sum"),
    ("formats.fusion_from_json.s", "formats.fusion_from_json", "s"),
    ("formats.hopf_from_json.s", "formats.hopf_from_json", "s"),
    ("formats.canonical_dumps.s", "formats.canonical_dumps", "s"),
    ("threads.pmap.calls", "_threads.pmap", "calls"),
    ("threads.pmap.s", "_threads.pmap", "s"),
) + tuple((f"cli.{c}.s", f"cli.{c}", "s") for c in CLI_COMMANDS)


def _unit(statistic: str) -> str:
    return "s" if statistic in ("s", "self_s") else "count"


def layer_metric_units(workloads: Sequence[str]) -> List[Tuple[str, str]]:
    """Every per-layer metric a traced run over these workloads reports."""
    out = [(name, _unit(stat)) for name, _, stat in SPAN_METRICS]
    out += [(name, "count") for _, _, name in COUNTS]
    out += [
        ("nichols.quotient_steps", "count"),
        ("fusion.pentagon.us_per_instance", "us"),
        ("threads.pmap.t2_over_t1", "ratio"),
    ]
    out += [(f"trace.overhead_ratio.{w}", "ratio") for w in workloads]
    out += [(f"trace.target_share.{w}", "ratio") for w in workloads if w in TARGETS]
    return out
