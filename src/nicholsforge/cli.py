"""Command-line entry points.

Every command prints either a human-readable summary or, with --json, a
canonical report object: sorted keys, compact separators, no timing and no
absolute paths, so identical inputs produce identical bytes regardless of
run, machine, or worker count.  Exit status is 0 when every check passed,
1 when some mathematical check failed or a command cannot apply to its
input, and 2 for unusable input, bad arguments included; every refusal
prints one `Error: <message>` line on stderr.

Arguments are parsed with argparse, one parser per command, built when that
command runs, and argparse words every argument error: the command's usage
line, then its `Error: <message>` line, exit 2.  Integers on the command
line, like those in documents, are ASCII digits with an optional sign.
`main.commands` maps each command name to a `Command`, whose `callback` the
dispatcher reads at call time, so a caller may rebind it (the benchmark's
tracer does).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL for it
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256  # Python 3.12 renamed the module
    except ImportError:
        from hashlib import sha256

from ._rat import integer
from ._threads import pmap, resolve_threads
from .braided import braiding_from_json
from .formats import (
    canonical_dumps,
    fusion_from_json,
    fusion_to_json,
    hopf_from_json,
    hopf_to_json,
    save_document,
)
from .scalars import FieldTooLarge, parse_scalar, scalar_to_json

# Each command imports the computing layers it runs (nichols, structconst,
# filtration, dualize, fusion) when it runs, so that a process compiles only
# the modules its command needs.


class CommandError(Exception):
    """A command that cannot go on: `Error: <message>` on stderr, exit 1."""

    exit_code = 1


class InputError(CommandError):
    """Unusable input: exit 2."""

    exit_code = 2


def _digest(data: bytes) -> str:
    return "sha256:" + sha256(data).hexdigest()


def _read_json(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}")
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}")
    if not isinstance(obj, dict):
        raise InputError(f"{path} must hold a JSON object at the top level")
    return obj, _digest(raw)


def _write(path: str, doc: dict) -> None:
    try:
        save_document(path, doc)
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}")


def _thread_count(explicit: Optional[int]) -> int:
    try:
        return resolve_threads(explicit)
    except ValueError as err:
        raise InputError(str(err))


def _finish(command: str, digest: str, results: dict, warnings: List[str],
            as_json: bool, lines: List[str], started: float, ok: bool):
    report = {
        "command": command,
        "input": digest,
        "results": results,
        "warnings": sorted(warnings),
    }
    if as_json:
        sys.stdout.write(canonical_dumps(report))
    else:
        for line in lines:
            sys.stdout.write(f"{line}\n")
        for w in sorted(warnings):
            sys.stdout.write(f"warning: {w}\n")
        status = "all checks passed" if ok else "FAILED"
        sys.stdout.write(f"{status} ({time.monotonic() - started:.2f}s)\n")
    if not ok:
        raise SystemExit(1)


# -- argument parsing ------------------------------------------------------------
#
# A command's parameters are add_argument specs, (name, keywords) pairs, and
# argparse words every argument error.


class _UsageError(Exception):
    """An argument error, already worded with the usage line: exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}Error: {message}")


_HOPF_FILE = ("hopf_file", {})
_JSON = ("--json", dict(dest="as_json", action="store_true",
                        help="Emit the canonical JSON report."))
_THREADS = ("--threads", dict(type=integer,
                              help="Worker threads (default: NICHOLS_FORGE_THREADS or 1)."))


class Command:
    """One command: its parameters, and the callback that runs it."""

    def __init__(self, name: str, callback, params: tuple):
        self.name = name
        self.callback = callback
        self.params = params
        self.help = callback.__doc__

    def parse(self, args: List[str], prog: str) -> dict:
        """The callback's keywords for these arguments; _UsageError when unusable."""
        parser = _Parser(prog=f"{prog} {self.name}", description=self.help,
                         add_help=False, allow_abbrev=False)
        for name, spec in self.params:
            parser.add_argument(name, **spec)
        parser.add_argument("--help", action="help", help="Show this message and exit.")
        valued = {name for name, spec in self.params
                  if name.startswith("-") and spec.get("action") != "store_true"}
        return vars(parser.parse_args(_attach_values(args, valued)))


def _attach_values(args: List[str], valued: set) -> List[str]:
    """Join each valued option to the argument after it, as "--option=value".

    An option takes the next argument as its value whatever it looks like,
    so that "--lambda-samples -1/2" reads the value -1/2.
    """
    joined = []
    rest = iter(args)
    for arg in rest:
        if arg == "--":
            joined += [arg, *rest]
        elif arg in valued:
            value = next(rest, None)
            # an option with nothing after it is left for argparse to refuse
            joined.append(arg if value is None else f"{arg}={value}")
        else:
            joined.append(arg)
    return joined


class Group:
    """The `nicholsforge` command: dispatches to one of `commands` by name."""

    def __init__(self, help: str):
        self.help = help
        self.commands = {}

    def command(self, *params: tuple):
        """Register the decorated function as the command named after it."""

        def register(fn):
            name = fn.__name__.replace("_", "-")
            self.commands[name] = Command(name, fn, params)
            return fn

        return register

    def main(self, args: Optional[List[str]] = None, prog_name: Optional[str] = None):
        """Run one command line and exit with its status."""
        prog = prog_name or "nicholsforge"
        sys.exit(self._run(sys.argv[1:] if args is None else list(args), prog))

    __call__ = main

    def _run(self, args: List[str], prog: str) -> int:
        if args[:1] == ["--help"]:
            sys.stdout.write(self._help(prog))
            return 0
        command = self.commands.get(args[0]) if args else None
        try:
            if command is None:
                problem = f"no such command {args[0]!r}" if args else "no command given"
                raise _UsageError(f"usage: {prog} COMMAND [ARGS]...\nError: {problem}")
            # the callback is read only now: a caller may have rebound it
            command.callback(**command.parse(args[1:], prog))
        except _UsageError as err:
            sys.stderr.write(f"{err}\n")
            return 2
        except FieldTooLarge as err:
            # unusable input, wherever the field too large to build arises
            sys.stderr.write(f"Error: {err}\n")
            return 2
        except CommandError as err:
            sys.stderr.write(f"Error: {err}\n")
            return err.exit_code
        return 0

    def _help(self, prog: str) -> str:
        width = max(map(len, self.commands))
        rows = "".join(f"  {name:<{width}}  {command.help}\n"
                       for name, command in sorted(self.commands.items()))
        return f"usage: {prog} COMMAND [ARGS]...\n\n{self.help}\n\ncommands:\n{rows}"


main = Group("Exact tools for Nichols algebras and braided fusion data.")


# -- nichols -------------------------------------------------------------------


@main.command(
    ("braiding_file", {}),
    ("--max-degree", dict(type=integer, required=True, help="Engine cutoff degree.")),
    ("--oracle-degree", dict(type=integer,
                             help="Cross-check graded dimensions up to this degree.")),
    ("--emit-hopf", dict(help="Write the finite result as a structure-constant file.")),
    _THREADS,
    _JSON,
)
def nichols(braiding_file, max_degree, oracle_degree, emit_hopf, threads, as_json):
    """Run the primitive-quotient engine on a braiding file."""
    from .nichols import (
        FINITE,
        check_oracle_work,
        dims_symmetry_warning,
        hilbert_series,
        nichols_compute,
        symmetrizer_rank,
    )

    started = time.monotonic()
    threads = _thread_count(threads)
    obj, digest = _read_json(braiding_file)
    try:
        braiding = braiding_from_json(obj)
    except (KeyError, ValueError, TypeError) as err:
        raise InputError(f"bad braiding document: {err}")
    if oracle_degree is not None:
        if oracle_degree < 0:
            raise InputError("--oracle-degree cannot be negative")
        if oracle_degree > max_degree:
            raise InputError("--oracle-degree cannot exceed --max-degree")
        try:
            check_oracle_work(braiding.dim, oracle_degree)
        except ValueError as err:
            raise InputError(f"--oracle-degree: {err}")
    try:
        report = nichols_compute(braiding, max_degree)
    except ValueError as err:
        raise InputError(str(err))

    warnings = []
    symmetry = dims_symmetry_warning(report)
    if symmetry:
        warnings.append(symmetry)

    oracle_rows = []
    agree = True
    if oracle_degree is not None:
        degrees = list(range(oracle_degree + 1))
        ranks = pmap(lambda d: symmetrizer_rank(braiding, d), degrees, threads)
        for d, r in zip(degrees, ranks):
            engine = report.dims[d]
            match = engine == r
            agree = agree and match
            oracle_rows.append({"degree": d, "engine": engine, "oracle": r, "agree": match})

    results = {
        "rank": braiding.dim,
        "max_degree": max_degree,
        "termination": report.termination,
        "dims": list(report.dims),
        "hilbert_series": hilbert_series(report),
        "total_dim": report.total_dim,
        "relations": [[d, r] for d, r in report.relations],
        "oracle": oracle_rows,
    }

    lines = [f"termination: {report.termination}",
             f"graded dims: {list(report.dims)}"]
    if report.total_dim is not None:
        lines.append(f"total dim:   {report.total_dim}")
    for d, r in report.relations:
        lines.append(f"relations in degree {d}: {r}")
    if oracle_rows:
        lines.append("degree  engine  oracle  agree")
        for row in oracle_rows:
            lines.append(f"{row['degree']:>6}  {row['engine']:>6}  {row['oracle']:>6}  "
                         f"{'yes' if row['agree'] else 'NO'}")
    if emit_hopf is not None:
        from .structconst import from_nichols

        if report.termination != FINITE:
            raise InputError("--emit-hopf needs a certified finite result; raise --max-degree")
        _write(emit_hopf, hopf_to_json(from_nichols(report)))
        lines.append(f"wrote {emit_hopf}")

    _finish("nichols", digest, results, warnings, as_json, lines, started, agree)


# -- verify --------------------------------------------------------------------


def _load_hopf(path: str):
    obj, digest = _read_json(path)
    try:
        return hopf_from_json(obj), digest
    except (KeyError, ValueError, TypeError) as err:
        raise InputError(f"bad structure document: {err}")


def _load_well_formed_hopf(path: str):
    """A structure whose blocks fit its sectors; verify reports this as an axiom."""
    from .structconst import well_formed_problem

    t, digest = _load_hopf(path)
    problem = well_formed_problem(t)
    if problem is not None:
        raise InputError(f"bad structure document: {problem}")
    return t, digest


@main.command(_HOPF_FILE, _JSON)
def verify(hopf_file, as_json):
    """Check all Hopf axioms plus connectedness on both sides."""
    from .structconst import AXIOM_KEYS, check_coconnected, check_connected, verify_axioms

    started = time.monotonic()
    t, digest = _load_hopf(hopf_file)
    report = verify_axioms(t)
    connected = coconnected = None
    if report.passed:
        connected = check_connected(t)
        coconnected = check_coconnected(t)
    ok = report.passed and bool(connected) and bool(coconnected)
    results = {
        "axioms": {key: report.results[key] for key in AXIOM_KEYS},
        "connected": connected,
        "coconnected": coconnected,
        "total_dim": t.obj.total_dim(),
        "graded": t.grading is not None,
    }
    lines = []
    for key in AXIOM_KEYS:
        lines.append(f"{key:<16} {_tristate(report.results[key])}")
        if key in report.failures:
            lines.append(f"  {report.failures[key]}")
    lines.append(f"{'connected':<16} {_tristate(connected)}")
    lines.append(f"{'coconnected':<16} {_tristate(coconnected)}")
    _finish("verify", digest, results, [], as_json, lines, started, ok)


def _tristate(value) -> str:
    if value is None:
        return "skipped"
    return "pass" if value else "FAIL"


# -- gr ------------------------------------------------------------------------


_FILTRATIONS = ("coradical", "radical")


def _build_filtration(t, kind: str):
    # through the module, where a tracer may have wrapped the constructors
    from . import filtration

    build = filtration.radical_filtration if kind == "radical" else filtration.coradical_filtration
    try:
        return build(t)
    except FieldTooLarge:
        raise
    except ValueError as err:
        raise CommandError(f"filtration unavailable: {err}")


def _layer_table(f) -> list:
    return [{"index": i, "dims": [[list(label), dims[label]] for label in sorted(dims)]}
            for i, dims in sorted(f.layer_dims().items())]


_FILTRATION = ("--filtration", dict(dest="kind", choices=_FILTRATIONS, required=True))


@main.command(
    _HOPF_FILE,
    _FILTRATION,
    ("--out", dict(help="Write the associated graded structure here.")),
    _JSON,
)
def gr(hopf_file, kind, out, as_json):
    """Associated graded structure of the radical or coradical filtration."""
    from .filtration import associated_graded, filtration_conditions
    from .structconst import AXIOM_KEYS, verify_axioms

    started = time.monotonic()
    t, digest = _load_well_formed_hopf(hopf_file)
    f = _build_filtration(t, kind)
    conditions = filtration_conditions(f)
    graded = associated_graded(t, f)
    axioms = verify_axioms(graded)
    ok = all(conditions.values()) and axioms.passed
    results = {
        "filtration": kind,
        "window": list(f.window),
        "layers": _layer_table(f),
        "conditions": conditions,
        "output_axioms": {key: axioms.results[key] for key in AXIOM_KEYS},
    }
    lines = [f"{kind} filtration, window {f.window}"]
    for row in results["layers"]:
        dims = ", ".join(f"{tuple(label)}:{d}" for label, d in row["dims"])
        lines.append(f"  layer {row['index']:>3}: {dims}")
    for name, verdict in conditions.items():
        lines.append(f"{name:<18} {'pass' if verdict else 'FAIL'}")
    lines.append(f"output axioms      {'pass' if axioms.passed else 'FAIL'}")
    if out is not None:
        _write(out, hopf_to_json(graded))
        lines.append(f"wrote {out}")
    _finish("gr", digest, results, [], as_json, lines, started, ok)


# -- degenerate ------------------------------------------------------------


@main.command(
    _HOPF_FILE,
    _FILTRATION,
    ("--lambda-samples", dict(dest="samples", default="1",
                              help="Comma-separated parameters, e.g. '1,1/2,zeta(3)'.")),
    ("--out", dict(help="Write the exact limit structure here.")),
    _JSON,
)
def degenerate(hopf_file, kind, samples, out, as_json):
    """Walk the one-parameter family of a filtration split to its limit."""
    from .filtration import (
        associated_graded,
        degenerate_limit,
        filtration_conditions,
        primitive_dims_along_path,
        split_basis,
    )
    from .structconst import AXIOM_KEYS, verify_axioms

    started = time.monotonic()
    parts = [part.strip() for part in samples.split(",") if part.strip()]
    try:
        lams = [parse_scalar(part) for part in parts]
        if not lams or any(lam.is_zero() for lam in lams):
            raise ValueError("give one or more values, none of them zero "
                             "(the limit at 0 is always reported)")
    except (ValueError, KeyError) as err:
        raise InputError(f"bad --lambda-samples: {err}")
    t, digest = _load_well_formed_hopf(hopf_file)
    f = _build_filtration(t, kind)
    failed = ", ".join(name for name, good in filtration_conditions(f).items() if not good)
    if failed:
        raise CommandError(f"filtration unavailable: {kind} filtration violates {failed}")
    split = split_basis(f)
    limit = degenerate_limit(t, split)
    dims = primitive_dims_along_path(t, split, lams, limit)
    axioms = verify_axioms(limit)
    # associated_graded builds the graded structure on its own, from the
    # same split, so that the comparison means something
    matches = limit == associated_graded(t, f, split)
    ok = axioms.passed and matches
    results = {
        "filtration": kind,
        "samples": [scalar_to_json(lam) for lam in lams],
        "primitive_dims": dims[:-1],
        "limit_primitive_dim": dims[-1],
        "limit_axioms": {key: axioms.results[key] for key in AXIOM_KEYS},
        "limit_equals_associated_graded": matches,
    }
    lines = ["parameter        primitives"]
    for part, d in zip(parts, dims):
        lines.append(f"{part:<16} {d}")
    lines.append(f"{'limit':<16} {dims[-1]}")
    lines.append(f"limit axioms       {'pass' if axioms.passed else 'FAIL'}")
    lines.append(f"matches gr         {'pass' if matches else 'FAIL'}")
    if out is not None:
        _write(out, hopf_to_json(limit))
        lines.append(f"wrote {out}")
    _finish("degenerate", digest, results, [], as_json, lines, started, ok)


# -- is-nichols ------------------------------------------------------------


@main.command(_HOPF_FILE, _JSON)
def is_nichols(hopf_file, as_json):
    """Run the three recognition criteria on a structure file."""
    from .dualize import nichols_criteria
    from .structconst import verify_axioms

    started = time.monotonic()
    t, digest = _load_well_formed_hopf(hopf_file)
    try:
        failure = verify_axioms(t).first_failure()
        if failure is not None:
            raise ValueError(failure)
        pairing, generation, gragrc = nichols_criteria(t)
    except FieldTooLarge:
        raise
    except ValueError as err:
        raise CommandError(f"criteria not applicable: {err}")
    verdicts = (pairing.verdict, generation.verdict, gragrc.verdict)
    ok = verdicts == ("nichols", "nichols", "nichols-by-gragrc")
    results = {
        "pairing": {
            "dim_primitives": pairing.dim_primitives,
            "dim_dual_primitives": pairing.dim_dual_primitives,
            "rank": pairing.rank,
            "verdict": pairing.verdict,
        },
        "generation": {
            "primitives_generate": generation.generated_by_primitives,
            "dual_primitives_generate": generation.dual_generated_by_primitives,
            "verdict": generation.verdict,
        },
        "gragrc": {"verdict": gragrc.verdict, "detail": gragrc.detail},
        "verdict": "nichols" if ok else "not-determined",
    }
    lines = [
        f"pairing:    {pairing.verdict} "
        f"({pairing.dim_dual_primitives} x {pairing.dim_primitives}, rank {pairing.rank})",
        f"generation: {generation.verdict}",
        f"gr agreement: {gragrc.verdict}" + (f" ({gragrc.detail})" if gragrc.detail else ""),
        f"verdict:    {results['verdict']}",
    ]
    _finish("is-nichols", digest, results, [], as_json, lines, started, ok)


# -- fusion ----------------------------------------------------------------


@main.command(("fusion_file", {}), _THREADS, _JSON)
def fusion_verify(fusion_file, threads, as_json):
    """Check pentagon, units, duality, and both hexagons on fusion data."""
    from .fusion import verify_braiding, verify_duality, verify_pentagon, verify_units, well_formed

    started = time.monotonic()
    threads = _thread_count(threads)
    obj, digest = _read_json(fusion_file)
    try:
        data = fusion_from_json(obj)
    except (KeyError, ValueError, TypeError) as err:
        raise InputError(f"bad fusion document: {err}")
    reports = [well_formed(data)]
    if reports[0].passed:
        reports += pmap(
            lambda check: check(data),
            [verify_pentagon, verify_units, verify_duality, verify_braiding],
            threads,
        )
    ok = all(r.passed for r in reports)
    results = {
        "checks": [
            {
                "check": r.check,
                "passed": r.passed,
                "checked": r.checked,
                "failures": [list(f) for f in r.failures[:8]],
            }
            for r in reports
        ]
    }
    lines = []
    for r in reports:
        lines.append(f"{r.check:<12} {'pass' if r.passed else 'FAIL'} ({r.checked} instances)")
        for f in r.failures[:4]:
            lines.append(f"  at {f}")
    _finish("fusion-verify", digest, results, [], as_json, lines, started, ok)


@main.command(
    ("--group", dict(required=True,
                     help="Cyclic factor orders of an abelian group, e.g. '2,2'.")),
    ("--out", dict(required=True, help="Write the generated fusion data here.")),
    _JSON,
)
def fusion_gen(group, out, as_json):
    """Emit Drinfeld-center fusion data of a finite abelian group."""
    from .fusion import pointed_center_data

    started = time.monotonic()
    try:
        factors = [integer(part) for part in group.split(",") if part.strip()]
        data = pointed_center_data(factors)
    except ValueError as err:
        raise InputError(f"bad --group: {err}")
    _write(out, fusion_to_json(data))
    results = {"factors": factors, "simples": data.size}
    lines = [f"{data.size} simples from factors {factors}", f"wrote {out}"]
    _finish("fusion-gen", _digest(group.encode()), results, [], as_json, lines, started, True)


if __name__ == "__main__":
    main()
