"""Command-line entry points: the `nicholsforge` dispatcher.

Every command prints either a human-readable summary or, with --json, a
canonical report object: sorted keys, compact separators, no timing and no
absolute paths, so identical inputs produce identical bytes regardless of
run, machine, or worker count.  Exit status is 0 when every check passed,
1 when some mathematical check failed or a command cannot apply to its
input, and 2 for unusable input, bad arguments included; every refusal
prints one `Error: <message>` line on stderr.

This module is only the dispatcher.  For each command it keeps the name,
the one-line help, the parameters and a callback that imports the command's
body (from `cmd_nichols`, `cmd_structures` or `cmd_fusion`) when it runs,
and each body imports the computing layers it runs.  So a process compiles
only the code of its command, and `--help` no layer and no kernel.

Arguments are parsed with argparse, one parser per command, built when that
command runs, and argparse words every argument error: the command's usage
line, then its `Error: <message>` line, exit 2.  Integers on the command
line, like those in documents, are ASCII digits with an optional sign.
`main.commands` maps each command name to a `Command`, whose `callback` the
dispatcher reads at call time, so a caller may rebind it (the benchmark's
tracer does).
"""

import sys
from importlib import import_module
from typing import List, Optional

from ._rat import integer

# -- argument parsing ------------------------------------------------------------
#
# A command's parameters are add_argument specs, (name, keywords) pairs, and
# argparse words every argument error.


class _UsageError(Exception):
    """An argument error, already worded with the usage line: exit 2."""


def _parser(prog: str, description: str):
    """An argparse parser whose argument errors raise _UsageError."""
    import argparse  # here, since the dispatcher's own --help needs no parser

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(f"{self.format_usage()}Error: {message}")

    return _Parser(prog=prog, description=description, add_help=False, allow_abbrev=False)


_HOPF_FILE = ("hopf_file", {})
_FILTRATION = ("--filtration", dict(dest="kind", choices=("coradical", "radical"),
                                    required=True))
_JSON = ("--json", dict(dest="as_json", action="store_true",
                        help="Emit the canonical JSON report."))
_THREADS = ("--threads", dict(type=integer,
                              help="Worker threads (default: NICHOLS_FORGE_THREADS or 1)."))


class Command:
    """One command: its one-line help, its parameters, and the callback that runs it."""

    def __init__(self, name: str, help: str, params: tuple, callback):
        self.name = name
        self.help = help
        self.params = params
        self.callback = callback

    def parse(self, args: List[str], prog: str) -> dict:
        """The callback's keywords for these arguments; _UsageError when unusable."""
        parser = _parser(f"{prog} {self.name}", self.help)
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

    def command(self, name: str, module: str, help: str, *params: tuple):
        """Register a command whose body is the function named after it in
        `module`, imported when the command runs."""
        function = name.replace("-", "_")

        def callback(**options):
            getattr(import_module(module, __package__), function)(**options)

        self.commands[name] = Command(name, help, params, callback)

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
            options = command.parse(args[1:], prog)
        except _UsageError as err:
            sys.stderr.write(f"{err}\n")
            return 2
        # imported only for a command that runs: every body loads both anyway
        from ._command import CommandError
        from .scalars import FieldTooLarge

        try:
            # the callback is read only now: a caller may have rebound it
            command.callback(**options)
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


# -- commands ------------------------------------------------------------------
#
# Each command's body is the function of the same name in the module named
# here, imported only when the command runs.

main.command("nichols", ".cmd_nichols", "Run the primitive-quotient engine on a braiding file.",
             ("braiding_file", {}),
             ("--max-degree", dict(type=integer, required=True, help="Engine cutoff degree.")),
             ("--oracle-degree", dict(type=integer,
                                      help="Cross-check graded dimensions up to this degree.")),
             ("--emit-hopf", dict(help="Write the finite result as a structure-constant file.")),
             _THREADS, _JSON)

main.command("verify", ".cmd_structures",
             "Check all Hopf axioms plus connectedness on both sides.",
             _HOPF_FILE, _JSON)

main.command("gr", ".cmd_structures",
             "Associated graded structure of the radical or coradical filtration.",
             _HOPF_FILE, _FILTRATION,
             ("--out", dict(help="Write the associated graded structure here.")),
             _JSON)

main.command("degenerate", ".cmd_structures",
             "Walk the one-parameter family of a filtration split to its limit.",
             _HOPF_FILE, _FILTRATION,
             ("--lambda-samples", dict(dest="samples", default="1",
                                       help="Comma-separated parameters, e.g. '1,1/2,zeta(3)'.")),
             ("--out", dict(help="Write the exact limit structure here.")),
             _JSON)

main.command("is-nichols", ".cmd_structures",
             "Run the three recognition criteria on a structure file.",
             _HOPF_FILE, _JSON)

main.command("fusion-verify", ".cmd_fusion",
             "Check pentagon, units, duality, and both hexagons on fusion data.",
             ("fusion_file", {}), _THREADS, _JSON)

main.command("fusion-gen", ".cmd_fusion",
             "Emit Drinfeld-center fusion data of a finite abelian group.",
             ("--group", dict(required=True,
                              help="Cyclic factor orders of an abelian group, e.g. '2,2'.")),
             ("--out", dict(required=True, help="Write the generated fusion data here.")),
             _JSON)

if __name__ == "__main__":
    main()
