"""Run one `nicholsforge` command with tracing wrappers installed.

    python3 perfbench/launch.py MODE OUT JOB -- <nicholsforge arguments>

MODE is ``spans`` or ``counts``.  The command's standard output is left
exactly as the plain CLI writes it; the spans or counts go to the file
OUT when the command exits, tagged with the job id JOB.
"""

import sys

import tracer


def main(argv) -> None:
    mode, out, job, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: launch.py MODE OUT JOB -- ARGS...")
    recorder = tracer.RECORDERS[mode]()
    recorder.install()
    from nicholsforge.cli import main as cli_main
    try:
        cli_main.main(args=cli_args, prog_name="nicholsforge")
    finally:
        tracer.dump(recorder, job, out)


if __name__ == "__main__":
    main(sys.argv[1:])
