"""Traced stand-in for `python -m halfline_nls.cli`.

It imports `halfline_nls.cli` inside a span, installs the tracing wrappers
in this process, runs `halfline_nls.cli.main` with the remaining arguments,
writes the spans to SPANS and exits with main's exit code.

    python3 perfbench/cli_launcher.py SPANS solve case.cfg --out out/
"""
import importlib
import sys

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    cli = tracer.call("cli.import", importlib.import_module, "halfline_nls.cli")
    tracer.install()
    try:
        code = tracer.call("cli.main", cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
