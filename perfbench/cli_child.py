"""Run one ``wgom`` CLI subcommand with spans recorded around the library.

    python perfbench/cli_child.py --spans FILE --op N [--memory] -- SUBCOMMAND [ARGS...]

Installs the span wrappers, calls ``wgom.cli.main`` inside a ``cli.main`` span
and writes the spans to FILE as JSON.  ``--memory`` also runs tracemalloc, for
the peak memory of ``select_k``.  Exits with the subcommand's exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import spans  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--op", type=int, required=True)
    parser.add_argument("--memory", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = spans.Tracer()
    spans.install(tracer)
    import wgom.cli

    tracer.op = args.op
    if args.memory:
        tracemalloc.start()
    tracer.enabled = True
    index = tracer.begin("cli.main", {})
    try:
        code = wgom.cli.main(argv)
    finally:
        tracer.end(index)
        tracer.enabled = False
        if args.memory:
            tracemalloc.stop()
        Path(args.spans).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
