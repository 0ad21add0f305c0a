"""One traced cold CLI process: `python -m macdonald.cli ARGV` with spans.

    python3 perfbench/cli_child.py SPANS.npz eval --nu 1 --x 1

Imports the package, wraps its public functions (tracer.py), runs the
wrapped `macdonald.cli.main(ARGV)`, saves the spans and exits with main's
code.  Stdout and stderr are the CLI's own.
"""

import sys

import tracer as tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import macdonald
    import macdonald.cli

    t = tracing.Tracer()
    t.install(macdonald)
    try:
        return macdonald.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit 2 from inside main
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        tracing.save(spans_path, t.arrays())


if __name__ == "__main__":
    sys.exit(main())
