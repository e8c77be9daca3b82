"""``repro`` CLI entry point with layer spans installed, for traced runs.

Usage: ``python3 perfbench/traced_serve.py SPANS.json serve [args...]``.
Installs the spans before the server builds any ``System``, runs the
CLI, and writes the span totals to ``SPANS.json`` when the server has
drained and exited.
"""

import sys

from spans import LayerSpans, install


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    spans = LayerSpans()
    spans.phase = "timed"  # the server does no simulation while booting
    install(spans)
    from repro.cli import main as cli_main
    try:
        code = cli_main(argv)
    finally:
        spans.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
