"""Launch a ``python -m repro`` command with layer tracing installed.

Usage::

    python perfbench/launch.py <span-dir> serve --snapshot STORE ...

Wraps the traced layer functions (see :mod:`spans`) in this process,
then hands the remaining arguments to ``repro.cli.main`` unchanged.
Spans land in ``<span-dir>/spans-<pid>.json`` when each process exits.
"""

import sys

import spans


def main() -> int:
    out_dir, argv = sys.argv[1], sys.argv[2:]
    spans.install(out_dir)
    from repro.cli import main as repro_main

    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
