"""The decode server with the benchmark's layer spans installed.

Usage: ``python perfbench/traced_server.py --span-dir DIR [server args]``.
Installs :mod:`spans` wrappers, then runs ``repro.service.server.main``
with the remaining arguments.  Wrappers go in before the server builds
its backend, so a sharded router forks workers that inherit them; each
worker writes its spans when it exits, and this process writes
``server.npz`` after the server has shut down.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import host

host.pin_blas()
host.require_source()

import spans  # noqa: E402  (after the source path is set)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--span-dir", required=True, type=Path)
    args, server_argv = parser.parse_known_args(argv)
    from repro.service import server

    log = spans.SpanLog()
    spans.install(log, span_dir=args.span_dir)
    try:
        return server.main(server_argv)
    finally:
        log.save(args.span_dir / "server.npz")


if __name__ == "__main__":
    sys.exit(main())
