"""``python -m repro serve`` — argument parsing for the daemon.

Kept apart from :mod:`repro.__main__` so the one-shot CLI stays
importable without dragging in asyncio, and apart from
:mod:`repro.serve.server` so the server stays importable without
argparse.
"""

import argparse
import sys

from .server import DEFAULT_PORT, ServeConfig, run


def build_serve_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the persistent verification service: a long-lived "
        "daemon accepting repro.codec task documents over a socket, backed "
        "by a worker pool and a content-addressed on-disk result store "
        "(an already-seen task is answered from disk without re-verifying).",
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help="TCP port; 0 binds an ephemeral port, printed on startup "
        "(default %d)" % DEFAULT_PORT,
    )
    parser.add_argument(
        "--store",
        default=".repro_store",
        metavar="DIR",
        help="result store directory (default .repro_store; survives restarts)",
    )
    parser.add_argument(
        "--store-ttl",
        type=float,
        metavar="SECONDS",
        help="expire stored results after this many seconds "
        "(default: keep forever)",
    )
    parser.add_argument(
        "--max-store-entries",
        type=int,
        metavar="N",
        help="LRU-bound the result store to N records (default: unbounded)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        help="worker pool size (default: CPU count, capped at 4)",
    )
    parser.add_argument(
        "--executor",
        choices=("process", "thread"),
        default="process",
        help="worker pool flavor (default process; thread is cheaper to "
        "start and shares in-memory caches, but serializes CPU-bound work "
        "on the GIL)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-request wall-clock ceiling in seconds; requests may lower "
        "it but never raise it; 0 disables (default 60)",
    )
    parser.add_argument("--lo", type=int, default=0, help="domain lower bound")
    parser.add_argument("--hi", type=int, default=1, help="domain upper bound")
    parser.add_argument(
        "--entailment",
        choices=("sat", "brute"),
        default="sat",
        help="entailment oracle method (default: sat)",
    )
    parser.add_argument(
        "--max-set-size",
        type=int,
        help="cap oracle initial-set sizes (under-approximate on large "
        "universes); participates in the store key",
    )
    parser.add_argument(
        "--max-image-entries",
        type=int,
        default=4096,
        help="LRU bound on each worker session's image cache — mask tier "
        "included (default 4096); 0 disables the bound",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the startup banner"
    )
    return parser


def config_from_args(args):
    return ServeConfig(
        host=args.host,
        port=args.port,
        store_path=args.store,
        workers=args.workers,
        executor=args.executor,
        timeout=None if args.timeout == 0 else args.timeout,
        lo=args.lo,
        hi=args.hi,
        entailment=args.entailment,
        max_set_size=args.max_set_size,
        max_image_entries=args.max_image_entries or None,
        store_ttl=args.store_ttl,
        max_store_entries=args.max_store_entries,
        quiet=args.quiet,
    )


def serve_main(argv):
    parser = build_serve_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0, None) else 0
    try:
        config = config_from_args(args)
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 3
    return run(config)
