"""CLI for the compiled decision kernel: build, check, report.

Used by CI (build the kernel before the fuzz/throughput gates) and by
operators verifying which implementation a deployment runs::

    python -m repro.core.kernels --build          # build if stale
    python -m repro.core.kernels --build --force  # rebuild
    python -m repro.core.kernels --check          # exit 0 iff compiled loads
    python -m repro.core.kernels                  # print selection info
"""

from __future__ import annotations

import argparse
import sys

from repro.core import kernels
from repro.core.kernels.build import ensure_built, explicit, find_compiler, lib_path
from repro.errors import ConfigurationError


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.core.kernels")
    parser.add_argument(
        "--build", action="store_true", help="compile the kernel if stale"
    )
    parser.add_argument(
        "--force", action="store_true", help="rebuild even if up to date"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 0 iff the compiled kernel loads (no output on success)",
    )
    args = parser.parse_args(argv)

    if args.check:
        try:
            with kernels.use("compiled"):
                pass
        except ConfigurationError as exc:
            print(f"compiled kernel unavailable: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.build:
        try:
            path = ensure_built(force=args.force)
        except ConfigurationError as exc:
            print(f"build failed: {exc}", file=sys.stderr)
            return 1
        print(f"using {path} as it is" if explicit() else f"built {path}")
        return 0

    print(f"REPRO_KERNEL={kernels.requested_mode()}")
    print(f"kernel_backend={kernels.kernel_backend()}")
    print(f"compiler={find_compiler() or '<none>'}")
    print(f"lib={lib_path()}")
    print(f"fallbacks={kernels.stats.fallbacks}"
          + (f" (last: {kernels.stats.last_reason})"
             if kernels.stats.last_reason else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
