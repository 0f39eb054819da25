"""Run ``repro.cli serve-http`` with the benchmark's span wrappers installed.

Usage: python3 perfbench/daemon.py SPANS_OUT serve-http [serve-http args]

Recording starts off; each SIGUSR1 switches it on or off.  The spans are
written to SPANS_OUT after the daemon's graceful shutdown (SIGTERM).
"""

import signal
import sys

from tracing import Tracer, install_layers


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install_layers(tracer)
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: setattr(
        tracer, "enabled", not tracer.enabled))
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.enabled = False
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
