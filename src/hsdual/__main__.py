"""Process entry of ``python -m hsdual`` and of the ``hsdual`` console script."""

import gc
import os
import sys


def console_main() -> None:
    """Run one command in this process, then end the process.

    The collector is off while numpy and hsdual are imported, and the
    objects made then are frozen out of it, so no collection walks them,
    during the command or after it.  After the output is flushed the process
    ends with ``os._exit``: interpreter teardown would only free memory that
    the operating system takes back anyway (hsdual and numpy register no
    ``atexit`` handler).  ``cli.main`` leaves the collector alone and
    returns, since tests and harnesses call it many times in one process.
    The ``SystemExit`` of a usage error or ``--help`` is caught here, so
    their output takes the same flush and exit as a command's.
    """
    gc.disable()
    from . import cli

    gc.freeze()
    gc.enable()
    try:
        code = cli.main()
    except SystemExit as e:  # argparse exits with an integer code
        code = e.code
    try:
        sys.stdout.flush()
    except OSError as e:
        code = cli.output_error(e)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_main()
