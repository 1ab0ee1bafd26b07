"""Process entry of the dcecon CLI, shared by `python -m dcecon` and the `dcecon` script.

Importing this module runs nothing; `run` is the whole process.
"""

import gc
import os
import sys


def run():
    """Run one CLI command and end the process without interpreter teardown.

    Cyclic garbage collection is switched off before the CLI is imported: the
    few reference cycles one command leaves are freed when the process ends,
    and the collector's passes during the imports only cost time. Forked trace
    children inherit the setting, so they stop copying parent pages to update
    GC headers.

    Once `cli.main` returns, stdout and stderr are flushed and the process ends
    by `os._exit`, which skips finalizing every module and object. That is
    safe only because three things hold when `main` returns:

    - every trace file and spill file is closed;
    - every forked trace child is reaped;
    - dcecon registers no `atexit` hook.

    An exception escaping `main`, or a flush that fails, takes the normal exit
    path instead, so a traceback or a broken stdout (exit 120) reads as before.
    `cli.main` itself, and every in-process caller of it, keeps garbage
    collection and normal teardown.
    """
    gc.disable()
    from .cli import main

    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # no stream, or a broken or closed one
        # teardown flushes again and reports the failure, as it would without os._exit
        return code
    os._exit(code)


if __name__ == "__main__":
    sys.exit(run())
