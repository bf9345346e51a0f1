"""``python -m repro`` entry point."""

import signal
import sys

from .cli import main

code = main()
# The command has finished and chosen its exit code.  Interpreter teardown
# resets Python-level handlers to the default, so a stop signal arriving now
# would turn a completed run into a death by signal; ignore it instead.
for signum in (signal.SIGINT, signal.SIGTERM):
    signal.signal(signum, signal.SIG_IGN)
sys.exit(code)
