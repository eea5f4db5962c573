import signal
import sys

from .cli import main


def run() -> int:
    """The `classforms` command: `main`, where a closed stdout pipe ends the
    process by SIGPIPE, quietly, as it does a Unix filter."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    return main()


if __name__ == "__main__":
    sys.exit(run())
