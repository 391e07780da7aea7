"""Start-up hook for traced ``serve-party`` processes.

The benchmark puts this directory on ``PYTHONPATH`` only for its traced
socket-transport rankings; party processes inherit the coordinator's
environment, so Python imports this module at start-up in each of them
and the benchmark's layer wrappers get installed there too.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import layertrace  # noqa: E402

layertrace.maybe_install_from_environment(sys.argv)
