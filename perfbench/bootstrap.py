"""Process set-up shared by the benchmark's entry points.

Importing this module pins BLAS and OpenMP to one thread, so it must be
imported before anything that loads numpy. ``load_contextsim`` imports the
package from this checkout's ``src/`` directory and from nowhere else.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"


class MissingPackage(RuntimeError):
    """The checkout holds no contextsim sources to benchmark."""


def load_contextsim():
    init = SRC / "contextsim" / "__init__.py"
    if not init.is_file():
        raise MissingPackage(f"no contextsim sources at {init}")
    sys.path.insert(0, str(SRC))
    import contextsim

    if Path(contextsim.__file__).resolve() != init.resolve():
        raise MissingPackage(f"contextsim was imported from {contextsim.__file__}, not {init}")
    return contextsim
