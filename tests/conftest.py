import os
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

# a failing property prints the @reproduce_failure blob that replays its exact
# draw; no example count, deadline or other setting changes
settings.register_profile("medent", print_blob=True)
settings.load_profile("medent")


def python_process(args, threads, cwd):
    """``python args`` in a fresh process that imports the package from this
    checkout and whose BLAS runs ``threads`` threads."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    env.update({var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True)


def medent_process(argv, threads, cwd):
    """``python -m medent.cli`` on ``argv`` in a fresh process whose BLAS runs
    ``threads`` threads."""
    return python_process(["-m", "medent.cli", *argv], threads, cwd)
