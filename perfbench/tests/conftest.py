import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import run  # noqa: E402  (imports nothing of stirap)

for var in run.THREAD_VARS:
    os.environ[var] = "1"
