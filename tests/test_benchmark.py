"""The benchmark's self-test, run the way `perfbench/README.md` runs it."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes(tmp_path):
    # every workload at levels 2-3, traced and untraced, in about 2 s: the
    # traced probes read the packs and the LocalOperators the builder makes
    done = subprocess.run([sys.executable, str(SELFTEST)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "0 failed"
    assert not any(tmp_path.iterdir())      # it writes no files
