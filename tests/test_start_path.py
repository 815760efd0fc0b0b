"""What a process imports on its way to serving.

``scipy.stats`` costs about half a second and ~60 MB of resident memory per
process, and only the skewed-data samplers use it.  The contracts under test
(see docs/SERVING.md and docs/RUNNER.md):

* the query server, the cache server, the fleet router and the evaluation
  CLI import without loading any ``scipy`` module, so every process that
  never draws skewed data starts without it;
* :func:`~repro.evaluation.parallel.evaluation_session` with ``jobs > 1``
  imports ``scipy.stats`` on entry, before its pool can fork, so the
  workers inherit it instead of each importing it inside an experiment.

Each check runs in a fresh interpreter: this suite's own process has long
since imported scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Prints the loaded scipy modules, sorted, as a Python list.
LIST_SCIPY = (
    "print(sorted(name for name in sys.modules "
    "if name == 'scipy' or name.startswith('scipy.')))\n"
)


def _run(script: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", "import sys\n" + script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_serving_and_cache_server_entry_modules_load_no_scipy():
    lines = _run(
        "import repro.serving.server, repro.db.cache.server, repro.serving.fleet\n"
        "import repro.evaluation.cli\n" + LIST_SCIPY
    )
    assert lines == ["[]"]


def test_evaluation_session_imports_scipy_stats_before_its_pool_forks():
    lines = _run(
        "from repro.evaluation.experiments import ExperimentConfig\n"
        "from repro.evaluation.parallel import TrialScheduler, evaluation_session\n"
        + LIST_SCIPY
        + "with evaluation_session(ExperimentConfig(jobs=2)):\n"
        "    print('scipy.stats' in sys.modules, TrialScheduler.pools_created)\n"
    )
    assert lines == ["[]", "True 0"]
