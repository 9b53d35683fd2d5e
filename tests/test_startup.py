"""What each start-up step loads: importing the package and the CLI, and
loading the compiled walk from a warm cache.

Each probe runs in a fresh interpreter started with -S, so that no
site-packages hook loads anything first, and compares sys.modules before
and after the step, so that it sees only what the step itself loads.  The
probes need only the standard library, and pytest is imported only to
skip, so the test functions also run on an interpreter without pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

import prefixnormal
from prefixnormal import _kernel

# Modules that no run of the CLI needs: dataclasses imports inspect,
# fractions imports decimal, and json is needed only for JSON output.
UNUSED = {"dataclasses", "inspect", "fractions", "decimal", "json"}
# Modules that only a build of the compiled walk needs.
BUILD = {"subprocess", "tempfile"}
# pathlib loads urllib.parse and ipaddress; os.path builds the cache path.
PATHLIB = {"pathlib", "urllib", "ipaddress"}


def loaded_by(step: str, setup: str = "") -> set[str]:
    """The top-level names of the modules that `step` loads in a fresh
    interpreter after `setup` has run."""
    code = (f"import sys\n{setup}\nbefore = set(sys.modules)\n{step}\n"
            "print(*{name.partition('.')[0] for name in set(sys.modules) - before})")
    env = dict(os.environ, PYTHONPATH=str(Path(prefixnormal.__file__).parents[1]))
    res = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env=env, timeout=60)
    assert res.returncode == 0, res.stderr
    return set(res.stdout.split())


def test_package_import_loads_no_unused_module():
    assert "prefixnormal" in loaded_by("import prefixnormal")
    assert not UNUSED & loaded_by("import prefixnormal")
    assert not UNUSED & loaded_by("import prefixnormal.cli")


def test_warm_kernel_load_starts_no_build_tools():
    if _kernel.load() is None:
        import pytest

        pytest.skip("no compiled walk on this machine")
    # The call above left the library in the cache.
    step = "from prefixnormal import _kernel\nassert _kernel.load() is not None"
    loaded = loaded_by(step, "import prefixnormal.cli")
    assert "ctypes" in loaded
    assert not (BUILD | PATHLIB) & loaded
