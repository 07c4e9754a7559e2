"""Guards on the pytest configuration itself."""
import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_property_test_reports_its_example(tmp_path):
    # with warnings raised as errors, a failing @given test must still
    # print its falsifying example and let the tests after it run
    (tmp_path / "test_probe.py").write_text(PROBE)
    env = dict(os.environ, HYPOTHESIS_STORAGE_DIRECTORY=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         str(tmp_path / "test_probe.py"), "-p", "no:cacheprovider"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "Falsifying example" in out, out
    assert "1 failed, 1 passed" in out, out
