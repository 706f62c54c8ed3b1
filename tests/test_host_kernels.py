"""Host-kernel guard: which golden digests move under a forced OpenBLAS kernel or SIMD dispatch.

The bits of ``@`` and ``np.linalg.solve`` follow the OpenBLAS kernel, and those of ``np.exp``
and ``np.log`` numpy's SIMD dispatch, so some of ``tests/test_golden.py``'s digests hold on
one host's arithmetic only.  This guard re-runs that file in subprocesses under three forced
settings and holds each setting's failing tests to the known set, so a change that makes a
digest start or stop moving is named.  The grid digests hold under every setting.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wallfollow

ROOT = Path(__file__).resolve().parents[1]
FORCED = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")

# Each setting's environment and the golden tests known to fail under it.
KNOWN_MOVERS = {
    "haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, {"test_lda_document_fingerprint"}),
    "prescott": ({"OPENBLAS_CORETYPE": "Prescott"},
                 {"test_lda_document_fingerprint", "test_network_document_fingerprint"}),
    "simd": ({"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"},
             {"test_svm_document_fingerprint", "test_network_document_fingerprint"}),
}


def _run(setting: dict, *argv) -> subprocess.CompletedProcess:
    """``python *argv`` from the repository root under ``setting`` and no other forced kernel."""
    env = {k: v for k, v in os.environ.items() if k not in FORCED} | setting
    env["PYTHONPATH"] = str(Path(wallfollow.__file__).parents[1])
    return subprocess.run([sys.executable, *argv], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=300)


def _golden_failures(setting: dict) -> set:
    """Names of the golden tests that fail under ``setting``."""
    done = _run(setting, "-m", "pytest", "-q", "-rf", "--tb=no", "-p", "no:cacheprovider",
                "tests/test_golden.py")
    assert done.returncode in (0, 1), done.stdout + done.stderr  # 1: some tests failed
    return set(re.findall(r"^FAILED tests/test_golden\.py::(\S+)", done.stdout, re.MULTILINE))


@pytest.fixture(scope="module")
def pinned_host():
    failing = _golden_failures({})
    if failing:
        pytest.skip(f"the golden digests already fail on this host ({sorted(failing)}): "
                    "it lies outside the pinned domain")


@pytest.mark.parametrize("name", KNOWN_MOVERS)
def test_forced_kernels_move_only_the_known_digests(pinned_host, name):
    setting, known = KNOWN_MOVERS[name]
    probe = _run(setting, "-W", "error", "-c",
                 "import numpy as np; np.ones((8, 8)) @ np.ones((8, 8)); np.exp(np.ones(64))")
    if probe.returncode != 0:
        pytest.skip(f"numpy does not start under {setting}: "
                    f"{' '.join(probe.stderr.strip().splitlines()[-3:])}")
    failing = _golden_failures(setting)
    assert failing == known, (f"under {setting}, digests that started moving: "
                              f"{sorted(failing - known)}; stopped moving: "
                              f"{sorted(known - failing)}")
