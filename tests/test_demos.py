"""The demos print the same text as when their digests were recorded.

Each demo runs in a fresh interpreter with ``PYTHONPATH=src``, as the README
shows; the digests are the same under any ``PYTHONHASHSEED``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

STDOUT_SHA256 = {
    "nebula_covers.py": "469fe1549cd110ae441d928cc4599e04ea47e149f437e9bae32c0af3234412d2",
    "quantized_approximation.py": "390db2646ce1811ac06da7b6f11a1b41d202a1b4cd7c492df0ff5795a16dd420",
    "universal_fragility.py": "8ac05cd13ec4eb86abd2dfa668a14ef179a89d66426d97e0046692a113377840",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout(tmp_path, name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[name]
