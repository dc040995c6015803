"""The bundled artifacts regenerate byte for byte from the scripts in tools/."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = Path("src") / "ramcalc" / "data"


def _artifacts(root: Path) -> dict:
    """{file name: bytes} of the artifacts in root's data directory."""
    files = (root / DATA).iterdir()
    return {p.name: p.read_bytes() for p in files if p.is_file() and p.suffix != ".py"}


def test_generators_reproduce_bundled_artifacts(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    shutil.copytree(ROOT / "tools", tmp_path / "tools", ignore=ignore)
    bundled = _artifacts(ROOT)
    # start from an empty data directory, so every artifact found
    # afterwards was written by a generator
    for name in bundled:
        (tmp_path / DATA / name).unlink()
    # gen_rules verifies the certificates that gen_certs writes
    for script in ("gen_certs.py", "gen_chains.py", "gen_rules.py"):
        subprocess.run(
            [sys.executable, str(Path("tools") / script)],
            cwd=tmp_path, check=True, capture_output=True, timeout=120,
        )
    written = _artifacts(tmp_path)
    assert sorted(written) == sorted(bundled)
    for name, data in bundled.items():
        assert written[name] == data, f"{name} differs from its generator's output"
