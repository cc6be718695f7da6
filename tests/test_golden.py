"""The README commands' CSV artifacts, byte for byte, against recorded digests.

`golden/readme_artifacts.json` holds the SHA-256 of the CSV artifact of
each command in the README's "Command line" block, with the environment
it was recorded in: the Python, numpy and scipy versions and the CPU
features numpy dispatches on.  A library change that moves one bit of one
artifact fails here.  Elsewhere the digests say nothing, so the test skips
and names what differs.

Re-record (only for a change that is meant to move bits) with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import platform
import shlex
from pathlib import Path

import numpy as np
import pytest
import scipy

from monoclt import cli

GOLDEN = Path(__file__).parent / "golden" / "readme_artifacts.json"
README = Path(__file__).parent.parent / "README.md"


def environment() -> dict:
    try:  # private to numpy: where it moves, the features are unknown and the test skips
        from numpy._core._multiarray_umath import __cpu_features__
        features = sorted(k for k, on in __cpu_features__.items() if on)
    except ImportError:
        features = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpu_features": features}


def readme_commands() -> list[str]:
    block = README.read_text().split("## Command line")[1].split("```sh")[1].split("```")[0]
    return [line.removeprefix("monoclt ") for line in block.strip().splitlines()]


def digests(commands, outdir: Path) -> dict:
    out = {}
    for i, command in enumerate(commands):
        assert cli.run(shlex.split(command) + ["--outdir", str(outdir / str(i))]) == 0, command
        [csv] = (outdir / str(i)).glob("*.csv")
        out[command] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return out


def test_golden_covers_the_readme_commands():
    assert list(json.loads(GOLDEN.read_text())["digests"]) == readme_commands()


def test_readme_artifacts_are_byte_identical(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    differs = {k: (v, here[k]) for k, v in golden["environment"].items() if here[k] != v}
    if differs:
        pytest.skip(f"digests recorded in another environment (recorded, here): {differs}")
    ours = digests(golden["digests"], tmp_path)
    moved = [c for c, d in golden["digests"].items() if ours[c] != d]
    assert not moved, f"artifacts whose bytes moved: {moved}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        doc = {"environment": environment(), "digests": digests(readme_commands(), Path(d))}
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
