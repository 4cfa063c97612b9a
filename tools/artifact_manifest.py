"""sha256 manifest of every artifact the hetdata CLI writes for fixed inputs.

Runs nine CLI invocations, each in its own directory under a temporary
directory, and prints one ``sha256  run/file`` line per artifact, per
captured stdout and stderr and per exit code, followed by the sha256 of
the manifest itself.  Two checkouts whose manifests match write
byte-identical artifacts.

The CLI runs in child processes from the hetdata package this script
imports, so the checkout is chosen with PYTHONPATH:

    PYTHONPATH=src python tools/artifact_manifest.py
    PYTHONPATH=/path/to/other/checkout/src python tools/artifact_manifest.py
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import hetdata

RUNS = (
    ("report", ["report", "--seed", "42"]),
    ("verify", ["verify", "--seed", "7"]),
    ("threshold_grid", ["threshold", "--tau-grid", "0.1:0.9:0.1"]),
    ("threshold_tau", ["threshold", "--tau", "0.7"]),
    ("statics", ["statics"]),
    ("statics_grid", ["statics", "--tau-grid", "0.2:0.8:0.05"]),
    ("wealth", ["wealth", "--seed", "7", "--lambda-grid", "1.2:2.0:0.4"]),
    ("figure1", ["figure1"]),
    # lambda* past 700 / t*, where e^(lambda t*) overflows
    ("figure1_mu_grid", ["figure1", "--mu-grid", "600:700:50"]),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(name: str, argv: list, root: Path, env: dict) -> list:
    """Manifest lines of one CLI invocation, sorted by file name."""
    out = root / name
    proc = subprocess.run(
        [sys.executable, "-m", "hetdata.cli", *argv, "--out", str(out)],
        capture_output=True, cwd=root, env=env, check=False,
    )
    files = {}
    if out.is_dir():  # a configuration error writes nothing
        files = {path.name: path.read_bytes() for path in out.iterdir()}
    files["stdout"] = proc.stdout
    files["stderr"] = proc.stderr
    files["exit_code"] = f"{proc.returncode}\n".encode()
    return [f"{_sha256(data)}  {name}/{fname}"
            for fname, data in sorted(files.items())]


def main() -> int:
    src = Path(hetdata.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in RUNS:
            lines += _run(name, argv, Path(tmp), env)
    manifest = "".join(line + "\n" for line in lines)
    sys.stdout.write(manifest)
    print(f"{_sha256(manifest.encode())}  manifest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
