"""Every artifact of a small corpus of configs keeps its bytes.

tests/golden.json lists one config per coefficient kind, recover mode and
scan family, plus a pcfit and a mollcheck, with the SHA-256 digest of each
artifact they write and the Python, numpy and scipy versions the digests
were made with. The configs use relative paths and run from one temporary
directory, in order, so that a later run can read an earlier run's output
and no config_hash sees where the directory is.

Rewrite the digests after a deliberate change of artifact bytes with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import hashlib
import json
import os
import platform
import tempfile
from importlib.metadata import version
from pathlib import Path

import numpy as np

from invdiff.cli import main, EXIT_OK

MANIFEST = Path(__file__).with_name("golden.json")


def versions() -> dict:
    # the scipy version without importing scipy
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy")}


def run_corpus(runs, workdir: Path) -> dict:
    """{run name: {artifact name: SHA-256}}, each run from workdir."""
    digests = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for run in runs:
            Path(f"{run['name']}.json").write_text(json.dumps(run["config"]))
            code = main([run["command"], "--config", f"{run['name']}.json",
                         "--out", run["name"]])
            assert code == EXIT_OK, f"{run['name']} exited {code}"
            digests[run["name"]] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(run["name"]).iterdir())}
    finally:
        os.chdir(cwd)
    return digests


def test_artifact_bytes_match_golden(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    here, made = versions(), manifest["versions"]
    differ = [f"{name} {made.get(name)} (golden) vs {here[name]} (here)"
              for name in here if made.get(name) != here[name]]
    assert not differ, ("golden digests were made with other versions: "
                        + ", ".join(differ))
    digests = run_corpus(manifest["runs"], tmp_path)
    changed = [f"{name}/{artifact}"
               for run in manifest["runs"] for name in [run["name"]]
               for artifact in sorted(set(run["digests"]) | set(digests[name]))
               if run["digests"].get(artifact) != digests[name].get(artifact)]
    assert not changed, f"artifact bytes changed: {', '.join(changed)}"


if __name__ == "__main__":
    manifest = json.loads(MANIFEST.read_text())
    with tempfile.TemporaryDirectory() as workdir:
        digests = run_corpus(manifest["runs"], Path(workdir))
    manifest["versions"] = versions()
    for run in manifest["runs"]:
        run["digests"] = digests[run["name"]]
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
