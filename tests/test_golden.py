"""Every artifact of a small corpus of configs keeps its bytes.

tests/golden.json lists one config per coefficient kind, recover mode and
scan family, plus a pcfit and a mollcheck, with the SHA-256 digest of each
artifact they write and the Python, numpy and scipy versions the digests
were made with. The configs use relative paths and run from one temporary
directory, in order, so that a later run can read an earlier run's output
and no config_hash sees where the directory is.

A run may instead pin a failure: its exit code and the one stderr line
it prints, in place of digests; a failing run must write no JSON artifact.
A config given as a string is written as it stands, so that it can hold
what a JSON object cannot, such as a repeated key.

Rewrite the entries after a deliberate change of artifact bytes or of a
failure with `PYTHONPATH=src python tests/test_golden.py`; it prints each
run or artifact whose entry moved.
"""

import contextlib
import hashlib
import io
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
    """{run name: entry}, each run from workdir. The entry of a run that
    exits 0 is {"digests": {artifact name: SHA-256}}, of any other run
    {"exit": code, "stderr": its one line}."""
    entries = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for run in runs:
            name, config = run["name"], run["config"]
            Path(f"{name}.json").write_text(
                config if isinstance(config, str) else json.dumps(config))
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([run["command"], "--config", f"{name}.json",
                             "--out", name])
            out = sorted(Path(name).iterdir()) if Path(name).exists() else []
            if code == EXIT_OK:
                entries[name] = {"digests": {
                    p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in out}}
                continue
            line = stderr.getvalue()
            assert line.endswith("\n") and line.count("\n") == 1, (
                f"{name} exited {code} with stderr {line!r}")
            written = [p.name for p in out if p.suffix == ".json"]
            assert not written, f"{name} exited {code} but wrote {written}"
            entries[name] = {"exit": code, "stderr": line[:-1]}
    finally:
        os.chdir(cwd)
    return entries


def moved(runs, entries) -> list:
    """Each run or artifact whose entry differs between the manifest's runs
    and entries: run/artifact for a digest, the run name for a failure."""
    names = []
    for run in runs:
        name, got = run["name"], entries[run["name"]]
        pinned = {key: run[key] for key in ("digests", "exit", "stderr")
                  if key in run}
        if "digests" in pinned and "digests" in got:
            names += [f"{name}/{artifact}" for artifact in
                      sorted(set(pinned["digests"]) | set(got["digests"]))
                      if pinned["digests"].get(artifact)
                      != got["digests"].get(artifact)]
        elif pinned != got:
            names.append(name)
    return names


def test_artifact_bytes_match_golden(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    here, made = versions(), manifest["versions"]
    differ = [f"{name} {made.get(name)} (golden) vs {here[name]} (here)"
              for name in here if made.get(name) != here[name]]
    assert not differ, ("golden digests were made with other versions: "
                        + ", ".join(differ))
    entries = run_corpus(manifest["runs"], tmp_path)
    changed = moved(manifest["runs"], entries)
    assert not changed, f"artifact bytes or failures changed: {', '.join(changed)}"


if __name__ == "__main__":
    manifest = json.loads(MANIFEST.read_text())
    with tempfile.TemporaryDirectory() as workdir:
        entries = run_corpus(manifest["runs"], Path(workdir))
    for name in moved(manifest["runs"], entries):
        print(f"moved: {name}")
    manifest["versions"] = versions()
    manifest["runs"] = [{key: run[key] for key in ("name", "command", "config")}
                        | entries[run["name"]] for run in manifest["runs"]]
    MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n")
