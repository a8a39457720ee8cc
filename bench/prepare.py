"""Set-up of one workload in a fresh interpreter.

    python3 bench/prepare.py WORKLOAD SEED INDIR SIZE

Imports invdiff.cli, writes every input of the workload to INDIR and prints
one JSON line: the monotonic clock when the inputs were ready, the import
time, and a digest of the inputs. run.py starts this script several times
and times each start-to-ready interval as set-up time.
"""

import hashlib
import sys
import time
from pathlib import Path


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv):
    name, seed, indir, size = argv
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    t0 = time.monotonic()
    import invdiff.cli
    import_s = time.monotonic() - t0

    import json
    from workloads import build

    indir = Path(indir)
    indir.mkdir(parents=True, exist_ok=True)
    build(name, int(seed), size).prepare(indir, invdiff.cli.main)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "import_s": import_s,
                      "digest": digest(indir)}))


if __name__ == "__main__":
    main(sys.argv[1:])
