#!/usr/bin/env python
"""Write the standard byte-identity set of episode traces and bench reports
under DIR, and print one sha256 per file.

The set is what `carobo bench --traces-dir ... --out ...` writes for:
- the bundled suite with the oracle policy, and the two bundled replay sets
  (gpt-4o, gpt-4-turbo), each on `direct`, `local:` and `tcp:`;
- suites generated by perfbench/clutter.py with 150 objects (seeds 0 and 7)
  and with 1000 objects (seed 3), each on `direct` and `local:`.

Run it from the repository root on two commits, into two directories, and
compare the printed manifests (or `diff -r` the directories): equal hashes
mean byte-identical traces and reports.

    PYTHONPATH=src python scripts/trace_manifest.py /tmp/manifest
"""
import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import clutter  # noqa: E402  (perfbench/clutter.py)
from carobo.cli import main as carobo  # noqa: E402

TRANSPORTS = {"direct": "direct", "local": "local:", "tcp": "tcp:"}
BUNDLED = {
    "oracle": ["--backend", "mock", "--policy", "oracle"],
    "gpt-4o": ["--backend", "replay", "--replay-dir", "gpt-4o"],
    "gpt-4-turbo": ["--backend", "replay", "--replay-dir", "gpt-4-turbo"],
}
CLUTTER = ((150, 0), (150, 7), (1000, 3))  # (objects, generator seed)
CLUTTER_TRANSPORTS = ("direct", "local")


def bench(out_dir: Path, name: str, transport: str, args) -> None:
    """One `carobo bench` run: traces in out_dir/name/transport/, report beside them."""
    argv = ["bench", *args, "--transport", TRANSPORTS[transport],
            "--traces-dir", str(out_dir / name / transport),
            "--out", str(out_dir / name / f"{transport}.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        code = carobo(argv)
    if code != 0:
        raise SystemExit(f"carobo {' '.join(argv)} exited {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dir", type=Path, help="output directory; must be empty or absent")
    args = parser.parse_args(argv)
    out_dir = args.dir
    if out_dir.exists() and any(out_dir.iterdir()):
        parser.error(f"{out_dir} is not empty")
    for name, backend in BUNDLED.items():
        for transport in TRANSPORTS:
            bench(out_dir, name, transport, backend)
    with tempfile.TemporaryDirectory() as scratch:
        for n_objects, seed in CLUTTER:
            suite, streams, _ = clutter.write_suite(seed, Path(scratch) / f"{n_objects}-{seed}",
                                                    n_objects=n_objects)
            backend = ["--suite", str(suite), "--backend", "replay", "--replay-dir", str(streams)]
            for transport in CLUTTER_TRANSPORTS:
                bench(out_dir, f"clutter-{n_objects}-seed{seed}", transport, backend)
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out_dir)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
