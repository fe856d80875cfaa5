"""Byte pins on what `carobo bench --traces-dir ... --out ...` writes on `direct`.

Each pin is one sha256 over the sorted (file name, bytes) of a run's episode
traces and JSON report. A change that alters any trace or report byte fails
here and has to update the pin, naming the bytes that changed and why.
`scripts/trace_manifest.py` covers the same sets and more on every transport,
file by file.
"""
import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from carobo.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PINS = {
    "oracle": "c62cac144938647c11006aa94516c77bca878557818b8f5e270220352de87d8b",
    "gpt-4o": "ef4aad02a8bfd2b848589386b1e714dd4910e015aaa928d6f23e3862ee33aab0",
    "gpt-4-turbo": "c1704a7b75924074cac63a2daf37f8d0957e4545b9bc675d86c10b4d1da85f16",
    "clutter-150-seed0": "76e4f65c70398ed3f54a2a9b756bc27c3fae31a24e6a35804476d3d79a9cefb7",
}
BUNDLED = {
    "oracle": ["--backend", "mock", "--policy", "oracle"],
    "gpt-4o": ["--backend", "replay", "--replay-dir", "gpt-4o"],
    "gpt-4-turbo": ["--backend", "replay", "--replay-dir", "gpt-4-turbo"],
}


def bench_digest(out_dir: Path, args) -> str:
    """Run `carobo bench` on `direct` into out_dir; hash every file it wrote."""
    argv = ["bench", *args, "--transport", "direct",
            "--traces-dir", str(out_dir / "traces"), "--out", str(out_dir / "report.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(out_dir).as_posix()}\0{len(data)}\0".encode() + data)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(BUNDLED))
def test_bundled_suite_trace_bytes(tmp_path, name):
    assert bench_digest(tmp_path, BUNDLED[name]) == PINS[name]


def test_clutter_suite_trace_bytes(tmp_path, monkeypatch):
    """The seed-0 150-object suite of perfbench/clutter.py; its streams carry
    malformed completions, so retries and round errors are pinned too."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import clutter

    suite, streams, _ = clutter.write_suite(0, tmp_path / "suite", n_objects=150)
    args = ["--suite", str(suite), "--backend", "replay", "--replay-dir", str(streams)]
    assert bench_digest(tmp_path / "out", args) == PINS["clutter-150-seed0"]
