"""Byte identity against a committed manifest.

tests/artifact_hashes.json holds the sha256 of every file written by
`wcsf suite scenarios`, by `wcsf verify` on each stock config and by
`wcsf verify` on the benchmark's seed-0 `curved_verify` config, with the
fingerprint they were made under. The bytes depend on the numpy build,
its SIMD dispatch, the CPU and the C library (ROADMAP item 3), so under
another fingerprint the check skips. A change that alters the bytes on
purpose writes the manifest again, and states its largest value change:

    PYTHONPATH=src python tests/test_artifact_manifest.py

The script prints each entry whose hash differs from the manifest it
replaces, and each entry added or removed.
"""

import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from conftest import load_perfbench
from wcsf.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
MANIFEST = Path(__file__).with_name("artifact_hashes.json")


def fingerprint() -> dict:
    """The numpy version, numpy's SIMD features found on this CPU, the CPU
    model and the C library."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:     # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"numpy": np.__version__,
            "numpy_simd": sorted(k for k, on in __cpu_features__.items()
                                 if on),
            "cpu": cpu,
            "libc": " ".join(platform.libc_ver())}


def make_artifacts(root: Path) -> dict:
    """Run the manifest's commands with their outputs under root; the
    sha256 of each file they write, keyed by its path below root."""
    curved = root / "curved_verify.cfg"
    curved.write_text(
        load_perfbench("workloads").WORKLOADS["curved_verify"].config(0))
    runs = [["suite", str(SCENARIOS), "--out", str(root / "suite")]]
    runs += [["verify", str(cfg), "--out", str(root / "verify" / cfg.stem)]
             for cfg in sorted(SCENARIOS.glob("*.cfg")) + [curved]]
    for argv in runs:
        assert main(argv) == 0, argv
    return {p.relative_to(root).as_posix():
            hashlib.sha256(p.read_bytes()).hexdigest()
            for top in ("suite", "verify")
            for p in sorted((root / top).rglob("*")) if p.is_file()}


def test_artifacts_match_the_manifest(tmp_path):
    manifest = json.loads(MANIFEST.read_text())
    made_under, here = manifest["fingerprint"], fingerprint()
    differ = sorted(k for k in made_under.keys() | here.keys()
                    if made_under.get(k) != here.get(k))
    if differ:
        pytest.skip("artifact bytes depend on numpy, its SIMD dispatch, the "
                    "CPU and the C library; this machine differs from the "
                    f"manifest's in: {', '.join(differ)}")
    hashes = make_artifacts(tmp_path)
    want = manifest["files"]
    changed = sorted(name for name in hashes.keys() | want.keys()
                     if hashes.get(name) != want.get(name))
    assert changed == [], f"files whose bytes changed: {changed}"


def manifest_changes(old: dict, new: dict) -> list:
    """One line per entry that differs between two {path: sha256} maps:
    "added" (in new only), "removed" (in old only) or "changed"."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old:
            lines.append(f"added: {name}")
        elif name not in new:
            lines.append(f"removed: {name}")
        elif old[name] != new[name]:
            lines.append(f"changed: {name}")
    return lines


def test_the_manifest_script_names_each_change():
    assert manifest_changes({"a": "1", "b": "2", "c": "3"},
                            {"b": "2", "c": "4", "d": "5"}) == [
        "removed: a", "changed: c", "added: d"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files = make_artifacts(Path(tmp))
    old = (json.loads(MANIFEST.read_text()) if MANIFEST.exists()
           else {"fingerprint": None, "files": {}})
    if old["fingerprint"] != fingerprint():
        print("the manifest replaced was made under another fingerprint")
    for line in manifest_changes(old["files"], files):
        print(line)
    MANIFEST.write_text(json.dumps({"fingerprint": fingerprint(),
                                    "files": files}, indent=1) + "\n")
    print(f"wrote {len(files)} hashes to {MANIFEST}")
