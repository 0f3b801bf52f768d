"""On-disk state kept between runs in the checkout's ``.perfbench/``.

* CPU reference answers, computed once per (workload, SF, seed, source
  digest) outside every timed region and reused by later runs.
* Sim fingerprints: the digest of every sim-clock value and count of a
  pass.  A later run of the same seed and source must reproduce it
  exactly; a difference means state leaked between passes or runs.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.bench.baselines.canonical import canonical_rows
from repro.hosts import MiniDuck

__all__ = ["DeterminismError", "Store", "fingerprint", "source_digest"]


class DeterminismError(RuntimeError):
    """A sim value or count did not repeat exactly."""


def source_digest(root: Path) -> str:
    """Digest of the program and benchmark sources (keys every cache)."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(values: dict) -> str:
    """Exact digest of a dict of numbers (floats by their full repr)."""
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


class Store:
    def __init__(self, root: Path, workload: str, sf: float, seed: int, digest: str):
        self.dir = root / ".perfbench"
        self.stem = f"{workload}-sf{sf}-seed{seed}-{digest}"

    def _load(self, kind: str) -> dict:
        path = self.dir / kind / f"{self.stem}.json"
        if path.is_file():
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        return {}

    def _save(self, kind: str, doc: dict) -> None:
        path = self.dir / kind / f"{self.stem}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        tmp.replace(path)

    def references(self, data, plans: dict, keys) -> dict:
        """``key -> {"rows", "cpu_sim_s"}`` from MiniDuck's CPU engine.

        Each statement runs on a fresh MiniDuck, so its CPU sim time
        does not depend on which statements were computed before it.
        """
        refs = self._load("ref")
        missing = sorted(set(keys) - set(refs))
        for key in missing:
            db = MiniDuck()
            db.load_tables(data)
            res = db.execute_plan(plans[key])
            refs[key] = {
                "rows": canonical_rows(res.table.to_rows()),
                "cpu_sim_s": res.sim_seconds,
            }
        if missing:
            self._save("ref", refs)
        return refs

    def check_fingerprint(self, kind: str, value: str) -> None:
        """Record ``value`` for ``kind`` or insist that it repeats."""
        doc = self._load("sim")
        seen = doc.get(kind)
        if seen is None:
            doc[kind] = value
            self._save("sim", doc)
        elif seen != value:
            raise DeterminismError(
                f"{kind} sim fingerprint {value[:12]} differs from {seen[:12]} "
                f"recorded by an earlier run of {self.stem}"
            )
