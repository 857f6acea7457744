"""Result stamps, saved reports, and the refusal to compare unlike runs.

Every report carries a stamp: the source revision (git commit and dirty
flag, or a hash of ``src/`` when the checkout is not a git repository),
the Python version, ``os.cpu_count()``, the CPU affinity of the generator
and of every process it started, the workload, seed and run length, the
flags of every program run, and the mode (``e2e``, ``traced`` or
``smoke``).  Two reports compare only when their stamps are equal in
everything but the revision::

    python3 perfbench/stamp.py BEFORE.json AFTER.json
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Stamp fields that may differ between two comparable results.
REVISION_FIELDS = ("revision", "dirty")


def revision(root: Path = ROOT) -> tuple[str, bool | None]:
    """(revision, dirty): the git commit, or ``tree:<hash>`` of the
    sources when there is no git repository (dirty is then unknown)."""
    if (root / ".git").exists():
        try:
            head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                                  capture_output=True, text=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                                    cwd=root, check=True, capture_output=True,
                                    text=True).stdout
            return head, bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return "tree:" + digest.hexdigest()[:16], None


def stamp(ctx) -> dict:
    rev, dirty = revision()
    affinity = {"generator": sorted(os.sched_getaffinity(0))}
    affinity.update(ctx.group.affinity)
    return {
        "revision": rev,
        "dirty": dirty,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "flags": ctx.flags,
        "mode": "smoke" if ctx.smoke else ("traced" if ctx.trace else "e2e"),
    }


def save(root: Path, report: dict) -> Path:
    s = report["stamp"]
    out = root / ".perfbench" / "results" / f"{s['workload']}-{s['mode']}-seed{s['seed']}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True))
    return out


def differences(a: dict, b: dict) -> list[str]:
    """Stamp fields, other than the revision, on which two reports differ."""
    keys = sorted(set(a) | set(b))
    return [key for key in keys if key not in REVISION_FIELDS and a.get(key) != b.get(key)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (json.loads(Path(path).read_text()) for path in argv)
    differ = differences(before["stamp"], after["stamp"])
    if differ:
        print(f"refusing to compare: stamps differ in {', '.join(differ)}", file=sys.stderr)
        return 2
    for name, metric in before["metrics"].items():
        other = after["metrics"].get(name, {}).get("value")
        value = metric["value"]
        change = (other / value - 1.0) * 100 if value and other is not None else float("nan")
        print(f"{name:<40} {value:>14.4f} {other if other is not None else float('nan'):>14.4f} "
              f"{change:+8.1f}% {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
