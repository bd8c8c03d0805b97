"""Record, or check, every verify suite's report at the default seed and seeds 1-10.

    python3 tools/reports.py            # write REPORTS.json
    python3 tools/reports.py --check    # compare a fresh run with REPORTS.json

Each suite runs in this process, from this checkout's ``src/``, one (suite,
seed) after another.  A report's JSON is the bytes ``critwin verify --out``
writes to ``report.json``: ``ComparisonReport.to_json()`` plus the suite name,
2-space-indented with sorted keys.  REPORTS.json holds, for every (suite,
seed), the SHA-256 of those bytes with the statistic, tolerance and verdict
beside it; a suite that raises is recorded by its error line instead.
``--check`` names every report whose entry moved, missing or new, and exits 1
if any did.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "REPORTS.json"
SEEDS = [None] + list(range(1, 11))  # None: the suite's DEFAULT_SEED


def _entry(suite: str, seed: int | None) -> dict:
    from critwin.verify import run_suite

    try:
        report = run_suite(suite, seed=seed)
    except Exception as exc:  # a raising suite is recorded, not fatal
        return {"error": "".join(traceback.format_exception_only(type(exc), exc)).strip()}
    payload = dict(report.to_json(), suite=suite)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return {"sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
            "statistic": report.statistic, "tolerance": report.tolerance,
            "pass": report.passed}


def _reports() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from critwin.verify import SUITES

    out = {}
    for suite in SUITES:
        for seed in SEEDS:
            key = f"{suite}@{'default' if seed is None else seed}"
            out[key] = _entry(suite, seed)
            print(key, file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with REPORTS.json instead of writing it")
    args = parser.parse_args(argv)
    fresh = _reports()
    if not args.check:
        RECORD.write_text(json.dumps(fresh, indent=1) + "\n", encoding="utf-8")
        return 0
    kept = json.loads(RECORD.read_text(encoding="utf-8"))
    moved = [key for key in {**kept, **fresh}  # recorded order, then new reports
             if json.dumps(kept.get(key), sort_keys=True) != json.dumps(fresh.get(key), sort_keys=True)]
    for key in moved:
        print(f"moved: {key}: {kept.get(key)} -> {fresh.get(key)}", file=sys.stderr)
    print(f"{len(fresh) - len(moved)} of {len(fresh)} reports unchanged", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
