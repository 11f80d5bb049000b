"""One workload in a fresh interpreter; run.py starts it and reads its last line.

Modes:
  setup   import germinv, build the first pass, report the time taken
  loop    set up, then run whole passes until --seconds have elapsed
  pass    set up, then run the first pass once, untraced
  traced  set up, then run the first pass once under the tracer

Every op is paired with a reference measurement around it (speed.py).
Prints one JSON object as its last line.  A failed output check prints
{"check_failure": ...} and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--mode", choices=("setup", "loop", "pass", "traced"), required=True)
    args = parser.parse_args()

    start = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import germinv

    here = Path(germinv.__file__).resolve().parent
    if here != ROOT / "src" / "germinv":
        print(f"germinv was imported from {here}, not from this checkout", file=sys.stderr)
        return 2
    from speed import SpeedTrack
    from workloads import PASSES, REPLACED, CheckFailure

    passes = PASSES[args.workload](args.seed)
    ops = next(passes)
    setup_s = perf_counter() - start
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    statuses, digest = Counter(), hashlib.sha256()
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        track = SpeedTrack()
        loop_start = perf_counter()
        while True:
            for op in ops:
                start = perf_counter()
                outcome = op()
                elapsed = perf_counter() - start
                statuses[outcome.status] += 1
                counted = outcome.status != REPLACED
                if counted:
                    digest.update(outcome.digest_part.encode() + b"\n")
                track.add(elapsed * 1000, counted)
            if args.mode != "loop" or perf_counter() - loop_start >= args.seconds:
                break
            ops = next(passes)
        track.close()
    except CheckFailure as exc:
        print(json.dumps({"check_failure": str(exc)}))
        return 1
    finally:
        if tracer is not None:
            tracer.remove()

    result.update(
        ops=track.records,
        statuses=dict(statuses),
        digest=digest.hexdigest(),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        result["layers"] = tracer.metrics()
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
