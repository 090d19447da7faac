"""qdiag benchmark entry point.

    python3 perfbench/run.py --workload {ingest,train,infer} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  The package is imported from `src/` of the
same checkout.  Human-readable lines come first; the last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones.  Each run also writes its full record (fingerprint and
workload summary included) under perfbench/out/, and a traced run its
spans.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("ingest", "train", "infer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "qdiag", "__init__.py")):
        print(f"error: no qdiag package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness  # imports qdiag from SRC
    import tracing

    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), os.path.join(HERE, ".work"))
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    spans = result.pop("spans")
    if spans:
        tracing.write_spans(spans, stem + ".spans.csv")
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}, seed {args.seed}: {result['passes']['timed']} "
          f"timed pass(es), {result['passes']['traced']} traced")
    for name, m in {**result["metrics"], **result["summary"]}.items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    if result["absent"]:
        print(f"  absent from qdiag, not traced: {', '.join(result['absent'])}")
    print(f"fingerprint {json.dumps(result['fingerprint'])}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
