"""Every workload's metrics, by name and with their units, in one command.

    python3 bench/report.py [--seed 1] [--seconds 25] [--trace 0]
    python3 bench/report.py --record

Runs bench/run.py once per workload, each in a fresh process so that
peak_rss_mb is that workload's own, and prints one table. run.py itself
checks each run, including its simulated fingerprint against
bench/fingerprints.json; the exit code here is 1 if any run failed, else 0.

``--record`` instead runs each workload once, untimed, for each of the seeds
1 to 10 and rewrites bench/fingerprints.json from the results. Only a change
that alters simulated behaviour on purpose does this, and says so.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import gate
import run
import scengen

HERE = Path(__file__).resolve().parent
RECORDED_SEEDS = range(1, 11)


def record() -> None:
    ubisim = run.load_ubisim()
    out_dir = run.OUT / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    prints = {}
    for workload in scengen.WORKLOADS:
        for seed in RECORDED_SEEDS:
            _t, _engine, log, report = run.pipeline(
                ubisim, scengen.generate(workload, seed), out_dir)
            prints.setdefault(workload, {})[str(seed)] = gate.fingerprint(log, report)
            print(f"{workload} seed={seed} {prints[workload][str(seed)]['trace_sha256']}")
    run.FINGERPRINTS.write_text(json.dumps(prints, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)
    if args.record:
        record()
        return 0
    ok = True
    for workload in scengen.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: run.py exited {proc.returncode}")
            ok = False
        if not lines or not lines[-1].startswith("{"):
            continue
        result = json.loads(lines[-1])
        print(f"{workload}  seed={args.seed}  correct={result['correct']}  "
              f"fail_ratio={result['failed'] / result['attempted']:.3f} "
              f"({result['failed']}/{result['attempted']})")
        for name, m in result["metrics"].items():
            print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
