"""Trust at scale: the disjoint-union oracle on 16 copies of ``large-net``,
and the run invariants and the per-tick billing oracle on large
re-formation storms and on seeds 4-10 of the benchmark workloads.

Seed 1 of ``large-net``, run as 16 disjoint copies (25,600 nodes), must
match its lone run on every copy under ``test_union.union_mismatches``. It
runs first, and its peak RSS is printed when it is done.

A storm has the ``overload-storm`` shape (300 ticks, window 10, latency 2,
drop 0.05, batteries of 3,000-9,000 mJ, injected load of 100-200% of
capacity) at N nodes with N/10 injections a window, so nearly every node
depletes and heads fall and re-form all run long. Each storm is built by
``bench/scengen.generate``, from a ``scengen.Workload`` this script adds to
``scengen.WORKLOADS`` in memory; no file under ``bench/`` changes.

Every run, each benchmark seed in both modes and each storm in its own,
must keep ``test_invariants.assert_run_keeps_invariants`` and agree with
the per-tick kernel under ``billing_oracle.compare``. The real kernel's
trace, ``final_energy``, ``cluster_records`` and report of each storm are
hashed into one sha256 per storm and checked against ``STORM_DIGESTS``, so
drift at scale shows even where both kernels drift alike. It exits non-zero
on any failure, and prints the whole script's peak RSS last::

    PYTHONPATH=src python tests/storms.py
"""

from __future__ import annotations

import hashlib
import sys
import traceback
from pathlib import Path

from ubisim.scenario import parse_scenario

from billing_oracle import compare, print_peak_rss
from test_invariants import assert_run_keeps_invariants
from test_union import union_mismatches

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import scengen  # noqa: E402


def storm(nodes: int, mode: str) -> scengen.Workload:
    return scengen.Workload(
        nodes=nodes, ticks=300, window=10, mode=mode,
        injections_per_window=nodes / 10, energy=(3_000, 9_000), inject_load=(100, 200),
        latency=2, drop=0.05,
    )


STORMS = {"storm-2000-static": storm(2000, "static"),
          "storm-6400-dynamic": storm(6400, "dynamic"),
          "storm-6400-static": storm(6400, "static")}

# sha256 of seed 1 of each storm, as ``compare`` feeds its digest
STORM_DIGESTS = {
    "storm-2000-static":
        "646ecddc930eb465b3efd4e643e426e70ad2647d81ef1d2eb045a8b44074ebc6",
    "storm-6400-dynamic":
        "fcf0defef2b7f47a7ca2154d74a135e6587886904abb12804de5233a1e26c9d0",
    "storm-6400-static":
        "1cefe72985fadfc01974be6342b1efc7fef45f84965fd122ea9f77ad5ee674d6",
}


def check(label, text: str, mode: str | None, digest=None) -> bool:
    """Whether the run of ``text`` in ``mode`` keeps every invariant and
    matches the per-tick oracle; prints what does not."""
    try:
        assert_run_keeps_invariants(text, mode)
    except AssertionError:
        print(label, mode, "breaks an invariant:")
        traceback.print_exc(file=sys.stdout)
        return False
    diffs = compare(text, mode, digest)
    if diffs:
        print(label, mode, diffs)
    return not diffs


def main() -> int:
    diffs = union_mismatches(parse_scenario(scengen.generate("large-net", 1)), 16)
    print(f"large-net x 16: {diffs or 'every copy matches its lone run'}")
    print_peak_rss()
    ok = not diffs
    bench = [(workload, seed) for workload in sorted(scengen.WORKLOADS) for seed in range(4, 11)]
    for workload, seed in bench:
        text = scengen.generate(workload, seed)
        for mode in ("dynamic", "static"):
            ok &= check((workload, seed), text, mode)
    print(f"{2 * len(bench)} benchmark runs checked")
    scengen.WORKLOADS.update(STORMS)
    for name in STORMS:
        digest = hashlib.sha256()
        ok &= check(name, scengen.generate(name, 1), None, digest)
        print(f"{name}: digest {digest.hexdigest()}, recorded {STORM_DIGESTS[name]}")
        ok &= digest.hexdigest() == STORM_DIGESTS[name]
    print_peak_rss()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
