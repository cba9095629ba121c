"""The batch pipeline: generate, save, reload, verify, and time.

Instances are canonical JSON (format tag auctol/1): identical bytes for
identical (parameters, seed), which makes corpora diffable and verifiable.
The verifier replays every applicable solver against exact oracles and
checks each claimed inequality; the bench asserts the per-element cost of
the linear-time solvers stays flat as instances grow.
"""

import json
import tempfile
from pathlib import Path

from auctol import gen_budget, gen_interval, gen_tight, load_instance, save_instance
from auctol.cli import run_bench, verify_instance

with tempfile.TemporaryDirectory(prefix="auctol-demo-") as tmp:
    workdir = Path(tmp)
    print(f"writing a small corpus under {workdir}")

    corpus = [
        gen_interval(14, seed=1),
        gen_tight(3, 100, seed=2),
        gen_budget("interval", "unweighted", {"n": 12}, seed=3),
        gen_budget("interval", "weighted", {"n": 12}, seed=4),
    ]
    for inst in corpus:
        name = f"{inst.metadata['family']}-{inst.metadata['seed']}.json"
        save_instance(inst, workdir / name)
        again = load_instance(workdir / name)
        assert len(again.bids) == len(inst.bids)
    print(f"  {len(corpus)} instances saved; reload round-trips cleanly")

    print("\nverifier reports, one JSON line per instance:")
    for path in sorted(workdir.glob("*.json")):
        report = verify_instance(path, oracle_cap=20)
        line = {k: report[k] for k in ("instance", "ok", "oracle_revenue", "beta_exact", "observed_ratio") if k in report}
        print(" ", json.dumps(line, sort_keys=True))
        assert report["ok"]

print("\nmini-bench (tiny sizes; the shipped acceptance suite runs 1e4..1e6):")
report = run_bench("interval", [5_000, 20_000], seed=0, repeats=2)
for row in report["rows"]:
    costs = {name: f"{v['per_element_ns']:.0f}ns" for name, v in row["solvers"].items()}
    print(f"  |V|+|E|={row['elements']}: {costs}")
print(f"  flatness ok: {report['ok']}")
