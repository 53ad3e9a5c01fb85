"""
Master-master replication through a partition
=============================================

Two clusters write disjoint halves of a keyspace and replicate to each
other while both directions of the link are cut for five seconds.
Batches created during the outage deliver when it lifts, origin
tagging keeps updates from echoing back around the loop, and both
stores end on the same digest.
"""

from collections import defaultdict
from pathlib import Path

from georep import Simulation, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

scenario = load_scenario(SCENARIOS / "ring-partition.ini")
result = Simulation(scenario).run()

# Traffic per 1-second delivery window: silence while the link is down
# (5s..10s), then the backlog lands in one surge.
per_window = defaultdict(int)
for row in result.rows:
    per_window[row.window_start_ms] += row.bytes
print("delivered bytes per window:")
for window in sorted(per_window):
    bar = "#" * (per_window[window] // 40_000)
    print(f"  t={window:>6}..{window + 1000:<6} {per_window[window]:>9} {bar}")

# Per-cluster tallies and digests are read from the run's summary,
# keyed by cluster id as text.
summary = result.summary
print("\nper-cluster outcome:")
for cid in summary["applied"]:
    print(f"  cluster {cid}: applied={summary['applied'][cid]} "
          f"duplicates={summary['duplicates'][cid]} echoes={summary['echoes'][cid]}")

digests = {cid: d[:16] for cid, d in summary["digests"].items()}
print(f"\nstore digests: {digests}")
print("converged:", len(set(summary["digests"].values())) == 1)
print(f"max staleness through the outage: {summary['max_staleness_ms']} ms")
