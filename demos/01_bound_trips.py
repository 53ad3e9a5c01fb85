"""
Divergence bounds in isolation
==============================

One shipping pipeline, driven by hand.  Three containers each carry a
single active bound dimension (pending count, shipment lag, numeric
drift); printing what the source hands its on_ship after each offer(),
tick() and final_drain() shows the exact moment each dimension releases
traffic.
"""

from georep import Bound, ContainerId, ReplicationSource, Update

STOCK = ContainerId("inventory", "stock")
FEED = ContainerId("prices", "feed")
TEMP = ContainerId("sensors", "temp")

shipped = []
source = ReplicationSource(
    source=1, peer=2,
    bounds={
        STOCK: Bound(pending=3),   # hold up to 2, ship on the 3rd
        FEED: Bound(lag_ms=500),   # ship whatever is pending every 500 ms
        TEMP: Bound(drift=2.0),    # ship when a value moves by >= 2.0
    },
    on_ship=shipped.append,
)

_seq = 0


def put(cid, key, value, now, label=None):
    global _seq
    _seq += 1
    update = Update(container=cid, key=key, value=value,
                    wall_ms=now, origin=1, seq=_seq)
    source.offer(update, now)
    report(f"write {label or key}")


def report(label, idle="held back"):
    """Print each batch shipped since the last report, or ``idle``."""
    if not shipped:
        print(f"  {label}: {idle}")
    for batch in shipped:
        keys = ", ".join(u.key for u in batch.updates)
        print(f"  {label}: shipped {len(batch.updates)} update(s) "
              f"[{batch.trigger.name}] -> {keys}")
    shipped.clear()


# A pending-count bound holds updates until the container's queue
# reaches the limit, then the whole queue leaves as one batch.
print("pending bound of 3 on inventory:stock")
put(STOCK, "sku-1", b"12", now=0)
put(STOCK, "sku-2", b"7", now=1)
put(STOCK, "sku-3", b"90", now=2)

# A lag bound ships once the configured time has passed since the last
# shipment (since t=0 for a container that has never shipped): on the
# timer tick, or on an arrival that finds the lag already up.  Here neither write finds it up, so the tick ships them.
print("\nlag bound of 500 ms on prices:feed")
put(FEED, "eurusd", b"1.0831", now=100)
put(FEED, "gbpusd", b"1.2544", now=250)
for now in (400, 600):
    source.tick(now)
    report(f"tick at t={now}", idle="nothing due")

# A drift bound compares numeric payloads against the value last
# shipped for the same key.  The first write has no shipped history,
# so nothing can trip until some shipment anchors the comparison.
print("\ndrift bound of 2.0 on sensors:temp")
put(TEMP, "probe", b"20.0", now=700, label="probe=20.0")
source.final_drain(now=800)
report("end-of-run drain")
put(TEMP, "probe", b"21.0", now=900, label="probe=21.0")
put(TEMP, "probe", b"23.5", now=950, label="probe=23.5")
