"""
Atomic write groups
===================

Client-delimited groups of writes replicate as a unit.  An IMMEDIATE
group ships the moment it closes, bounds or not; an ANY group becomes
eligible at close and leaves whole on the first bound trip that touches
one of its containers.  A group is never split across batches.
"""

from georep import BlockMode, Bound, ClientSession, ClusterNode, ContainerId

ORDERS = ContainerId("orders", "acct")
PAYMENTS = ContainerId("payments", "acct")

clock = [0]
shipped = []
node = ClusterNode(
    1, peers=[2],
    bounds={ORDERS: Bound(pending=5), PAYMENTS: Bound(pending=100)},
    now_fn=lambda: clock[0],
    on_ship=shipped.append,
)
session = ClientSession(node)


def report(label):
    if shipped:
        batch = shipped.pop()
        keys = ", ".join(u.key for u in batch.updates)
        print(f"  {label}: batch [{batch.trigger.name}] -> {keys}")
    else:
        print(f"  {label}: nothing shipped")


# An IMMEDIATE group ignores the counters entirely: two writes per
# container is nowhere near either bound, yet the close ships them.
print("IMMEDIATE group")
clock[0] = 10
session.start_block(BlockMode.IMMEDIATE)
session.put(ORDERS, "ord-1", b"100")
session.put(PAYMENTS, "pay-1", b"100")
session.end_block()
report("close")

# An ANY group waits: two arrivals on each container leave both
# counters below their bounds, so the close alone ships nothing.
print("\nANY group, bounds not yet reached")
clock[0] = 20
session.start_block(BlockMode.ANY)
session.put(ORDERS, "ord-2", b"55")
session.put(ORDERS, "ord-3", b"13")
session.put(PAYMENTS, "pay-2", b"55")
session.end_block()
report("close")

# Loose writes on the same container keep counting.  The write that
# pushes orders:acct to its bound of 5 releases everything pending
# there, and the queued group comes along whole: payments:acct never
# tripped, but pay-2 may not be left behind.
print("\nloose writes push the orders counter to its bound")
for i, key in enumerate(("ord-4", "ord-5", "ord-6"), start=1):
    clock[0] = 20 + i
    session.put(ORDERS, key, b"1")
    report(f"write {key}")
