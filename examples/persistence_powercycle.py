#!/usr/bin/env python3
"""Space persistence across a device power cycle (section 2.4).

Run with::

    python examples/persistence_powercycle.py

The space-info tuple advertises "whether the local space provides a
persistence mechanism or not"; here a PDA running low on battery images
its space into a write-ahead log on disk, powers down, and a later
incarnation recovers from it — with every tuple's *remaining* lease time
intact, so nothing outlives the lifetime its depositor negotiated.
"""

import os
import tempfile

from repro import (
    LeaseTerms,
    Network,
    Pattern,
    SimpleLeaseRequester,
    Simulator,
    TiamatInstance,
    Tuple,
)
from repro.tuples.storage import WALBackend, attach_backend, inspect_wal


def main() -> None:
    sim = Simulator(seed=505)
    net = Network(sim)
    pda = TiamatInstance(sim, net, "pda")

    pda.out(Tuple("note", "buy milk"),
            requester=SimpleLeaseRequester(LeaseTerms(duration=120.0)))
    pda.out(Tuple("note", "call home"),
            requester=SimpleLeaseRequester(LeaseTerms(duration=20.0)))
    sim.run(until=10.0)
    print(f"[t={sim.now:5.1f}] pda holds "
          f"{pda.space.count(Pattern('note', str))} notes "
          f"(leases: 110s and 10s remaining)")

    flash = tempfile.TemporaryDirectory(prefix="repro-powercycle-")
    path = os.path.join(flash.name, "pda")
    # A polite power-down is a crash whose log is complete: one compaction
    # image of the resident tuples, fsynced and renamed into place.
    attach_backend(pda.space, WALBackend(path)).detach()
    saved = inspect_wal(path)["live_entries"]
    pda.shutdown()
    print(f"[t={sim.now:5.1f}] battery died; {saved} tuples snapshotted "
          f"to {path}.snap")

    sim.run(until=40.0)  # thirty seconds pass while the device charges

    reborn = TiamatInstance(sim, net, "pda-reborn")
    # The device was off, not leaking lease time: re-anchor each tuple's
    # remaining time to the boot clock instead of charging the 30 s outage.
    # Nobody could have consumed from a powered-off PDA, so no rejoin.
    stats = reborn.recover_from(WALBackend(path), downtime=30.0,
                                charge_downtime=False, sync=False)
    print(f"[t={sim.now:5.1f}] rebooted; {stats.restored} tuples restored")
    # Remaining lease time was preserved relative to the restoring clock:
    # 'call home' has 10 more seconds to live, 'buy milk' has 110.
    sim.run(until=55.0)
    milk = reborn.space.rdp(Pattern("note", "buy milk"))
    call = reborn.space.rdp(Pattern("note", "call home"))
    print(f"[t={sim.now:5.1f}] fifteen seconds after restore:")
    print(f"          'buy milk'  (110s left at snapshot): "
          f"{'still here' if milk else 'gone'}")
    print(f"          'call home' (10s left at snapshot):  "
          f"{'still here' if call else 'expired'}")

    sim.run(until=200.0)
    left = reborn.space.count(Pattern("note", str))
    print(f"[t={sim.now:5.1f}] all leases elapsed; notes remaining: {left}")
    flash.cleanup()


if __name__ == "__main__":
    main()
