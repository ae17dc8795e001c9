#!/usr/bin/env python
"""Renegotiation after a capacity drop (§3.1's dynamic scenario).

Admits a batch of tunable jobs, then halves the machine at a chosen
instant through the renegotiation driver.  Completed work is untouched;
running reservations that still fit are carried; the rest are re-planned
on the smaller machine — and, being tunable, several are re-admitted on a
*different* execution path than originally granted.

Run:  python examples/renegotiation.py
"""

import math

from repro import QoSArbitrator, SyntheticParams
from repro.resilience import CapacityEvent, PerturbationTrace, RenegotiationDriver


def main() -> None:
    params = SyntheticParams(x=8, t=10.0, alpha=0.5, laxity=0.6)
    arbitrator = QoSArbitrator(capacity=16)
    driver = RenegotiationDriver(arbitrator)

    for i in range(12):
        job = params.tunable_job(release=6.0 * i)
        decision = arbitrator.submit(job)
        if decision.admitted:
            driver.register(job, decision.placement)
    print(
        f"before the fault: {arbitrator.admitted} admitted, "
        f"{arbitrator.rejected} rejected on 16 processors"
    )

    event = CapacityEvent(time=10.0, new_capacity=8)
    before = {cp.job_id: cp for cp in driver.live_placements()}
    driver.on_capacity_change(event)
    after = driver.live_placements()
    driver.sweep_finished(math.inf)
    r = driver.finalize(PerturbationTrace(capacity_events=(event,))).resilience

    print(f"capacity drops to {event.new_capacity} at t={event.time}:")
    print(f"  affected by the drop     : {r['affected']}")
    print(f"  carried across the drop  : {r['carried']}")
    print(f"  re-planned afterwards    : {r['replans']}")
    print(f"  switched execution path  : {r['path_switches']}")
    print(f"  dropped                  : {r['dropped']}")

    for new in after:
        old = before[new.job_id]
        if new is old:
            continue
        # A re-planned placement's chain_index points into the driver's
        # offer, not the job's paths; the path label names the path.
        switched = old.chain.label != new.chain.label
        marker = "  <- PATH SWITCH" if switched else ""
        print(
            f"    job {old.job_id}: {old.chain.label} "
            f"(finish {old.finish:g}) -> {new.chain.label} "
            f"(finish {new.finish:g}){marker}"
        )


if __name__ == "__main__":
    main()
