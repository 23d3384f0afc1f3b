"""Execution-mode equivalence: what two runs of one config must share.

Serial, sharded (``jobs > 1``) and killed-and-resumed runs of one config
must end with identical capture records, ground truth, dispatch counters
and honeypot state.  The checkpoint and sharding tests compare through
:func:`assert_identical`.
"""

import numpy as np

COLUMNS = ("ts", "src_hi", "src_lo", "dst_hi", "dst_lo",
           "proto", "sport", "dport")


def honeypot_state(result):
    """Everything the NT-A honeypots hold at the end of a run."""
    telescope = result.scenario.telescope
    twinklenet = telescope.twinklenet
    return {
        "sessions": list(twinklenet._sessions.items()),
        "evicted": twinklenet.sessions_evicted,
        "completed": twinklenet.sessions_completed,
        "rx_tx": (twinklenet.rx_count, twinklenet.tx_count),
        "last_sweep": twinklenet._last_sweep,
        "replies": telescope.response_count,
        "gateways": {
            name: (list(gw.nat_log), gw._next_port, gw._flow_seen,
                   gw.rx_count, gw.tx_count, gw.tpot.interactions)
            for name, gw in telescope.gateways.items()
        },
    }


def assert_identical(a, b):
    for name in ("nta", "ntb", "ntc"):
        ra, rb = getattr(a, name), getattr(b, name)
        assert len(ra) == len(rb), name
        for column in COLUMNS:
            assert np.array_equal(getattr(ra, column),
                                  getattr(rb, column)), (name, column)
    assert set(a.truth) == set(b.truth)
    for name, ta in a.truth.items():
        tb = b.truth[name]
        assert np.array_equal(ta.origin, tb.origin), name
        assert np.array_equal(ta.ts, tb.ts), name
    ca, cb = a.scenario.counters, b.scenario.counters
    assert (ca.nta, ca.ntb, ca.ntc, ca.live_dropped, ca.unrouted) \
        == (cb.nta, cb.ntb, cb.ntc, cb.live_dropped, cb.unrouted)
    assert honeypot_state(a) == honeypot_state(b)
