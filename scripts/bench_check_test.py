#!/usr/bin/env python3
"""Self-test of scripts/bench_check.py's rule table.

Each committed BENCH_*.json, fed to its own gate as the current artifact,
passes. Each check the gate must make then fails on a copy with one value
pushed across that check's line (the exit-status check gets a non-zero
status instead), and the failure names the check.

Run: python3 scripts/bench_check_test.py
"""

import copy
import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_check  # noqa: E402


def baseline(gate):
    with open(os.path.join(bench_check.ROOT, f"BENCH_{gate}.json")) as f:
        return json.load(f)


def row(rows, **ids):
    return next(r for r in rows if all(r[k] == v for k, v in ids.items()))


def set_row(path, ids, **values):
    """A mutation that updates the row of array `path` with fields `ids`."""
    def mutate(a):
        node = a
        for key in path.split("."):
            node = node[key]
        row(node, **ids).update(values)
    return mutate


def halve(section, key, **ids):
    """Set a wall value just below half of its baseline."""
    def mutate(a):
        node = row(a["wall"][section], **ids) if ids else a["wall"]
        node[key] = node[key] / 2 - 1
    return mutate


ZERO = "0000000000000000"

# (gate, check expected to fail, mutation, bench exit status)
CASES = [
    ("substrate", "events/s floor", halve(None, "events_per_sec"), 0),
    ("substrate", "allocs/event ceiling",
     lambda a: a["wall"].update(allocs_per_event=0.011), 0),
    ("substrate", "traced allocs/event ceiling",
     lambda a: a["wall"].update(traced_allocs_per_event=0.011), 0),
    ("substrate", "no per-hop copies",
     lambda a: a["sim"].update(real_hop_copies=1), 0),
    ("substrate", "sim matches baseline",
     lambda a: a["sim"].update(modeled_copies=20001), 0),

    ("parallel", "digests agree", lambda a: a["sim"].update(digest_ok=False),
     0),
    ("parallel", "sim matches baseline",
     set_row("sim.threads", {"threads": 2}, digest=ZERO), 0),
    ("parallel", "sim matches baseline",
     set_row("sim.ring.threads", {"threads": 4}, digest=ZERO), 0),
    ("parallel", "allocs/event pin",
     set_row("sim.threads", {"threads": 2}, allocs_per_event=1e-6), 0),
    ("parallel", "events/window floor",
     set_row("wall.threads", {"threads": 4}, events_per_window=49.99), 0),
    ("parallel", "ring allocs/event pin",
     set_row("sim.ring.threads", {"threads": 8}, allocs_per_event=1e-6), 0),
    ("parallel", "shard tax ceiling",
     lambda a: a["wall"].update(shard_tax_pct=35.01), 0),
    ("parallel", "events/s floor",
     halve("threads", "events_per_sec", threads=1), 0),
    ("parallel", "4-thread speedup floor",
     lambda a: a["wall"].update(speedup_4t_vs_1t=1.49), 0),

    ("rendezvous", "no per-hop copies",
     lambda a: a["sim"]["zero_copy"].update(hop_copies=1), 0),
    ("rendezvous", "RDMA places every payload byte",
     lambda a: a["sim"]["zero_copy"].update(rdma_bytes=6553599), 0),
    ("rendezvous", "endpoint bytes below largest size",
     lambda a: a["sim"]["zero_copy"].update(endpoint_bytes=131072), 0),
    ("rendezvous", "one advantage flip",
     lambda a: a["sim"].update(advantage_flips=3), 0),
    ("rendezvous", "sim matches baseline",
     lambda a: a["sim"].update(crossover_bytes=2048), 0),

    ("fabric", "exit status", lambda a: None, 1),
    ("fabric", "allocs/event pin",
     set_row("sim.threads", {"threads": 2}, allocs_per_event=1e-6), 0),
    ("fabric", "latency layers present",
     lambda a: a["sim"]["layers"].remove(
         row(a["sim"]["layers"], layer="deliver")), 0),
    ("fabric", "layer counts equal total flows",
     set_row("sim.layers", {"layer": "transit"}, count=131071), 0),
    ("fabric", "quantiles finite and monotone",
     set_row("sim.layers", {"layer": "e2e"}, p99_us=1046.497), 0),

    ("collectives", "one interrupt per NIC op",
     lambda a: a["sim"].update(completions_ok=False), 0),
    ("collectives", "NIC phases start no handler",
     set_row("sim.results", {"preset": "chain", "ranks": 32, "op": "bcast"},
             nic_handler_starts=1), 0),
    ("collectives", "NIC phases allocate nothing",
     set_row("sim.results",
             {"preset": "fat_tree", "ranks": 128, "op": "allreduce"},
             nic_allocs=1), 0),
    ("collectives", "host latency grows with ranks",
     set_row("sim.results", {"preset": "chain", "ranks": 16, "op": "reduce"},
             host_us=15.0), 0),
    ("collectives", "NIC barrier speedup floor",
     set_row("sim.results",
             {"preset": "fat_tree", "ranks": 64, "op": "barrier"},
             speedup=1.49), 0),
    ("collectives", "barrier saving grows with ranks",
     set_row("sim.results",
             {"preset": "chain", "ranks": 128, "op": "barrier"},
             nic_us=110.91), 0),
    ("collectives", "sim matches baseline",
     set_row("sim.results", {"preset": "fat_tree", "ranks": 8, "op": "bcast"},
             host_us=22.271), 0),
    ("collectives", "sim matches baseline",
     lambda a: [r.update(ranks=r["ranks"] + 1000)
                for r in a["sim"]["results"]], 0),
]


class BenchCheckTest(unittest.TestCase):
    def test_baselines_pass_their_own_gate(self):
        for gate in bench_check.GATES:
            with self.subTest(gate=gate):
                base = baseline(gate)
                self.assertEqual(
                    bench_check.evaluate(gate, copy.deepcopy(base), base), [])

    def test_every_check_fires(self):
        for gate, check, mutate, status in CASES:
            with self.subTest(gate=gate, check=check):
                base = baseline(gate)
                cur = copy.deepcopy(base)
                mutate(cur)
                fails = bench_check.evaluate(gate, cur, base, status)
                self.assertTrue(
                    any(f.startswith(check + ":") for f in fails), fails)

    def test_cases_cover_every_check(self):
        per_gate = {}
        for gate, *_ in CASES:
            per_gate[gate] = per_gate.get(gate, 0) + 1
        self.assertEqual(per_gate, {"substrate": 5, "parallel": 9,
                                    "rendezvous": 5, "fabric": 5,
                                    "collectives": 8})


if __name__ == "__main__":
    unittest.main()
