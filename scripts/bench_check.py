#!/usr/bin/env python3
"""Bench gate: run one bench and check its JSON artifact against a rule table.

Usage: scripts/bench_check.py GATE BINARY

GATE is substrate, parallel, rendezvous, fabric or collectives; BINARY is
that bench's executable. The committed baseline is BENCH_<GATE>.json at the
repository root. Exit status: 0 every check passed, 1 a check failed,
2 usage error or no artifact.

An artifact has four sections (bench/common/bench_util.hpp): meta (cpus,
cpu_model), config (the run's parameters), sim (values identical across
repeated runs and thread counts) and wall (everything else). Every gate
applies two generic checks and then its own table rows:

  - exit status: the bench exits 0 (each bench exits 1 when its own
    digest, completion or zero-copy accounting fails);
  - sim matches baseline: when config equals the baseline's, every sim
    leaf present in both artifacts is equal. Rows of an array are matched
    by their identifying fields (ROW_IDS), and each array must share at
    least one row with the baseline.

A table row is (name, path, test). The path names one object of the
artifact ("sim.zero_copy"), or every row of an array ("sim.threads[]"), or
the whole artifact (""). The test gets each selected item and its
baseline counterpart (None when absent) and returns whether the item
passes; a missing value fails. Thresholds are the constants in the rows.

Simulated time does not depend on the machine, so sim is compared
exactly. Wall-clock floors are loose on purpose: they catch a per-event
allocation or an accidental O(n) queue, not single-digit noise.
"""

import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROW_IDS = ("threads", "preset", "ranks", "op", "bytes", "layer")
LAYERS = ("src_queue", "transit", "deliver", "handler", "e2e")


def ascending(rows, group, value):
    """True when value(row) never falls as ranks grow, within each group."""
    series = {}
    for r in sorted(rows, key=lambda r: r["ranks"]):
        series.setdefault(tuple(r[k] for k in group), []).append(value(r))
    return all(b >= a for s in series.values() for a, b in zip(s, s[1:]))


def quantiles_ok(layer):
    q = (layer["p50_us"], layer["p99_us"], layer["p999_us"])
    return all(map(math.isfinite, q)) and 0 <= q[0] <= q[1] <= q[2]


GATES = {
    # Wall-clock substrate speed on a 2-host FM 2.x stream, at the
    # baseline's config so its events and copy counts compare exactly.
    "substrate": {
        "args": ("{msg_size}", "{n_msgs}", "{out}", "{repetitions}"),
        "rules": (
            ("events/s floor", "wall",
             lambda w, b: w["events_per_sec"] >= b["events_per_sec"] / 2),
            ("allocs/event ceiling", "wall",
             lambda w, b: w["allocs_per_event"] <= 0.01),
            ("traced allocs/event ceiling", "wall",
             lambda w, b: w["traced_allocs_per_event"] <= 0.01),
            ("no per-hop copies", "sim",
             lambda s, b: s["real_hop_copies"] == 0),
        ),
    },
    # The sharded engine on the 32-host all-to-all and ring workloads.
    "parallel": {
        "args": ("{msg_size}", "{msgs_per_pair}", "{out}", "{repetitions}"),
        "rules": (
            ("digests agree", "sim", lambda s, b: s["digest_ok"] is True),
            ("allocs/event pin", "sim.threads[]",
             lambda r, b: r["allocs_per_event"] == 0),
            ("ring allocs/event pin", "sim.ring.threads[]",
             lambda r, b: r["allocs_per_event"] == 0),
            ("events/window floor", "wall.threads[]",
             lambda r, b: r["events_per_window"] >= 50),
            # 4 hosts per shard buy dense windows at a structural ~20%
            # 1-thread cost over the 1-shard cluster; 35% leaves room for
            # noise and still catches a runaway regression.
            ("shard tax ceiling", "wall",
             lambda w, b: w["shard_tax_pct"] <= 35),
            ("events/s floor", "wall.threads[]",
             lambda r, b: r["threads"] != 1
             or r["events_per_sec"] >= b["events_per_sec"] / 2),
            ("4-thread speedup floor", "",
             lambda a, b: a["meta"]["cpus"] < 4
             or a["wall"]["speedup_4t_vs_1t"] >= 1.5),
        ),
    },
    # Eager vs rendezvous/RDMA crossover and the zero-copy proof.
    "rendezvous": {
        "args": ("{out}",),
        "rules": (
            ("no per-hop copies", "sim.zero_copy",
             lambda z, b: z["hop_copies"] == 0),
            ("RDMA places every payload byte", "sim.zero_copy",
             lambda z, b: z["rdma_bytes"] == z["payload_bytes"]),
            ("endpoint bytes below largest size", "sim",
             lambda s, b: s["zero_copy"]["endpoint_bytes"]
             < max(r["bytes"] for r in s["sizes"])),
            ("one advantage flip", "sim",
             lambda s, b: s["advantage_flips"] == 1),
        ),
    },
    # A reduced fat-tree wave: 128 hosts on 4 shards at 1 and 2 threads.
    "fabric": {
        "args": ("--hosts", "128", "--flows-per-host", "64", "--shards", "4",
                 "--threads", "1,2", "--out", "{out}"),
        "rules": (
            ("digests agree", "sim", lambda s, b: s["digest_ok"] is True),
            ("allocs/event pin", "sim.threads[]",
             lambda r, b: r["allocs_per_event"] == 0),
            ("latency layers present", "sim",
             lambda s, b: set(LAYERS) <= {r["layer"] for r in s["layers"]}),
            ("layer counts equal total flows", "sim",
             lambda s, b: s["total_flows"] > 0 and all(
                 r["count"] == s["total_flows"] for r in s["layers"])),
            ("quantiles finite and monotone", "sim.layers[]",
             lambda r, b: quantiles_ok(r)),
        ),
    },
    # NIC-offloaded vs host collectives, reduced to 8..128 ranks.
    "collectives": {
        "args": ("--max-ranks", "128", "--out", "{out}"),
        "rules": (
            ("one interrupt per NIC op", "sim",
             lambda s, b: s["completions_ok"] is True),
            ("NIC phases start no handler", "sim.results[]",
             lambda r, b: r["nic_handler_starts"] == 0),
            ("NIC phases allocate nothing", "sim.results[]",
             lambda r, b: r["nic_allocs"] == 0),
            ("host latency grows with ranks", "sim",
             lambda s, b: ascending(s["results"], ("preset", "op"),
                                    lambda r: r["host_us"])),
            ("NIC barrier speedup floor", "sim.results[]",
             lambda r, b: r["op"] != "barrier" or r["ranks"] < 64
             or r["speedup"] >= 1.5),
            ("barrier saving grows with ranks", "sim",
             lambda s, b: ascending(
                 [r for r in s["results"]
                  if r["op"] == "barrier" and r["ranks"] >= 64],
                 ("preset",), lambda r: r["host_us"] - r["nic_us"])),
        ),
    },
}


def row_id(row):
    return tuple((k, row[k]) for k in ROW_IDS if k in row)


def where(path, row):
    return f"{path}[{','.join(f'{k}={v}' for k, v in row_id(row))}]"


def select(cur, base, path):
    """(where, item, baseline item) for every item `path` names."""
    items = [(path, cur, base)]
    for key in path.split(".") if path else ():
        fan = key.endswith("[]")
        key = key.removesuffix("[]")
        step = []
        for _, c, b in items:
            c = c.get(key) if isinstance(c, dict) else None
            b = b.get(key) if isinstance(b, dict) else None
            if not fan:
                step.append((path, c, b))
                continue
            by_id = {row_id(r): r for r in b or ()}
            step += [(where(path[:-2], r), r, by_id.get(row_id(r)))
                     for r in c or ()]
        items = step
    return items


def sim_diffs(cur, base, path, compared):
    """Describe every leaf of `cur` that differs from `base`; count leaves
    in compared["values"] and matched rows in compared[<array path>]."""
    if isinstance(cur, dict) and isinstance(base, dict):
        for k in cur.keys() & base.keys():
            yield from sim_diffs(cur[k], base[k], f"{path}.{k}", compared)
    elif isinstance(cur, list) and isinstance(base, list):
        by_id = {row_id(r): r for r in base}
        pairs = [(r, by_id[row_id(r)]) for r in cur if row_id(r) in by_id]
        compared[path] = len(pairs)
        if not pairs:
            yield f"{path}: no row in common with the baseline"
        for r, b in pairs:
            yield from sim_diffs(r, b, where(path, r), compared)
    else:
        compared["values"] = compared.get("values", 0) + 1
        if cur != base:
            yield f"{path}: {cur} != baseline {base}"


def evaluate(gate, cur, base, status=0, compared=None):
    """Every failed check of `gate`, each as 'check name: where'."""
    fails = [f"exit status: the bench exited {status}"] if status else []
    if cur.get("config") == base.get("config"):
        fails += [f"sim matches baseline: {d}" for d in sim_diffs(
            cur.get("sim"), base.get("sim"), "sim",
            {} if compared is None else compared)]
    for name, path, test in GATES[gate]["rules"]:
        items = select(cur, base, path)
        if not items:
            fails.append(f"{name}: {path} has no rows")
        for place, item, base_item in items:
            try:
                ok = test(item, base_item)
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                row = f" {json.dumps(item)}" if place != path else ""
                fails.append(f"{name}: {place or 'artifact'}{row}")
    return fails


def main(argv):
    if len(argv) != 3 or argv[1] not in GATES:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    gate, binary = argv[1], argv[2]
    with open(os.path.join(ROOT, f"BENCH_{gate}.json")) as f:
        base = json.load(f)
    with tempfile.TemporaryDirectory(prefix="bench_check_") as tmp:
        out = os.path.join(tmp, "cur.json")
        args = [a.format(out=out, **base.get("config", {}))
                for a in GATES[gate]["args"]]
        try:
            proc = subprocess.run([binary, *args], stdout=subprocess.DEVNULL)
            with open(out) as f:
                cur = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_check: {gate}: no artifact ({e})", file=sys.stderr)
            return 2
    compared = {}
    fails = evaluate(gate, cur, base, proc.returncode, compared)
    if "values" in compared:
        rows = "".join(f", {n} {p} rows" for p, n in sorted(compared.items())
                       if p != "values")
        print(f"bench_check: {gate}: sim: {compared['values']} values "
              f"compared with the baseline{rows}")
    else:
        print(f"bench_check: {gate}: config differs from the baseline; "
              "sim not compared")
    if cur.get("wall"):
        print(f"bench_check: {gate}: wall {json.dumps(cur['wall'])}")
    for fail in fails:
        print(f"bench_check: {gate}: FAIL {fail}", file=sys.stderr)
    print(f"bench_check: {gate}: {len(fails)} failure(s) in "
          f"{2 + len(GATES[gate]['rules'])} checks")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
