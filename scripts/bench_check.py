#!/usr/bin/env python3
"""Benchmark smoke check: catch large substrate performance regressions.

Substrate gate (--binary): runs `substrate_throughput` briefly and compares
wall-clock events/sec against the committed baseline (BENCH_substrate.json
at the repo root). Fails if throughput dropped by more than --factor
(default 2x), or if the steady-state allocation count per event regressed
above --max-allocs (default 0.01 — the whole point of the pooled hot path
is ~0).

Parallel gate (--parallel-binary): runs `parallel_scaling` briefly and
checks the sharded engine against BENCH_parallel.json:
  - the determinism digest must be identical at every thread count and on
    both workloads (dense all-to-all and the sparse ring exchange), and
    must equal the committed digest of each workload whenever the run
    uses the baseline's msg_size, msgs_per_pair and repetitions (the
    digest folds in every measured wave) — simulated state does not
    depend on the machine,
  - steady-state allocs/event per thread count is pinned at exactly
    --parallel-max-allocs (default 0 — the persistent worker pool and the
    per-shard pools leave nothing to allocate),
  - events_per_window on the all-to-all workload must reach
    --min-events-per-window (default 50) at every thread count: batched
    windows are the whole point of the published-horizon scheduler, and a
    regression to ~lookahead-sized quanta shows up here first,
  - "shard tax": the 8-shard cluster at 1 thread must stay within
    --max-shard-tax percent (default 5) of the 1-shard cluster measured in
    the SAME run — a machine-independent ratio,
  - speedup at 4 threads must reach --min-speedup (default 1.5x), enforced
    only when the machine actually has >= 4 CPUs; on smaller machines the
    check is reported and skipped (a worker pool cannot speed up a
    1-core box, and failing there would only test the container size).

Rendezvous gate (--rendezvous-binary): runs `rendezvous_crossover` and
checks the eager vs rendezvous/RDMA protocol sweep. Everything in that
bench is *simulated* time, so unlike the wall-clock gates the comparisons
are exact:
  - zero-copy proof: the RDMA streaming run must report 0 per-hop
    simulator copies, every payload byte placed exactly once by the
    modeled DMA engine, and endpoint (host CPU) copies below one
    payload's worth (control traffic only),
  - crossover monotonicity: the eager/rdma latency advantage must flip
    exactly once across the size sweep (a clean protocol crossover),
  - the crossover size must equal the committed baseline exactly —
    simulated time is machine-independent, so any drift is a real
    protocol-cost change that needs a deliberate baseline update.

Fabric gate (--fabric-binary): runs `fabric_scale` on a reduced fat-tree
(default 128 hosts, 64 flows/host, 1 and 2 worker threads) and checks the
datacenter-scale traffic engine invariants:
  - the completion digest must be identical at every thread count and the
    wave must complete every scheduled flow,
  - steady-state allocs/event is pinned at exactly --fabric-max-allocs
    (default 0): the measured wave replays a schedule the warmup wave
    already sized every pool for,
  - every reported latency layer (src_queue/transit/deliver/handler/e2e)
    must carry observations and finite p50/p99/p999 — a NaN/missing tail
    means the histogram plumbing broke, which digests alone cannot see.

Collectives gate (--collectives-binary): runs `scaling_collectives` on a
reduced rank sweep (default up to --collectives-ranks = 128) and checks
the NIC-offloaded collective engine against the host-level ablation.
Everything in that bench is simulated time, so the checks are exact:
  - offload proof: every NIC-phase row must report 0 FM handler starts
    (interior tree steps run NIC-to-NIC; completion is polled) and 0
    cluster-wide heap allocations (warmed pools),
  - the bench's own single-interrupt accounting (completions_ok) must
    hold: summed NIC completions == one host interruption per operation,
  - the NIC barrier must beat the host dissemination barrier by
    --min-coll-speedup (default 1.5x) at 64 ranks and beyond, with the
    absolute saving per barrier (host - nic us) non-decreasing in rank
    count on each preset,
  - host latency must grow monotonically with ranks for every op (more
    ranks can't be free), and every overlapping (preset, ranks, op) row
    must match the committed BENCH_collectives.json exactly — each
    configuration is an independent engine, so a reduced sweep reproduces
    the committed rows verbatim and any drift is a real protocol-cost
    change that needs a deliberate baseline update.

Wall-clock numbers are machine-dependent, so the absolute gates are
deliberately loose: they catch "someone reintroduced a per-event
allocation or an accidental O(n) queue", not single-digit-percent noise.

Usage:
  scripts/bench_check.py --binary build/bench/substrate_throughput \
      [--baseline BENCH_substrate.json] [--factor 2.0] [--max-allocs 0.01]
  scripts/bench_check.py --parallel-binary build/bench/parallel_scaling \
      [--parallel-baseline BENCH_parallel.json] [--min-speedup 1.5] \
      [--max-shard-tax 5.0]
  scripts/bench_check.py --rendezvous-binary build/bench/rendezvous_crossover \
      [--rendezvous-baseline BENCH_rendezvous.json]
  scripts/bench_check.py --fabric-binary build/bench/fabric_scale \
      [--fabric-hosts 128] [--fabric-flows 64] [--fabric-max-allocs 0]
  scripts/bench_check.py --collectives-binary build/bench/scaling_collectives \
      [--collectives-baseline BENCH_collectives.json] \
      [--collectives-ranks 128] [--min-coll-speedup 1.5]

Exit status: 0 ok, 1 regression, 2 usage/environment error.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def _run_to_json(cmd):
    """Run a bench writing its JSON artifact; return the parsed dict."""
    subprocess.run(cmd, check=True, stdout=subprocess.PIPE)
    with open(cmd[-1]) as f:
        return json.load(f)


def check_substrate(args) -> bool:
    with open(args.baseline) as f:
        base = json.load(f)
    out_json = os.path.join(tempfile.mkdtemp(prefix="bench_check_"),
                            "current.json")
    cmd = [args.binary, str(base.get("msg_size", 4096)), str(args.msgs),
           out_json]
    cur = _run_to_json(cmd)

    base_eps = base["events_per_sec"]
    cur_eps = cur["events_per_sec"]
    allocs = cur["allocs_per_event"]
    floor = base_eps / args.factor

    print(f"bench_check: events/sec {cur_eps:,.0f} "
          f"(baseline {base_eps:,.0f}, floor {floor:,.0f}); "
          f"allocs/event {allocs:.6f} (max {args.max_allocs})")

    ok = True
    if cur_eps < floor:
        print(f"bench_check: REGRESSION: events/sec below "
              f"baseline/{args.factor:g}", file=sys.stderr)
        ok = False
    if allocs > args.max_allocs:
        print("bench_check: REGRESSION: steady-state allocations returned "
              "to the event/packet hot path", file=sys.stderr)
        ok = False

    # Tracing tax (keys absent from pre-tracing baselines — skip then).
    traced_eps = cur.get("traced_events_per_sec")
    traced_allocs = cur.get("traced_allocs_per_event")
    if traced_eps is not None and traced_allocs is not None:
        pct = 100.0 * (cur_eps - traced_eps) / cur_eps
        print(f"bench_check: tracing on/off {traced_eps:,.0f} / "
              f"{cur_eps:,.0f} events/sec ({pct:+.1f}% overhead); "
              f"traced allocs/event {traced_allocs:.6f}")
        if traced_allocs > args.max_allocs:
            print("bench_check: REGRESSION: tracing allocates in the "
                  "steady state (the ring must be preallocated at "
                  "enable())", file=sys.stderr)
            ok = False

    # Zero-copy data-plane gates (keys absent from pre-zero-copy baselines
    # and binaries — skip then). Serial steady state must do no physical
    # per-hop payload copies, and the *modeled* copy count per message must
    # not drift: zero-copy is a simulator optimisation, not a change to
    # what the simulated machine is charged.
    hop_copies = cur.get("real_hop_copies")
    if hop_copies is not None:
        print(f"bench_check: real copies/msg "
              f"{cur['real_copies'] / cur['n_msgs']:.1f} endpoint, "
              f"{hop_copies} per-hop total; modeled copies/msg "
              f"{cur['modeled_copies'] / cur['n_msgs']:.1f}")
        if hop_copies != 0:
            print("bench_check: REGRESSION: physical per-hop payload "
                  "copies returned to the serial wire path (NIC "
                  "retention, staging or COW is copying again)",
                  file=sys.stderr)
            ok = False
        base_mod = base.get("modeled_copies")
        if base_mod is not None:
            # Exact rational compare of copies-per-message: run lengths
            # differ between the gate and the committed baseline.
            if cur["modeled_copies"] * base["n_msgs"] != \
                    base_mod * cur["n_msgs"]:
                print("bench_check: REGRESSION: modeled copies per message "
                      f"changed ({cur['modeled_copies']}/{cur['n_msgs']} "
                      f"msgs vs baseline {base_mod}/{base['n_msgs']})",
                      file=sys.stderr)
                ok = False
    return ok


def check_parallel(args) -> bool:
    with open(args.parallel_baseline) as f:
        base = json.load(f)
    out_json = os.path.join(tempfile.mkdtemp(prefix="bench_check_par_"),
                            "parallel.json")
    cmd = [args.parallel_binary, str(base.get("msg_size", 1024)),
           str(args.parallel_msgs), out_json]
    cur = _run_to_json(cmd)

    ok = True
    if not cur.get("digest_ok", False):
        print("bench_check: REGRESSION: parallel determinism digest "
              "diverged across thread counts", file=sys.stderr)
        ok = False

    if all(cur.get(k) == base.get(k)
           for k in ("msg_size", "msgs_per_pair", "repetitions")):
        for name, c, b in (("all-to-all", cur, base),
                           ("ring", cur.get("ring", {}),
                            base.get("ring", {}))):
            got = {t["digest"] for t in c.get("threads", [])}
            want = {t["digest"] for t in b.get("threads", [])}
            if got != want:
                print(f"bench_check: REGRESSION: {name} digest "
                      f"{sorted(got)} != committed {sorted(want)} — the "
                      "simulated result changed", file=sys.stderr)
                ok = False

    per_thread = {t["threads"]: t for t in cur.get("threads", [])}
    for n, row in sorted(per_thread.items()):
        allocs = row["allocs_per_event"]
        epw = row.get("events_per_window")
        epw_txt = f", {epw:,.0f} events/window" if epw is not None else ""
        print(f"bench_check: parallel {n}t {row['events_per_sec']:,.0f} "
              f"events/sec, allocs/event {allocs:.6f}{epw_txt}")
        if allocs > args.parallel_max_allocs:
            print(f"bench_check: REGRESSION: steady-state allocations in "
                  f"the sharded hot path at {n} threads (must be exactly "
                  f"{args.parallel_max_allocs:g})", file=sys.stderr)
            ok = False
        # Batching-quality gate (key absent from pre-batching baselines and
        # binaries — skip then). Dense all-to-all must run hundreds of
        # events per non-empty quantum; a collapse back to one-lookahead
        # windows is a scheduler regression even when digests still match.
        if epw is not None and epw < args.min_events_per_window:
            print(f"bench_check: REGRESSION: all-to-all events/window "
                  f"{epw:,.1f} at {n} threads below "
                  f"{args.min_events_per_window:g} — window batching "
                  f"collapsed", file=sys.stderr)
            ok = False

    # Ring neighbor-exchange sweep (absent from older binaries — skip
    # then). Digest identity is already folded into top-level digest_ok;
    # the alloc gate applies here too: the sparse workload is where the
    # cross-thread frame drain used to surface a stray slab carve.
    ring = cur.get("ring")
    if ring:
        for row in ring.get("threads", []):
            allocs = row.get("allocs_per_event", 0.0)
            print(f"bench_check: ring {row['threads']}t "
                  f"{row['events_per_sec']:,.0f} events/sec, "
                  f"allocs/event {allocs:.6f}, "
                  f"{row['events_per_window']:,.0f} events/window")
            if allocs > args.parallel_max_allocs:
                print(f"bench_check: REGRESSION: steady-state allocations "
                      f"in the ring workload at {row['threads']} threads "
                      f"(must be exactly {args.parallel_max_allocs:g})",
                      file=sys.stderr)
                ok = False

    # Shard tax: same run, same machine, so the tolerance can be tight.
    # shard_tax is (1-shard - 8-shard@1t)/1-shard; negative means the
    # sharded run is faster than the 1-shard cluster, which is fine.
    tax = cur.get("shard_tax_pct", 0.0)
    print(f"bench_check: shard tax at 1 thread {tax:+.1f}% "
          f"(max {args.max_shard_tax:g}%)")
    if tax > args.max_shard_tax:
        print("bench_check: REGRESSION: 1-thread sharded run fell more "
              f"than {args.max_shard_tax:g}% behind the 1-shard cluster",
              file=sys.stderr)
        ok = False

    # Loose cross-commit wall-clock gate, like the substrate one.
    base_1t = next((t for t in base.get("threads", [])
                    if t["threads"] == 1), None)
    cur_1t = per_thread.get(1)
    if base_1t and cur_1t:
        floor = base_1t["events_per_sec"] / args.factor
        if cur_1t["events_per_sec"] < floor:
            print(f"bench_check: REGRESSION: parallel 1t events/sec below "
                  f"baseline/{args.factor:g} ({floor:,.0f})",
                  file=sys.stderr)
            ok = False

    cpus = cur.get("cpus", 0)
    speedup = cur.get("speedup_4t_vs_1t", 0.0)
    if cpus >= 4:
        print(f"bench_check: speedup at 4 threads {speedup:.2f}x "
              f"(min {args.min_speedup:g}x, {cpus} cpus)")
        if speedup < args.min_speedup:
            print("bench_check: REGRESSION: parallel speedup at 4 threads "
                  f"below {args.min_speedup:g}x", file=sys.stderr)
            ok = False
    else:
        print(f"bench_check: speedup at 4 threads {speedup:.2f}x — gate "
              f"SKIPPED: machine has {cpus} cpu(s), need >= 4 for the "
              f"{args.min_speedup:g}x check to be meaningful")
    return ok


def check_rendezvous(args) -> bool:
    with open(args.rendezvous_baseline) as f:
        base = json.load(f)
    out_json = os.path.join(tempfile.mkdtemp(prefix="bench_check_rdzv_"),
                            "rendezvous.json")
    cur = _run_to_json([args.rendezvous_binary, out_json])

    ok = True
    zc = cur["zero_copy"]
    print(f"bench_check: rendezvous zero-copy: {zc['hop_copies']} hop "
          f"copies, {zc['rdma_bytes']}/{zc['payload_bytes']} rdma bytes "
          f"placed, {zc['endpoint_bytes']} endpoint bytes (control)")
    if zc["hop_copies"] != 0:
        print("bench_check: REGRESSION: the rendezvous/RDMA path performs "
              "per-hop simulator copies (COW clone or cross-shard copy on "
              "the remote-write data plane)", file=sys.stderr)
        ok = False
    if zc["rdma_bytes"] != zc["payload_bytes"]:
        print("bench_check: REGRESSION: RDMA placement bytes != payload "
              "bytes — chunks are being dropped, duplicated, or staged "
              "through the endpoint path", file=sys.stderr)
        ok = False
    if zc["endpoint_bytes"] >= max(s["bytes"] for s in cur["sizes"]):
        print("bench_check: REGRESSION: rendezvous endpoint (host CPU) "
              "copies exceed control-traffic volume — a payload is being "
              "staged through host memory again", file=sys.stderr)
        ok = False

    flips = cur.get("advantage_flips")
    crossover = cur.get("crossover_bytes")
    print(f"bench_check: rendezvous crossover {crossover} bytes, "
          f"{flips} advantage flip(s) (baseline "
          f"{base.get('crossover_bytes')})")
    if flips != 1:
        print("bench_check: REGRESSION: eager/rdma latency advantage "
              f"flipped {flips} times across the sweep — the protocol "
              "crossover is no longer monotone", file=sys.stderr)
        ok = False
    # Simulated time: exact compare, not a tolerance band.
    if crossover != base.get("crossover_bytes"):
        print("bench_check: REGRESSION: crossover size moved from "
              f"{base.get('crossover_bytes')} to {crossover} bytes — "
              "protocol costs changed; update BENCH_rendezvous.json "
              "deliberately if intended", file=sys.stderr)
        ok = False
    return ok


def check_fabric(args) -> bool:
    import math
    out_json = os.path.join(tempfile.mkdtemp(prefix="bench_check_fab_"),
                            "fabric.json")
    cmd = [args.fabric_binary, "--hosts", str(args.fabric_hosts),
           "--flows-per-host", str(args.fabric_flows),
           "--shards", "4", "--threads", "1,2", "--out", out_json]
    # The bench itself exits non-zero on digest divergence; capture that as
    # a regression rather than a harness error.
    proc = subprocess.run(cmd, stdout=subprocess.PIPE)
    with open(out_json) as f:
        cur = json.load(f)

    ok = True
    if proc.returncode != 0 or not cur.get("digest_ok", False):
        print("bench_check: REGRESSION: fabric traffic digest diverged "
              "across thread counts (or a wave left flows incomplete)",
              file=sys.stderr)
        ok = False

    for row in cur.get("threads", []):
        allocs = row["allocs_per_event"]
        print(f"bench_check: fabric {row['threads']}t "
              f"{row['events_per_sec']:,.0f} events/sec, "
              f"allocs/event {allocs:.6f}, digest {row['digest']}")
        if allocs > args.fabric_max_allocs:
            print(f"bench_check: REGRESSION: steady-state allocations in "
                  f"the fabric traffic wave at {row['threads']} threads "
                  f"(must be exactly {args.fabric_max_allocs:g})",
                  file=sys.stderr)
            ok = False

    total = cur.get("total_flows", 0)
    layers = {l["layer"]: l for l in cur.get("layers", [])}
    for name in ("src_queue", "transit", "deliver", "handler", "e2e"):
        lay = layers.get(name)
        if lay is None:
            print(f"bench_check: REGRESSION: fabric layer {name!r} missing "
                  f"from the quantile report", file=sys.stderr)
            ok = False
            continue
        p50, p99, p999 = lay["p50_us"], lay["p99_us"], lay["p999_us"]
        print(f"bench_check: fabric {name:9s} n={lay['count']} "
              f"p50 {p50:.3f} us, p99 {p99:.3f} us, p999 {p999:.3f} us")
        if lay["count"] != total or total == 0:
            print(f"bench_check: REGRESSION: fabric layer {name!r} saw "
                  f"{lay['count']} observations, expected {total}",
                  file=sys.stderr)
            ok = False
        if not all(math.isfinite(v) for v in (p50, p99, p999)) \
                or p999 < p99 or p99 < p50 or p50 < 0:
            print(f"bench_check: REGRESSION: fabric layer {name!r} "
                  f"quantiles are non-finite or non-monotone",
                  file=sys.stderr)
            ok = False
    return ok


def check_collectives(args) -> bool:
    with open(args.collectives_baseline) as f:
        base = json.load(f)
    out_json = os.path.join(tempfile.mkdtemp(prefix="bench_check_coll_"),
                            "collectives.json")
    cmd = [args.collectives_binary, "--max-ranks",
           str(args.collectives_ranks), "--out", out_json]
    # The bench exits non-zero when its own single-interrupt or
    # quiet-NIC-phase accounting fails; fold that into the row checks
    # below instead of treating it as a harness error.
    subprocess.run(cmd, stdout=subprocess.PIPE)
    with open(out_json) as f:
        cur = json.load(f)

    ok = True
    if not cur.get("completions_ok", False):
        print("bench_check: REGRESSION: NIC collective completions != one "
              "host interruption per operation", file=sys.stderr)
        ok = False

    rows = cur.get("results", [])
    by_key = {(r["preset"], r["ranks"], r["op"]): r for r in rows}
    presets = sorted({r["preset"] for r in rows})
    ops = sorted({r["op"] for r in rows})

    for r in rows:
        # Offload proof: interior steps never start a host handler, and
        # the warmed NIC phases are allocation-free cluster-wide.
        if r["nic_handler_starts"] != 0:
            print(f"bench_check: REGRESSION: {r['preset']}/{r['ranks']} "
                  f"{r['op']}: NIC phase started "
                  f"{r['nic_handler_starts']} host handlers (must be 0 — "
                  f"the host is only interrupted at completion)",
                  file=sys.stderr)
            ok = False
        if r["nic_allocs"] != 0:
            print(f"bench_check: REGRESSION: {r['preset']}/{r['ranks']} "
                  f"{r['op']}: {r['nic_allocs']} heap allocations in the "
                  f"NIC phase (must be 0 after warmup)", file=sys.stderr)
            ok = False

    for preset in presets:
        for op in ops:
            series = sorted((r["ranks"], r) for k, r in by_key.items()
                            if k[0] == preset and k[2] == op)
            # Host latency monotone in ranks: more ranks can't be free.
            for (_, a), (_, b) in zip(series, series[1:]):
                if b["host_us"] < a["host_us"]:
                    print(f"bench_check: REGRESSION: {preset} {op} host "
                          f"latency fell from {a['host_us']:.1f} us at "
                          f"{a['ranks']} ranks to {b['host_us']:.1f} us "
                          f"at {b['ranks']} ranks", file=sys.stderr)
                    ok = False
            if op != "barrier":
                continue
            # Offload payoff: speedup floor at 64+ ranks, and the absolute
            # saving per barrier (host - nic us) non-decreasing with rank
            # count. The saving is the gated "gap": the ratio wobbles by a
            # few percent when the leader heap gains a level while the
            # host's dissemination rounds grow smoothly, but every host
            # round the tree avoids is time saved, and that saving must
            # grow with scale.
            gated = [r for _, r in series if r["ranks"] >= 64]
            for r in gated:
                print(f"bench_check: {preset} barrier {r['ranks']} ranks: "
                      f"host {r['host_us']:.1f} us, nic "
                      f"{r['nic_us']:.1f} us, speedup "
                      f"{r['speedup']:.2f}x, saved "
                      f"{r['host_us'] - r['nic_us']:.1f} us")
                if r["speedup"] < args.min_coll_speedup:
                    print(f"bench_check: REGRESSION: NIC barrier speedup "
                          f"{r['speedup']:.2f}x at {r['ranks']} ranks "
                          f"below {args.min_coll_speedup:g}x",
                          file=sys.stderr)
                    ok = False
            for a, b in zip(gated, gated[1:]):
                gap_a = a["host_us"] - a["nic_us"]
                gap_b = b["host_us"] - b["nic_us"]
                if gap_b < gap_a:
                    print(f"bench_check: REGRESSION: {preset} barrier "
                          f"offload saving shrank from {gap_a:.1f} us at "
                          f"{a['ranks']} ranks to {gap_b:.1f} us at "
                          f"{b['ranks']} ranks — the offload gap must "
                          f"grow with scale", file=sys.stderr)
                    ok = False

    # Simulated time: every overlapping row must match the committed
    # baseline bit-for-bit (independent engines per configuration, so a
    # reduced sweep reproduces the full-sweep rows).
    base_by_key = {(r["preset"], r["ranks"], r["op"]): r
                   for r in base.get("results", [])}
    compared = 0
    for key, r in by_key.items():
        b = base_by_key.get(key)
        if b is None:
            continue
        compared += 1
        if r["host_us"] != b["host_us"] or r["nic_us"] != b["nic_us"]:
            print(f"bench_check: REGRESSION: {key[0]}/{key[1]} {key[2]} "
                  f"moved: host {b['host_us']} -> {r['host_us']} us, nic "
                  f"{b['nic_us']} -> {r['nic_us']} us; update "
                  f"BENCH_collectives.json deliberately if intended",
                  file=sys.stderr)
            ok = False
    print(f"bench_check: collectives: {len(rows)} rows, {compared} "
          f"compared exactly against baseline")
    if compared == 0:
        print("bench_check: REGRESSION: no overlap with the committed "
              "collectives baseline", file=sys.stderr)
        ok = False
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--binary",
                    help="path to the substrate_throughput executable")
    ap.add_argument("--baseline", default="BENCH_substrate.json",
                    help="committed substrate baseline JSON "
                         "(default: %(default)s)")
    ap.add_argument("--parallel-binary",
                    help="path to the parallel_scaling executable")
    ap.add_argument("--parallel-baseline", default="BENCH_parallel.json",
                    help="committed parallel baseline JSON "
                         "(default: %(default)s)")
    ap.add_argument("--rendezvous-binary",
                    help="path to the rendezvous_crossover executable")
    ap.add_argument("--rendezvous-baseline", default="BENCH_rendezvous.json",
                    help="committed rendezvous baseline JSON "
                         "(default: %(default)s)")
    ap.add_argument("--fabric-binary",
                    help="path to the fabric_scale executable")
    ap.add_argument("--fabric-hosts", type=int, default=128,
                    help="fat-tree size for the fabric gate "
                         "(default: %(default)s)")
    ap.add_argument("--fabric-flows", type=int, default=64,
                    help="flows per host in the fabric gate "
                         "(default: %(default)s)")
    ap.add_argument("--fabric-max-allocs", type=float, default=0.0,
                    help="max allocs/event in the fabric gate — the "
                         "measured wave is allocation-free after warmup, "
                         "so the pin is exact (default: %(default)s)")
    ap.add_argument("--collectives-binary",
                    help="path to the scaling_collectives executable")
    ap.add_argument("--collectives-baseline",
                    default="BENCH_collectives.json",
                    help="committed collectives baseline JSON "
                         "(default: %(default)s)")
    ap.add_argument("--collectives-ranks", type=int, default=128,
                    help="largest cluster size in the collectives gate "
                         "(default: %(default)s)")
    ap.add_argument("--min-coll-speedup", type=float, default=1.5,
                    help="min NIC-vs-host barrier speedup at 64+ ranks "
                         "(default: %(default)s)")
    ap.add_argument("--factor", type=float, default=2.0,
                    help="max tolerated slowdown vs baseline "
                         "(default: %(default)s)")
    ap.add_argument("--max-allocs", type=float, default=0.01,
                    help="max allocs/event in the substrate gate "
                         "(default: %(default)s)")
    ap.add_argument("--parallel-max-allocs", type=float, default=0.0,
                    help="max allocs/event in the parallel gate — the "
                         "sharded steady state is allocation-free, so the "
                         "pin is exact (default: %(default)s)")
    ap.add_argument("--min-events-per-window", type=float, default=50.0,
                    help="min events per non-empty quantum on the "
                         "all-to-all parallel workload (default: "
                         "%(default)s)")
    ap.add_argument("--min-speedup", type=float, default=1.5,
                    help="min 4-thread speedup, enforced when cpus >= 4 "
                         "(default: %(default)s)")
    ap.add_argument("--max-shard-tax", type=float, default=5.0,
                    help="max %% the 1-thread sharded run may trail the "
                         "1-shard cluster (default: %(default)s)")
    ap.add_argument("--msgs", type=int, default=500,
                    help="messages to stream in the substrate gate "
                         "(default: %(default)s)")
    ap.add_argument("--parallel-msgs", type=int, default=100,
                    help="msgs per node pair in the parallel gate "
                         "(default: %(default)s)")
    args = ap.parse_args()

    if not args.binary and not args.parallel_binary \
            and not args.rendezvous_binary and not args.fabric_binary \
            and not args.collectives_binary:
        print("bench_check: need --binary, --parallel-binary, "
              "--rendezvous-binary, --fabric-binary and/or "
              "--collectives-binary", file=sys.stderr)
        return 2

    ok = True
    try:
        if args.binary:
            if not os.path.exists(args.baseline):
                print(f"bench_check: baseline {args.baseline!r} not found",
                      file=sys.stderr)
                return 2
            ok = check_substrate(args) and ok
        if args.parallel_binary:
            if not os.path.exists(args.parallel_baseline):
                print(f"bench_check: baseline "
                      f"{args.parallel_baseline!r} not found",
                      file=sys.stderr)
                return 2
            ok = check_parallel(args) and ok
        if args.rendezvous_binary:
            if not os.path.exists(args.rendezvous_baseline):
                print(f"bench_check: baseline "
                      f"{args.rendezvous_baseline!r} not found",
                      file=sys.stderr)
                return 2
            ok = check_rendezvous(args) and ok
        if args.fabric_binary:
            ok = check_fabric(args) and ok
        if args.collectives_binary:
            if not os.path.exists(args.collectives_baseline):
                print(f"bench_check: baseline "
                      f"{args.collectives_baseline!r} not found",
                      file=sys.stderr)
                return 2
            ok = check_collectives(args) and ok
    except (OSError, subprocess.CalledProcessError, json.JSONDecodeError,
            KeyError) as e:
        print(f"bench_check: failed: {e}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
