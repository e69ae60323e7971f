#!/usr/bin/env python3
"""CI gate for the apres_serve result cache.

Takes the responses of two identical batches submitted to a fresh
daemon (cold, then warm) and asserts the cache contract:

  * every run in the warm response was served from cache,
  * the daemon ran zero additional simulations for the warm batch,
  * every warm result document is BYTE-identical to its cold twin
    (raw-text comparison, not parse-and-compare), and
  * every run completed with status "ok".

Writes a cache-hit summary (fingerprint, counters, hit ratio) to
--stats for upload as a CI artifact.

usage: check_serve_cache.py COLD_JSON WARM_JSON [--stats OUT_JSON]

Eviction mode (--eviction) instead drives a LIVE daemon that was
started with a disk-cache cap: it submits a sequence of distinct
configurations one at a time (so the access order is exact), then
asserts the LRU contract:

  * the daemon evicted (stats.cache.evictions > 0),
  * the surviving <key>.json files are exactly a SUFFIX of the
    submission order (pure LRU: whatever survives is the newest tail),
  * the daemon's accounting (diskEntries, diskBytes) matches the
    directory byte-for-byte,
  * the caps hold (diskBytes <= maxBytes, diskEntries <= maxEntries),
    in memory too (memoryEntries <= maxEntries), and
  * the oldest (evicted) key left memory as well as disk: asked for
    again, it comes back cached: false and runs one more simulation.

usage: check_serve_cache.py --eviction --socket SOCK --cache-dir DIR
                            [--jobs N] [--stats OUT_JSON]
"""

import argparse
import json
import os
import socket
import sys


def serve_request(socket_path, doc):
    """One request/response round trip against a live daemon."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.connect(socket_path)
        s.sendall(json.dumps(doc).encode())
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return json.loads(b"".join(chunks).decode())


def raw_result_texts(response_text):
    """Extract the raw text of every runs[i].result object, in order,
    with string-aware brace matching (the same algorithm the C++ test
    suite uses, so both layers enforce the same bitwise contract)."""
    marker = '"result": {'
    results = []
    pos = 0
    while True:
        pos = response_text.find(marker, pos)
        if pos == -1:
            return results
        start = pos + len(marker) - 1  # at the '{'
        depth = 0
        in_string = False
        i = start
        while i < len(response_text):
            c = response_text[i]
            if in_string:
                if c == "\\":
                    i += 1
                elif c == '"':
                    in_string = False
            elif c == '"':
                in_string = True
            elif c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    results.append(response_text[start:i + 1])
                    break
            i += 1
        else:
            raise ValueError("unbalanced result object")
        pos = i


def run_eviction_mode(args) -> int:
    """Drive a live capped daemon and assert the LRU eviction contract."""
    failed = False

    def check(condition, message):
        nonlocal failed
        if condition:
            print(f"ok   {message}")
        else:
            print(f"FAIL {message}")
            failed = True

    # Submit one job per request so the daemon's access order is
    # exactly our submission order. Distinct seeds give distinct cache
    # keys with identical (tiny) runtimes.
    def job_request(i):
        return {
            "type": "run",
            "jobs": [{
                "label": f"evict-{i}",
                "workload": "KM",
                "scale": 0.01,
                "overrides": {"seed": 90000 + i},
            }],
        }

    keys = []
    for i in range(args.jobs):
        response = serve_request(args.socket, job_request(i))
        check(response.get("type") == "result",
              f"evict-{i}: got a result response")
        if response.get("type") != "result":
            return 1
        run = response["runs"][0]
        check(run["result"]["status"] == "ok", f"evict-{i}: status ok")
        keys.append(run["key"])

    check(len(set(keys)) == len(keys), "every configuration got a "
                                       f"distinct cache key ({len(keys)})")

    stats_doc = serve_request(args.socket, {"type": "stats"})
    stats = stats_doc["cache"]
    on_disk = {
        name[:-len(".json")]: os.path.getsize(
            os.path.join(args.cache_dir, name))
        for name in os.listdir(args.cache_dir)
        if name.endswith(".json")
    }

    check(stats["evictions"] > 0,
          f"cap forced evictions ({stats['evictions']})")
    check(len(on_disk) == stats["diskEntries"],
          f"directory entry count matches stats ({len(on_disk)})")
    check(sum(on_disk.values()) == stats["diskBytes"],
          f"directory byte total matches stats ({stats['diskBytes']})")
    if stats["maxBytes"]:
        check(stats["diskBytes"] <= stats["maxBytes"],
              f"byte cap holds ({stats['diskBytes']} <= "
              f"{stats['maxBytes']})")
    if stats["maxEntries"]:
        check(stats["diskEntries"] <= stats["maxEntries"],
              f"entry cap holds ({stats['diskEntries']} <= "
              f"{stats['maxEntries']})")
        check(stats["memoryEntries"] <= stats["maxEntries"],
              f"entry cap holds in memory ({stats['memoryEntries']} <= "
              f"{stats['maxEntries']})")

    # Pure LRU: the survivors must be exactly the newest tail of the
    # submission order — an eviction policy that skipped an older key
    # or dropped a newer one fails here.
    survivors = [k for k in keys if k in on_disk]
    tail = keys[len(keys) - len(survivors):]
    check(survivors == tail,
          f"survivors are the newest suffix of the access order "
          f"({len(survivors)}/{len(keys)})")
    check(set(on_disk) <= set(keys),
          "no unexplained files in the cache directory")

    # The oldest key was evicted from disk, so it must have left
    # memory too: asking again simulates it once more.
    if keys[0] not in on_disk:
        again = serve_request(args.socket, job_request(0))
        check(again["runs"][0]["cached"] is False,
              "the evicted oldest key comes back uncached")
        check(again["simulations"] == stats_doc["simulations"] + 1,
              f"re-requesting it ran one simulation "
              f"({stats_doc['simulations']} -> {again['simulations']})")
    else:
        check(False, "the oldest key was evicted from disk")

    if args.stats:
        summary = {
            "jobs": args.jobs,
            "keys": keys,
            "survivors": survivors,
            "cache": stats,
        }
        with open(args.stats, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
        print(f"wrote {args.stats}")

    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("cold", nargs="?")
    parser.add_argument("warm", nargs="?")
    parser.add_argument("--stats", help="write a cache-hit summary here")
    parser.add_argument("--eviction", action="store_true",
                        help="drive a live capped daemon and assert "
                             "the LRU eviction contract")
    parser.add_argument("--socket", help="eviction mode: daemon socket")
    parser.add_argument("--cache-dir",
                        help="eviction mode: daemon cache directory")
    parser.add_argument("--jobs", type=int, default=12,
                        help="eviction mode: configurations to submit")
    args = parser.parse_args()

    if args.eviction:
        if not args.socket or not args.cache_dir:
            parser.error("--eviction requires --socket and --cache-dir")
        return run_eviction_mode(args)
    if not args.cold or not args.warm:
        parser.error("COLD_JSON and WARM_JSON are required "
                     "(or use --eviction)")

    with open(args.cold) as f:
        cold_text = f.read()
    with open(args.warm) as f:
        warm_text = f.read()
    cold = json.loads(cold_text)
    warm = json.loads(warm_text)

    failed = False

    def check(condition, message):
        nonlocal failed
        if condition:
            print(f"ok   {message}")
        else:
            print(f"FAIL {message}")
            failed = True

    check(cold.get("type") == "result", "cold response is a result")
    check(warm.get("type") == "result", "warm response is a result")
    if failed:
        print(json.dumps(cold, indent=2)[:2000])
        return 1

    cold_runs = cold["runs"]
    warm_runs = warm["runs"]
    check(len(cold_runs) == len(warm_runs) and len(cold_runs) >= 8,
          f"batch carries >= 8 configs ({len(cold_runs)})")

    for i, (c, w) in enumerate(zip(cold_runs, warm_runs)):
        label = w.get("label", f"runs[{i}]")
        check(w["result"]["status"] == "ok", f"{label}: status ok")
        check(w["cached"], f"{label}: warm run served from cache")

    check(warm["simulations"] == cold["simulations"],
          f"zero re-simulation on the warm batch "
          f"(simulations stayed at {cold['simulations']})")

    cold_raw = raw_result_texts(cold_text)
    warm_raw = raw_result_texts(warm_text)
    check(len(cold_raw) == len(warm_raw) == len(cold_runs),
          "extracted one raw result per run")
    for i, (c, w) in enumerate(zip(cold_raw, warm_raw)):
        if c != w:
            check(False, f"runs[{i}]: warm result bitwise-identical")
    if cold_raw == warm_raw:
        check(True, f"all {len(cold_raw)} warm results bitwise-identical "
                    "to their cold twins")

    if args.stats:
        hits = warm["cache"]["memoryHits"] + warm["cache"]["diskHits"]
        total = hits + warm["cache"]["misses"]
        summary = {
            "fingerprint": warm["fingerprint"],
            "batchSize": len(warm_runs),
            "coldCache": cold["cache"],
            "warmCache": warm["cache"],
            "simulations": warm["simulations"],
            "cumulativeHitRatio": hits / total if total else 0.0,
            "warmBatchFullyCached": all(r["cached"] for r in warm_runs),
        }
        with open(args.stats, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")
        print(f"wrote {args.stats}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
