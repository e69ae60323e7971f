#!/usr/bin/env python3
"""Chaos harness for apres_serve: hostile-environment scenarios
against a LIVE daemon, driven through the deterministic fault
injection seam (src/common/fault_inject.hpp, armed with
--fault-inject).

Scenarios (each starts its own daemon in a scratch directory):

  enospc    disk full on the cache write path: the daemon degrades
            the disk tier to read-only, keeps serving, and counts
            every failure instead of crashing.
  eio-read  I/O error on the cache read path: degrade to memory-only,
            re-simulate, keep serving.
  kill9     kill -9 mid-entry-write (a sleep fault holds the temp
            file open), plus planted crash artifacts; the restarted
            daemon scrubs them and warm results stay bitwise
            identical to cold ones.
  corrupt   a cached entry is corrupted on disk between restarts; it
            is repaired away, never served, and the re-simulated
            result is bitwise identical to the original.
  overload  a burst against a 1-dispatcher daemon with queue depth 1:
            excess connections get typed {"type":"overloaded"} sheds
            with retryAfterMs, and a backoff client is eventually
            served once the queue drains.

Every scenario also asserts the daemon process never crashed or
wedged: it must still answer ping and exit cleanly on shutdown.

usage: chaos_serve.py [--serve PATH] [--log FILE] [--scenario NAME]
"""

import argparse
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time


LOG_LINES = []


def log(message):
    line = f"[chaos] {message}"
    print(line, flush=True)
    LOG_LINES.append(line)


def serve_request(socket_path, doc, timeout=60.0):
    """One request/response round trip; returns (parsed, raw_text)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(socket_path)
        s.sendall(json.dumps(doc).encode())
        s.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = s.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    raw = b"".join(chunks).decode()
    return json.loads(raw), raw


def raw_result_texts(response_text):
    """Raw text of every runs[i].result object (string-aware brace
    matching — the same bitwise contract as check_serve_cache.py)."""
    marker = '"result": {'
    results = []
    pos = 0
    while True:
        pos = response_text.find(marker, pos)
        if pos == -1:
            return results
        start = pos + len(marker) - 1
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


class ChaosFailure(AssertionError):
    pass


def require(condition, message):
    if condition:
        log(f"ok   {message}")
    else:
        log(f"FAIL {message}")
        raise ChaosFailure(message)


class Daemon:
    """A live apres_serve under test."""

    def __init__(self, serve_bin, scratch, name, extra_args=(),
                 fault_spec=None):
        self.socket_path = os.path.join(scratch, f"{name}.sock")
        self.cache_dir = os.path.join(scratch, "cache")
        args = [serve_bin, "--socket", self.socket_path,
                "--cache-dir", self.cache_dir, "--threads", "1",
                *extra_args]
        if fault_spec:
            args += ["--fault-inject", fault_spec]
        self.proc = subprocess.Popen(
            args, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self._wait_ready()

    def _wait_ready(self, timeout=15.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise ChaosFailure(
                    "daemon died during startup: "
                    + self.proc.stderr.read().decode(errors="replace"))
            try:
                response, _ = serve_request(self.socket_path,
                                            {"type": "ping"}, timeout=2.0)
                if response.get("type") == "pong":
                    return
            except (OSError, json.JSONDecodeError):
                time.sleep(0.05)
        raise ChaosFailure("daemon did not become ready")

    def alive(self):
        return self.proc.poll() is None

    def stats(self):
        response, _ = serve_request(self.socket_path, {"type": "stats"})
        return response

    def shutdown_clean(self, timeout=30.0):
        """The no-crash/no-wedge gate: ping, shutdown, clean exit."""
        require(self.alive(), "daemon process is still alive")
        response, _ = serve_request(self.socket_path, {"type": "ping"})
        require(response.get("type") == "pong",
                "daemon still answers ping")
        response, _ = serve_request(self.socket_path,
                                    {"type": "shutdown"})
        require(response.get("type") == "bye",
                "daemon acknowledged shutdown")
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            raise ChaosFailure("daemon wedged on shutdown")
        require(code == 0, f"daemon exited cleanly (code {code})")

    def kill9(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()


def km_request(label, seed=12345, scale=0.01):
    return {"type": "run",
            "jobs": [{"label": label, "workload": "KM", "scale": scale,
                      "overrides": {"seed": seed}}]}


# --------------------------------------------------------------------
# Scenarios.
# --------------------------------------------------------------------

def scenario_enospc(serve_bin, scratch):
    """Disk full while persisting entries: degrade to read-only."""
    daemon = Daemon(serve_bin, scratch, "enospc",
                    fault_spec="cache.write=enospc@2+")
    response, raw_a = serve_request(daemon.socket_path,
                                    km_request("a", seed=1))
    require(response["runs"][0]["result"]["status"] == "ok",
            "first store (before the disk fills) succeeds")
    response, _ = serve_request(daemon.socket_path,
                                km_request("b", seed=2))
    require(response["runs"][0]["result"]["status"] == "ok",
            "request during ENOSPC still returns a clean result")

    cache = daemon.stats()["cache"]
    require(cache["diskMode"] == "readOnly",
            "disk tier degraded to readOnly")
    require(cache["writeFailures"] >= 1, "write failure was counted")
    require(cache["degradations"] == 1, "exactly one ladder transition")

    response, _ = serve_request(daemon.socket_path,
                                km_request("c", seed=3))
    require(response["runs"][0]["result"]["status"] == "ok",
            "read-only daemon keeps serving new configurations")
    require(daemon.stats()["cache"]["storesSkippedDegraded"] >= 1,
            "skipped stores are counted, not silently dropped")

    # The entry persisted before the failure still serves bitwise.
    response, raw_a2 = serve_request(daemon.socket_path,
                                     km_request("a", seed=1))
    require(response["runs"][0]["cached"],
            "pre-failure entry still answers from cache")
    require(raw_result_texts(raw_a) == raw_result_texts(raw_a2),
            "cached result bitwise-identical under ENOSPC")
    daemon.shutdown_clean()


def scenario_eio_read(serve_bin, scratch):
    """I/O errors reading the disk tier: degrade to memory-only."""
    seeder = Daemon(serve_bin, scratch, "eio_seed")
    _, raw_cold = serve_request(seeder.socket_path,
                                km_request("a", seed=7))
    seeder.shutdown_clean()

    daemon = Daemon(serve_bin, scratch, "eio",
                    fault_spec="cache.read=eio")
    response, raw_warm = serve_request(daemon.socket_path,
                                       km_request("a", seed=7))
    require(response["runs"][0]["result"]["status"] == "ok",
            "unreadable disk tier still produces a clean result")
    require(not response["runs"][0]["cached"],
            "the broken disk entry was not served")
    require(raw_result_texts(raw_cold) == raw_result_texts(raw_warm),
            "re-simulated result bitwise-identical to the cached one")
    cache = daemon.stats()["cache"]
    require(cache["diskMode"] == "memoryOnly",
            "disk tier degraded to memoryOnly")
    daemon.shutdown_clean()


def scenario_kill9(serve_bin, scratch):
    """kill -9 mid-entry-write; the restarted daemon scrubs and the
    warm batch stays bitwise identical."""
    # A sleeping fsync holds the temp file on disk long enough for a
    # deterministic kill-9 "mid-write".
    daemon = Daemon(serve_bin, scratch, "kill9a",
                    fault_spec="cache.fsync=sleep:10000")
    cache_dir = daemon.cache_dir

    def doomed_request():
        try:
            serve_request(daemon.socket_path,
                          km_request("victim", seed=11), timeout=30.0)
        except OSError:
            pass  # the daemon is about to be SIGKILLed mid-response

    worker = threading.Thread(target=doomed_request, daemon=True)
    worker.start()
    deadline = time.monotonic() + 20.0
    tmp_seen = False
    while time.monotonic() < deadline:
        if any(".tmp." in name for name in os.listdir(cache_dir)):
            tmp_seen = True
            break
        time.sleep(0.02)
    require(tmp_seen, "caught the daemon mid-entry-write (temp file)")
    daemon.kill9()
    log("ok   killed daemon with SIGKILL mid-write")
    require(any(".tmp." in n for n in os.listdir(cache_dir)),
            "the crash left an orphaned temp file behind")

    # Plant the other crash-artifact classes next to the real one.
    with open(os.path.join(cache_dir, "feedfacefeedface.json"),
              "w") as f:
        f.write('{"truncated": ')
    open(os.path.join(cache_dir, "0000000000000000.json"), "w").close()

    daemon = Daemon(serve_bin, scratch, "kill9b")
    cache = daemon.stats()["cache"]
    require(cache["scrubOrphanTmps"] >= 1,
            f"scrub removed the orphan temp file "
            f"({cache['scrubOrphanTmps']})")
    require(cache["scrubCorruptEntries"] >= 2,
            f"scrub removed the corrupt/empty entries "
            f"({cache['scrubCorruptEntries']})")
    require(not any(".tmp." in n for n in os.listdir(cache_dir)),
            "no temp files survive the scrub")

    _, raw_cold = serve_request(daemon.socket_path,
                                km_request("victim", seed=11))
    response, raw_warm = serve_request(daemon.socket_path,
                                       km_request("victim", seed=11))
    require(response["runs"][0]["cached"],
            "post-scrub warm request served from cache")
    require(raw_result_texts(raw_cold) == raw_result_texts(raw_warm),
            "post-crash results bitwise-identical cold vs warm")
    daemon.shutdown_clean()


def scenario_corrupt(serve_bin, scratch):
    """A cached entry corrupted on disk is repaired, never served."""
    seeder = Daemon(serve_bin, scratch, "corrupt_seed")
    response, raw_cold = serve_request(seeder.socket_path,
                                       km_request("a", seed=21))
    key = response["runs"][0]["key"]
    seeder.shutdown_clean()

    entry = os.path.join(scratch, "cache", key + ".json")
    with open(entry, "w") as f:
        f.write('{"status": "ok", "half')
    log(f"corrupted cached entry {key}")

    daemon = Daemon(serve_bin, scratch, "corrupt")
    cache = daemon.stats()["cache"]
    require(cache["invalidDiskEntries"] >= 1,
            "corruption was detected and counted")
    response, raw_warm = serve_request(daemon.socket_path,
                                       km_request("a", seed=21))
    require(response["runs"][0]["result"]["status"] == "ok",
            "corrupted entry re-simulated, not served")
    require(not response["runs"][0]["cached"],
            "the corrupt bytes were never spliced into a response")
    require(raw_result_texts(raw_cold) == raw_result_texts(raw_warm),
            "re-simulated result bitwise-identical to the original")
    response, _ = serve_request(daemon.socket_path,
                                km_request("a", seed=21))
    require(response["runs"][0]["cached"],
            "the repaired entry caches normally again")
    daemon.shutdown_clean()


def scenario_overload(serve_bin, scratch):
    """Burst a 1-dispatcher daemon: typed sheds, then recovery."""
    daemon = Daemon(
        serve_bin, scratch, "overload",
        extra_args=["--queue-depth", "1"],
        fault_spec="job.execute=sleep:250")

    results = []
    lock = threading.Lock()

    def client(i):
        response, _ = serve_request(daemon.socket_path,
                                    km_request(f"burst-{i}",
                                               seed=300 + i),
                                    timeout=60.0)
        with lock:
            results.append(response)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    sheds = [r for r in results if r.get("type") == "overloaded"]
    served = [r for r in results if r.get("type") == "result"]
    require(len(sheds) >= 1,
            f"burst produced typed overloaded sheds ({len(sheds)}/8)")
    require(len(served) >= 1,
            f"burst still served some requests ({len(served)}/8)")
    for shed in sheds:
        require(shed.get("reason") == "queueFull",
                "shed reason is queueFull")
        require(shed.get("retryAfterMs", 0) >= 50,
                f"retryAfterMs hint present "
                f"({shed.get('retryAfterMs')})")
    require(daemon.stats()["server"]["shedQueueFull"] >= 1,
            "daemon counted the sheds")

    # A backoff client rides out the storm: retry until served.
    attempts = 0
    while True:
        attempts += 1
        require(attempts <= 50, "backoff client served within budget")
        response, _ = serve_request(daemon.socket_path,
                                    km_request("patient", seed=400))
        if response.get("type") == "result":
            break
        time.sleep(max(response.get("retryAfterMs", 50), 50) / 1000.0)
    log(f"ok   backoff client served after {attempts} attempt(s)")
    daemon.shutdown_clean()


SCENARIOS = {
    "enospc": scenario_enospc,
    "eio-read": scenario_eio_read,
    "kill9": scenario_kill9,
    "corrupt": scenario_corrupt,
    "overload": scenario_overload,
}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--serve",
                        default="build/src/tools/apres_serve",
                        help="path to the apres_serve binary")
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        help="run one scenario (default: all)")
    parser.add_argument("--log", help="also write the chaos log here")
    args = parser.parse_args()

    if not os.path.exists(args.serve):
        print(f"chaos_serve: no such binary: {args.serve}",
              file=sys.stderr)
        return 2

    names = [args.scenario] if args.scenario else sorted(SCENARIOS)
    failures = []
    for name in names:
        scratch = tempfile.mkdtemp(prefix=f"apres_chaos_{name}_")
        log(f"=== scenario {name} (scratch {scratch}) ===")
        try:
            SCENARIOS[name](args.serve, scratch)
            log(f"=== scenario {name}: PASS ===")
        except ChaosFailure as e:
            failures.append(name)
            log(f"=== scenario {name}: FAIL ({e}) ===")
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    if failures:
        log(f"chaos: {len(failures)} scenario(s) failed: "
            + ", ".join(failures))
    else:
        log(f"chaos: all {len(names)} scenario(s) passed")
    if args.log:
        with open(args.log, "w") as f:
            f.write("\n".join(LOG_LINES) + "\n")
        print(f"wrote {args.log}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
