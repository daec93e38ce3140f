#!/usr/bin/env python3
"""vm-serve end-to-end smoke, run by CI and runnable locally:

    python3 scripts/serve_smoke.py [path/to/repro]

Boots the daemon on an ephemeral port, submits a 4-point sweep,
SIGTERMs it mid-run (graceful drain must exit 0), restarts with
--resume, and asserts the healed results are bit-identical to an
uninterrupted run. The uninterrupted reference run is watched over the
live `watch` stream (docs/live.md): progress frames must advance
monotonically, end in a terminal `done` frame, and — because the
resumed run was unwatched — the existing bit-identity assert doubles as
proof that watching never perturbs results. Then boots a daemon with a
supervised worker subprocess (--workers 1), SIGKILLs the worker
mid-job, and asserts the watch stream carries the `worker_crashed`
frame while the daemon stays healthy and the job's results come out
byte-identical anyway (the supervisor restarts the worker and
re-dispatches).

Finally the fleet phase (docs/fleet.md): a 12-point sweep runs once
through `repro explore --jobs 1` as the reference, once through
`repro fleet --spawn 1`, and once through `repro fleet --spawn 3`
where one backend is SIGKILLed mid-sweep (the fleet's watch proxy
reports the first completed point, so the kill provably lands with
work still pending). All three must produce byte-identical CSVs and
journals, the killed run must exit 0, and its event stream must record
the `backend_evicted`. The integrity phase (docs/robustness.md) then
re-runs the sweep across three daemons where one *lies* about its
results (`--chaos lie@0`): full audit sampling must quarantine it with
eviction reason `integrity`, the merge must stay byte-identical
anyway, and `repro verify` must pass the honest artifacts offline but
name the exact point and stage when handed a tampered journal.

The elasticity phase exercises the elastic membership layer
(docs/fleet.md): a backend that starts dead is evicted, heals, and
rejoins through probation while a fourth backend joins mid-sweep over
the join/leave/roster control channel — artifacts must stay
byte-identical and the probation/rejoin events must fold into
serve-stats. The final phase SIGKILLs the *coordinator* mid-merge and
restarts it with `--fleet-journal ... --resume`: the resumed run replays
the journaled points and converges to the same bytes.
"""

import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPRO = sys.argv[1] if len(sys.argv) > 1 else "target/release/repro"
SPEC = '[mmu]\nkind = "software-tlb"\ntable = "two-tier"\n'
# 4 points of 2.2 M instructions (about 0.15 s each in a release build):
# run length alone keeps points owed after the first one lands, which is
# the window the SIGTERM and the worker kill below aim at.
SUBMIT = {
    "req": "submit",
    "spec": SPEC,
    "sweep": ["tlb.entries=32,64,128,256"],
    "warmup": 200_000,
    "measure": 2_000_000,
}


def rpc(port, obj, timeout=60):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        f = s.makefile("rw")
        f.write(json.dumps(obj) + "\n")
        f.flush()
        line = f.readline()
    assert line, f"daemon closed the connection on {obj!r}"
    return json.loads(line)


def start(extra_args):
    proc = subprocess.Popen(
        [REPRO, "serve", "--jobs", "1", *extra_args],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()  # the documented port-scrape contract
    assert line.startswith("vm-serve listening on "), repr(line)
    return proc, int(line.rsplit(":", 1)[1])


def watch_stream(port, job="*", timeout=120):
    """Opens a `watch` subscription; returns (socket, file) past the ack."""
    s = socket.create_connection(("127.0.0.1", port), timeout=timeout)
    f = s.makefile("rw")
    f.write(json.dumps({"req": "watch", "job": job}) + "\n")
    f.flush()
    ack = json.loads(f.readline())
    assert ack["ok"] and ack["watching"] == job, ack
    return s, f


def collect_frames(f, job):
    """Reads frames (keepalive ticks dropped) until `job`'s terminal frame."""
    frames = []
    while True:
        line = f.readline()
        assert line, "watch stream ended before the job's terminal frame"
        frame = json.loads(line)
        if frame["frame"] == "tick":
            continue
        frames.append(frame)
        if frame["frame"] == "done" and frame.get("job") == job:
            return frames


def wait_done(port, job):
    for _ in range(6000):
        r = rpc(port, {"req": "status", "job": job})
        if r["state"] == "done":
            return
        assert r["state"] in ("queued", "running"), r
        time.sleep(0.01)
    raise SystemExit(f"job {job} never finished")


def run_to_completion(extra_args, submit, watch=False):
    proc, port = start(extra_args)
    watcher = watch_stream(port) if watch else None  # subscribe pre-submit
    if submit:
        r = rpc(port, SUBMIT)
        assert r["ok"] and r["job"] == 1, r
    frames = []
    if watcher:
        ws, wf = watcher
        frames = collect_frames(wf, 1)
        ws.close()
    wait_done(port, 1)
    result = rpc(port, {"req": "result", "job": 1})
    assert result["ok"] and result["state"] == "done", result
    rpc(port, {"req": "drain"})
    assert proc.wait(timeout=60) == 0, "drain must exit 0"
    return result, frames


state = tempfile.mkdtemp(prefix="vm-serve-smoke-")
events = os.path.join(state, "events.jsonl")

# Lifetime 1: submit, wait for the first journaled point, kill -TERM.
proc, port = start(["--state-dir", state, "--events", events])
r = rpc(port, SUBMIT)
assert r["ok"] and r["job"] == 1 and r["points"] == 4, r
for _ in range(6000):
    if rpc(port, {"req": "status", "job": 1})["done"] >= 1:
        break
    time.sleep(0.01)
proc.send_signal(signal.SIGTERM)
assert proc.wait(timeout=60) == 0, "SIGTERM drain must exit 0"

# Lifetime 2: restart with --resume; the job heals from its journal.
resumed, _ = run_to_completion(
    ["--state-dir", state, "--resume", "--events", events], submit=False
)
assert resumed["resumed"] >= 1, resumed
assert resumed["failures"] == [], resumed

# Reference: the same submission, uninterrupted, in a fresh daemon —
# watched live, so the bit-identity assert below also proves a watch
# subscriber never perturbs results (the resumed run was unwatched).
reference, frames = run_to_completion([], submit=True, watch=True)
assert json.dumps(resumed["results"], sort_keys=True) == json.dumps(
    reference["results"], sort_keys=True
), "watched results are not bit-identical to the unwatched resumed run"

# The stream brackets the job (admitted ... done) and progress frames
# advance monotonically through the sweep.
assert frames[0]["frame"] == "admitted" and frames[0]["job"] == 1, frames[0]
assert frames[-1]["frame"] == "done" and frames[-1]["state"] == "done", frames[-1]
assert frames[-1]["points"] == 4 and frames[-1]["failed"] == 0, frames[-1]
progress = [f for f in frames if f["frame"] == "progress"]
assert len(progress) >= 3, f"want >= 3 progress checkpoints, got {len(progress)}"
overall = [
    f["done"] * f["instrs_total"] + min(f["instrs"], f["instrs_total"])
    for f in progress
]
assert all(a < b for a, b in zip(overall, overall[1:])), overall
percents = [f["percent"] for f in progress]
assert all(a <= b for a, b in zip(percents, percents[1:])), percents
assert all(0.0 <= p <= 100.0 for p in percents), percents

# The event stream spans both lifetimes and folds into a report.
report = subprocess.run(
    [REPRO, "serve-stats", events], capture_output=True, text=True, check=True
)
assert "admitted 1" in report.stdout, report.stdout


# Lifetime 3: a supervised worker subprocess gets SIGKILLed mid-job.
# The daemon must stay healthy, the supervisor must restart the worker,
# and the job's merged results must still match the reference byte for
# byte.
def find_worker(daemon_pid):
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/status") as f:
                status = f.read()
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmdline = f.read().split(b"\0")
        except OSError:
            continue
        ppid = next(
            (int(l.split()[1]) for l in status.splitlines() if l.startswith("PPid:")),
            None,
        )
        if ppid == daemon_pid and b"worker" in cmdline:
            return int(pid)
    return None


proc, port = start(["--workers", "1"])
ws3, wf3 = watch_stream(port)  # the crash must be visible live
r = rpc(port, SUBMIT)
assert r["ok"] and r["job"] == 1, r
for _ in range(6000):  # a finished point proves a live, warmed-up worker
    if rpc(port, {"req": "status", "job": 1})["done"] >= 1:
        break
    time.sleep(0.01)
worker = find_worker(proc.pid)
assert worker is not None, "no worker subprocess found under the daemon"
os.kill(worker, signal.SIGKILL)
crash_frames = collect_frames(wf3, 1)  # stops at the job's done frame
ws3.close()
worker_kinds = {f["kind"] for f in crash_frames if f["frame"] == "worker"}
assert "worker_crashed" in worker_kinds, (
    f"the SIGKILL must surface as a worker_crashed frame before the job "
    f"finishes; saw {sorted(worker_kinds)}"
)
wait_done(port, 1)
health = rpc(port, {"req": "health"})
assert health["state"] == "serving" and health["worker_processes"] == 1, health
survived = rpc(port, {"req": "result", "job": 1})
assert survived["ok"] and survived["failures"] == [], survived
rpc(port, {"req": "drain"})
assert proc.wait(timeout=60) == 0, "drain after a worker kill must exit 0"
assert json.dumps(survived["results"], sort_keys=True) == json.dumps(
    reference["results"], sort_keys=True
), "results after a SIGKILLed worker are not bit-identical"


# Fleet phase: the same sweep sharded across daemons must merge back
# byte-identically to a single-node run — including when one of three
# backends is SIGKILLed while points are still pending.
FLEET_SWEEP = ["--sweep", "tlb.entries=16,32,64,128", "--sweep", "cache.l1=4K,8K,16K"]
spec_path = os.path.join(state, "smoke.toml")
with open(spec_path, "w") as f:
    f.write(SPEC)


def artifacts(tag):
    return os.path.join(state, f"{tag}.journal"), os.path.join(state, tag)


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


ref_journal, ref_out = artifacts("ref")
subprocess.run(
    [REPRO, "explore", spec_path, *FLEET_SWEEP, "--quick", "--jobs", "1",
     "--journal", ref_journal, "--out", ref_out, "-q"],
    check=True, stdout=subprocess.DEVNULL,
)

one_journal, one_out = artifacts("fleet1")
subprocess.run(
    [REPRO, "fleet", spec_path, *FLEET_SWEEP, "--quick", "--spawn", "1",
     "--journal", one_journal, "--out", one_out, "-q"],
    check=True, stdout=subprocess.DEVNULL,
)

three_journal, three_out = artifacts("fleet3")
fleet_events = os.path.join(state, "fleet-events.jsonl")
fleet = subprocess.Popen(
    [REPRO, "fleet", spec_path, *FLEET_SWEEP, "--quick", "--spawn", "3",
     "--evict-after", "1", "--watch-addr", "127.0.0.1:0",
     "--journal", three_journal, "--out", three_out,
     "--events", fleet_events, "-q"],
    stdout=subprocess.PIPE, text=True,
)
pids = {}
watch_port = None
while watch_port is None:  # the documented startup contract, in order
    line = fleet.stdout.readline()
    if line.startswith("vm-fleet backend "):
        _, _, bid, _, pid, _, _ = line.split()
        pids[int(bid)] = int(pid)
    elif line.startswith("vm-fleet watching on "):
        watch_port = int(line.rsplit(":", 1)[1])
    else:
        raise SystemExit(f"unexpected fleet startup line: {line!r}")
assert sorted(pids) == [0, 1, 2], pids

# Subscribe to the fleet's aggregated watch stream and wait for the
# first completed point: killing after it provably lands mid-sweep
# (11 of 12 points still owed) on a backend that was doing real work.
fs, ff = watch_stream(watch_port)
victim = None
while victim is None:
    frame = json.loads(ff.readline())
    if frame.get("frame") == "done":
        victim = frame["backend"]
fs.close()
os.kill(pids[victim], signal.SIGKILL)
fleet.stdout.read()  # drain the results table
assert fleet.wait(timeout=300) == 0, "a SIGKILLed backend must not fail the run"

for tag, (journal, out) in (("fleet1", (one_journal, one_out)),
                            ("fleet3", (three_journal, three_out))):
    assert read_bytes(journal) == read_bytes(ref_journal), f"{tag}: journal drifted"
    for csv in os.listdir(ref_out):
        assert read_bytes(os.path.join(out, csv)) == read_bytes(
            os.path.join(ref_out, csv)
        ), f"{tag}: {csv} drifted"

kinds = [json.loads(l).get("ev") for l in open(fleet_events)]
assert "backend_evicted" in kinds, kinds
assert "fleet_merged" in kinds, kinds
fleet_report = subprocess.run(
    [REPRO, "serve-stats", fleet_events], capture_output=True, text=True, check=True
)
assert "1 backend eviction(s)" in fleet_report.stdout, fleet_report.stdout


# Integrity phase (docs/robustness.md, Result integrity): the same
# 12-point sweep runs across three daemons, one of which *lies* —
# `--chaos lie@0` perturbs every result one ulp after simulating
# honestly, then signs the lie with a valid attestation. Only
# cross-backend comparison can catch it: with --audit-rate 1.0 every
# point is re-executed on a second backend, the divergence is charged
# to the lying daemon by 2-of-3 quorum, it is quarantined (eviction
# reason `integrity`), and the merged artifacts must still come out
# byte-identical to the honest single-node reference. Afterwards
# `repro verify` re-checks the artifacts offline — and must name the
# exact point and stage when handed a tampered journal.
SERVE_HEADROOM = ["--queue", "64", "--degrade-depth", "64"]
int_daemons = []
int_ports = []
for extra in ([], [], ["--chaos", "lie@0", "--chaos-seed", "7"]):
    d, p = start([*SERVE_HEADROOM, *extra])
    int_daemons.append(d)
    int_ports.append(p)

int_journal, int_out = artifacts("integrity")
int_events = os.path.join(state, "integrity-events.jsonl")
subprocess.run(
    [REPRO, "fleet", spec_path, *FLEET_SWEEP, "--quick",
     *(a for p in int_ports for a in ("--backend", f"127.0.0.1:{p}")),
     "--audit-rate", "1.0",
     "--journal", int_journal, "--out", int_out,
     "--events", int_events, "-q"],
    check=True, stdout=subprocess.DEVNULL,
)

int_lines = [json.loads(l) for l in open(int_events)]
ikinds = [l.get("ev") for l in int_lines]
for needed in ("audit_failed", "backend_quarantined", "backend_evicted",
               "fleet_merged"):
    assert needed in ikinds, (needed, ikinds)
quarantined = [l["backend"] for l in int_lines if l.get("ev") == "backend_quarantined"]
assert quarantined == [2], f"the lying backend must be the one quarantined: {quarantined}"
evictions = [l for l in int_lines if l.get("ev") == "backend_evicted"]
assert [e["reason"] for e in evictions] == ["integrity"], evictions

assert read_bytes(int_journal) == read_bytes(ref_journal), "integrity: journal drifted"
for csv in os.listdir(ref_out):
    assert read_bytes(os.path.join(int_out, csv)) == read_bytes(
        os.path.join(ref_out, csv)
    ), f"integrity: {csv} drifted"
int_report = subprocess.run(
    [REPRO, "serve-stats", int_events], capture_output=True, text=True, check=True
)
assert "quarantine(s)" in int_report.stdout, int_report.stdout

for daemon, port in zip(int_daemons, int_ports):
    rpc(port, {"req": "drain"})
    assert daemon.wait(timeout=60) == 0, f"daemon on {port} must drain to exit 0"

# Offline re-verification: the committed artifacts pass end to end...
verified = subprocess.run(
    [REPRO, "verify", os.path.join(int_out, "explore.csv"),
     "--journal", int_journal, "--spec", spec_path],
    capture_output=True, text=True, check=True,
)
assert "verified 12 point(s)" in verified.stdout, verified.stdout

# ... and a single flipped attestation digit is caught by name.
tampered = os.path.join(state, "tampered.journal")
text = open(int_journal).read()
marker = '"att":"'
at = text.index(marker) + len(marker)
text = text[:at] + ("1" if text[at] != "1" else "2") + text[at + 1:]
with open(tampered, "w") as f:
    f.write(text)
caught = subprocess.run(
    [REPRO, "verify", os.path.join(int_out, "explore.csv"),
     "--journal", tampered, "--spec", spec_path],
    capture_output=True, text=True,
)
assert caught.returncode != 0, "a tampered journal must fail verification"
assert "[attestation]" in caught.stderr, caught.stderr


# Elasticity phase (docs/fleet.md, Elasticity): a fleet whose membership
# changes mid-run — one backend starts dead, is evicted, heals, and
# rejoins through probation; a fourth backend joins over the control
# channel — must still merge byte-identically to a single-node run at
# the same scale. Default (non-quick) scale keeps the run long enough
# that every membership transition provably lands mid-sweep.
E_SWEEP = ["--sweep", "tlb.entries=16,32,64,128",
           "--sweep", "cache.l1=4K,8K,16K",
           "--sweep", "mmu.table=two-tier,hashed"]

eref_journal, eref_out = artifacts("eref")
subprocess.run(
    [REPRO, "explore", spec_path, *E_SWEEP, "--jobs", "1",
     "--journal", eref_journal, "--out", eref_out, "-q"],
    check=True, stdout=subprocess.DEVNULL,
)

daemon_a, port_a = start(SERVE_HEADROOM)
daemon_b, port_b = start(SERVE_HEADROOM)

# Reserve a port for backend C but leave it dead: the health gate must
# evict it, probation must pick it back up once a daemon appears there.
with socket.socket() as s:
    s.bind(("127.0.0.1", 0))
    port_c = s.getsockname()[1]

# The elastic fleet launches with the dead backend as its ONLY member,
# so the run cannot outpace the choreography below: no work can start
# until C heals, and the join lands while C still has points pending.
e1_journal, e1_out = artifacts("elastic")
e1_events = os.path.join(state, "elastic-events.jsonl")
elastic = subprocess.Popen(
    [REPRO, "fleet", spec_path, *E_SWEEP,
     "--backend", f"127.0.0.1:{port_c}",
     "--join-addr", "127.0.0.1:0", "--probation-ms", "500",
     "--journal", e1_journal, "--out", e1_out, "--events", e1_events, "-q"],
    stdout=subprocess.PIPE, text=True,
)
line = elastic.stdout.readline()  # the documented control-scrape contract
assert line.startswith("vm-fleet control on "), repr(line)
control_port = int(line.rsplit(":", 1)[1])


def roster_slot(slot):
    r = rpc(control_port, {"req": "roster"})
    assert r["ok"], r
    return r["slots"][slot] if slot < len(r["slots"]) else None


def await_slot_state(slot, states, timeout=30):
    deadline = time.time() + timeout
    while time.time() < deadline:
        row = roster_slot(slot)
        if row is not None and row["state"] in states:
            return row
        time.sleep(0.02)
    raise SystemExit(f"slot {slot} never reached {states}")


# The dead backend must leave rotation for probation, not kill the
# run: a probation slot still counts as able to return, so the fleet
# idles instead of declaring itself stuck.
await_slot_state(0, ("probation", "probing"))

# Backend C "heals": a daemon comes up on the reserved port, and the
# next probation probe must re-admit the slot — which, alone in the
# fleet, then starts completing points.
daemon_c, _ = start(["--port", str(port_c), *SERVE_HEADROOM])
healed = await_slot_state(0, ("active",))
assert healed["state"] == "active", healed

# Join daemon A while the healed slot still has most of the grid
# pending; the joined slot receives only still-pending points
# (tests/fleet_elastic.rs pins the property; this proves the verb).
joined = rpc(control_port, {"req": "join", "addr": f"127.0.0.1:{port_a}"})
assert joined["ok"] and joined["slot"] == 1, joined
assert joined["pending"] >= 1, joined

elastic.stdout.read()  # drain the results table
assert elastic.wait(timeout=600) == 0, "the elastic run must exit 0"

assert read_bytes(e1_journal) == read_bytes(eref_journal), "elastic: journal drifted"
for csv in os.listdir(eref_out):
    assert read_bytes(os.path.join(e1_out, csv)) == read_bytes(
        os.path.join(eref_out, csv)
    ), f"elastic: {csv} drifted"

ekinds = [json.loads(l).get("ev") for l in open(e1_events)]
for needed in ("backend_evicted", "backend_probation", "backend_rejoined",
               "backend_recovered", "backend_joined", "fleet_merged"):
    assert needed in ekinds, (needed, ekinds)
elastic_report = subprocess.run(
    [REPRO, "serve-stats", e1_events], capture_output=True, text=True, check=True
)
assert "1 joined" in elastic_report.stdout, elastic_report.stdout
assert "1 rejoined" in elastic_report.stdout, elastic_report.stdout
assert "health ×" in elastic_report.stdout, elastic_report.stdout


# Coordinator crash-resume phase (docs/fleet.md, Coordinator resume):
# SIGKILL the *coordinator* mid-merge — the harshest stop — and restart
# it with --resume against the same (surviving) daemons. The resumed
# run must exit 0, replay the journaled points, and produce artifacts
# byte-identical to the uninterrupted single-node reference.
e2_journal, e2_out = artifacts("resumefleet")
fj = os.path.join(state, "fleet.journal")
crash = subprocess.Popen(
    [REPRO, "fleet", spec_path, *E_SWEEP,
     "--backend", f"127.0.0.1:{port_a}", "--backend", f"127.0.0.1:{port_b}",
     "--fleet-journal", fj,
     "--journal", e2_journal, "--out", e2_out, "-q"],
    stdout=subprocess.DEVNULL,
)
for _ in range(6000):  # >= 2 journaled payloads prove a mid-run kill
    try:
        done_lines = sum(
            1 for l in open(fj) if '"j":"point"' in l and '"status":"done"' in l
        )
    except OSError:
        done_lines = 0
    if done_lines >= 2:
        break
    time.sleep(0.01)
else:
    raise SystemExit("fleet journal never accumulated two completed points")
crash.send_signal(signal.SIGKILL)
assert crash.wait(timeout=60) == -signal.SIGKILL, "the coordinator must die hard"
assert not os.path.exists(e2_journal), "a killed coordinator must not have merged"

e2_events = os.path.join(state, "resume-events.jsonl")
subprocess.run(
    [REPRO, "fleet", spec_path, *E_SWEEP,
     "--backend", f"127.0.0.1:{port_a}", "--backend", f"127.0.0.1:{port_b}",
     "--fleet-journal", fj, "--resume",
     "--journal", e2_journal, "--out", e2_out, "--events", e2_events, "-q"],
    check=True, stdout=subprocess.DEVNULL,
)
rkinds = [json.loads(l).get("ev") for l in open(e2_events)]
assert "run_resumed" in rkinds, rkinds
assert read_bytes(e2_journal) == read_bytes(eref_journal), "resume: journal drifted"
for csv in os.listdir(eref_out):
    assert read_bytes(os.path.join(e2_out, csv)) == read_bytes(
        os.path.join(eref_out, csv)
    ), f"resume: {csv} drifted"

for daemon, port in ((daemon_a, port_a), (daemon_b, port_b),
                     (daemon_c, port_c)):
    rpc(port, {"req": "drain"})
    assert daemon.wait(timeout=60) == 0, f"daemon on {port} must drain to exit 0"


# Ingest phase (docs/serving.md, Trace ingestion): a binary trace
# travels to the daemon in checksummed chunks. Backpressure sheds
# uploads past the staging watermark while the job path keeps admitting;
# a corrupt chunk is rejected without losing the staged prefix; a
# SIGKILL mid-upload leaves a resumable partial that `repro upload`
# heals into a byte-identical committed trace; and an orphaned partial
# is GC'd on TTL at the next startup.
def fnv1a(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def b64(data):
    import base64

    return base64.b64encode(data).decode()


ingest_state = os.path.join(state, "ingest-state")
ingest_events = os.path.join(state, "ingest-events.jsonl")
trace_bin = os.path.join(state, "smoke.trace")
export = subprocess.run(
    [REPRO, "trace-export", "--out", trace_bin, "--instrs", "30000", "--seed", "9"],
    capture_output=True, text=True, check=True,
)
trace_blob = read_bytes(trace_bin)
assert f"{len(trace_blob)} bytes" in export.stdout, export.stdout
assert f"fnv {fnv1a(trace_blob)}" in export.stdout, export.stdout

CHUNK = 4096
proc, port = start(["--state-dir", ingest_state, "--events", ingest_events,
                    "--staging-watermark", "8K"])
begin = rpc(port, {"req": "upload-begin", "name": "smoke",
                   "bytes": len(trace_blob), "fnv": fnv1a(trace_blob)})
assert begin["ok"] and begin["upload"] == 1, begin
for seq in range(4):  # stage 16K: provably past the 8K watermark
    chunk = trace_blob[seq * CHUNK:(seq + 1) * CHUNK]
    r = rpc(port, {"req": "upload-chunk", "upload": 1, "seq": seq,
                   "fnv": fnv1a(chunk), "data": b64(chunk)})
    assert r["ok"] and r["staged"] == (seq + 1) * CHUNK, r

# A flipped chunk body fails its checksum; the staged prefix survives.
chunk = trace_blob[4 * CHUNK:5 * CHUNK]
flipped = bytes([chunk[0] ^ 1]) + chunk[1:]
bad = rpc(port, {"req": "upload-chunk", "upload": 1, "seq": 4,
                 "fnv": fnv1a(chunk), "data": b64(flipped)})
assert bad["code"] == 400 and "checksum" in bad["error"], bad

# Past the watermark a second upload is backpressured with a retry
# hint — while a job submitted the same instant is admitted and runs to
# completion: ingestion sheds, the job path never blocks.
held = rpc(port, {"req": "upload-begin", "name": "held",
                  "bytes": len(trace_blob), "fnv": fnv1a(trace_blob)})
assert held["code"] == 429 and held["retry_after"] >= 1, held
assert "shed" not in held, held  # backpressure is not a job shed
r = rpc(port, SUBMIT)
assert r["ok"] and r["job"] == 1, r
wait_done(port, 1)

# SIGKILL mid-upload: the fsynced prefix must survive the hard stop.
proc.kill()
assert proc.wait(timeout=60) == -signal.SIGKILL

proc, port = start(["--state-dir", ingest_state, "--resume",
                    "--events", ingest_events])
st = rpc(port, {"req": "upload-status", "name": "smoke"})
assert st["state"] == "staging" and st["next_seq"] == 4, st
assert st["staged"] == 4 * CHUNK, st

# `repro upload` heals the partial: an identical declaration resumes
# from the first missing chunk and commits the exact source bytes.
healed = subprocess.run(
    [REPRO, "upload", "--addr", f"127.0.0.1:{port}", "--name", "smoke",
     "--chunk-bytes", str(CHUNK), trace_bin],
    capture_output=True, text=True, check=True,
)
assert "committed trace `smoke`" in healed.stdout, healed.stdout
committed = read_bytes(os.path.join(ingest_state, "traces", "smoke.trace"))
assert committed == trace_blob, "resumed upload drifted from the source trace"

# The committed trace is a workload: status answers by name, and a
# submit against trace:smoke runs clean. The run fits inside the 30 000
# records; a longer one fails its points as `ingest`.
st = rpc(port, {"req": "upload-status", "name": "smoke"})
assert st["state"] == "committed" and st["workload"] == "trace:smoke", st
r = rpc(port, {"req": "submit",
               "spec": SPEC + '\n[workload]\nname = "trace:smoke"\n',
               "sweep": ["tlb.entries=32,64"], "warmup": 5000, "measure": 20000})
assert r["ok"], r
wait_done(port, r["job"])
trace_job = rpc(port, {"req": "result", "job": r["job"]})
assert trace_job["failures"] == [] and len(trace_job["results"]) == 2, trace_job
assert all(p["user_instrs"] == 20000 for p in trace_job["results"]), trace_job

# Leave an orphaned partial behind, then restart with a 1s TTL: the
# startup sweep reclaims it without touching the committed trace.
ob = rpc(port, {"req": "upload-begin", "name": "orphan",
                "bytes": len(trace_blob), "fnv": fnv1a(trace_blob)})
assert ob["ok"], ob
chunk = trace_blob[:CHUNK]
r = rpc(port, {"req": "upload-chunk", "upload": ob["upload"], "seq": 0,
               "fnv": fnv1a(chunk), "data": b64(chunk)})
assert r["ok"], r
rpc(port, {"req": "drain"})
assert proc.wait(timeout=60) == 0, "drain with a staged partial must exit 0"
time.sleep(1.2)
proc, port = start(["--state-dir", ingest_state, "--resume",
                    "--events", ingest_events, "--upload-ttl-secs", "1"])
gone = rpc(port, {"req": "upload-status", "name": "orphan"})
assert gone["code"] == 404, gone
st = rpc(port, {"req": "upload-status", "name": "smoke"})
assert st["state"] == "committed", st
rpc(port, {"req": "drain"})
assert proc.wait(timeout=60) == 0

ingest_report = subprocess.run(
    [REPRO, "serve-stats", ingest_events], capture_output=True, text=True, check=True
)
assert "3 upload(s) (1 resumed)" in ingest_report.stdout, ingest_report.stdout
assert "1 committed" in ingest_report.stdout, ingest_report.stdout
assert "[400 ×1, 429 ×1]" in ingest_report.stdout, ingest_report.stdout
assert "1 GC'd" in ingest_report.stdout, ingest_report.stdout

shutil.rmtree(state)
print(
    f"serve smoke ok: {len(resumed['results'])} points bit-identical after "
    f"SIGTERM + --resume (seeded {resumed['resumed']} from the journal) "
    f"and after a SIGKILLed worker subprocess; 12-point fleet merge "
    f"byte-identical at 1 and 3 backends (one SIGKILLed mid-sweep and evicted); "
    f"lying backend quarantined for integrity with the merge byte-identical "
    f"and `repro verify` catching a tampered attestation by name; "
    f"24-point elastic fleet byte-identical through a probation rejoin and a "
    f"mid-sweep join; coordinator SIGKILL + --resume byte-identical with "
    f"{done_lines} points replayed from the fleet journal; ingest: uploaded "
    f"trace byte-identical after SIGKILL mid-upload + resume, corrupt chunk "
    f"rejected, backpressured job path stayed live, orphan partial GC'd"
)
