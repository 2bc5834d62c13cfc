"""The traced run: per-layer numbers for one workload and seed.

Nothing in the program is changed to produce them. The ledger reads
what the layers already expose (the protocols' ``trace=`` phase dicts,
the driver's transport counters and caller RTT histograms, each actor's
telemetry served over the ``telemetry`` control) and wraps functions
from outside, where their callers look them up, while the traced window
runs: ``read_protocol``/``write_protocol`` in ``repro.core.client`` (to
hand every ``AsyncBlobClient`` READ and WRITE a ``trace=`` dict),
``repro.net.aio.plan_wire_groups`` (to count and sample the batches the
driver frames), ``RemoteActorDriver._decode_group`` (to sample the reply
bodies the driver decodes) and ``repro.core.protocol.plan_write_tree``
(to time the metadata weave). CPU comes from ``/proc``.

A traced run times two parts of half a round each (``--seconds / 6``)
on one cluster: an untraced part (CPU busy fractions, and the ops/s the
tracing overhead is compared with) and a traced part (everything else).
"""

from __future__ import annotations

import json
import random
import time
from statistics import median

import repro.core.client as client_mod
import repro.core.protocol as protocol_mod
import repro.net.aio as aio_mod
from repro.net.codec import MessageDecoder, decode_body, encode_message
from repro.net.threaded import dest_kind
from repro.net.wire import RemoteActorDriver
from repro.obs.hist import LatencyHistogram, merge_all

import loadgen
from procstat import CpuMeter, native_thread_id

#: batches kept (reservoir) for the codec and planner micro-timings
SAMPLE_BATCHES = 400
#: reply bodies kept (reservoir) per frame class for the decode timings;
#: a data reply of ``scan-1m`` carries up to 1 MB of pages
SAMPLE_REPLIES = 64
#: repeats per micro-timing; the fastest repeat is kept
MICRO_REPEATS = 3
#: ``core.*`` phase medians must sum to the traced latency median within
#: this share (medians of parts need not add up to the median of sums)
PHASE_SUM_TOLERANCE = 0.15

READ_PHASES = (
    ("resolve_ms", "start", "version_resolved"),
    ("descent_ms", "version_resolved", "metadata_read"),
    ("fetch_ms", "metadata_read", "pages_read"),
    ("assemble_ms", "pages_read", "done"),
)
WRITE_PHASES = (
    ("alloc_ms", "start", "providers_allocated"),
    ("store_ms", "providers_allocated", "pages_stored"),
    ("assign_ms", "pages_stored", "version_assigned"),
    ("publish_ms", "version_assigned", "metadata_stored"),
    ("complete_ms", "metadata_stored", "done"),
)
#: per-layer metric -> (actor kind, telemetry method)
SERVICE_METHODS = {
    "providers.get_page_us": ("data", "data.get_page"),
    "providers.put_page_us": ("data", "data.put_page"),
    "providers.get_providers_us": ("pm", "pm.get_providers"),
    "metadata.get_node_us": ("meta", "meta.get_node"),
    "metadata.put_node_us": ("meta", "meta.put_node"),
    "version.resolve_us": ("vm", "vm.resolve_read"),
    "version.assign_us": ("vm", "vm.assign"),
    "version.complete_us": ("vm", "vm.complete"),
}


def frame_class(dest) -> str:
    """``data`` for frames to or from a data provider (they carry the
    pages), ``ctl`` for the vm, pm and metadata frames."""
    return "data" if dest_kind(dest) == "data" else "ctl"


class Reservoir:
    """A uniform sample of at most ``size`` items of a stream."""

    def __init__(self, size: int, rng: random.Random) -> None:
        self.items: list = []
        self.seen = 0
        self._size = size
        self._rng = rng

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self._size:
            self.items.append(item)
        else:
            j = self._rng.randrange(self.seen)
            if j < self._size:
                self.items[j] = item


class BatchRecorder:
    """Counts (and optionally samples and logs) every batch the aio
    driver frames, by wrapping ``plan_wire_groups`` where the driver
    looks it up. Use as a context manager; the original is restored on
    exit."""

    def __init__(self, sample: int = 0, seed: int = 0, log_kinds: bool = False):
        self.sample = Reservoir(sample, random.Random(seed))
        #: per batch, the destination kind of each wire group (log_kinds)
        self.kinds: list[tuple[str, ...]] | None = [] if log_kinds else None

    def _plan(self, calls, aggregate: bool = True):
        groups = self._original(calls, aggregate)
        self.sample.offer(calls)
        if self.kinds is not None:
            self.kinds.append(tuple(dest_kind(g.dest) for g in groups))
        return groups

    def __enter__(self) -> "BatchRecorder":
        self._original = aio_mod.plan_wire_groups
        aio_mod.plan_wire_groups = self._plan
        return self

    def __exit__(self, *exc: object) -> None:
        aio_mod.plan_wire_groups = self._original


class ReplyRecorder:
    """Samples the reply bodies the driver decodes, per frame class, by
    wrapping ``RemoteActorDriver._decode_group`` (the aio driver calls it
    through that class)."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.bodies = {
            "data": Reservoir(SAMPLE_REPLIES, rng),
            "ctl": Reservoir(SAMPLE_REPLIES, rng),
        }

    def __enter__(self) -> "ReplyRecorder":
        original = self._original = RemoteActorDriver.__dict__["_decode_group"]
        decode = original.__func__

        def sampled(group, body):
            if isinstance(body, bytes):
                self.bodies[frame_class(group.dest)].offer(body)
            return decode(group, body)

        RemoteActorDriver._decode_group = staticmethod(sampled)
        return self

    def __exit__(self, *exc: object) -> None:
        RemoteActorDriver._decode_group = self._original


class PhaseTracer:
    """Hands every READ and WRITE an ``AsyncBlobClient`` makes a fresh
    ``trace=`` phase dict, by wrapping the protocol functions where
    ``repro.core.client`` looks them up; the caller finds the dict in
    ``loadgen.PHASES`` after the operation returns."""

    @staticmethod
    def _wrap(original):
        def traced(*args, **kwargs):
            phases: dict = {}
            loadgen.PHASES.set(phases)
            return original(*args, trace=phases, **kwargs)

        return traced

    def __enter__(self) -> "PhaseTracer":
        self._originals = (client_mod.read_protocol, client_mod.write_protocol)
        client_mod.read_protocol = self._wrap(self._originals[0])
        client_mod.write_protocol = self._wrap(self._originals[1])
        return self

    def __exit__(self, *exc: object) -> None:
        client_mod.read_protocol, client_mod.write_protocol = self._originals


class WeaveTimer:
    """Times ``plan_write_tree`` as the WRITE protocol calls it."""

    def __init__(self) -> None:
        self.samples_ns: list[int] = []

    def _timed(self, *args, **kwargs):
        t0 = time.perf_counter_ns()
        nodes = self._original(*args, **kwargs)
        self.samples_ns.append(time.perf_counter_ns() - t0)
        return nodes

    def __enter__(self) -> "WeaveTimer":
        self._original = protocol_mod.plan_write_tree
        protocol_mod.plan_write_tree = self._timed
        return self

    def __exit__(self, *exc: object) -> None:
        protocol_mod.plan_write_tree = self._original


# ---------------------------------------------------------------------------
# snapshots and deltas
# ---------------------------------------------------------------------------


def _hist(wire) -> LatencyHistogram:
    return LatencyHistogram.from_wire(wire) if wire else LatencyHistogram()


def hist_delta(before: LatencyHistogram, after: LatencyHistogram) -> LatencyHistogram:
    """Samples recorded between two snapshots of one histogram."""
    out = LatencyHistogram()
    out.buckets = [b - a for a, b in zip(before.buckets, after.buckets)]
    out.count = after.count - before.count
    out.total = after.total - before.total
    out.min = 0
    out.max = after.max
    return out


def telemetry_snapshot(driver) -> dict:
    """Every remote actor's telemetry reply, keyed by address."""
    return {a: driver.telemetry(a) for a in driver.remote_addresses()}


def snapshot(cluster) -> dict:
    driver = cluster.driver
    caches = [c.cache for c in cluster.clients if c.cache is not None]
    return {
        "transport": driver.transport_stats(),
        "rtt": driver.caller_rtt(),
        "telemetry": telemetry_snapshot(driver),
        "cache": (sum(c.hits for c in caches), sum(c.misses for c in caches)),
    }


def _kind_rpcs(before: dict, after: dict, kind: str) -> int:
    return sum(
        after[a]["wire_rpcs"] - before[a]["wire_rpcs"]
        for a in after
        if dest_kind(a) == kind
    )


def _kind_service(before: dict, after: dict, kind: str, method: str | None) -> LatencyHistogram:
    """Served service-time samples of one actor kind over the window
    (one method, or every method when ``method`` is None)."""
    parts = []
    for address, reply in after.items():
        if dest_kind(address) != kind:
            continue
        old = before[address]["telemetry"]["methods"]
        for m, wire in reply["telemetry"]["methods"].items():
            if method is None or m == method:
                parts.append(hist_delta(_hist(old.get(m)), _hist(wire)))
    return merge_all(parts)


# ---------------------------------------------------------------------------
# net micro-timings on the workload's own batch shapes
# ---------------------------------------------------------------------------


def _best_ns(fn) -> int:
    best = None
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter_ns()
        fn()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None or dt < best else best
    return best


def _split_and_decode(frame: bytes) -> None:
    """What the client does with a reply frame: split it off the stream,
    then unpickle its body."""
    for _, body in MessageDecoder().feed(frame):
        decode_body(body)


def net_micro(batches: list, replies: dict[str, Reservoir]) -> dict:
    """Median µs of planning one sampled batch; of encoding one of its
    request frames, framed as the aio driver frames them
    (``("rpc", [(method, args), ...])`` per destination); and of
    splitting and decoding one sampled reply frame. Codec timings are
    kept apart for data frames (pages) and the other frames."""
    plan = aio_mod.plan_wire_groups
    plan_ns: list[int] = []
    enc_ns: dict[str, list[int]] = {"data": [], "ctl": []}
    dec_ns: dict[str, list[int]] = {"data": [], "ctl": []}
    for calls in batches:
        plan_ns.append(_best_ns(lambda: plan(calls)))
        for group in plan(calls):
            envelope = ("rpc", [(c.method, c.args) for c in group.calls])
            enc_ns[frame_class(group.dest)].append(
                _best_ns(lambda: encode_message(1, envelope))
            )
    for cls, sample in replies.items():
        for body in sample.items:
            frame = encode_message(1, decode_body(body))
            dec_ns[cls].append(_best_ns(lambda: _split_and_decode(frame)))
    out = {"net.plan_groups_us": median(plan_ns) / 1e3}
    for cls in ("data", "ctl"):
        out[f"net.encode_us.{cls}"] = median(enc_ns[cls]) / 1e3
        out[f"net.decode_us.{cls}"] = median(dec_ns[cls]) / 1e3
    return out


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------


def _phases(dicts: list[dict], spec) -> dict[str, float]:
    return {
        name: median([d[end] - d[start] for d in dicts]) * 1e3
        for name, start, end in spec
    }


def layer_metrics(
    untraced, traced, before, after, recorder, replies, weave
) -> dict:
    m: dict[str, float] = {}
    read_ph = _phases(traced.read_phases, READ_PHASES)
    write_ph = _phases(traced.write_phases, WRITE_PHASES)
    m.update({f"core.read.{k}": v for k, v in read_ph.items()})
    m.update({f"core.write.{k}": v for k, v in write_ph.items()})

    ops = traced.attempted
    tb, ta = before["telemetry"], after["telemetry"]
    batches = after["transport"]["batches"] - before["transport"]["batches"]
    rpcs = (
        after["transport"]["queue_submissions"]
        - before["transport"]["queue_submissions"]
    )
    served_rpcs = sum(ta[a]["wire_rpcs"] - tb[a]["wire_rpcs"] for a in ta)
    served_calls = sum(ta[a]["sub_calls"] - tb[a]["sub_calls"] for a in ta)
    m["net.batches_per_op"] = batches / ops
    m["net.rpcs_per_op"] = rpcs / ops
    m["net.calls_per_rpc"] = served_calls / served_rpcs
    rtt = {
        k: hist_delta(before["rtt"].get(k, LatencyHistogram()), h)
        for k, h in after["rtt"].items()
    }
    for kind in ("vm", "pm", "data", "meta"):
        m[f"net.rtt_p50_ms.{kind}"] = rtt[kind].quantile(0.5) / 1e6
    for kind in ("data", "meta"):
        service = _kind_service(tb, ta, kind, None).total
        served = _kind_rpcs(tb, ta, kind)
        m[f"net.wait_ms_per_rpc.{kind}"] = (
            rtt[kind].mean - service / served
        ) / 1e6
    m.update(net_micro(recorder.sample.items, replies.bodies))

    for name, (kind, method) in SERVICE_METHODS.items():
        m[name] = _kind_service(tb, ta, kind, method).quantile(0.5) / 1e3
    hits = after["cache"][0] - before["cache"][0]
    misses = after["cache"][1] - before["cache"][1]
    m["metadata.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["metadata.nodes_per_read"] = sum(traced.nodes_per_read) / len(traced.nodes_per_read)
    m["metadata.nodes_per_write"] = sum(traced.nodes_per_write) / len(traced.nodes_per_write)
    m["metadata.plan_write_tree_us"] = median(weave.samples_ns) / 1e3

    cpu = untraced.cpu
    wall = cpu["wall"]
    storage = [s for k, s in cpu["agents"].items() if k not in ("vm", "pm")]
    m["cpu.client_loop_busy"] = cpu["loop"] / wall
    m["cpu.agent_busy_max"] = max(storage) / wall
    m["cpu.vm_busy"] = cpu["agents"]["vm"] / wall
    m["cpu.pm_busy"] = cpu["agents"]["pm"] / wall
    m["cpu.client_ms_per_op"] = cpu["client"] * 1e3 / untraced.completed
    m["cpu.agents_ms_per_op"] = (
        sum(cpu["agents"].values()) * 1e3 / untraced.completed
    )

    m["obs.trace_overhead_ratio"] = (traced.completed / traced.elapsed) / (
        untraced.completed / untraced.elapsed
    )
    # 0 when the phase medians add up to the traced latency median
    m["obs.phase_sum_gap.read"] = abs(
        sum(read_ph.values()) / (median(traced.read_lat) * 1e3) - 1.0
    )
    m["obs.phase_sum_gap.write"] = abs(
        sum(write_ph.values()) / (median(traced.write_lat) * 1e3) - 1.0
    )
    return m


UNITS = {
    "core.": "ms",
    "net.rtt_p50_ms.": "ms",
    "net.wait_ms_per_rpc.": "ms",
    "net.batches_per_op": "1/op",
    "net.rpcs_per_op": "1/op",
    "net.calls_per_rpc": "1/rpc",
    "net.": "us",
    "providers.": "us",
    "version.": "us",
    "metadata.get_node_us": "us",
    "metadata.put_node_us": "us",
    "metadata.plan_write_tree_us": "us",
    "metadata.cache_hit_ratio": "ratio",
    "metadata.nodes_per_": "1/op",
    "cpu.client_ms_per_op": "ms/op",
    "cpu.agents_ms_per_op": "ms/op",
    "cpu.": "ratio",
    "obs.": "ratio",
}


def unit_of(name: str) -> str:
    """Longest registered prefix wins."""
    best = max((p for p in UNITS if name.startswith(p)), key=len)
    return UNITS[best]


def traced_run(
    workload, seed: int, seconds: float, host: dict, checks: list[str]
) -> dict:
    """The traced run; ``checks`` are the self-check's findings."""
    half = seconds / (2 * loadgen.ROUNDS)
    timeout = loadgen.WARMUP_S + half + 2 * loadgen.OP_DEADLINE_S
    cluster, _ = loadgen.launch(workload, seed)
    try:
        meter = CpuMeter(native_thread_id("aio-driver"), cluster.agent_pids())
        untraced = cluster.driver.run_async(
            cluster.window(half, tag="untraced", meter=meter),
            timeout=timeout,
        )
        before = snapshot(cluster)
        with (
            PhaseTracer(),
            BatchRecorder(SAMPLE_BATCHES, seed) as recorder,
            ReplyRecorder(seed) as replies,
            WeaveTimer() as weave,
        ):
            traced = cluster.driver.run_async(
                cluster.window(half, tag="traced", meter=meter),
                timeout=timeout,
            )
        after = snapshot(cluster)
        checked, latest = cluster.driver.run_async(cluster.audit(), timeout=300)
    finally:
        cluster.close()
    for op, lat, phases in (
        ("READ", traced.read_lat, traced.read_phases),
        ("WRITE", traced.write_lat, traced.write_phases),
    ):
        if len(phases) != len(lat):
            raise SystemExit(
                f"error: the phase tracer saw {len(phases)} of {len(lat)} "
                f"traced {op}s; AsyncBlobClient no longer calls the protocol "
                "functions it wraps"
            )
    metrics = layer_metrics(
        untraced, traced, before, after, recorder, replies, weave
    )
    problems = list(cluster.corrupt) + checks
    for op in ("read", "write"):
        gap = metrics[f"obs.phase_sum_gap.{op}"]
        if gap > PHASE_SUM_TOLERANCE:
            problems.append(
                f"{op} phase medians miss the traced latency median by "
                f"{gap:.3f} of it (tolerance {PHASE_SUM_TOLERANCE})"
            )
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    host = dict(
        host,
        steal_s=round(untraced.cpu["steal"] + traced.cpu["steal"], 3),
        window_s=round(untraced.elapsed + traced.elapsed, 3),
    )
    print("host " + json.dumps(host))
    print(
        f"workload {workload.name} (traced): untraced ops={untraced.completed} "
        f"traced ops={traced.completed} attempted={attempted} failed={failed} "
        f"audit={checked} pages @ v{latest} corrupt={len(cluster.corrupt)} "
        f"self-check={'ok' if not checks else 'FAILED'}"
    )
    for name, value in metrics.items():
        print(f"  {name:<32} {value:12.4f} {unit_of(name)}")
    for line in problems[:10] + untraced.errors + traced.errors:
        loadgen.log(line)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }
