"""Deployment builders: wire actors, drivers and clients together.

Five deployments mirror the drivers:

- :func:`~repro.deploy.inproc.build_inproc` — everything in one thread;
  the functional substrate for tests, examples and the sky pipeline.
- :func:`~repro.deploy.threaded.build_threaded` — each actor on its own
  service thread (the paper's one-process-per-node layout), real client
  threads; validates concurrency/lock-freedom claims.
- :func:`~repro.deploy.process.build_process` — each provider actor in
  its own OS process (pickle frames over pipes, no shared GIL); the
  real-parallelism deployment whose throughput numbers are meaningful.
- :func:`~repro.deploy.tcp.build_tcp` — provider actors behind node
  agents reached over real TCP connections: the cluster deployment,
  launched as loopback OS processes (CI) or dialed on real hosts. The
  client tier is :class:`~repro.net.aio.AioDriver` — one asyncio event
  loop multiplexing every peer socket — with blocking clients via
  ``dep.client()`` and awaitable ones via ``dep.async_client()``, for
  thousands of concurrent client programs.
- :class:`~repro.deploy.simulated.SimDeployment` — actors on simulated
  cluster nodes with calibrated costs; the benchmark substrate.
"""

from repro.deploy.inproc import InprocDeployment, build_inproc
from repro.deploy.threaded import ThreadedDeployment, build_threaded
from repro.deploy.process import ProcessDeployment, build_process
from repro.deploy.tcp import TcpDeployment, build_tcp
from repro.deploy.simulated import SimClient, SimDeployment

__all__ = [
    "InprocDeployment",
    "build_inproc",
    "ThreadedDeployment",
    "build_threaded",
    "ProcessDeployment",
    "build_process",
    "TcpDeployment",
    "build_tcp",
    "SimDeployment",
    "SimClient",
]
