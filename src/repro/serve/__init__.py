"""The one way points run: job document in, stored results out.

Every sweep point and chaos scenario — from ``repro msgrate``, ``repro
campaign`` or a job POSTed to ``repro serve`` — takes the same path
(see ``docs/serving.md``): :func:`expand_job` turns the job document
into points, the :class:`Orchestrator` schedules them (reusing what the
:class:`ResultCache` already holds), :func:`execute_point` runs each,
and the result lands in the cache. :func:`run_local` does that inside
one call; :func:`run_service` keeps it running behind an HTTP API.

- :mod:`repro.serve.protocol` — the worker protocol: length-prefixed
  canonical-JSON job/result/heartbeat frames over the socketpair that
  joins the orchestrator to each worker it forked;
- :mod:`repro.serve.points` — the unit of work: point kinds (msgrate
  sweep point, chaos scenario) and deterministic job expansion;
- :mod:`repro.serve.cache` — the one persistent result store, keyed by
  the canonical (point kind, parameters) JSON under the one version
  string, which embeds the state-tree format version;
- :mod:`repro.serve.orchestrator` — the job queue/scheduler: feeds
  points to socket workers or drains them inline, dedupes in-flight
  keys, serves warm cache hits, re-queues on worker death, resumes from
  its job journal (``jobs.log``, one line per job, read by
  :func:`read_journal`) after its own death;
- :mod:`repro.serve.http` — the HTTP API (``POST /jobs``,
  ``GET /jobs/<id>``, ``.../result``, ``.../trace``);
- :mod:`repro.serve.service`/:mod:`repro.serve.client` — process
  wiring (:func:`run_local`, ``python -m repro serve``) and the blocking
  client used by ``repro submit`` / ``repro jobs``.
"""

from .. import _lazy

#: A process that only submits loads :mod:`.client`; the event loop
#: arrives with :mod:`.orchestrator`, :mod:`.http` or a call into
#: :mod:`.service` that runs a service (docs/serving.md).
__getattr__, __dir__ = _lazy(__name__, {
    ".cache": ("PENDING", "SERVE_CACHE_VERSION", "ResultCache", "cache_key"),
    ".client": ("ServeClient",),
    ".orchestrator": ("Job", "Orchestrator", "PointTask", "read_journal"),
    ".points": ("execute_point", "expand_job", "msgrate_point"),
    ".protocol": ("FrameDecoder", "encode_frame", "write_frame"),
    ".service": ("ServiceHandle", "run_local", "run_service",
                 "spawn_service"),
    ".worker": ("worker_main",),
})

__all__ = [
    "FrameDecoder", "encode_frame", "write_frame",
    "PENDING", "SERVE_CACHE_VERSION", "ResultCache", "cache_key",
    "execute_point", "expand_job", "msgrate_point",
    "Job", "Orchestrator", "PointTask", "read_journal",
    "ServeClient", "ServiceHandle", "run_local", "run_service",
    "spawn_service",
    "worker_main",
]
