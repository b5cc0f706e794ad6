"""Partitioning-as-a-service: the ``fpart serve`` daemon.

A zero-dependency (stdlib ``http.server`` + ``threading`` +
``multiprocessing``) HTTP/JSON job service over the FPART solve path:

* ``journal``  — append-only write-ahead journal (SIGKILL-safe state);
* ``jobs``     — job specs, the lifecycle state machine, the job table;
* ``queue``    — admission control (bounded queue, per-tenant quotas);
* ``worker``   — the in-worker job runner (checkpoint every iteration);
* ``daemon``   — :class:`PartitionService`: scheduler, retries, recovery;
* ``server``   — the HTTP routes, including chunked-JSONL job streaming,
  ``GET /metrics`` (OpenMetrics) and the JSON access log;
* ``client``   — stdlib client used by the CLI, tests and CI;
* ``top``      — the ``fpart top`` terminal dashboard over /metrics.

See DESIGN.md §10 for the architecture and the recovery proof sketch,
§11 for the span/correlation-id model and the /metrics schema.
"""

from .client import ServeClient, ServeClientError
from .daemon import (
    DEFAULT_RETRY_BACKOFF,
    SERVE_HISTOGRAMS,
    PartitionService,
    ServiceConfig,
    submission_digest,
)
from .jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    TRANSITIONS,
    Job,
    JobError,
    JobSpec,
    JobTable,
)
from .journal import JOURNAL_SCHEMA, Journal, JournalError
from .queue import AdmissionController, AdmissionDecision, TenantPolicy
from .server import (
    ServeHTTPServer,
    attach_access_log,
    make_server,
    serve_forever_in_thread,
)
from .top import discover_endpoint, histogram_quantile, render_top, run_top
from .worker import job_config, run_partition_job

__all__ = [
    "JOURNAL_SCHEMA",
    "Journal",
    "JournalError",
    "JOB_STATES",
    "TERMINAL_STATES",
    "TRANSITIONS",
    "Job",
    "JobError",
    "JobSpec",
    "JobTable",
    "TenantPolicy",
    "AdmissionDecision",
    "AdmissionController",
    "job_config",
    "run_partition_job",
    "ServiceConfig",
    "PartitionService",
    "DEFAULT_RETRY_BACKOFF",
    "submission_digest",
    "ServeClient",
    "ServeClientError",
    "ServeHTTPServer",
    "make_server",
    "serve_forever_in_thread",
    "attach_access_log",
    "SERVE_HISTOGRAMS",
    "discover_endpoint",
    "histogram_quantile",
    "render_top",
    "run_top",
]
