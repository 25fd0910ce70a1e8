//! rvv-serve: a supervised, crash-survivable sweep service.
//!
//! The batch layer runs one sweep and exits; this crate keeps a sweep
//! *service* alive: tenants submit job specs over a minimal HTTP/1.1
//! surface, a durable journal-backed queue holds them, worker threads
//! drain them through the shared [`scanvec::Engine`] with the batch
//! layer's pooling/retry/panic-isolation discipline, and supervision
//! keeps the whole thing honest under faults:
//!
//! * **Durability** — every accepted job is journaled ([`rvv_ckpt::queue`])
//!   *before* the client is acknowledged; `kill -9` at any instant loses
//!   nothing accepted, and a restart with `--resume` replays completed
//!   results verbatim and re-runs pending ones, so sweep digests are
//!   byte-identical to an uninterrupted run.
//! * **Deadlines** — a supervisor thread cancels overdue jobs
//!   cooperatively ([`scanvec::CancelToken`] polled at launch entry and
//!   after each taken jump or branch, the same boundaries in every
//!   execution tier; armed jobs keep the fused tier).
//! * **Bounded everything** — admission control sheds work beyond the
//!   configured queue depth (429 + Retry-After), request heads and bodies
//!   are size-capped, retries are bounded and spaced by deterministic
//!   backoff ([`rvv_batch::BackoffPolicy`]).
//! * **Graceful degradation** — per-configuration circuit breakers
//!   quarantine configurations that repeatedly poison their sessions;
//!   one tenant's pathological config cannot take the service down. A
//!   *storage* breaker does the same for the disk: a failed journal
//!   append flips `/healthz` to `503 storage=degraded` and sheds new
//!   submissions with 503 while in-flight jobs drain — never a panic,
//!   never an acknowledgment without durability.
//! * **Salvage on resume** — a resume over a journal with mid-stream
//!   corruption quarantines the damaged records (surfaced in `/stats`
//!   and a `<journal>.salvage.txt` manifest) and keeps everything after
//!   them; jobs whose records were lost re-run deterministically.
//! * **Graceful shutdown** — SIGTERM (or `POST /shutdown`) stops
//!   admissions, drains in-flight work to the journal, and exits 0.
//!
//! # Endpoints
//!
//! | Method & path          | Meaning                                          |
//! |------------------------|--------------------------------------------------|
//! | `GET /healthz`         | `200 ok` (`503 draining` / `503 storage=degraded`) |
//! | `GET /stats`           | service counters, queue state, engine health     |
//! | `POST /sweeps`         | submit one spec per body line; `202` + ids       |
//! | `POST /jobs`           | alias of `/sweeps`                               |
//! | `GET /jobs/<id>`       | one job's status / stable result line            |
//! | `GET /sweeps/<id>`     | progress, or the stable lines + FNV-1a digest    |
//! | `POST /breakers/reset` | close all circuit breakers                       |
//! | `POST /shutdown`       | begin the graceful drain                         |
//!
//! A job spec is a workload name plus `key=value` fields, e.g.
//! `plus_scan n=1000 vlen=256 lmul=m2 seed=7` — see [`JobSpec`].

#![forbid(unsafe_code)]

pub mod http;
mod server;
mod spec;
mod state;

pub use server::{RunningServer, Server};
pub use spec::{JobSpec, Workload, MAX_N};
pub use state::{
    JobStatus, QueuedJob, ServeCounters, ServeOptions, ServeState, SubmitError, JOURNAL_TAG,
};
