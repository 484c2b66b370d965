(** Multicore fan-out over integer task indices.

    This is the stand-in for the paper's 200-node DryadLINQ cluster
    (Appendix C.3): simulations parallelize by mapping per-destination
    computations across workers, each with worker-local scratch, and
    reducing the results. Workers are OCaml 5 domains that claim
    contiguous chunks of the index space off a shared counter; with
    one worker (the default on a single-core host) everything runs in
    the calling domain.

    There is one fan-out, {!map_reduce_dynamic_supervised}. Its results
    are deterministic — bit-identical at every worker count — when the
    tasks publish per-index results (and the caller replays them in
    index order), or when the reduction does not depend on how tasks
    are grouped into accumulators. Every task is folded exactly once,
    retries included.

    Helper domains are spawned once on first parallel use and then
    parked between calls (a persistent bank), so a per-round sweep
    pays a condition-variable wakeup instead of a multi-millisecond
    domain spawn per call. Nested or concurrent calls, which cannot
    lease the bank, fall back to freshly spawned domains. *)

val recommended_workers : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1 (clamped so a
    single-core host still gets one worker). *)

val workers_of_domain_count : int -> int
(** The clamp behind {!recommended_workers}: [max 1 (count - 1)].
    Exposed so the "at least 1" guarantee is testable without
    depending on the host's core count. *)

val default_workers : unit -> int
(** Worker count for components that take no explicit setting: the
    [SBGP_WORKERS] environment variable when it parses as a positive
    integer, else {!recommended_workers}. *)

(** {1 Supervision}

    The paper's cluster treats worker failure as routine (Appendix
    C.3); so do we. Under a supervision policy, an exception raised by
    a task is caught and attributed to the task index that raised
    instead of tearing down the run, and the failed chunk is
    re-executed from a fresh accumulator — spawned retries with
    exponential backoff first, then one final serial attempt in the
    calling domain. Re-execution is invisible to the results: each
    task still reaches the final fold exactly once, and a task that
    publishes a per-index side result overwrites its slot with the
    same value, which deterministic tasks do by construction. *)

type failure = { index : int; attempts : int; error : string }
(** One task slot that kept failing: the raising task index of the
    last attempt, the number of attempts made, and the printed
    exception. *)

exception Supervision_failed of failure list
(** Raised (in the calling domain) when chunks still fail after the
    retry budget; carries every dead chunk, sorted by task index. *)

exception Watchdog_timeout
(** Raised {e inside} a guarded chunk when the watchdog cancelled it;
    callers never see it directly — it surfaces as the [error] string
    of a {!failure} once the retry budget is spent. *)

type supervision

val supervision :
  ?retries:int ->
  ?backoff:float ->
  ?backoff_cap:float ->
  ?jitter_seed:int ->
  ?timeout_ms:int ->
  ?faults:Nsutil.Faults.t ->
  ?on_retry:(attempt:int -> index:int -> error:string -> unit) ->
  unit ->
  supervision
(** A supervision policy: up to [retries] re-attempts per failed chunk
    (default 2) beyond the first; the last allowed attempt always runs
    serially in the calling domain. Before the k-th re-attempt of the
    chunk owning task [index], the retrying domain sleeps a capped
    exponential backoff with deterministic jitter —
    [min backoff_cap (backoff * 2^(k-2)) * (0.5 + 0.5 * u)] with [u] a
    pure hash of [(jitter_seed, k, index)] (defaults: 5ms base, 250ms
    cap, seed 0) — so concurrent retries never synchronize into a
    storm yet replay identically run to run.

    [timeout_ms > 0] arms the watchdog (default off): a monitor thread
    polls per-worker heartbeat words and cancels any worker that makes
    no progress for longer than the timeout; the cancelled chunk
    unwinds cooperatively (at its next task boundary, or immediately
    for the [pool.hang] fault) and re-executes through the ordinary
    retry machinery, preserving bit-identical results. The timeout
    must exceed the worst single-task latency: heartbeats tick once
    per task, so a slow-but-live task is indistinguishable from a
    hang between boundaries.

    [faults] is tripped before every task — the deterministic
    fault-injection hook (sites [pool.task], raising, and [pool.hang],
    stalling until cancelled — or raising immediately when no watchdog
    is armed). [on_retry] observes each re-attempt (logging,
    counters). *)

val no_supervision : supervision
(** Zero retries, no faults, no watchdog: failures raise
    {!Supervision_failed} after the first attempt, with attribution. *)

val backoff_delay : supervision -> attempt:int -> index:int -> float
(** The exact pre-retry sleep (seconds) the policy prescribes for the
    given attempt number and task index — exposed so the
    backoff/jitter schedule is testable. *)

val map_reduce_dynamic_supervised :
  supervision ->
  workers:int ->
  tasks:int ->
  grain:int ->
  init:(unit -> 'acc) ->
  task:('acc -> int -> unit) ->
  combine:('acc -> 'acc -> 'acc) ->
  'acc
(** [map_reduce_dynamic_supervised sv ~workers ~tasks ~grain ~init
    ~task ~combine] runs [task acc i] once for every [i] in
    [0 .. tasks-1] under the policy [sv], and returns the worker
    accumulators (each from [init]) combined with [combine].

    Up to [workers] workers (at most one per chunk) repeatedly claim
    the next [grain]-sized contiguous chunk off a shared atomic
    counter, so one heavy-tailed task — a destination with many
    admitted candidate probes, say — delays only the worker that drew
    it. Which worker runs which chunk is {e nondeterministic}, so the
    result is deterministic only when the tasks publish per-index
    results keyed by [i] (the accumulator serving as worker-local
    scratch, as in the engine and the statics store), or when the
    reduction does not depend on how tasks are grouped into
    accumulators. With a single worker — [workers = 1], or a single
    chunk — the claim loop runs in the calling domain, leasing no bank
    and spawning no domain, and a fault-free run is a serial fold in
    ascending index order. [tasks <= 0] returns [init ()] without
    calling [task].

    Each task reaches the final fold exactly once, retries included:
    when a chunk raises, the worker retires its accumulator (which
    holds the chunk's prefix) and re-runs the chunks it had already
    folded into a fresh one, and the failed chunk re-executes into
    its own accumulator, appended after the worker accumulators in the
    final fold. Failures surviving the budget raise
    {!Supervision_failed}. Under an armed watchdog a cancelled worker
    stops claiming chunks, and the calling domain runs whatever it
    left, so no task index is skipped. An exception escaping [init]
    propagates to the caller after every worker has stopped. *)
