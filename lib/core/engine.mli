(** The deployment process (Sections 3.2-3.3).

    Rounds of simultaneous myopic best response: in each round every
    unpinned ISP computes its utility in the current state S and its
    projected utility in (~S_n, S_{-n}) — the state where only it
    flips — and flips iff the projection exceeds (1 + θ) times its
    current utility (Eq. 3). Newly secure ISPs upgrade their stub
    customers to simplex S*BGP. The process ends at a stable state, on
    a detected oscillation (a repeated deployment state), or at the
    round cap.

    Projection uses the Appendix C.4 optimizations: destinations that
    are insecure even after the candidate's flip are skipped; under
    the outgoing model secure ISPs are never candidates (Theorem 6.2);
    and a (candidate, destination) pair is only recomputed when the
    flip can actually alter that destination's routing tree. *)

type round_record = {
  round : int;  (** 1-based *)
  utilities : float array;  (** every node's utility in the state at round start *)
  projected : float array;
      (** projected utility per node; equals [utilities] for
          non-candidates *)
  turned_on : int list;  (** ISPs that deployed at the end of this round *)
  turned_off : int list;
  secure_as : int;  (** counts after the round's flips *)
  secure_isp : int;
  secure_stub : int;
}

type termination = Stable | Oscillation of { first_round : int } | Max_rounds

type result = {
  baseline : float array;
      (** per-node utility before deployment began (nobody secure) *)
  initial_secure_as : int;
  initial_secure_isp : int;
  rounds : round_record list;  (** chronological *)
  final : State.t;
  termination : termination;
  dest_recomputed : int;
      (** across all rounds, destinations whose routing forest was
          recomputed (cross-round cache misses) *)
  dest_reused : int;  (** destinations served from the cross-round cache *)
  statics_hits : int;
      (** statics-store lookups served from cache during this run.
          Unlike every other field, the three statics counters are
          diagnostics: they depend on the store's byte budget and are
          best-effort under concurrent workers, so equal runs may
          report (slightly) different values. *)
  statics_misses : int;  (** statics-store recomputes (incl. the initial fill) *)
  statics_evictions : int;  (** statics entries evicted to stay in budget *)
  demotions : int;
      (** destinations the degradation ladder pinned to the full
          flip/statics kernels during this process's run — after
          repeated supervision failure of their sweep chunk, or after
          their statics record failed the checkpoint-boundary
          {!Bgp.Route_static.check_info} validation. Always [0] when
          [Config.degrade] is off (those conditions raise instead).
          Diagnostics like the statics counters: demotions change
          robustness, never results (the full kernels are the
          bit-identical reference). *)
  checkpoint_skips : int;
      (** checkpoint writes that failed with an I/O error and were
          skipped under [Config.degrade] (the previous snapshot
          survives); [0] otherwise — without degradation the error
          propagates. *)
  statics_store : Bgp.Route_static.t;
      (** the store the run actually used: the caller's, except on a
          snapshot-restored resume, where it is the store rebuilt from
          the checkpoint — callers that carry the warm store forward
          (the churn runner, across epochs) must take it from here. *)
}

type checkpoint_spec = {
  path : string;  (** snapshot file, atomically replaced *)
  every : int;  (** snapshot every K completed rounds (clamped to >= 1) *)
}

type snapshot_sink = {
  s_every : int;  (** hand progress over every K completed rounds *)
  s_save : round:int -> payload:string -> unit;
      (** receives the serialized engine progress; the sink owns
          framing and persistence. The churn runner wraps the payload
          (plus its epoch cursor) into a [Checkpoint.Churn] frame, so
          one snapshot file covers a whole evolution run, including
          mid-epoch engine state. *)
}

val input_digest :
  Config.t -> Bgp.Route_static.t -> weight:float array -> state:State.t -> string
(** SHA-256 (32 raw bytes) over every run input that determines
    results: the config, the topology, the traffic weights and the
    initial deployment state. Left out, because they never affect
    results: the config's [workers], [retries], [flip_kernel],
    [statics_kernel], [task_timeout_ms] and [degrade], and the
    statics store's byte budget. {!resume} accepts only snapshots
    written under an equal digest. *)

val run :
  ?checkpoint:checkpoint_spec ->
  ?sink:snapshot_sink ->
  ?faults:Nsutil.Faults.t ->
  Config.t ->
  Bgp.Route_static.t ->
  weight:float array ->
  state:State.t ->
  result
(** Run to termination, mutating and returning [state] as [final].

    The per-round sweep fans destinations out over
    [Config.workers] domains ({!Parallel.Pool}) and reuses each
    destination's routing forest across rounds when no flip could
    have changed it ({!Incremental}). Both are transparent: the
    result is structurally identical — float-for-float — for any
    worker count, because workers compute pure per-destination
    values and all float accumulation happens in one serial pass in
    destination order.

    The sweeps run supervised: a worker exception is contained and
    its chunk retried up to [Config.retries] times (final attempt
    serial in the calling domain); since re-executing a chunk
    recomputes identical per-destination values, contained faults
    never change results. {!Parallel.Pool.Supervision_failed}
    escapes only when a chunk keeps failing beyond the budget.

    [checkpoint] snapshots the engine's complete cross-round memory
    (state, oscillation table, round records, counters, incremental
    cache, {e and} the warm statics store with its hit/miss counters)
    to [path] every [every] completed rounds, whenever another round
    is still coming — see {!Checkpoint} for the file format. [sink]
    receives the same serialized progress on its own cadence, for
    callers (the churn runner) that frame and persist it themselves.

    With [Config.task_timeout_ms > 0] the sweeps also run under the
    {!Parallel.Pool} hang watchdog; with [Config.degrade] the
    degradation ladder turns repeated supervision failures, invalid
    statics records and checkpoint I/O errors into per-destination
    kernel demotions / skipped snapshots (counted in the result)
    instead of exceptions.

    [faults] is the fault-injection plan threaded into the sweeps and
    the checkpoint writer; it defaults to the [SBGP_FAULTS]
    environment variable ({!Nsutil.Faults.of_env}). *)

val resume :
  from:string ->
  ?checkpoint:checkpoint_spec ->
  ?sink:snapshot_sink ->
  ?faults:Nsutil.Faults.t ->
  Config.t ->
  Bgp.Route_static.t ->
  weight:float array ->
  state:State.t ->
  result
(** Continue a checkpointed run from the snapshot at [from] and run
    to termination. The caller passes the same config, statics,
    weights and a freshly created initial [state] — exactly as the
    original {!run} — and the snapshot is validated against their
    {!input_digest} before any of it is trusted: corrupt, truncated
    or config/topology-mismatched files raise {!Checkpoint.Error}
    with the corresponding typed {!Checkpoint.error}, never a crash
    or a silently wrong resume.

    Because the snapshot restores the full cross-round memory —
    including the warm statics store — the result is structurally
    identical — float-for-float, including the cache {e and} statics
    counters — to the uninterrupted run, for any worker count. Only
    version-3 frames load; older ones raise {!Checkpoint.Error}
    [(Unsupported_version _)]. A [Checkpoint.Churn]-kind snapshot is
    rejected with {!Checkpoint.Error} [(Unsupported_kind _)] — resume
    those with the evolution runner. Pass [checkpoint] to keep
    snapshotting the resumed run (possibly to the same path). *)

val resume_of_payload :
  payload:string ->
  ?checkpoint:checkpoint_spec ->
  ?sink:snapshot_sink ->
  ?faults:Nsutil.Faults.t ->
  Config.t ->
  Bgp.Route_static.t ->
  weight:float array ->
  state:State.t ->
  result
(** {!resume} from a progress payload a {!snapshot_sink} captured
    earlier, instead of a framed file. The caller is responsible for
    having authenticated the bytes (the churn runner's frames go
    through {!Checkpoint.load} first): the payload is a [Marshal]
    blob and unmarshaling untrusted bytes is unsafe. *)

val secure_fraction : result -> [ `As | `Isp ] -> float
(** Fraction of ASes (resp. ISPs) secure at termination. *)

val rounds_run : result -> int

val cache_hit_rate : result -> float
(** [dest_reused / (dest_recomputed + dest_reused)]; 0 if no rounds ran. *)
