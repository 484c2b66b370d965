module Graph = Asgraph.Graph
module Csr = Nsutil.Csr
module Route_static = Bgp.Route_static
module Forest = Bgp.Forest
module Pool = Parallel.Pool

(* Observability hooks. Every hook sits behind Nsobs's static
   [enabled] checks and only observes — spans time existing sections,
   counters publish at round or end-of-run granularity — so an
   instrumented run is bit-identical to an uninstrumented one
   (test_obs proves it). *)
let m_rounds =
  lazy (Nsobs.Metrics.counter ~help:"deployment-game rounds executed" "engine_rounds_total")
let m_flips_on =
  lazy
    (Nsobs.Metrics.counter ~help:"candidates that turned secure routing on"
       "engine_flips_on_total")
let m_flips_off =
  lazy
    (Nsobs.Metrics.counter ~help:"candidates that turned secure routing off"
       "engine_flips_off_total")
let m_flips_hist =
  lazy
    (Nsobs.Metrics.histogram ~help:"simultaneous flips per round"
       ~buckets:[| 0.; 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256. |]
       "engine_flips_per_round")
let m_dirty_hist =
  lazy
    (Nsobs.Metrics.histogram
       ~help:"incremental dirty-set size per round (destinations recomputed)"
       ~buckets:[| 0.; 10.; 100.; 1000.; 10000.; 100000. |]
       "engine_dirty_set_size")
let m_round_ms =
  lazy
    (Nsobs.Metrics.histogram ~help:"wall time per round (ms)"
       ~buckets:Nsobs.Metrics.duration_ms_buckets "engine_round_ms")
let m_statics_hits =
  lazy (Nsobs.Metrics.counter ~help:"route-statics store hits" "statics_hit_total")
let m_statics_misses =
  lazy
    (Nsobs.Metrics.counter ~help:"route-statics store misses (rows built)"
       "statics_miss_total")
let m_statics_evictions =
  lazy
    (Nsobs.Metrics.counter ~help:"route-statics rows evicted by the byte budget"
       "statics_eviction_total")
let m_statics_bytes =
  lazy
    (Nsobs.Metrics.gauge ~help:"route-statics bytes cached at end of run"
       "statics_cached_bytes")
let m_dest_recomputed =
  lazy
    (Nsobs.Metrics.counter ~help:"destination forests recomputed"
       "engine_dest_recomputed_total")
let m_dest_reused =
  lazy
    (Nsobs.Metrics.counter ~help:"destination forests served from the incremental cache"
       "engine_dest_reused_total")
let m_demotions =
  lazy
    (Nsobs.Metrics.counter
       ~help:"destinations demoted delta->full by the degradation ladder"
       "engine_demotions_total")
let m_checkpoint_skips =
  lazy
    (Nsobs.Metrics.counter
       ~help:"checkpoint writes skipped on I/O failure under the degradation ladder"
       "engine_checkpoint_skips_total")

(* Per-phase wall-time histograms: observed around the existing trace
   spans, same sites, same guard discipline. One log-scale bucket
   ladder for every phase and the round, so dashboards can overlay
   them and paper-scale rounds do not overflow. *)
let m_probe_ms =
  lazy
    (Nsobs.Metrics.histogram ~help:"flip byte-delta capture per round (ms)"
       ~buckets:Nsobs.Metrics.duration_ms_buckets "engine_probe_ms")
let m_sweep_ms =
  lazy
    (Nsobs.Metrics.histogram
       ~help:"parallel sweep (dirty check + recompute, flip repair) per round (ms)"
       ~buckets:Nsobs.Metrics.duration_ms_buckets "engine_sweep_ms")
let m_reduce_ms =
  lazy
    (Nsobs.Metrics.histogram ~help:"serial deterministic reduction per round (ms)"
       ~buckets:Nsobs.Metrics.duration_ms_buckets "engine_reduce_ms")
let m_statics_build_ms =
  lazy
    (Nsobs.Metrics.histogram ~help:"statics store prefill (ms)"
       ~buckets:Nsobs.Metrics.duration_ms_buckets "statics_build_ms")
let m_current_round =
  lazy
    (Nsobs.Metrics.gauge ~help:"round currently executing" "engine_current_round")

(* Time a section into [h] when metrics are on; otherwise exactly the
   thunk (no clock reads, no lazy forcing). *)
let timed h f =
  if Nsobs.Metrics.enabled () then Nsobs.Metrics.timed (Lazy.force h) f else f ()

type round_record = {
  round : int;
  utilities : float array;
  projected : float array;
  turned_on : int list;
  turned_off : int list;
  secure_as : int;
  secure_isp : int;
  secure_stub : int;
}

type termination = Stable | Oscillation of { first_round : int } | Max_rounds

type result = {
  baseline : float array;
  initial_secure_as : int;
  initial_secure_isp : int;
  rounds : round_record list;
  final : State.t;
  termination : termination;
  dest_recomputed : int;
  dest_reused : int;
  statics_hits : int;
  statics_misses : int;
  statics_evictions : int;
  demotions : int;
  checkpoint_skips : int;
  statics_store : Route_static.t;
}

let sec_of bytes i = Bytes.unsafe_get bytes i = '\001'

(* Bit test over the incremental cache's packed secure-route flags
   ([Incremental.sec_bit], inlined locally: the call would not inline
   across modules on the non-flambda compiler and this runs per tie
   element in the flip probes). *)
let[@inline] bit_get bits i =
  Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* Does node [i]'s tiebreak set offer a fully secure route, per the
   bit-packed forest flags [sec_bits]? Direct offset-range scan over
   the compact tie CSR — this runs per (destination, candidate) pair
   in the flip probes, so it must not allocate. *)
let tie_has_secure (info : Route_static.dest_info) sec_bits i =
  let tie_off = info.Route_static.tie_off in
  let tie = info.Route_static.tie in
  let hi = Nsutil.I32.unsafe_get tie_off (i + 1) in
  let rec loop k =
    k < hi && (bit_get sec_bits (Nsutil.I32.unsafe_get tie k) || loop (k + 1))
  in
  loop (Nsutil.I32.unsafe_get tie_off i)

(* Would flipping candidate [nc] change the routing tree of
   destination [d]? Conservative (may say yes needlessly), never
   wrongly says no; see the C.4 discussion in the interface. Split in
   two stages so the statics record — which a byte-budgeted store may
   have to recompute — is only fetched when the answer actually
   depends on it: [flip_cheap] decides from the graph, the round-start
   participation [secure] and the cached forest bits [sec_bits] alone,
   and returns [`Need_info] only when the tiebreak sets must be
   consulted. *)
let flip_cheap ~g ~secure ~sec_bits ~was_on ~d nc =
  if was_on then begin
    (* Turning off removes only nc's own participation (stub upgrades
       are sticky): routing can change only where nc currently holds
       or offers a fully secure route — including d = nc itself, for
       which sec_bits nc = secure nc = 1. *)
    if sec_of secure d && bit_get sec_bits nc then `Admit else `Skip
  end
  else begin
    let d_gets_secured =
      d = nc || (Graph.is_stub g d && (not (sec_of secure d)) && Csr.mem_row g.providers d nc)
    in
    if not (sec_of secure d || d_gets_secured) then `Skip
    else if d_gets_secured then `Admit
    else `Need_info
  end

(* The [`Need_info] continuation: does the flip reach [d]'s routing
   through a tiebreak set — the candidate's own, or (under the stub
   tiebreak) that of a stub customer the flip newly secures? *)
let flip_with_info ~cfg ~secure ~(info : Route_static.dest_info) ~sec_bits
    ~(stubs : Csr.t) nc =
  tie_has_secure info sec_bits nc
  || cfg.Config.stub_tiebreak
     && begin
          (* [nc]'s stub customers, straight off the CSR row: this
             scan runs per (destination, candidate) pair, so no boxed
             lists or closures. *)
          let off = stubs.Csr.offsets and dat = stubs.Csr.data in
          let hi = Nsutil.I32.unsafe_get off (nc + 1) in
          let rec loop k =
            k < hi
            && ((let s = Nsutil.I32.unsafe_get dat k in
                 (not (sec_of secure s))
                 && Route_static.reachable info s
                 && tie_has_secure info sec_bits s)
               || loop (k + 1))
          in
          loop (Nsutil.I32.unsafe_get off nc)
        end

(* The byte-level effect of flipping one candidate: participation
   bytes after the flip and at round start, for exactly the nodes the
   flip touches (the candidate plus any newly simplex stubs). Workers
   apply/revert these on their local byte copies, so the shared state
   is never mutated during a sweep. *)
type flip_delta = {
  after : (int * char * char) array;
  before : (int * char * char) array;
}

let probe_deltas state ~secure ~use_secp ~was_on candidates_arr =
  let snap nodes =
    Array.map (fun i -> (i, Bytes.get secure i, Bytes.get use_secp i)) nodes
  in
  Array.mapi
    (fun ci nc ->
      if was_on.(ci) then begin
        let nodes = [| nc |] in
        let before = snap nodes in
        State.disable state nc;
        let after = snap nodes in
        ignore (State.enable state nc);
        { after; before }
      end
      else begin
        let added = State.enable state nc in
        let nodes = Array.of_list (nc :: added) in
        let after = snap nodes in
        State.undo_enable state nc ~added;
        let before = snap nodes in
        { after; before }
      end)
    candidates_arr

let apply_delta bytes_sec bytes_secp edits =
  Array.iter
    (fun (i, s, u) ->
      Bytes.set bytes_sec i s;
      Bytes.set bytes_secp i u)
    edits

(* Per-worker sweep workspace. [ws_base] holds the base (round-start)
   forest of destination [ws_have_base], lazily (re)computed — under
   the delta kernel one base compute is amortized over every admitted
   candidate probe of that destination; [ws_flip] is the full kernel's
   probe target; [ws_sec]/[ws_secp] are the worker's private
   participation byte copies the probe deltas are applied to.
   [ws_bd] is the worker's statics builder: a byte-budgeted store
   streams missing records through it ({!Route_static.stream_get})
   with no per-miss allocation; [ws_rs] the incremental cache's
   store scratch; [ws_ci]/[ws_c] collect the destination's admitted
   (candidate, contribution) probes before they are published as one
   compact row. *)
type sweep_ws = {
  ws_base : Forest.scratch;
  ws_flip : Forest.scratch;
  ws_rep : Forest.repairer;
  ws_sec : Bytes.t;
  ws_secp : Bytes.t;
  ws_bd : Route_static.builder;
  ws_rs : Incremental.scratch;
  ws_ci : int array;
  ws_c : float array;
  mutable ws_have_base : int;  (* destination resident in ws_base; -1 = none *)
}

type checkpoint_spec = { path : string; every : int }

(* A checkpoint consumer that frames and persists the payload itself —
   the churn runner wraps engine progress into [Checkpoint.Churn]
   frames together with its epoch cursor, so one file covers the whole
   evolution run. *)
type snapshot_sink = { s_every : int; s_save : round:int -> payload:string -> unit }

(* The full cross-round memory of a run, as checkpointed every K
   rounds: the deployment state (with its mark snapshot), the
   oscillation table in insertion order, the round records and stats
   counters, and the incremental cache's entries. Restoring all of it
   makes a resumed run replay the uninterrupted run bit-for-bit —
   including the cache-hit counters. Serialized with [Marshal]
   (exact for floats/bytes); {!Checkpoint} authenticates the frame
   before any unmarshaling happens. *)
type progress = {
  p_round : int;
  p_state : string;
  p_seen : (int * string) list;
      (** oscillation table, round ascending ({!State.fp_serialize}
          fingerprints — the table never needs more than the
          deployment sets) *)
  p_rounds_rev : round_record list;
  p_recomputed : int;
  p_reused : int;
  p_baseline : float array;
  p_initial_secure_as : int;
  p_initial_secure_isp : int;
  p_inc : string;
  p_statics : string option;
      (** {!Route_static.snapshot} of the warm statics store at
          checkpoint time — resuming restores the store (resident
          records, eviction state {e and} hit/miss counters), so a
          resumed run reports statistics byte-identical to an
          uninterrupted one. *)
  p_statics_base : (int * int * int) option;
      (** (hits, misses, evictions) of the store when the original run
          started — the baseline the run's reported statics deltas are
          taken against, which the restored store's counters alone
          cannot recover. *)
}

(* SHA-256 over every input that determines results: config fields
   (except [workers]/[retries]/[flip_kernel]/[statics_kernel], which
   provably do not affect results — the parity suite holds
   full-vs-delta flip kernels and full-vs-delta statics maintenance
   bit-identical, and the statics byte budget is likewise excluded,
   since a bounded store only trades recompute for memory), topology,
   traffic weights and the initial deployment state. A checkpoint
   resumes only against the digest it was written under. *)
let input_digest (cfg : Config.t) statics ~weight ~state =
  let g = Route_static.graph statics in
  let ctx = Scrypto.Sha256.init () in
  let feed = Scrypto.Sha256.feed ctx in
  let ff x = feed (Printf.sprintf "%Lx;" (Int64.bits_of_float x)) in
  feed "sbgp-engine-ckpt-v1\n";
  ff cfg.theta;
  ff cfg.theta_off;
  feed (Config.utility_model_to_string cfg.model);
  feed (Printf.sprintf ";%b;" cfg.stub_tiebreak);
  feed
    (match cfg.tiebreak with
    | Bgp.Policy.Lowest_id -> "tb:lowest"
    | Bgp.Policy.Hashed seed -> Printf.sprintf "tb:hashed:%d" seed
    | Bgp.Policy.Ranked _ -> "tb:ranked");
  ff cfg.cp_fraction;
  feed
    (Printf.sprintf ";%d;%b;%b;%b;" cfg.max_rounds cfg.allow_turn_off cfg.disable_secp
       cfg.disable_simplex);
  ff cfg.theta_jitter;
  feed (Printf.sprintf "%d\ngraph\n" cfg.jitter_seed);
  feed (Asgraph.Graph_io.to_string g);
  feed "weights\n";
  Array.iter ff weight;
  feed "\nstate\n";
  feed (State.serialize state);
  Scrypto.Sha256.finalize ctx

let run_internal ~checkpoint ~sink ~faults ~digest ~resume_from (cfg : Config.t)
    statics ~weight ~state =
  let g = Route_static.graph statics in
  (* Churn-consistent resume: version-2 snapshots carry the warm
     statics store; rebind [statics] to the restored store so the
     resumed run serves exactly the residency — and reports exactly
     the hit/miss counters — the interrupted run would have. *)
  let statics, statics_restored, resumed_base =
    match resume_from with
    | Some p -> (
        match p.p_statics with
        | Some s -> (Route_static.of_snapshot g s, true, p.p_statics_base)
        | None -> (statics, false, p.p_statics_base))
    | None -> (statics, false, None)
  in
  let n = Graph.n g in
  let tiebreak = cfg.tiebreak in
  let workers = max 1 (min cfg.workers n) in
  (* Supervision for the engine's fan-outs: worker failures retry per
     chunk ([Config.retries], capped-exponential backoff with jitter)
     and degrade to serial re-execution; [Config.task_timeout_ms] arms
     the hang watchdog on top. Re-running a chunk recomputes identical
     per-destination values, so faults never change results. *)
  let sv =
    Pool.supervision ~retries:(max 0 cfg.retries) ~jitter_seed:cfg.jitter_seed
      ~timeout_ms:cfg.task_timeout_ms ?faults ()
  in
  (* Statics hit/miss/eviction counters are reported as per-run
     deltas. They are best-effort under concurrent workers (racy
     increments) and depend on the byte budget — diagnostics, not part
     of the deterministic result. *)
  let stats0 = Route_static.stats statics in
  (* The baseline the result's statics deltas are reported against: on
     a snapshot-restored resume it is the counters the *original* run
     started from, so the resumed result equals the uninterrupted
     one. *)
  let base_hits, base_misses, base_evictions =
    match resumed_base with
    | Some (h, m, e) -> (h, m, e)
    | None ->
        ( stats0.Route_static.hits,
          stats0.Route_static.misses,
          stats0.Route_static.evictions )
  in
  (* The store must serve tie rows sorted under this run's tiebreak
     (dropping stale entries if a previous run used another policy),
     and — when unbounded — be complete before any fan-out: workers
     then only read it. Under a byte budget the prefill is a no-op and
     workers fill their shards lazily through [get]. A snapshot-
     restored store already went through both at the original run's
     start (the digest pins the tiebreak), and re-running the prefill
     would skew the restored hit counters. *)
  if not statics_restored then
    timed m_statics_build_ms (fun () ->
        Nsobs.Trace.span ~cat:"engine" "statics.prefill" (fun () ->
            Route_static.ensure_tiebreak statics cfg.tiebreak;
            Route_static.ensure_all ~workers statics));
  (* Stub customers per ISP, for projection filters; packed into a CSR
     so the per-(destination, candidate) admission scan walks a flat
     row instead of a boxed list. *)
  let stubs =
    let acc = Array.make n [] in
    for i = 0 to n - 1 do
      if Graph.is_isp g i then
        Graph.iter_customers g i (fun c ->
            if Graph.is_stub g c then acc.(i) <- c :: acc.(i))
    done;
    Csr.of_rev_lists acc
  in
  (* Destination-chunk size for the engine's fan-outs: shard-stripe
     batches over the statics store, floored at the gadget-scale grain
     of 8 — a fan-out over at most one chunk runs in the calling
     domain, so gadget-size graphs never wake the worker bank. *)
  let grain = Route_static.batch_grain statics ~workers ~tasks:n in
  (* Baseline: utilities before deployment began (empty state). The
     parallel phase computes per-destination addend streams; the
     serial replay in destination order performs the same float
     additions as a sequential sweep, for any worker count.
     Processed in destination blocks so the transient boxed streams
     of at most one block are live at a time — at paper scale the
     full per-destination set would dwarf the statics store. *)
  let compute_baseline () =
    let zeros = Bytes.make n '\000' in
    let into = Array.make n 0.0 in
    let block = max 1 (min n 4096) in
    let pairs = Array.make block ([||], [||]) in
    let lo = ref 0 in
    while !lo < n do
      let len = min block (n - !lo) in
      let base = !lo in
      ignore
        (Pool.map_reduce_dynamic_supervised sv ~workers ~tasks:len ~grain
           ~init:(fun () -> (Forest.make_scratch n, Route_static.make_builder n))
           ~task:(fun ((scratch, bd) as ws) i ->
             let d = base + i in
             let info = Route_static.stream_get statics bd d in
             Forest.compute info ~tiebreak ~secure:zeros ~use_secp:zeros ~weight
               scratch;
             pairs.(i) <- Utility.contribution_pairs cfg.model g info scratch ~weight;
             ignore ws)
           ~combine:(fun a _ -> a));
      (* Serial replay in ascending destination order — blocks ascend,
         so the addition order equals the unblocked serial sweep's. *)
      for i = 0 to len - 1 do
        Utility.add_pairs pairs.(i) ~into;
        pairs.(i) <- ([||], [||])
      done;
      lo := !lo + len
    done;
    into
  in
  (* Per-ISP threshold heterogeneity (Section 8.2 extension). *)
  let theta_factor =
    let rng = Nsutil.Prng.create ~seed:cfg.jitter_seed in
    Array.init n (fun _ ->
        if cfg.theta_jitter = 0.0 then 1.0
        else
          Float.max 0.0
            (1.0 +. (cfg.theta_jitter *. ((2.0 *. Nsutil.Prng.float rng 1.0) -. 1.0))))
  in
  (* Oscillation detection: hash-bucketed fingerprints (deployment
     sets only, n/4 bytes each — not full state copies) of every
     visited state, with exact comparison on hash hits. The
     insertion-order list serializes the table for checkpoints;
     replaying insertions rebuilds identical buckets. *)
  let seen_states : (int, (int * State.fingerprint) list) Hashtbl.t =
    Hashtbl.create 64
  in
  let seen_order = ref [] in
  let insert_seen round fp =
    let signature = State.fp_signature fp in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt seen_states signature) in
    Hashtbl.replace seen_states signature ((round, fp) :: bucket);
    seen_order := (round, fp) :: !seen_order
  in
  let inc = Incremental.create statics in
  let recomputed = ref 0 in
  let reused = ref 0 in
  let rounds = ref [] in
  let round = ref 0 in
  (* Degradation-ladder state (process-local diagnostics, not part of
     checkpoints: a fault-free resumed run re-derives zero of both).
     [demoted.(d) = '\001'] pins destination [d] to the full flip
     kernel for the rest of the run — bit-identical by the kernel
     parity contract, so a demotion changes robustness, never
     results. *)
  let demoted = Bytes.make n '\000' in
  let demotions = ref 0 in
  let checkpoint_skips = ref 0 in
  let demote d reason =
    if Bytes.get demoted d <> '\001' then begin
      Bytes.set demoted d '\001';
      incr demotions;
      if Nsobs.Metrics.enabled () then Nsobs.Metrics.inc (Lazy.force m_demotions);
      if Nsobs.Journal.enabled () then
        Nsobs.Journal.event "demotion"
          [ ("dest", Nsobs.Journal.Int d); ("reason", Nsobs.Journal.Str reason) ];
      Nsutil.Warnings.emit
        (Printf.sprintf
           "sbgp: engine: demoting destination %d to the full kernels (%s)" d reason)
    end
  in
  (* Fresh start or checkpoint restore. *)
  let baseline, initial_secure_as, initial_secure_isp, state =
    match resume_from with
    | None ->
        let baseline = Nsobs.Trace.span ~cat:"engine" "engine.baseline" compute_baseline in
        let init_as = State.secure_count state in
        let init_isp = State.secure_isp_count state in
        insert_seen 0 (State.fingerprint state);
        (baseline, init_as, init_isp, state)
    | Some p ->
        let state = State.restore g p.p_state in
        List.iter (fun (r, s) -> insert_seen r (State.fp_restore s)) p.p_seen;
        Incremental.restore inc p.p_inc;
        round := p.p_round;
        rounds := p.p_rounds_rev;
        recomputed := p.p_recomputed;
        reused := p.p_reused;
        (p.p_baseline, p.p_initial_secure_as, p.p_initial_secure_isp, state)
  in
  (* Metrics report what THIS process did: a resumed run publishes
     deltas over the restored counters, not the checkpoint's totals. *)
  let recomputed0 = !recomputed and reused0 = !reused in
  if Nsobs.Journal.enabled () then
    Nsobs.Journal.event
      (if resume_from = None then "run_start" else "run_resume")
      [
        ("n", Nsobs.Journal.Int n);
        ("workers", Nsobs.Journal.Int workers);
        ("round", Nsobs.Journal.Int !round);
        ("max_rounds", Nsobs.Journal.Int cfg.max_rounds);
      ];
  let remember round =
    let signature = State.signature state in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt seen_states signature) in
    match List.find_opt (fun (_, old) -> State.fp_matches old state) bucket with
    | Some (first_round, _) -> Some first_round
    | None ->
        insert_seen round (State.fingerprint state);
        None
  in
  let write_checkpoint () =
    let due every = !round mod max 1 every = 0 in
    let checkpoint_due =
      match checkpoint with Some { every; _ } -> due every | None -> false
    in
    let sink_due =
      match sink with Some { s_every; _ } -> due s_every | None -> false
    in
    if checkpoint_due || sink_due then begin
      (* Checkpoint-boundary rung of the degradation ladder: validate
         every resident statics record before snapshotting it, so a
         corrupt record can neither persist into the snapshot nor keep
         serving the run — its destination recomputes lazily (the full
         statics kernel for that destination). *)
      if cfg.degrade then
        List.iter
          (fun (d, reason) -> demote d ("invalid statics record: " ^ reason))
          (Route_static.revalidate statics);
      let p =
        {
          p_round = !round;
          p_state = State.serialize state;
          p_seen = List.rev_map (fun (r, fp) -> (r, State.fp_serialize fp)) !seen_order;
          p_rounds_rev = !rounds;
          p_recomputed = !recomputed;
          p_reused = !reused;
          p_baseline = baseline;
          p_initial_secure_as = initial_secure_as;
          p_initial_secure_isp = initial_secure_isp;
          p_inc = Incremental.snapshot inc;
          p_statics = Some (Route_static.snapshot statics);
          p_statics_base = Some (base_hits, base_misses, base_evictions);
        }
      in
      let payload = Marshal.to_string p [] in
      (match checkpoint with
      | Some { path; _ } when checkpoint_due -> (
          try Checkpoint.write ?faults ~path ~digest ~round:!round payload with
          | Checkpoint.Error (Checkpoint.Io m) when cfg.degrade ->
              (* The tmp+rename protocol left the previous snapshot
                 intact; losing one snapshot interval is strictly
                 better than losing the run. *)
              incr checkpoint_skips;
              if Nsobs.Metrics.enabled () then
                Nsobs.Metrics.inc (Lazy.force m_checkpoint_skips);
              if Nsobs.Journal.enabled () then
                Nsobs.Journal.event "checkpoint_skip"
                  [ ("round", Nsobs.Journal.Int !round);
                    ("error", Nsobs.Journal.Str m) ];
              Nsutil.Warnings.emit
                (Printf.sprintf
                   "sbgp: engine: checkpoint write failed (%s); continuing on the \
                    previous snapshot"
                   m))
      | _ -> ());
      match sink with
      | Some { s_save; _ } when sink_due -> s_save ~round:!round ~payload
      | _ -> ()
    end
  in
  let termination = ref Max_rounds in
  let continue = ref true in
  while !continue && !round < cfg.max_rounds do
    incr round;
    let round_args =
      if Nsobs.Trace.enabled () then Some [ ("round", string_of_int !round) ] else None
    in
    let round_t0 =
      if Nsobs.Metrics.enabled () || Nsobs.Journal.enabled () then
        Nsobs.Trace.now_us ()
      else 0.0
    in
    if Nsobs.Metrics.enabled () then
      Nsobs.Metrics.set (Lazy.force m_current_round) (float_of_int !round);
    if Nsobs.Journal.enabled () then
      Nsobs.Journal.event "round_start" [ ("round", Nsobs.Journal.Int !round) ];
    (* The span covers the whole round body — through the checkpoint,
       if one is due — so traced wall time decomposes into rounds. *)
    Nsobs.Trace.span ~cat:"engine" ?args:round_args "engine.round" @@ fun () ->
    let secure = State.secure_bytes state in
    let use_secp = State.use_secp_bytes state ~stub_tiebreak:cfg.stub_tiebreak in
    Incremental.begin_round inc state;
    (* Candidates: insecure ISPs may turn on; under the incoming
       model with turn-off allowed, secure ISPs may turn off. *)
    let candidates = ref [] in
    for i = n - 1 downto 0 do
      if Graph.is_isp g i && not (State.pinned state i) then begin
        if State.full state i then begin
          if cfg.allow_turn_off && cfg.model = Config.Incoming then
            candidates := i :: !candidates
        end
        else candidates := i :: !candidates
      end
    done;
    let candidates = !candidates in
    let candidates_arr = Array.of_list candidates in
    let is_candidate = Array.make n false in
    List.iter (fun nc -> is_candidate.(nc) <- true) candidates;
    let was_on = Array.map (fun nc -> State.full state nc) candidates_arr in
    let deltas =
      timed m_probe_ms (fun () ->
          Nsobs.Trace.span ~cat:"engine" "engine.probe" (fun () ->
              probe_deltas state ~secure ~use_secp ~was_on candidates_arr))
    in
    (* Round-start snapshots: workers get private copies to flip. *)
    let sec0 = Bytes.copy secure in
    let secp0 = Bytes.copy use_secp in
    let model = cfg.model in
    let kernel = cfg.flip_kernel in
    (* The repair frontier seeds: exactly the nodes each candidate's
       byte delta touches. *)
    let seed_nodes =
      Array.map (fun dl -> Array.map (fun (i, _, _) -> i) dl.after) deltas
    in
    let ncand = Array.length candidates_arr in
    (* Per-destination probe rows: slot [d] holds the destination's
       admitted (candidate index, changed contribution) pairs, sorted
       by candidate index (the sweep admits in candidate order).
       Sparse on purpose — the dense (destination × candidate) buffer
       this replaces is n × ncand floats, ~1.5 GB at paper scale,
       while admitted probes are a thin sliver of that. Workers write
       disjoint slots, one plain assignment per destination. *)
    let rows : (int array * float array) option array = Array.make n None in
    (* Parallel sweep over destinations: recompute dirty forests
       (updating the cache) and evaluate the candidate flips whose
       routing tree actually changes. Dynamically scheduled — workers
       claim destination chunks off an atomic counter, so a
       destination with many admitted probes delays only the worker
       that drew it. All sweep outputs are per-destination slots and
       the accumulators are ignored, so the nondeterministic
       chunk→worker assignment is result-invisible; the serial
       reduction below stays in destination order. *)
    let run_sweep () =
    ignore
      (Pool.map_reduce_dynamic_supervised sv ~workers ~tasks:n ~grain
         ~init:(fun () ->
           {
             ws_base = Forest.make_scratch n;
             ws_flip = Forest.make_scratch n;
             ws_rep = Forest.make_repairer n;
             ws_sec = Bytes.copy sec0;
             ws_secp = Bytes.copy secp0;
             ws_bd = Route_static.make_builder n;
             ws_rs = Incremental.make_scratch inc;
             ws_ci = Array.make (max 1 ncand) 0;
             ws_c = Array.make (max 1 ncand) 0.0;
             ws_have_base = -1;
           })
         ~task:(fun ws d ->
           (* The statics record is fetched lazily: a clean destination
              whose probes all resolve from the graph and the cached
              forest bits never touches the store — which, under a
              byte budget, means never recomputing an evicted row.
              [stream_get] may return a transient record (valid until
              this worker's next fetch, i.e. for the rest of this
              task), so the fetch must happen at most once per task.
              A destination [begin_round] left pending resolves its
              dirty check on this same fetch, so its record is built
              once per round, here, inside the parallel sweep. *)
           let info_slot = ref None in
           let fetch_info () =
             match !info_slot with
             | Some info -> info
             | None ->
                 let info = Route_static.stream_get statics ws.ws_bd d in
                 info_slot := Some info;
                 info
           in
           let e =
             if Incremental.is_dirty ~fetch:fetch_info inc d then begin
               let info = fetch_info () in
               Forest.compute info ~tiebreak ~secure:ws.ws_sec ~use_secp:ws.ws_secp
                 ~weight ws.ws_base;
               ws.ws_have_base <- d;
               let pairs = Utility.contribution_pairs model g info ws.ws_base ~weight in
               Incremental.store inc ~scratch:ws.ws_rs d
                 ~sec_path:ws.ws_base.Forest.sec_path ~pairs;
               Incremental.entry inc d
             end
             else Incremental.entry inc d
           in
           let count = ref 0 in
           Array.iteri
             (fun ci nc ->
               let admit =
                 match
                   flip_cheap ~g ~secure:sec0 ~sec_bits:e.Incremental.sec_bits
                     ~was_on:was_on.(ci) ~d nc
                 with
                 | `Admit -> true
                 | `Skip -> false
                 | `Need_info ->
                     flip_with_info ~cfg ~secure:sec0 ~info:(fetch_info ())
                       ~sec_bits:e.Incremental.sec_bits ~stubs nc
               in
               if admit then begin
                 let info = fetch_info () in
                 (* The ladder pins demoted destinations to the full
                    kernel; identical values either way (kernel
                    parity), so a demotion is result-invisible. *)
                 let kernel =
                   if Bytes.unsafe_get demoted d = '\001' then Config.Flip_full
                   else kernel
                 in
                 let c =
                   match kernel with
                   | Config.Flip_full ->
                       apply_delta ws.ws_sec ws.ws_secp deltas.(ci).after;
                       Forest.compute info ~tiebreak ~secure:ws.ws_sec
                         ~use_secp:ws.ws_secp ~weight ws.ws_flip;
                       let c =
                         Utility.contribution model g info ws.ws_flip ~weight nc
                       in
                       apply_delta ws.ws_sec ws.ws_secp deltas.(ci).before;
                       c
                   | Config.Flip_delta ->
                       (* One base forest per destination, amortized
                          over its admitted probes; clean destinations
                          compute it lazily on the first hit (the
                          cache stores addend streams, not forests). *)
                       if ws.ws_have_base <> d then begin
                         Forest.compute info ~tiebreak ~secure:ws.ws_sec
                           ~use_secp:ws.ws_secp ~weight ws.ws_base;
                         ws.ws_have_base <- d
                       end;
                       apply_delta ws.ws_sec ws.ws_secp deltas.(ci).after;
                       Forest.repair info ~tiebreak ~secure:ws.ws_sec
                         ~use_secp:ws.ws_secp ~weight ~seeds:seed_nodes.(ci)
                         ws.ws_base ws.ws_rep;
                       let c =
                         Utility.contribution model g info ws.ws_base ~weight nc
                       in
                       Forest.undo ws.ws_base ws.ws_rep;
                       apply_delta ws.ws_sec ws.ws_secp deltas.(ci).before;
                       c
                 in
                 ws.ws_ci.(!count) <- ci;
                 ws.ws_c.(!count) <- c;
                 incr count
               end)
             candidates_arr;
           rows.(d) <-
             (if !count = 0 then None
              else Some (Array.sub ws.ws_ci 0 !count, Array.sub ws.ws_c 0 !count)))
         ~combine:(fun a _ -> a))
    in
    (* Sweep rung of the degradation ladder: when supervision fails
       beyond the retry budget and degradation is on, demote the dead
       destinations to the full kernels and re-run the sweep (at most
       twice) instead of crashing. Re-running overwrites the same
       per-destination slots with the same values — idempotent by
       construction — so a rescued sweep is bit-identical to an
       undisturbed one. *)
    let rec sweep_ladder attempt =
      try run_sweep () with
      | Pool.Supervision_failed fs when cfg.degrade && attempt < 2 ->
          List.iter
            (fun (f : Pool.failure) ->
              if f.Pool.index >= 0 && f.Pool.index < n then
                demote f.Pool.index ("supervision failure: " ^ f.Pool.error))
            fs;
          Array.fill rows 0 n None;
          sweep_ladder (attempt + 1)
    in
    timed m_sweep_ms (fun () ->
        Nsobs.Trace.span ~cat:"engine" "engine.sweep" (fun () -> sweep_ladder 0));
    let dc = Incremental.dirty_count inc in
    recomputed := !recomputed + dc;
    reused := !reused + (n - dc);
    (* Deterministic serial reduction, in destination order: replay
       the cached addend streams and fold the projections. *)
    let utilities = Array.make n 0.0 in
    let projected = Array.make n 0.0 in
    let cand_slot = Array.map (fun nc -> Incremental.isp_slot inc nc) candidates_arr in
    timed m_reduce_ms (fun () ->
    Nsobs.Trace.span ~cat:"engine" "engine.reduce" (fun () ->
    for d = 0 to n - 1 do
      let e = Incremental.entry inc d in
      Incremental.add_pairs e ~into:utilities;
      (* Unchanged (destination, candidate) slots take the cached base
         contribution; the destination's sparse probe row is sorted by
         candidate index, so one merge cursor walks it while ci scans
         all candidates — the same per-destination candidate order as
         the sweep, and the same float additions as the dense buffer
         this replaces. *)
      (match Array.unsafe_get rows d with
      | None ->
          for ci = 0 to ncand - 1 do
            let nc = Array.unsafe_get candidates_arr ci in
            projected.(nc) <-
              projected.(nc)
              +. Incremental.row_value e (Array.unsafe_get cand_slot ci)
          done
      | Some (cis, cs) ->
          let len = Array.length cis in
          let p = ref 0 in
          for ci = 0 to ncand - 1 do
            let nc = Array.unsafe_get candidates_arr ci in
            let c =
              if !p < len && Array.unsafe_get cis !p = ci then begin
                let c = Array.unsafe_get cs !p in
                incr p;
                c
              end
              else Incremental.row_value e (Array.unsafe_get cand_slot ci)
            in
            projected.(nc) <- projected.(nc) +. c
          done)
    done;
    (* Non-candidates project their current utility. *)
    for i = 0 to n - 1 do
      if not is_candidate.(i) then projected.(i) <- utilities.(i)
    done));
    (* Simultaneous flips per Eq. 3. *)
    let turned_on = ref [] in
    let turned_off = ref [] in
    Nsobs.Trace.span ~cat:"engine" "engine.decide" (fun () ->
    List.iter
      (fun nc ->
        let threshold =
          theta_factor.(nc)
          *. (if State.full state nc then cfg.theta_off else cfg.theta)
        in
        if projected.(nc) > (1.0 +. threshold) *. utilities.(nc) then begin
          if State.full state nc then turned_off := nc :: !turned_off
          else turned_on := nc :: !turned_on
        end)
      candidates;
    List.iter (fun nc -> ignore (State.enable state nc)) !turned_on;
    List.iter (fun nc -> State.disable state nc) !turned_off);
    let record =
      {
        round = !round;
        utilities;
        projected;
        turned_on = List.rev !turned_on;
        turned_off = List.rev !turned_off;
        secure_as = State.secure_count state;
        secure_isp = State.secure_isp_count state;
        secure_stub = State.secure_stub_count state;
      }
    in
    rounds := record :: !rounds;
    if Nsobs.Metrics.enabled () then begin
      Nsobs.Metrics.inc (Lazy.force m_rounds);
      let on = List.length record.turned_on and off = List.length record.turned_off in
      Nsobs.Metrics.add (Lazy.force m_flips_on) on;
      Nsobs.Metrics.add (Lazy.force m_flips_off) off;
      Nsobs.Metrics.observe (Lazy.force m_flips_hist) (float_of_int (on + off));
      Nsobs.Metrics.observe (Lazy.force m_dirty_hist) (float_of_int dc);
      Nsobs.Metrics.observe (Lazy.force m_round_ms)
        ((Nsobs.Trace.now_us () -. round_t0) /. 1000.0)
    end;
    if Nsobs.Journal.enabled () then
      Nsobs.Journal.event "round_end"
        [
          ("round", Nsobs.Journal.Int !round);
          ("on", Nsobs.Journal.Int (List.length record.turned_on));
          ("off", Nsobs.Journal.Int (List.length record.turned_off));
          ("dirty", Nsobs.Journal.Int dc);
          ("secure_as", Nsobs.Journal.Int record.secure_as);
          ("wall_ms", Nsobs.Journal.Float ((Nsobs.Trace.now_us () -. round_t0) /. 1000.0));
        ];
    if !turned_on = [] && !turned_off = [] then begin
      termination := Stable;
      continue := false
    end
    else begin
      match remember !round with
      | Some first_round ->
          termination := Oscillation { first_round };
          continue := false
      | None -> ()
    end;
    (* Snapshot only when another round is coming: a checkpoint always
       represents a run with work left to do, so a resume re-enters
       the loop exactly where the interrupted run would have. *)
    if !continue && !round < cfg.max_rounds then write_checkpoint ()
  done;
  let stats1 = Route_static.stats statics in
  if Nsobs.Metrics.enabled () then begin
    (* Store counters are racy under concurrent workers (diagnostics,
       not results); clamp so a lost increment can't make a "delta"
       negative and trip the counter invariant. *)
    let delta a b = max 0 (a - b) in
    Nsobs.Metrics.add (Lazy.force m_statics_hits)
      (delta stats1.Route_static.hits stats0.Route_static.hits);
    Nsobs.Metrics.add (Lazy.force m_statics_misses)
      (delta stats1.Route_static.misses stats0.Route_static.misses);
    Nsobs.Metrics.add (Lazy.force m_statics_evictions)
      (delta stats1.Route_static.evictions stats0.Route_static.evictions);
    Nsobs.Metrics.set (Lazy.force m_statics_bytes)
      (float_of_int stats1.Route_static.cached_bytes);
    Nsobs.Metrics.add (Lazy.force m_dest_recomputed) (delta !recomputed recomputed0);
    Nsobs.Metrics.add (Lazy.force m_dest_reused) (delta !reused reused0)
  end;
  if Nsobs.Journal.enabled () then
    Nsobs.Journal.event "run_end"
      [
        ( "termination",
          Nsobs.Journal.Str
            (match !termination with
            | Stable -> "stable"
            | Oscillation { first_round } ->
                Printf.sprintf "oscillation@%d" first_round
            | Max_rounds -> "max_rounds") );
        ("rounds", Nsobs.Journal.Int !round);
        (* Statics store deltas for this run (hit/miss/eviction). *)
        ("statics_hits", Nsobs.Journal.Int (stats1.Route_static.hits - base_hits));
        ( "statics_misses",
          Nsobs.Journal.Int (stats1.Route_static.misses - base_misses) );
        ( "statics_evictions",
          Nsobs.Journal.Int (stats1.Route_static.evictions - base_evictions) );
        ("demotions", Nsobs.Journal.Int !demotions);
        ("checkpoint_skips", Nsobs.Journal.Int !checkpoint_skips);
      ];
  {
    baseline;
    initial_secure_as;
    initial_secure_isp;
    rounds = List.rev !rounds;
    final = state;
    termination = !termination;
    dest_recomputed = !recomputed;
    dest_reused = !reused;
    statics_hits = stats1.Route_static.hits - base_hits;
    statics_misses = stats1.Route_static.misses - base_misses;
    statics_evictions = stats1.Route_static.evictions - base_evictions;
    demotions = !demotions;
    checkpoint_skips = !checkpoint_skips;
    statics_store = statics;
  }

let null_digest = String.make 32 '\000'

let resolve_faults = function
  | Some _ as f -> f
  | None -> Nsutil.Faults.of_env ()

let run ?checkpoint ?sink ?faults (cfg : Config.t) statics ~weight ~state =
  let faults = resolve_faults faults in
  (* The input digest walks the whole topology; only pay for it when
     snapshots will actually be written. Sink payloads are framed (and
     digest-bound) by the sink's owner. *)
  let digest =
    match checkpoint with
    | None -> null_digest
    | Some _ -> input_digest cfg statics ~weight ~state
  in
  Nsobs.Trace.span ~cat:"engine" "engine.run" (fun () ->
      run_internal ~checkpoint ~sink ~faults ~digest ~resume_from:None cfg statics
        ~weight ~state)

let resume ~from ?checkpoint ?sink ?faults (cfg : Config.t) statics ~weight ~state =
  let faults = resolve_faults faults in
  let digest = input_digest cfg statics ~weight ~state in
  let frame = Checkpoint.load_exn ~path:from ~digest in
  (match frame.Checkpoint.kind with
  | Checkpoint.Engine -> ()
  | Checkpoint.Churn ->
      (* A churn-run snapshot (kind code 1) belongs to the evolution
         runner, not the engine — reject it with the typed error the
         CLI turns into a hint. *)
      raise (Checkpoint.Error (Checkpoint.Unsupported_kind 1)));
  (* The progress payload changed layout at frame version 3 (packed
     incremental-cache entries, fingerprint oscillation table);
     [Marshal] encodes layout, not meaning, so unmarshaling an older
     payload under the current types would be memory-unsafe. Reject
     with the typed error instead. *)
  if frame.Checkpoint.version < 3 then
    raise (Checkpoint.Error (Checkpoint.Unsupported_version frame.Checkpoint.version));
  let p = (Marshal.from_string frame.Checkpoint.payload 0 : progress) in
  if p.p_round <> frame.Checkpoint.round then
    raise (Checkpoint.Error Checkpoint.Corrupt);
  Nsobs.Trace.span ~cat:"engine" "engine.run" (fun () ->
      run_internal ~checkpoint ~sink ~faults ~digest ~resume_from:(Some p) cfg statics
        ~weight ~state)

let resume_of_payload ~payload ?checkpoint ?sink ?faults (cfg : Config.t) statics
    ~weight ~state =
  let faults = resolve_faults faults in
  let digest =
    match checkpoint with
    | None -> null_digest
    | Some _ -> input_digest cfg statics ~weight ~state
  in
  let p = (Marshal.from_string payload 0 : progress) in
  Nsobs.Trace.span ~cat:"engine" "engine.run" (fun () ->
      run_internal ~checkpoint ~sink ~faults ~digest ~resume_from:(Some p) cfg statics
        ~weight ~state)

let secure_fraction result kind =
  let state = result.final in
  let g = State.graph state in
  let n = Graph.n g in
  match kind with
  | `As -> float_of_int (State.secure_count state) /. float_of_int (max 1 n)
  | `Isp ->
      let isps = Graph.count_class g Asgraph.As_class.Isp in
      float_of_int (State.secure_isp_count state) /. float_of_int (max 1 isps)

let rounds_run result = List.length result.rounds

let cache_hit_rate result =
  let total = result.dest_recomputed + result.dest_reused in
  if total = 0 then 0.0 else float_of_int result.dest_reused /. float_of_int total
