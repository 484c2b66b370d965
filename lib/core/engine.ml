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

(* Run [f] as the named phase: a trace span, timed into the histogram
   [hist] when metrics are on — otherwise exactly the span (no clock
   reads, no lazy forcing). *)
let phase ?hist ?args name f =
  let span () = Nsobs.Trace.span ~cat:"engine" ?args name f in
  match hist with
  | Some h when Nsobs.Metrics.enabled () -> Nsobs.Metrics.timed (Lazy.force h) span
  | _ -> span ()

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
   (except [workers], [retries], [flip_kernel], [statics_kernel],
   [task_timeout_ms] and [degrade], which provably do not affect
   results — the parity suite holds full-vs-delta flip kernels and
   full-vs-delta statics maintenance bit-identical — and the statics
   byte budget, since a bounded store only trades recompute for
   memory), topology, traffic weights and the initial deployment
   state. A checkpoint resumes only against the digest it was written
   under. *)
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

(* A run: the run-level context, fixed at [start], and the cross-round
   memory the round phases advance. [snapshot] and [restore] are the
   only conversions between a run and its checkpoint payload. *)
type run = {
  cfg : Config.t;
  g : Graph.t;
  n : int;
  statics : Route_static.t;
      (* the caller's store, or on a snapshot-restored resume the one
         rebuilt from the checkpoint *)
  weight : float array;
  workers : int;
  sv : Pool.supervision;
  grain : int;
  stubs : Csr.t;
  theta_factor : float array;
  inc : Incremental.t;
  faults : Nsutil.Faults.t option;
  digest : string;
  checkpoint : checkpoint_spec option;
  sink : snapshot_sink option;
  stats0 : Route_static.stats;  (* the store's counters when this process started *)
  statics_base : int * int * int;
      (* (hits, misses, evictions) the result's statics deltas are
         taken against: on a snapshot-restored resume, the counters
         the original run started from *)
  (* Cross-round memory: checkpointed. *)
  state : State.t;
  baseline : float array;
  initial_secure_as : int;
  initial_secure_isp : int;
  seen : (int, (int * State.fingerprint) list) Hashtbl.t;
  mutable seen_order : (int * State.fingerprint) list;
  mutable round : int;
  mutable rounds_rev : round_record list;
  mutable recomputed : int;
  mutable reused : int;
  recomputed0 : int;
      (* [recomputed]/[reused] at start: metrics report this process's
         deltas *)
  reused0 : int;
  (* Process-local, not checkpointed: a checkpoint is only written
     while rounds remain, and a fault-free resumed run re-derives zero
     demotions and skips. *)
  mutable termination : termination option;  (* [None] while rounds remain *)
  demoted : Bytes.t;
  mutable demotions : int;
  mutable checkpoint_skips : int;
}

(* One round's candidates and their probe deltas. *)
type cands = {
  arr : int array;  (* candidate ISPs, ascending *)
  was_on : bool array;
  is_candidate : bool array;
  deltas : flip_delta array;
  seeds : int array array;
      (* repair frontier seeds: exactly the nodes each delta touches *)
  sec0 : Bytes.t;  (* round-start participation; workers copy these to flip *)
  secp0 : Bytes.t;
}

(* Degradation ladder: [demoted.(d) = '\001'] pins destination [d] to
   the full flip kernel for the rest of the run — bit-identical by the
   kernel parity contract, so a demotion changes robustness, never
   results. *)
let demote r d reason =
  if Bytes.get r.demoted d <> '\001' then begin
    Bytes.set r.demoted d '\001';
    r.demotions <- r.demotions + 1;
    if Nsobs.Metrics.enabled () then Nsobs.Metrics.inc (Lazy.force m_demotions);
    if Nsobs.Journal.enabled () then
      Nsobs.Journal.event "demotion"
        [ ("dest", Nsobs.Journal.Int d); ("reason", Nsobs.Journal.Str reason) ];
    Nsutil.Warnings.emit
      (Printf.sprintf "sbgp: engine: demoting destination %d to the full kernels (%s)"
         d reason)
  end

(* Oscillation detection: hash-bucketed fingerprints (deployment sets
   only, n/4 bytes each — not full state copies) of every visited
   state, with exact comparison on hash hits. The insertion-order list
   serializes the table for checkpoints; replaying insertions rebuilds
   identical buckets. *)
let insert_seen r round fp =
  let signature = State.fp_signature fp in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt r.seen signature) in
  Hashtbl.replace r.seen signature ((round, fp) :: bucket);
  r.seen_order <- (round, fp) :: r.seen_order

(* The round that first reached the current state, if any; otherwise
   record the state under this round. *)
let first_visit r =
  let signature = State.signature r.state in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt r.seen signature) in
  match List.find_opt (fun (_, old) -> State.fp_matches old r.state) bucket with
  | Some (first_round, _) -> Some first_round
  | None ->
      insert_seen r r.round (State.fingerprint r.state);
      None

let snapshot r =
  {
    p_round = r.round;
    p_state = State.serialize r.state;
    p_seen = List.rev_map (fun (round, fp) -> (round, State.fp_serialize fp)) r.seen_order;
    p_rounds_rev = r.rounds_rev;
    p_recomputed = r.recomputed;
    p_reused = r.reused;
    p_baseline = r.baseline;
    p_initial_secure_as = r.initial_secure_as;
    p_initial_secure_isp = r.initial_secure_isp;
    p_inc = Incremental.snapshot r.inc;
    p_statics = Some (Route_static.snapshot r.statics);
    p_statics_base = Some r.statics_base;
  }

(* The checkpointed memory of [p] over a freshly started run. (The
   statics store and its baseline are restored by [start], which
   needs them before the run record exists.) *)
let restore r p =
  List.iter (fun (round, s) -> insert_seen r round (State.fp_restore s)) p.p_seen;
  Incremental.restore r.inc p.p_inc;
  {
    r with
    state = State.restore r.g p.p_state;
    baseline = p.p_baseline;
    initial_secure_as = p.p_initial_secure_as;
    initial_secure_isp = p.p_initial_secure_isp;
    round = p.p_round;
    rounds_rev = p.p_rounds_rev;
    recomputed = p.p_recomputed;
    reused = p.p_reused;
    recomputed0 = p.p_recomputed;
    reused0 = p.p_reused;
  }

(* Baseline: utilities before deployment began (empty state). The
   parallel phase computes per-destination addend streams; the serial
   replay in destination order performs the same float additions as a
   sequential sweep, for any worker count. Processed in destination
   blocks so the transient boxed streams of at most one block are live
   at a time — at paper scale the full per-destination set would dwarf
   the statics store. *)
let baseline r =
  let n = r.n in
  let zeros = Bytes.make n '\000' in
  let into = Array.make n 0.0 in
  let block = max 1 (min n 4096) in
  let pairs = Array.make block ([||], [||]) in
  let lo = ref 0 in
  while !lo < n do
    let len = min block (n - !lo) in
    let base = !lo in
    ignore
      (Pool.map_reduce_dynamic_supervised r.sv ~workers:r.workers ~tasks:len ~grain:r.grain
         ~init:(fun () -> (Forest.make_scratch n, Route_static.make_builder n))
         ~task:(fun (scratch, bd) i ->
           let info = Route_static.stream_get r.statics bd (base + i) in
           Forest.compute info ~tiebreak:r.cfg.tiebreak ~secure:zeros ~use_secp:zeros
             ~weight:r.weight scratch;
           pairs.(i) <-
             Utility.contribution_pairs r.cfg.model r.g info scratch ~weight:r.weight)
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

(* Per-ISP threshold heterogeneity (Section 8.2 extension). *)
let theta_factors (cfg : Config.t) n =
  let rng = Nsutil.Prng.create ~seed:cfg.jitter_seed in
  Array.init n (fun _ ->
      if cfg.theta_jitter = 0.0 then 1.0
      else
        Float.max 0.0
          (1.0 +. (cfg.theta_jitter *. ((2.0 *. Nsutil.Prng.float rng 1.0) -. 1.0))))

(* Stub customers per ISP, for projection filters; packed into a CSR so
   the per-(destination, candidate) admission scan walks a flat row
   instead of a boxed list. *)
let stub_customers g =
  let acc = Array.make (Graph.n g) [] in
  for i = 0 to Graph.n g - 1 do
    if Graph.is_isp g i then
      Graph.iter_customers g i (fun c -> if Graph.is_stub g c then acc.(i) <- c :: acc.(i))
  done;
  Csr.of_rev_lists acc

(* Phase [start]: fresh start (prefill, baseline) or checkpoint
   restore. *)
let start ~checkpoint ~sink ~faults ~digest ~resume_from (cfg : Config.t) statics
    ~weight ~state =
  let g = Route_static.graph statics in
  let n = Graph.n g in
  (* Churn-consistent resume: the snapshot carries the warm statics
     store; rebind [statics] to the restored store so the resumed run
     serves exactly the residency — and reports exactly the hit/miss
     counters — the interrupted run would have. *)
  let restored =
    match resume_from with
    | Some { p_statics = Some s; _ } -> Some (Route_static.of_snapshot g s)
    | _ -> None
  in
  let statics = Option.value restored ~default:statics in
  let workers = max 1 (min cfg.workers n) in
  (* Statics hit/miss/eviction counters are reported as per-run
     deltas. They are best-effort under concurrent workers (racy
     increments) and depend on the byte budget — diagnostics, not part
     of the deterministic result. *)
  let stats0 = Route_static.stats statics in
  let statics_base =
    match resume_from with
    | Some { p_statics_base = Some base; _ } -> base
    | _ ->
        (stats0.Route_static.hits, stats0.Route_static.misses, stats0.Route_static.evictions)
  in
  (* The store must serve tie rows sorted under this run's tiebreak
     (dropping stale entries if a previous run used another policy),
     and — when unbounded — be complete before any fan-out: workers
     then only read it. Under a byte budget the prefill is a no-op and
     workers fill their shards lazily through [get]. A snapshot-
     restored store already went through both at the original run's
     start (the digest pins the tiebreak), and re-running the prefill
     would skew the restored hit counters. *)
  if restored = None then
    phase ~hist:m_statics_build_ms "statics.prefill" (fun () ->
        Route_static.ensure_tiebreak statics cfg.tiebreak;
        Route_static.ensure_all ~workers statics);
  let inc = Incremental.create statics in
  let r =
    {
      cfg;
      g;
      n;
      statics;
      weight;
      workers;
      (* Supervision for the engine's fan-outs: worker failures retry
         per chunk ([Config.retries], capped-exponential backoff with
         jitter) and degrade to serial re-execution;
         [Config.task_timeout_ms] arms the hang watchdog on top.
         Re-running a chunk recomputes identical per-destination
         values, so faults never change results. *)
      sv =
        Pool.supervision ~retries:(max 0 cfg.retries) ~jitter_seed:cfg.jitter_seed
          ~timeout_ms:cfg.task_timeout_ms ?faults ();
      (* Destination-chunk size for the engine's fan-outs: shard-stripe
         batches over the statics store, floored at the gadget-scale
         grain of 8 — a fan-out over at most one chunk runs in the
         calling domain, so gadget-size graphs never wake the worker
         bank. *)
      grain = Route_static.batch_grain statics ~workers ~tasks:n;
      stubs = stub_customers g;
      theta_factor = theta_factors cfg n;
      inc;
      faults;
      digest;
      checkpoint;
      sink;
      stats0;
      statics_base;
      state;
      baseline = [||];
      initial_secure_as = 0;
      initial_secure_isp = 0;
      seen = Hashtbl.create 64;
      seen_order = [];
      round = 0;
      rounds_rev = [];
      recomputed = 0;
      reused = 0;
      recomputed0 = 0;
      reused0 = 0;
      termination = None;
      demoted = Bytes.make n '\000';
      demotions = 0;
      checkpoint_skips = 0;
    }
  in
  let r =
    match resume_from with
    | Some p -> restore r p
    | None ->
        let baseline = phase "engine.baseline" (fun () -> baseline r) in
        insert_seen r 0 (State.fingerprint state);
        {
          r with
          baseline;
          initial_secure_as = State.secure_count state;
          initial_secure_isp = State.secure_isp_count state;
        }
  in
  if Nsobs.Journal.enabled () then
    Nsobs.Journal.event
      (if resume_from = None then "run_start" else "run_resume")
      [
        ("n", Nsobs.Journal.Int n);
        ("workers", Nsobs.Journal.Int workers);
        ("round", Nsobs.Journal.Int r.round);
        ("max_rounds", Nsobs.Journal.Int cfg.max_rounds);
      ];
  r

(* Phases [candidates] and [probe]: insecure ISPs may turn on; under
   the incoming model with turn-off allowed, secure ISPs may turn off.
   Opens the round's incremental-cache bookkeeping, after the
   participation views it marks against are current. *)
let candidates r =
  let state = r.state in
  let secure = State.secure_bytes state in
  let use_secp = State.use_secp_bytes state ~stub_tiebreak:r.cfg.stub_tiebreak in
  Incremental.begin_round r.inc state;
  let acc = ref [] in
  for i = r.n - 1 downto 0 do
    if Graph.is_isp r.g i && not (State.pinned state i) then begin
      if State.full state i then begin
        if r.cfg.allow_turn_off && r.cfg.model = Config.Incoming then acc := i :: !acc
      end
      else acc := i :: !acc
    end
  done;
  let arr = Array.of_list !acc in
  let is_candidate = Array.make r.n false in
  Array.iter (fun nc -> is_candidate.(nc) <- true) arr;
  let was_on = Array.map (fun nc -> State.full state nc) arr in
  let deltas =
    phase ~hist:m_probe_ms "engine.probe" (fun () ->
        probe_deltas state ~secure ~use_secp ~was_on arr)
  in
  {
    arr;
    was_on;
    is_candidate;
    deltas;
    seeds = Array.map (fun dl -> Array.map (fun (i, _, _) -> i) dl.after) deltas;
    sec0 = Bytes.copy secure;
    secp0 = Bytes.copy use_secp;
  }

(* Candidate [ci]'s contribution at destination [d] in the state where
   only it flips. The ladder pins demoted destinations to the full
   kernel; identical values either way (kernel parity), so a demotion
   is result-invisible. *)
let probe_flip r c ws info d ci nc =
  let tiebreak = r.cfg.tiebreak and weight = r.weight in
  let dl = c.deltas.(ci) in
  let full =
    r.cfg.flip_kernel = Config.Flip_full || Bytes.unsafe_get r.demoted d = '\001'
  in
  if full then begin
    apply_delta ws.ws_sec ws.ws_secp dl.after;
    Forest.compute info ~tiebreak ~secure:ws.ws_sec ~use_secp:ws.ws_secp ~weight ws.ws_flip;
    let v = Utility.contribution r.cfg.model r.g info ws.ws_flip ~weight nc in
    apply_delta ws.ws_sec ws.ws_secp dl.before;
    v
  end
  else begin
    (* One base forest per destination, amortized over its admitted
       probes; clean destinations compute it lazily on the first hit
       (the cache stores addend streams, not forests). *)
    if ws.ws_have_base <> d then begin
      Forest.compute info ~tiebreak ~secure:ws.ws_sec ~use_secp:ws.ws_secp ~weight
        ws.ws_base;
      ws.ws_have_base <- d
    end;
    apply_delta ws.ws_sec ws.ws_secp dl.after;
    Forest.repair info ~tiebreak ~secure:ws.ws_sec ~use_secp:ws.ws_secp ~weight
      ~seeds:c.seeds.(ci) ws.ws_base ws.ws_rep;
    let v = Utility.contribution r.cfg.model r.g info ws.ws_base ~weight nc in
    Forest.undo ws.ws_base ws.ws_rep;
    apply_delta ws.ws_sec ws.ws_secp dl.before;
    v
  end

(* One destination of the sweep: recompute its forest if dirty
   (updating the cache), then evaluate the candidate flips whose
   routing tree actually changes, publishing the admitted
   (candidate index, contribution) pairs as [rows.(d)]. *)
let sweep_dest r c rows ws d =
  (* The statics record is fetched lazily: a clean destination whose
     probes all resolve from the graph and the cached forest bits never
     touches the store — which, under a byte budget, means never
     recomputing an evicted row. [stream_get] may return a transient
     record (valid until this worker's next fetch, i.e. for the rest of
     this task), so the fetch must happen at most once per task. A
     destination [begin_round] left pending resolves its dirty check on
     this same fetch, so its record is built once per round, here,
     inside the parallel sweep. *)
  let info_slot = ref None in
  let fetch_info () =
    match !info_slot with
    | Some info -> info
    | None ->
        let info = Route_static.stream_get r.statics ws.ws_bd d in
        info_slot := Some info;
        info
  in
  if Incremental.is_dirty ~fetch:fetch_info r.inc d then begin
    let info = fetch_info () in
    Forest.compute info ~tiebreak:r.cfg.tiebreak ~secure:ws.ws_sec ~use_secp:ws.ws_secp
      ~weight:r.weight ws.ws_base;
    ws.ws_have_base <- d;
    let pairs =
      Utility.contribution_pairs r.cfg.model r.g info ws.ws_base ~weight:r.weight
    in
    Incremental.store r.inc ~scratch:ws.ws_rs d ~sec_path:ws.ws_base.Forest.sec_path ~pairs
  end;
  let sec_bits = (Incremental.entry r.inc d).Incremental.sec_bits in
  let count = ref 0 in
  Array.iteri
    (fun ci nc ->
      let admit =
        match flip_cheap ~g:r.g ~secure:c.sec0 ~sec_bits ~was_on:c.was_on.(ci) ~d nc with
        | `Admit -> true
        | `Skip -> false
        | `Need_info ->
            flip_with_info ~cfg:r.cfg ~secure:c.sec0 ~info:(fetch_info ()) ~sec_bits
              ~stubs:r.stubs nc
      in
      if admit then begin
        ws.ws_ci.(!count) <- ci;
        ws.ws_c.(!count) <- probe_flip r c ws (fetch_info ()) d ci nc;
        incr count
      end)
    c.arr;
  rows.(d) <-
    (if !count = 0 then None
     else Some (Array.sub ws.ws_ci 0 !count, Array.sub ws.ws_c 0 !count))

(* Phase [sweep]: the parallel sweep over destinations. Dynamically
   scheduled — workers claim destination chunks off an atomic counter,
   so a destination with many admitted probes delays only the worker
   that drew it. All sweep outputs are per-destination slots and the
   accumulators are ignored, so the nondeterministic chunk→worker
   assignment is result-invisible; [reduce] stays in destination
   order. Returns the per-destination probe rows: slot [d] holds the
   destination's admitted (candidate index, changed contribution)
   pairs, sorted by candidate index. Sparse on purpose — a dense
   (destination × candidate) buffer is n × ncand floats, ~1.5 GB at
   paper scale, while admitted probes are a thin sliver of that. *)
let sweep r c =
  let n = r.n and ncand = Array.length c.arr in
  let rows : (int array * float array) option array = Array.make n None in
  let fan_out () =
    ignore
      (Pool.map_reduce_dynamic_supervised r.sv ~workers:r.workers ~tasks:n ~grain:r.grain
         ~init:(fun () ->
           {
             ws_base = Forest.make_scratch n;
             ws_flip = Forest.make_scratch n;
             ws_rep = Forest.make_repairer n;
             ws_sec = Bytes.copy c.sec0;
             ws_secp = Bytes.copy c.secp0;
             ws_bd = Route_static.make_builder n;
             ws_rs = Incremental.make_scratch r.inc;
             ws_ci = Array.make (max 1 ncand) 0;
             ws_c = Array.make (max 1 ncand) 0.0;
             ws_have_base = -1;
           })
         ~task:(sweep_dest r c rows)
         ~combine:(fun a _ -> a))
  in
  (* The ladder's sweep rung: when supervision fails beyond the retry
     budget and degradation is on, demote the dead destinations to the
     full kernels and re-run the sweep (at most twice) instead of
     crashing. Re-running overwrites the same per-destination slots
     with the same values — idempotent by construction — so a rescued
     sweep is bit-identical to an undisturbed one. *)
  let rec ladder attempt =
    try fan_out () with
    | Pool.Supervision_failed fs when r.cfg.degrade && attempt < 2 ->
        List.iter
          (fun (f : Pool.failure) ->
            if f.Pool.index >= 0 && f.Pool.index < n then
              demote r f.Pool.index ("supervision failure: " ^ f.Pool.error))
          fs;
        Array.fill rows 0 n None;
        ladder (attempt + 1)
  in
  phase ~hist:m_sweep_ms "engine.sweep" (fun () -> ladder 0);
  let dirty = Incremental.dirty_count r.inc in
  r.recomputed <- r.recomputed + dirty;
  r.reused <- r.reused + (n - dirty);
  (rows, dirty)

(* Phase [reduce]: the deterministic serial reduction, in destination
   order — replay the cached addend streams and fold the projections.
   Returns (utilities, projected). *)
let reduce r c rows =
  let n = r.n and ncand = Array.length c.arr and cands = c.arr in
  let utilities = Array.make n 0.0 in
  let projected = Array.make n 0.0 in
  let cand_slot = Array.map (fun nc -> Incremental.isp_slot r.inc nc) cands in
  phase ~hist:m_reduce_ms "engine.reduce" (fun () ->
      for d = 0 to n - 1 do
        let e = Incremental.entry r.inc d in
        Incremental.add_pairs e ~into:utilities;
        (* Unchanged (destination, candidate) slots take the cached base
           contribution; the destination's sparse probe row is sorted by
           candidate index, so one merge cursor walks it while ci scans
           all candidates — the same per-destination candidate order as
           the sweep, and the same float additions as a dense buffer. *)
        match Array.unsafe_get rows d with
        | None ->
            for ci = 0 to ncand - 1 do
              let nc = Array.unsafe_get cands ci in
              projected.(nc) <-
                projected.(nc) +. Incremental.row_value e (Array.unsafe_get cand_slot ci)
            done
        | Some (cis, cs) ->
            let len = Array.length cis in
            let p = ref 0 in
            for ci = 0 to ncand - 1 do
              let nc = Array.unsafe_get cands ci in
              let v =
                if !p < len && Array.unsafe_get cis !p = ci then begin
                  let v = Array.unsafe_get cs !p in
                  incr p;
                  v
                end
                else Incremental.row_value e (Array.unsafe_get cand_slot ci)
              in
              projected.(nc) <- projected.(nc) +. v
            done
      done;
      (* Non-candidates project their current utility. *)
      for i = 0 to n - 1 do
        if not c.is_candidate.(i) then projected.(i) <- utilities.(i)
      done);
  (utilities, projected)

(* Phase [decide]: the simultaneous flips of Eq. 3, applied to the
   state and recorded. *)
let decide r c ~utilities ~projected =
  let state = r.state in
  let on = ref [] and off = ref [] in
  phase "engine.decide" (fun () ->
      Array.iter
        (fun nc ->
          let threshold =
            r.theta_factor.(nc)
            *. if State.full state nc then r.cfg.theta_off else r.cfg.theta
          in
          if projected.(nc) > (1.0 +. threshold) *. utilities.(nc) then begin
            if State.full state nc then off := nc :: !off else on := nc :: !on
          end)
        c.arr;
      List.iter (fun nc -> ignore (State.enable state nc)) !on;
      List.iter (fun nc -> State.disable state nc) !off);
  let record =
    {
      round = r.round;
      utilities;
      projected;
      turned_on = List.rev !on;
      turned_off = List.rev !off;
      secure_as = State.secure_count state;
      secure_isp = State.secure_isp_count state;
      secure_stub = State.secure_stub_count state;
    }
  in
  r.rounds_rev <- record :: r.rounds_rev;
  (* A round without flips is stable; a flip into an already visited
     state is an oscillation. *)
  if record.turned_on = [] && record.turned_off = [] then r.termination <- Some Stable
  else
    Option.iter
      (fun first_round -> r.termination <- Some (Oscillation { first_round }))
      (first_visit r);
  record

(* Phase [observe_round]: per-round metrics and the [round_end]
   journal event. *)
let observe_round r record ~dirty ~t0 =
  let on = List.length record.turned_on and off = List.length record.turned_off in
  if Nsobs.Metrics.enabled () then begin
    Nsobs.Metrics.inc (Lazy.force m_rounds);
    Nsobs.Metrics.add (Lazy.force m_flips_on) on;
    Nsobs.Metrics.add (Lazy.force m_flips_off) off;
    Nsobs.Metrics.observe (Lazy.force m_flips_hist) (float_of_int (on + off));
    Nsobs.Metrics.observe (Lazy.force m_dirty_hist) (float_of_int dirty);
    Nsobs.Metrics.observe (Lazy.force m_round_ms) ((Nsobs.Trace.now_us () -. t0) /. 1000.0)
  end;
  if Nsobs.Journal.enabled () then
    Nsobs.Journal.event "round_end"
      [
        ("round", Nsobs.Journal.Int r.round);
        ("on", Nsobs.Journal.Int on);
        ("off", Nsobs.Journal.Int off);
        ("dirty", Nsobs.Journal.Int dirty);
        ("secure_as", Nsobs.Journal.Int record.secure_as);
        ("wall_ms", Nsobs.Journal.Float ((Nsobs.Trace.now_us () -. t0) /. 1000.0));
      ]

(* Phase [checkpoint]: snapshot the run to the file and/or the sink
   when either is due. *)
let checkpoint r =
  let due every = r.round mod max 1 every = 0 in
  let file =
    match r.checkpoint with Some { path; every } when due every -> Some path | _ -> None
  in
  let sink = match r.sink with Some s when due s.s_every -> Some s | _ -> None in
  if file <> None || sink <> None then begin
    (* Checkpoint-boundary rung of the degradation ladder: validate
       every resident statics record before snapshotting it, so a
       corrupt record can neither persist into the snapshot nor keep
       serving the run — its destination recomputes lazily (the full
       statics kernel for that destination). *)
    if r.cfg.degrade then
      List.iter
        (fun (d, reason) -> demote r d ("invalid statics record: " ^ reason))
        (Route_static.revalidate r.statics);
    let payload = Marshal.to_string (snapshot r) [] in
    Option.iter
      (fun path ->
        if
          not
            (Checkpoint.write_or_skip ?faults:r.faults ~degrade:r.cfg.degrade ~path
               ~digest:r.digest ~round:r.round payload)
        then begin
          r.checkpoint_skips <- r.checkpoint_skips + 1;
          if Nsobs.Metrics.enabled () then Nsobs.Metrics.inc (Lazy.force m_checkpoint_skips)
        end)
      file;
    Option.iter (fun s -> s.s_save ~round:r.round ~payload) sink
  end

let continues r = r.termination = None && r.round < r.cfg.max_rounds

(* One round of simultaneous myopic best response, as its phases. *)
let play_round r =
  r.round <- r.round + 1;
  let t0 =
    if Nsobs.Metrics.enabled () || Nsobs.Journal.enabled () then Nsobs.Trace.now_us ()
    else 0.0
  in
  if Nsobs.Metrics.enabled () then
    Nsobs.Metrics.set (Lazy.force m_current_round) (float_of_int r.round);
  if Nsobs.Journal.enabled () then
    Nsobs.Journal.event "round_start" [ ("round", Nsobs.Journal.Int r.round) ];
  let args =
    if Nsobs.Trace.enabled () then Some [ ("round", string_of_int r.round) ] else None
  in
  (* The span covers the whole round body — through the checkpoint, if
     one is due — so traced wall time decomposes into rounds. *)
  phase ?args "engine.round" @@ fun () ->
  let c = candidates r in
  let rows, dirty = sweep r c in
  let utilities, projected = reduce r c rows in
  let record = decide r c ~utilities ~projected in
  observe_round r record ~dirty ~t0;
  (* Snapshot only when another round is coming: a checkpoint always
     represents a run with work left to do, so a resume re-enters the
     loop exactly where the interrupted run would have. *)
  if continues r then checkpoint r

(* Phase [finish]: end-of-run metrics and journal event, and the
   result. *)
let finish r =
  let termination = Option.value r.termination ~default:Max_rounds in
  let stats1 = Route_static.stats r.statics in
  let base_hits, base_misses, base_evictions = r.statics_base in
  if Nsobs.Metrics.enabled () then begin
    (* Store counters are racy under concurrent workers (diagnostics,
       not results); clamp so a lost increment can't make a "delta"
       negative and trip the counter invariant. *)
    let delta a b = max 0 (a - b) in
    Nsobs.Metrics.add (Lazy.force m_statics_hits)
      (delta stats1.Route_static.hits r.stats0.Route_static.hits);
    Nsobs.Metrics.add (Lazy.force m_statics_misses)
      (delta stats1.Route_static.misses r.stats0.Route_static.misses);
    Nsobs.Metrics.add (Lazy.force m_statics_evictions)
      (delta stats1.Route_static.evictions r.stats0.Route_static.evictions);
    Nsobs.Metrics.set (Lazy.force m_statics_bytes)
      (float_of_int stats1.Route_static.cached_bytes);
    Nsobs.Metrics.add (Lazy.force m_dest_recomputed) (delta r.recomputed r.recomputed0);
    Nsobs.Metrics.add (Lazy.force m_dest_reused) (delta r.reused r.reused0)
  end;
  if Nsobs.Journal.enabled () then
    Nsobs.Journal.event "run_end"
      [
        ( "termination",
          Nsobs.Journal.Str
            (match termination with
            | Stable -> "stable"
            | Oscillation { first_round } -> Printf.sprintf "oscillation@%d" first_round
            | Max_rounds -> "max_rounds") );
        ("rounds", Nsobs.Journal.Int r.round);
        (* Statics store deltas for this run (hit/miss/eviction). *)
        ("statics_hits", Nsobs.Journal.Int (stats1.Route_static.hits - base_hits));
        ("statics_misses", Nsobs.Journal.Int (stats1.Route_static.misses - base_misses));
        ( "statics_evictions",
          Nsobs.Journal.Int (stats1.Route_static.evictions - base_evictions) );
        ("demotions", Nsobs.Journal.Int r.demotions);
        ("checkpoint_skips", Nsobs.Journal.Int r.checkpoint_skips);
      ];
  {
    baseline = r.baseline;
    initial_secure_as = r.initial_secure_as;
    initial_secure_isp = r.initial_secure_isp;
    rounds = List.rev r.rounds_rev;
    final = r.state;
    termination;
    dest_recomputed = r.recomputed;
    dest_reused = r.reused;
    statics_hits = stats1.Route_static.hits - base_hits;
    statics_misses = stats1.Route_static.misses - base_misses;
    statics_evictions = stats1.Route_static.evictions - base_evictions;
    demotions = r.demotions;
    checkpoint_skips = r.checkpoint_skips;
    statics_store = r.statics;
  }

(* The one entry behind [run], [resume] and [resume_of_payload]. The
   input digest walks the whole topology, so a run that writes no
   frames of its own skips it (sink payloads are framed, and
   digest-bound, by the sink's owner); a resume from a file always
   needs it to open the frame. *)
let enter ~from ?checkpoint ?sink ?faults (cfg : Config.t) statics ~weight ~state =
  let faults = Nsutil.Faults.or_env faults in
  let digest =
    match (from, checkpoint) with
    | `File _, _ | _, Some _ -> input_digest cfg statics ~weight ~state
    | _ -> Checkpoint.null_digest
  in
  let resume_from =
    match from with
    | `Fresh -> None
    | `File path ->
        let round, (p : progress) =
          Checkpoint.load_payload ~kind:Checkpoint.Engine ~path ~digest
        in
        if p.p_round <> round then raise (Checkpoint.Error Checkpoint.Corrupt);
        Some p
    | `Payload payload -> Some (Marshal.from_string payload 0 : progress)
  in
  Nsobs.Trace.span ~cat:"engine" "engine.run" (fun () ->
      let r =
        start ~checkpoint ~sink ~faults ~digest ~resume_from cfg statics ~weight ~state
      in
      while continues r do
        play_round r
      done;
      finish r)

let run = enter ~from:`Fresh
let resume ~from = enter ~from:(`File from)
let resume_of_payload ~payload = enter ~from:(`Payload payload)

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
