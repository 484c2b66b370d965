(* Observability: slice spans show per-worker busy periods (gaps =
   idle/parked), park spans show bank waits, and the counters expose
   how calls are served. Every hook hides behind a static
   [Trace.enabled]/[Metrics.enabled] check, so unobserved runs pay a
   load+branch per call, not per task. *)
let m_spawns =
  lazy
    (Nsobs.Metrics.counter ~help:"helper domains spawned (bank growth + fallback)"
       "pool_domain_spawn_total")

let m_parks =
  lazy (Nsobs.Metrics.counter ~help:"bank worker park events" "pool_park_total")

let m_leases =
  lazy
    (Nsobs.Metrics.counter ~help:"parallel calls served by the parked worker bank"
       "pool_bank_lease_total")

let m_fallbacks =
  lazy
    (Nsobs.Metrics.counter
       ~help:"parallel calls that fell back to fresh Domain.spawn"
       "pool_spawn_fallback_total")

let m_retries =
  lazy
    (Nsobs.Metrics.counter ~help:"supervised slice re-executions" "pool_retry_total")

let m_slice_failures =
  lazy
    (Nsobs.Metrics.counter ~help:"supervised slice attempts that raised"
       "pool_slice_fail_total")

let m_bank_size =
  lazy
    (Nsobs.Metrics.gauge ~help:"helper domains parked in the bank" "pool_bank_workers")

let m_watchdog_cancels =
  lazy
    (Nsobs.Metrics.counter ~help:"stalled slices cancelled by the watchdog"
       "pool_watchdog_cancel_total")

let m_backoff_ms =
  lazy
    (Nsobs.Metrics.histogram ~help:"supervised retry backoff sleeps (ms)"
       ~buckets:Nsobs.Metrics.duration_ms_buckets
       "pool_backoff_delay_ms")

let slice_span f = Nsobs.Trace.span ~cat:"pool" "pool.slice" f

let workers_of_domain_count c = max 1 (c - 1)

let recommended_workers () = workers_of_domain_count (Domain.recommended_domain_count ())

let default_workers () =
  Nsutil.Env.int_var ~name:"SBGP_WORKERS" ~min:1 ~default:(recommended_workers ()) ()

(* ------------------------------------------------------------------ *)
(* Persistent worker bank.

   [Domain.spawn] costs milliseconds on a loaded host — comparable to
   an entire per-round sweep at Internet scale — so spawning fresh
   domains per fan-out would be overhead-dominated for the engine's
   per-round kernels. Instead, helper domains are spawned once on
   first parallel use and then parked on a condition variable; a call
   leases the whole bank, hands each helper its worker closure, runs
   worker 0 itself and waits for the helpers to park again.

   The bank is a pure execution strategy: workers claim chunks off a
   shared counter wherever they run, so results are the same whether
   the workers run on the bank or on freshly spawned domains. Calls
   that cannot take the lease — a nested call from inside a worker, a
   concurrent caller from another domain, or a worker count beyond the
   bank cap — fall back to spawning, preserving liveness. *)

type bank_worker = {
  wm : Mutex.t;
  wcv : Condition.t;
  mutable wjob : (unit -> unit) option; (* parked <-> pending *)
  mutable wbusy : bool; (* set by the leaser, cleared by the worker *)
}

let max_bank_workers = 15
let bank : bank_worker array ref = ref [||]
let bank_leased = Atomic.make false
let inside_bank_worker = Domain.DLS.new_key (fun () -> false)

let bank_worker_loop w =
  Mutex.lock w.wm;
  while true do
    match w.wjob with
    | None ->
        if Nsobs.Metrics.enabled () then Nsobs.Metrics.inc (Lazy.force m_parks);
        (* The span covers the parked wait, so the trace shows each
           worker's idle periods between leases. *)
        Nsobs.Trace.span ~cat:"pool" "pool.park" (fun () -> Condition.wait w.wcv w.wm)
    | Some job ->
        w.wjob <- None;
        Mutex.unlock w.wm;
        job ();
        (* [job] captures its own exceptions; it never raises. *)
        Mutex.lock w.wm;
        w.wbusy <- false;
        Condition.broadcast w.wcv
  done

(* Called only under the bank lease. *)
let ensure_bank k =
  let cur = !bank in
  if Array.length cur >= k then cur
  else begin
    let grown =
      Array.init k (fun i ->
          if i < Array.length cur then cur.(i)
          else begin
            let w =
              { wm = Mutex.create (); wcv = Condition.create (); wjob = None; wbusy = false }
            in
            if Nsobs.Metrics.enabled () then Nsobs.Metrics.inc (Lazy.force m_spawns);
            ignore
              (Domain.spawn (fun () ->
                   Domain.DLS.set inside_bank_worker true;
                   bank_worker_loop w));
            w
          end)
    in
    bank := grown;
    if Nsobs.Metrics.enabled () then
      Nsobs.Metrics.set (Lazy.force m_bank_size) (float_of_int (Array.length grown));
    grown
  end

(* Hand [run 0 .. run (k-1)] to parked workers. Returns false without
   doing anything when the bank is unavailable; on true, the caller
   owns the lease and must [bank_wait] to release it. *)
let bank_try_submit k run =
  if k > max_bank_workers || Domain.DLS.get inside_bank_worker then false
  else if not (Atomic.compare_and_set bank_leased false true) then false
  else begin
    let ws = ensure_bank k in
    for i = 0 to k - 1 do
      let w = ws.(i) in
      Mutex.lock w.wm;
      w.wbusy <- true;
      w.wjob <- Some (fun () -> run i);
      Condition.broadcast w.wcv;
      Mutex.unlock w.wm
    done;
    true
  end

(* Wait for the k submitted workers to finish and release the lease. *)
let bank_wait k =
  let ws = !bank in
  for i = 0 to k - 1 do
    let w = ws.(i) in
    Mutex.lock w.wm;
    while w.wbusy do
      Condition.wait w.wcv w.wm
    done;
    Mutex.unlock w.wm
  done;
  Atomic.set bank_leased false

(* ------------------------------------------------------------------ *)
(* Supervision: task exceptions are contained, attributed to the task
   index that raised, and the failed chunk is re-executed — spawned
   retries with exponential backoff first, then one final serial
   attempt in the calling domain. *)

type failure = { index : int; attempts : int; error : string }

exception Supervision_failed of failure list

let () =
  Printexc.register_printer (function
    | Supervision_failed fs ->
        Some
          (Printf.sprintf "Pool.Supervision_failed [%s]"
             (String.concat "; "
                (List.map
                   (fun f ->
                     Printf.sprintf "task %d after %d attempts: %s" f.index f.attempts
                       f.error)
                   fs)))
    | _ -> None)

type supervision = {
  retries : int;
  backoff : float;
  backoff_cap : float;
  jitter_seed : int;
  timeout_ms : int;
  faults : Nsutil.Faults.t option;
  on_retry : (attempt:int -> index:int -> error:string -> unit) option;
}

let supervision ?(retries = 2) ?(backoff = 0.005) ?(backoff_cap = 0.25)
    ?(jitter_seed = 0) ?(timeout_ms = 0) ?faults ?on_retry () =
  {
    retries = max 0 retries;
    backoff = Float.max 0.0 backoff;
    backoff_cap = Float.max 0.0 backoff_cap;
    jitter_seed;
    timeout_ms = max 0 timeout_ms;
    faults;
    on_retry;
  }

let no_supervision = supervision ~retries:0 ~backoff:0.0 ()

(* Capped exponential backoff with deterministic jitter: the k-th
   re-attempt of the slice owning task [index] sleeps
   [min cap (backoff * 2^(k-2)) * (0.5 + 0.5 * u)], where [u] is a
   pure hash of (jitter_seed, attempt, index). Retrying slices
   therefore never synchronize their sleeps (each index draws its own
   jitter) while the schedule stays reproducible run to run. *)
let backoff_delay sv ~attempt ~index =
  if sv.backoff <= 0.0 then 0.0
  else begin
    let exp =
      Float.min sv.backoff_cap
        (sv.backoff *. Float.of_int (1 lsl min 20 (max 0 (attempt - 2))))
    in
    let u =
      float_of_int (Nsutil.Prng.mix2 (Nsutil.Prng.mix2 sv.jitter_seed attempt) index)
      /. 4.611686018427387904e18 (* 2^62 *)
    in
    exp *. (0.5 +. (0.5 *. u))
  end

let sleep_before_retry sv ~attempt ~index =
  let d = backoff_delay sv ~attempt ~index in
  if d > 0.0 then begin
    if Nsobs.Metrics.enabled () then
      Nsobs.Metrics.observe (Lazy.force m_backoff_ms) (d *. 1000.0);
    if Nsobs.Journal.enabled () then
      Nsobs.Journal.event "pool_backoff"
        [
          ("index", Nsobs.Journal.Int index);
          ("attempt", Nsobs.Journal.Int attempt);
          ("delay_ms", Nsobs.Journal.Float (d *. 1000.0));
        ];
    Thread.delay d
  end

(* ------------------------------------------------------------------ *)
(* Watchdog: per-slice-execution heartbeat words, polled by a monitor
   thread. A domain cannot be killed, so cancellation is cooperative:
   the guarded loops increment their tracker's heartbeat before every
   task and abandon the slice (raising {!Watchdog_timeout}) once the
   monitor flags it cancelled, feeding the ordinary retry machinery.
   The one in-tree hang — the [pool.hang] fault site — polls its
   tracker's cancel flag while "hung", so even a mid-task stall
   unwinds as soon as the watchdog fires. Real (non-injected) mid-task
   hangs that never reach a task boundary cannot be reclaimed; the
   timeout must exceed the worst single-task latency. *)

exception Watchdog_timeout

let () =
  Printexc.register_printer (function
    | Watchdog_timeout ->
        Some "Pool.Watchdog_timeout (watchdog cancelled a stalled slice)"
    | _ -> None)

type tracker = {
  t_hb : int Atomic.t;  (* incremented before every task *)
  t_cancel : bool Atomic.t;  (* set by the monitor, read by the worker *)
  t_done : bool Atomic.t;  (* slice finished; monitor stops watching *)
  mutable t_last : int;  (* monitor-private: last heartbeat seen *)
  mutable t_since : float;  (* monitor-private: when it was seen *)
}

let tracker_cancelled = function
  | Some t -> Atomic.get t.t_cancel
  | None -> false

let tracker_finish = function Some t -> Atomic.set t.t_done true | None -> ()

(* Runs [f mk] under a monitor thread when the policy arms a timeout;
   [mk ()] registers a fresh tracker for one slice execution. With no
   timeout, [mk] yields no tracker and the guarded loops skip all
   heartbeat work. The monitor scans every few milliseconds (cheap: a
   handful of atomic loads), so joining it at the end adds bounded
   latency to the call. *)
let with_watchdog sv f =
  if sv.timeout_ms <= 0 then f (fun () -> None)
  else begin
    let timeout = float_of_int sv.timeout_ms /. 1000.0 in
    let reg_m = Mutex.create () in
    let reg = ref [] in
    let stop = Atomic.make false in
    let mk () =
      let t =
        {
          t_hb = Atomic.make 0;
          t_cancel = Atomic.make false;
          t_done = Atomic.make false;
          t_last = 0;
          t_since = Unix.gettimeofday ();
        }
      in
      Mutex.lock reg_m;
      reg := t :: !reg;
      Mutex.unlock reg_m;
      Some t
    in
    let period = Float.max 0.001 (Float.min 0.005 (timeout /. 4.0)) in
    let monitor =
      Thread.create
        (fun () ->
          while not (Atomic.get stop) do
            Thread.delay period;
            let now = Unix.gettimeofday () in
            Mutex.lock reg_m;
            List.iter
              (fun t ->
                if not (Atomic.get t.t_done || Atomic.get t.t_cancel) then begin
                  let hb = Atomic.get t.t_hb in
                  if hb <> t.t_last then begin
                    t.t_last <- hb;
                    t.t_since <- now
                  end
                  else if now -. t.t_since > timeout then begin
                    Atomic.set t.t_cancel true;
                    if Nsobs.Metrics.enabled () then
                      Nsobs.Metrics.inc (Lazy.force m_watchdog_cancels);
                    Nsobs.Log.warn "pool: watchdog cancelled a stalled slice (> %d ms)"
                      sv.timeout_ms;
                    if Nsobs.Journal.enabled () then
                      Nsobs.Journal.event "watchdog_fire"
                        [ ("timeout_ms", Nsobs.Journal.Int sv.timeout_ms) ]
                  end
                end)
              !reg;
            Mutex.unlock reg_m
          done)
        ()
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join monitor)
      (fun () -> f mk)
  end

(* The [pool.hang] fault: stall (polling our own cancel flag) until
   the watchdog fires, then unwind like any injected fault. With no
   watchdog armed the hang degrades to an immediate raise — it must
   never deadlock a run that cannot cancel it. *)
let simulate_hang tracker ~shot =
  (match tracker with
  | Some t ->
      while not (Atomic.get t.t_cancel) do
        Thread.delay 0.001
      done
  | None -> ());
  raise (Nsutil.Faults.Injected { site = "pool.hang"; shot })

let check_task_boundary ~sv ~tracker =
  (match tracker with
  | Some t ->
      if Atomic.get t.t_cancel then raise Watchdog_timeout;
      Atomic.incr t.t_hb
  | None -> ());
  match sv.faults with
  | Some f -> (
      Nsutil.Faults.trip f "pool.task";
      match Nsutil.Faults.fires f "pool.hang" with
      | Some shot -> simulate_hang tracker ~shot
      | None -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The fan-out: self-scheduled chunks. Workers repeatedly claim the
   next [grain]-sized contiguous chunk off a shared atomic counter, so
   a heavy-tailed task — one destination with many admitted candidate
   probes — delays only the worker that drew it. Which worker runs
   which chunk (and hence how tasks group into accumulators) is
   nondeterministic; a single worker claims every chunk in ascending
   order in the calling domain.

   Every task reaches the final fold exactly once. A worker folds
   successive chunks into one accumulator, so when a chunk raises, that
   accumulator already holds the chunk's prefix: the worker retires it,
   starts a fresh one and queues the chunks it had folded for
   re-execution (they did not fail, so they get no attribution and no
   [on_retry]). The failed chunk re-executes into its own fresh
   accumulator — spawned retries first, then one final serial attempt
   — and failures surviving the budget aggregate into
   [Supervision_failed]. A re-executed task overwrites its per-index
   results with identical values.

   A watchdog-cancelled worker stops claiming chunks and exits; the
   calling domain then runs the chunks it left queued and any chunk
   never claimed, so no task index is silently skipped. *)

let run_chunk_guarded ~sv ~tracker ~task acc lo hi =
  let i = ref lo in
  try
    while !i < hi do
      check_task_boundary ~sv ~tracker;
      task acc !i;
      incr i
    done;
    None
  with e -> Some (!i, Printexc.to_string e)

let map_reduce_dynamic_supervised sv ~workers ~tasks ~grain ~init ~task ~combine =
  if tasks <= 0 then init ()
  else
    with_watchdog sv @@ fun mk_tracker ->
    let grain = max 1 grain in
    let nchunks = (tasks + grain - 1) / grain in
    let workers = max 1 (min workers nchunks) in
    let run_chunk ~tracker acc c =
      let lo = c * grain in
      run_chunk_guarded ~sv ~tracker ~task acc lo (min tasks (lo + grain))
    in
    let note_failure () =
      if Nsobs.Metrics.enabled () then Nsobs.Metrics.inc (Lazy.force m_slice_failures)
    in
    let next_chunk = Atomic.make 0 in
    (* Per worker, each written only by its owner until the join: the
       final accumulator, failed chunks as (chunk, index, error), chunks
       to re-run after a retirement, and an exception escaping [init]. *)
    let accs = Array.make workers None in
    let failures = Array.make workers [] in
    let requeued = Array.make workers [] in
    let crashed = Array.make workers None in
    let worker w =
      slice_span (fun () ->
          let tracker = mk_tracker () in
          let acc = ref (init ()) in
          let folded = ref [] in
          let rec loop () =
            if not (tracker_cancelled tracker) then begin
              let c =
                match requeued.(w) with
                | c :: rest ->
                    requeued.(w) <- rest;
                    c
                | [] -> Atomic.fetch_and_add next_chunk 1
              in
              if c < nchunks then begin
                (match run_chunk ~tracker !acc c with
                | None -> folded := c :: !folded
                | Some (index, error) ->
                    note_failure ();
                    failures.(w) <- (c, index, error) :: failures.(w);
                    requeued.(w) <- List.rev_append !folded requeued.(w);
                    folded := [];
                    acc := init ());
                loop ()
              end
            end
          in
          loop ();
          tracker_finish tracker;
          accs.(w) <- Some !acc)
    in
    (* Bank jobs must never raise: an escaping exception is re-raised
       in the calling domain after the join. *)
    let worker w = try worker w with e -> crashed.(w) <- Some e in
    let k = workers - 1 in
    if k = 0 then worker 0
    else begin
      let on_bank = bank_try_submit k (fun i -> worker (i + 1)) in
      if Nsobs.Metrics.enabled () then
        if on_bank then Nsobs.Metrics.inc (Lazy.force m_leases)
        else begin
          Nsobs.Metrics.inc (Lazy.force m_fallbacks);
          Nsobs.Metrics.add (Lazy.force m_spawns) k
        end;
      let spawned =
        if on_bank then [||]
        else Array.init k (fun i -> Domain.spawn (fun () -> worker (i + 1)))
      in
      worker 0;
      if on_bank then bank_wait k else Array.iter Domain.join spawned
    end;
    Array.iter (Option.iter raise) crashed;
    (* Every chunk run after the fan-out folds into its own fresh
       accumulator, appended after the worker accumulators. *)
    let extra = ref [] in
    let attempt c =
      let tracker = mk_tracker () in
      let acc = init () in
      let r = run_chunk ~tracker acc c in
      tracker_finish tracker;
      match r with None -> Ok acc | Some (index, error) -> Error (c, index, error)
    in
    let record still = function
      | Ok acc -> extra := acc :: !extra
      | Error f ->
          note_failure ();
          still := f :: !still
    in
    (* What cancelled workers left behind: their queued chunks, then
       the chunks nobody claimed. *)
    let drained = ref [] in
    Array.iter (List.iter (fun c -> record drained (attempt c))) requeued;
    let rec drain () =
      let c = Atomic.fetch_and_add next_chunk 1 in
      if c < nchunks then begin
        record drained (attempt c);
        drain ()
      end
    in
    drain ();
    let rec retry attempt_no failed =
      if failed = [] then []
      else if attempt_no > sv.retries + 1 then
        List.map (fun (_, index, error) -> { index; attempts = sv.retries + 1; error }) failed
      else begin
        List.iter
          (fun (_, index, error) ->
            if Nsobs.Metrics.enabled () then Nsobs.Metrics.inc (Lazy.force m_retries);
            Nsobs.Log.warn "pool: retrying chunk (task %d, attempt %d): %s" index attempt_no
              error;
            if Nsobs.Journal.enabled () then
              Nsobs.Journal.event "pool_retry"
                [
                  ("index", Nsobs.Journal.Int index);
                  ("attempt", Nsobs.Journal.Int attempt_no);
                  ("error", Nsobs.Journal.Str error);
                ];
            match sv.on_retry with
            | Some f -> f ~attempt:attempt_no ~index ~error
            | None -> ())
          failed;
        let still = ref [] in
        if attempt_no <= sv.retries then begin
          (* All failed chunks concurrently, each retry domain sleeping
             its own jittered backoff first, so retries cannot
             synchronize into a storm. *)
          if Nsobs.Metrics.enabled () then
            Nsobs.Metrics.add (Lazy.force m_spawns) (List.length failed);
          let redo =
            List.map
              (fun (c, index, _) ->
                Domain.spawn (fun () ->
                    sleep_before_retry sv ~attempt:attempt_no ~index;
                    attempt c))
              failed
          in
          List.iter (fun d -> record still (Domain.join d)) redo
        end
        else
          (* Final attempt: serial, in the calling domain. *)
          List.iter
            (fun (c, index, _) ->
              sleep_before_retry sv ~attempt:attempt_no ~index;
              record still (attempt c))
            failed;
        retry (attempt_no + 1) !still
      end
    in
    let failed0 = List.concat_map List.rev (Array.to_list failures) @ List.rev !drained in
    let dead = retry 2 failed0 in
    if dead <> [] then
      raise (Supervision_failed (List.sort (fun a b -> compare a.index b.index) dead));
    let get w =
      match accs.(w) with
      | Some acc -> acc
      | None -> invalid_arg "Pool.map_reduce_dynamic_supervised: missing accumulator"
    in
    let acc = ref (get 0) in
    for w = 1 to workers - 1 do
      acc := combine !acc (get w)
    done;
    List.iter (fun a -> acc := combine !acc a) (List.rev !extra);
    !acc
