(* Tests for the domain pool (the DryadLINQ stand-in): results must be
   identical regardless of worker count.

   There is one fan-out, [map_reduce_dynamic_supervised], and its
   chunk->worker assignment is nondeterministic, so these tests use the
   two sanctioned patterns — per-index slot publication (every call
   site's shape) and reductions invariant under regrouping (sums) —
   except at one worker, where the fold is serial and in order. *)

module Pool = Parallel.Pool

let check = Alcotest.check

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let sum_with ?(grain = 8) sv ~workers ~tasks task_hook =
  !(Pool.map_reduce_dynamic_supervised sv ~workers ~tasks ~grain
      ~init:(fun () -> ref 0)
      ~task:(fun acc i ->
        task_hook i;
        acc := !acc + i)
      ~combine:(fun a b ->
        a := !a + !b;
        a))

let sum ?grain sv ~workers ~tasks = sum_with ?grain sv ~workers ~tasks ignore

let closed_form tasks = tasks * (tasks - 1) / 2

(* Per-index slot publication: the accumulator is unused scratch. *)
let slots sv ~workers ~tasks ~grain f =
  let out = Array.make tasks None in
  Pool.map_reduce_dynamic_supervised sv ~workers ~tasks ~grain
    ~init:(fun () -> ())
    ~task:(fun () i -> out.(i) <- Some (f i))
    ~combine:(fun () () -> ());
  Array.map Option.get out

let test_map_reduce_sums () =
  (* Every (workers, grain) shape, including a single chunk covering
     all tasks (grain >= tasks). *)
  let tasks = 1000 in
  List.iter
    (fun (workers, grain) ->
      check Alcotest.int
        (Printf.sprintf "workers=%d grain=%d" workers grain)
        (closed_form tasks)
        (sum ~grain Pool.no_supervision ~workers ~tasks))
    [ (1, 1); (2, 1); (4, 8); (7, 8); (4, 1000); (7, 5000) ]

let test_map_array () =
  (* Boxed per-index slots at grain 1 (the per-job shape of
     [Scenario.run_many_outcomes]) equal [Array.init]. *)
  let f i = Printf.sprintf "job-%d" (i * i) in
  check
    Alcotest.(array string)
    "equals Array.init" (Array.init 50 f)
    (slots Pool.no_supervision ~workers:3 ~tasks:50 ~grain:1 f);
  check
    Alcotest.(array string)
    "empty" [||]
    (slots Pool.no_supervision ~workers:3 ~tasks:0 ~grain:1 f)

let test_more_workers_than_tasks () =
  check
    Alcotest.(array int)
    "clamped" [| 1; 2; 3 |]
    (slots Pool.no_supervision ~workers:16 ~tasks:3 ~grain:1 (fun i -> i + 1))

let test_zero_tasks () =
  (* tasks = 0 must return the bare initial accumulator, for any
     worker count and grain, without touching [task]. *)
  List.iter
    (fun (workers, grain) ->
      let r =
        Pool.map_reduce_dynamic_supervised Pool.no_supervision ~workers ~tasks:0 ~grain
          ~init:(fun () -> ref 0)
          ~task:(fun _ _ -> Alcotest.fail "task called with zero tasks")
          ~combine:(fun a b ->
            a := !a + !b;
            a)
      in
      check Alcotest.int (Printf.sprintf "workers=%d grain=%d" workers grain) 0 !r)
    [ (1, 1); (1, 4); (3, 1); (3, 4) ]

let test_single_worker_in_caller () =
  (* One worker — workers = 1, or a single chunk — runs in the calling
     domain: it leases no bank and spawns no domain. *)
  let caller = (Domain.self () :> int) in
  let counter name = Option.value ~default:0.0 (Nsobs.Metrics.value name) in
  Nsobs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Nsobs.Metrics.set_enabled false)
    (fun () ->
      List.iter
        (fun (workers, tasks, grain) ->
          let label = Printf.sprintf "workers=%d tasks=%d grain=%d" workers tasks grain in
          let leases = counter "pool_bank_lease_total"
          and spawns = counter "pool_domain_spawn_total" in
          let domains =
            slots Pool.no_supervision ~workers ~tasks ~grain (fun _ ->
                (Domain.self () :> int))
          in
          check Alcotest.bool (label ^ ": in the caller") true
            (Array.for_all (( = ) caller) domains);
          check (Alcotest.float 0.0) (label ^ ": no lease") leases
            (counter "pool_bank_lease_total");
          check (Alcotest.float 0.0) (label ^ ": no spawn") spawns
            (counter "pool_domain_spawn_total"))
        [ (1, 100, 8); (4, 8, 8); (4, 5, 64) ])

let test_recommended_workers_positive () =
  check Alcotest.bool "at least one" true (Pool.recommended_workers () >= 1);
  (* The clamp itself, independent of this host's core count: a
     single-core count (and degenerate inputs) still yields one
     worker, more cores leave one for the coordinating domain. *)
  check Alcotest.int "1 core -> 1 worker" 1 (Pool.workers_of_domain_count 1);
  check Alcotest.int "0 cores -> 1 worker" 1 (Pool.workers_of_domain_count 0);
  check Alcotest.int "-3 cores -> 1 worker" 1 (Pool.workers_of_domain_count (-3));
  check Alcotest.int "8 cores -> 7 workers" 7 (Pool.workers_of_domain_count 8);
  check Alcotest.bool "default is positive" true (Pool.default_workers () >= 1)

let test_parallel_utility_matches_sequential () =
  (* The real use, in the engine's pattern: each destination publishes
     its utility addend stream into its own slot, and a serial replay
     in destination order performs the float additions — so the
     utilities are bit-identical at every worker count. *)
  let params = Topology.Params.with_n Topology.Params.default 150 in
  let built = Topology.Gen.generate params in
  let g = built.graph in
  let n = Asgraph.Graph.n g in
  let statics = Bgp.Route_static.create g in
  (* Prime the per-destination cache sequentially: the cache itself is
     not thread-safe, which is exactly why workers get local scratch. *)
  for d = 0 to n - 1 do
    ignore (Bgp.Route_static.get statics d)
  done;
  let weight = Traffic.Weights.assign g ~cp_fraction:0.1 in
  let state = Core.State.create g ~early:(Asgraph.Metrics.top_by_degree g 3) in
  let secure = Core.State.secure_bytes state in
  let use_secp = Core.State.use_secp_bytes state ~stub_tiebreak:true in
  let compute workers =
    let pairs = Array.make n ([||], [||]) in
    Pool.map_reduce_dynamic_supervised Pool.no_supervision ~workers ~tasks:n ~grain:8
      ~init:(fun () -> Bgp.Forest.make_scratch n)
      ~task:(fun scratch d ->
        let info = Bgp.Route_static.get statics d in
        Bgp.Forest.compute info ~tiebreak:Bgp.Policy.Lowest_id ~secure ~use_secp ~weight
          scratch;
        pairs.(d) <-
          Core.Utility.contribution_pairs Core.Config.Outgoing g info scratch ~weight)
      ~combine:(fun s _ -> s)
    |> ignore;
    let into = Array.make n 0.0 in
    Array.iter (fun p -> Core.Utility.add_pairs p ~into) pairs;
    into
  in
  let seq = compute 1 in
  List.iter
    (fun workers ->
      check
        Alcotest.(array (float 0.0))
        (Printf.sprintf "bit-identical utilities, workers=%d" workers)
        seq (compute workers))
    [ 2; 4 ]

let test_engine_fanouts_on_bank () =
  (* Every engine fan-out (statics prefill, baseline, sweep) runs on
     the parked worker bank: once the bank is warm, a whole fault-free
     run leases it and spawns no domain. *)
  let built =
    Topology.Gen.generate
      { (Topology.Params.with_n Topology.Params.default 120) with seed = 11 }
  in
  let g = built.graph in
  let run () =
    let statics = Bgp.Route_static.create g in
    let weight = Traffic.Weights.assign g ~cp_fraction:0.1 in
    let state =
      Core.State.create g ~early:(built.cps @ Asgraph.Metrics.top_by_degree g 5)
    in
    ignore
      (Core.Engine.run
         { Core.Config.default with workers = 2; retries = 2 }
         statics ~weight ~state)
  in
  let counter name = Option.value ~default:0.0 (Nsobs.Metrics.value name) in
  Nsobs.Metrics.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Nsobs.Metrics.set_enabled false)
    (fun () ->
      run ();
      let spawns = counter "pool_domain_spawn_total"
      and leases = counter "pool_bank_lease_total" in
      run ();
      check (Alcotest.float 0.0) "no domain spawned" spawns
        (counter "pool_domain_spawn_total");
      check Alcotest.bool "the bank was leased" true
        (counter "pool_bank_lease_total" > leases))

(* ------------------------------------------------------------------ *)
(* Supervision *)

let test_supervised_matches_unsupervised () =
  (* An armed policy (retry budget and watchdog) changes nothing on a
     fault-free run. *)
  let tasks = 513 in
  let armed = Pool.supervision ~retries:2 ~backoff:0.0 ~timeout_ms:10_000 () in
  List.iter
    (fun workers ->
      check Alcotest.int
        (Printf.sprintf "workers=%d" workers)
        (sum Pool.no_supervision ~workers ~tasks)
        (sum armed ~workers ~tasks))
    [ 1; 2; 4; 7 ]

let test_supervised_zero_tasks () =
  (* No task, no fault trip: an always-firing plan stays untouched. *)
  let faults = Nsutil.Faults.create ~rate:1.0 ~budget:5 ~seed:1 () in
  let sv = Pool.supervision ~retries:2 ~backoff:0.0 ~timeout_ms:50 ~faults () in
  check Alcotest.int "bare accumulator" 0 (sum sv ~workers:3 ~tasks:0);
  check Alcotest.int "no fault tripped" 0 (Nsutil.Faults.shots faults)

let test_supervised_retries_recover () =
  (* Injected faults within the budget are invisible: same sum, and
     the retry callback saw the contained failures. *)
  let tasks = 200 in
  let faults = Nsutil.Faults.create ~rate:1.0 ~budget:2 ~seed:3 () in
  let retried = ref 0 in
  let sv =
    Pool.supervision ~retries:2 ~backoff:0.0 ~faults
      ~on_retry:(fun ~attempt:_ ~index:_ ~error:_ -> incr retried)
      ()
  in
  check Alcotest.int "sum unchanged" (closed_form tasks) (sum sv ~workers:4 ~tasks);
  check Alcotest.bool "faults actually fired" true (Nsutil.Faults.fired faults = 2);
  check Alcotest.bool "retries happened" true (!retried > 0)

let test_supervised_serial_fallback () =
  (* retries = 1 means the single retry IS the final serial attempt:
     the injected failure must be absorbed by the calling domain's
     re-execution, with the sum unchanged. *)
  let faults = Nsutil.Faults.create ~rate:1.0 ~budget:1 ~seed:5 ~after:10 () in
  let sv = Pool.supervision ~retries:1 ~backoff:0.0 ~faults () in
  check Alcotest.int "one injection absorbed by the serial retry" (closed_form 100)
    (sum sv ~workers:4 ~tasks:100);
  check Alcotest.int "the injection fired" 1 (Nsutil.Faults.fired faults)

let test_failed_chunk_folded_once () =
  (* A chunk that raises midway has already folded its prefix into the
     worker's accumulator; the retry must not fold that prefix a
     second time. One transient failure at index 19 (chunk 16..23):
     double counting would add 16+17+18 = 51. *)
  List.iter
    (fun workers ->
      let first = Atomic.make true in
      let total =
        sum_with (Pool.supervision ~retries:2 ~backoff:0.0 ()) ~workers ~tasks:64 (fun i ->
            if i = 19 && Atomic.compare_and_set first true false then
              failwith "transient fault at 19")
      in
      check Alcotest.int (Printf.sprintf "workers=%d" workers) (closed_form 64) total;
      check Alcotest.bool "the fault fired" false (Atomic.get first))
    [ 1; 2; 4 ]

let test_supervised_failure_attribution () =
  (* A deterministic always-failing task index: supervision must name
     it, with the attempt count, after exhausting the budget. *)
  let attempts = ref [] in
  let sv =
    Pool.supervision ~retries:2 ~backoff:0.0
      ~on_retry:(fun ~attempt ~index ~error:_ -> attempts := (attempt, index) :: !attempts)
      ()
  in
  match
    sum_with sv ~workers:4 ~tasks:64 (fun i -> if i = 37 then failwith "task 37 is cursed")
  with
  | _ -> Alcotest.fail "expected Supervision_failed"
  | exception Pool.Supervision_failed [ { Pool.index; attempts = n; error } ] ->
      check Alcotest.int "failing index" 37 index;
      (* initial attempt + 2 retries, the last serial *)
      check Alcotest.int "attempts" 3 n;
      check Alcotest.bool "error preserved" true (contains error "cursed");
      check Alcotest.bool "on_retry saw the index" true
        (List.for_all (fun (_, i) -> i = 37) !attempts && List.length !attempts = 2)
  | exception Pool.Supervision_failed l ->
      Alcotest.failf "expected exactly one failure, got %d" (List.length l)

let test_supervised_multiple_failures_aggregated () =
  (* Failures in distinct chunks are all reported, sorted by task
     index, one per chunk. The chunks that fold fine are re-run when a
     failure retires their worker's accumulator; they must not be
     reported. *)
  match
    sum_with ~grain:10
      (Pool.supervision ~retries:0 ~backoff:0.0 ())
      ~workers:4 ~tasks:100
      (fun i -> if i mod 30 = 7 then failwith "boom")
  with
  | _ -> Alcotest.fail "expected Supervision_failed"
  | exception Pool.Supervision_failed failures ->
      check
        Alcotest.(list int)
        "first failing task of each failing chunk, ascending" [ 7; 37; 67; 97 ]
        (List.map (fun f -> f.Pool.index) failures);
      List.iter (fun f -> check Alcotest.int "attempts" 1 f.Pool.attempts) failures

let test_supervised_engine_parity_under_faults () =
  (* The engine's shape under faults: per-index float addends, then a
     serial replay into a few buckets, bit-identical between a clean
     run and a faulted one at every worker count. *)
  let tasks = 300 in
  let run sv workers =
    let addend = Array.make tasks 0.0 in
    Pool.map_reduce_dynamic_supervised sv ~workers ~tasks ~grain:8
      ~init:(fun () -> ())
      ~task:(fun () i -> addend.(i) <- 1.0 /. float_of_int (i + 1))
      ~combine:(fun () () -> ());
    let buckets = Array.make 4 0.0 in
    Array.iteri (fun i v -> buckets.(i mod 4) <- buckets.(i mod 4) +. v) addend;
    buckets
  in
  let clean = run Pool.no_supervision 1 in
  List.iter
    (fun workers ->
      let faults = Nsutil.Faults.create ~rate:0.05 ~budget:2 ~seed:11 () in
      let faulted = run (Pool.supervision ~retries:2 ~backoff:0.0 ~faults ()) workers in
      let label = Printf.sprintf "workers=%d" workers in
      check Alcotest.(array (float 0.0)) (label ^ ": bit-identical floats") clean faulted;
      check Alcotest.int (label ^ ": faults fired") 2 (Nsutil.Faults.fired faults))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Dynamic (self-scheduled) chunk claiming *)

let test_dynamic_per_index_slots () =
  (* Per-index slot publication must equal Array.init for every
     (workers, tasks, grain) shape, including uneven tails where the
     last chunk is shorter than the grain. *)
  let f i = (i * 7) + 3 in
  List.iter
    (fun (workers, tasks, grain) ->
      check
        Alcotest.(array int)
        (Printf.sprintf "workers=%d tasks=%d grain=%d" workers tasks grain)
        (Array.init tasks f)
        (slots Pool.no_supervision ~workers ~tasks ~grain f))
    [ (1, 100, 8); (3, 17, 4); (4, 100, 8); (4, 3, 8); (7, 97, 1); (2, 64, 64) ]

let test_dynamic_sum_regrouping_invariant () =
  (* An integer sum is invariant under regrouping of tasks into
     accumulators, so it is safe under dynamic scheduling and must
     match the closed form for any worker count. *)
  let tasks = 500 in
  List.iter
    (fun workers ->
      check Alcotest.int
        (Printf.sprintf "workers=%d" workers)
        (closed_form tasks)
        (sum Pool.no_supervision ~workers ~tasks))
    [ 1; 2; 4; 7 ]

let test_dynamic_workers1_in_order () =
  (* A single worker claims chunks in ascending order in the calling
     domain: tasks run in index order, so even order-sensitive
     accumulators are safe there. *)
  let tasks = 53 in
  let r =
    !(Pool.map_reduce_dynamic_supervised Pool.no_supervision ~workers:1 ~tasks ~grain:4
        ~init:(fun () -> ref [])
        ~task:(fun acc i -> acc := !acc @ [ i ])
        ~combine:(fun a b ->
          a := !a @ !b;
          a))
  in
  check Alcotest.(list int) "ascending" (List.init tasks (fun i -> i)) r

let test_dynamic_zero_tasks () =
  check Alcotest.int "bare accumulator" 0
    (sum_with Pool.no_supervision ~workers:4 ~tasks:0 (fun _ ->
         Alcotest.fail "task called with zero tasks"))

let test_dynamic_failure_attribution () =
  (* With a zero retry budget a deterministically cursed index must
     surface in Supervision_failed, attributed by task index. *)
  match
    sum_with
      (Pool.supervision ~retries:0 ~backoff:0.0 ())
      ~workers:4 ~tasks:64
      (fun i -> if i = 42 then failwith "task 42 is cursed")
  with
  | _ -> Alcotest.fail "expected Supervision_failed"
  | exception Pool.Supervision_failed [ { Pool.index; error; _ } ] ->
      check Alcotest.int "failing index" 42 index;
      check Alcotest.bool "error preserved" true (contains error "cursed")
  | exception Pool.Supervision_failed l ->
      Alcotest.failf "expected exactly one failure, got %d" (List.length l)

let test_dynamic_retries_recover () =
  (* A transient failure — fails on first execution of index 19, then
     succeeds on re-execution — must be absorbed by chunk retries, with
     every slot still correct. *)
  let first = Atomic.make true in
  let out =
    slots
      (Pool.supervision ~retries:2 ~backoff:0.0 ())
      ~workers:4 ~tasks:64 ~grain:8
      (fun i ->
        if i = 19 && Atomic.compare_and_set first true false then
          failwith "transient fault at 19";
        i * 2)
  in
  check Alcotest.(array int) "all slots published" (Array.init 64 (fun i -> i * 2)) out;
  check Alcotest.bool "the fault actually fired" true (not (Atomic.get first))

let test_dynamic_float_parity_under_faults () =
  (* Per-index float slots are bit-identical between a clean run and a
     fault-injected run with retries: re-running an index overwrites
     its slot with the same value. *)
  let run sv =
    slots sv ~workers:4 ~tasks:300 ~grain:8 (fun i -> 1.0 /. float_of_int (i + 1))
  in
  let clean = run Pool.no_supervision in
  let faults = Nsutil.Faults.create ~rate:0.05 ~budget:3 ~seed:17 () in
  let faulted = run (Pool.supervision ~retries:2 ~backoff:0.0 ~faults ()) in
  check Alcotest.(array (float 0.0)) "bit-identical floats" clean faulted;
  check Alcotest.int "faults fired" 3 (Nsutil.Faults.fired faults)

(* ------------------------------------------------------------------ *)
(* Watchdog: hang detection, cancellation, and the backoff schedule *)

let hang_plan ~after =
  (* [pool.hang] is a scoped-only site: it must be named to fire, so a
     plan for it can never disturb the [pool.task] shot schedule. *)
  Nsutil.Faults.of_plan
    [ (Some "pool.hang", { Nsutil.Faults.seed = 7; rate = 1.0; budget = 1; after }) ]

let test_watchdog_recovers_hung_task () =
  (* One injected hang stalls the single worker in the calling domain
     until the watchdog cancels it; the calling domain then runs what
     is left and the retry re-executes the cancelled chunk, so the sum
     is unchanged. *)
  let tasks = 100 in
  let faults = hang_plan ~after:20 in
  let retried = ref [] in
  let sv =
    Pool.supervision ~retries:2 ~backoff:0.0 ~timeout_ms:50 ~faults
      ~on_retry:(fun ~attempt:_ ~index:_ ~error -> retried := error :: !retried)
      ()
  in
  check Alcotest.int "sum unchanged" (closed_form tasks) (sum sv ~workers:1 ~tasks);
  check Alcotest.int "the hang fired" 1 (Nsutil.Faults.fired faults);
  check Alcotest.bool "a retry absorbed the cancelled chunk" true (!retried <> [])

let test_watchdog_cancelled_chunk_folded_once () =
  (* A hang cancelled by the watchdog leaves the chunk's prefix in the
     cancelled worker's accumulator; it must not be folded twice.
     Four chunks of 16 and the hang on the 57th task boundary: the
     other three chunks account for at most 48 boundaries, so the hang
     always lands at offset >= 8 of its chunk, whatever the schedule. *)
  List.iter
    (fun workers ->
      let faults = hang_plan ~after:56 in
      let sv = Pool.supervision ~retries:2 ~backoff:0.0 ~timeout_ms:50 ~faults () in
      check Alcotest.int
        (Printf.sprintf "workers=%d" workers)
        (closed_form 64)
        (sum ~grain:16 sv ~workers ~tasks:64);
      check Alcotest.int "the hang fired" 1 (Nsutil.Faults.fired faults))
    [ 2; 4 ]

let test_watchdog_unarmed_hang_degrades () =
  (* With no timeout armed the injected hang must degrade to an
     immediate raise — never a deadlock — and the retry machinery
     absorbs it like any other fault. *)
  let tasks = 64 in
  let sv = Pool.supervision ~retries:2 ~backoff:0.0 ~faults:(hang_plan ~after:5) () in
  check Alcotest.int "sum unchanged" (closed_form tasks) (sum sv ~workers:4 ~tasks)

let test_watchdog_dynamic_drain () =
  (* A hang in one chunk is cancelled, the calling domain drains the
     chunks the cancelled worker never claimed, and the retry
     republishes the failed chunk's slots — no index lost, every slot
     correct. *)
  let tasks = 120 in
  let sv =
    Pool.supervision ~retries:2 ~backoff:0.0 ~timeout_ms:50 ~faults:(hang_plan ~after:30) ()
  in
  check
    Alcotest.(array int)
    "all slots published"
    (Array.init tasks (fun i -> i * 3))
    (slots sv ~workers:4 ~tasks ~grain:8 (fun i -> i * 3))

let test_backoff_delay_schedule () =
  (* The retry sleep schedule is a pure function of (jitter_seed,
     attempt, index): reproducible run to run, capped, and decorrelated
     across indices. *)
  let mk () = Pool.supervision ~retries:5 ~backoff:0.1 ~backoff_cap:0.3 ~jitter_seed:42 () in
  let a = mk () and b = mk () in
  for attempt = 1 to 6 do
    for index = 0 to 3 do
      check (Alcotest.float 0.0)
        (Printf.sprintf "deterministic attempt=%d index=%d" attempt index)
        (Pool.backoff_delay a ~attempt ~index)
        (Pool.backoff_delay b ~attempt ~index)
    done
  done;
  (* Exponential base: attempt 2 doubles to attempt 3 before the cap
     bites; the jitter factor lives in [0.5, 1.0]. *)
  let d2 = Pool.backoff_delay a ~attempt:2 ~index:0 in
  check Alcotest.bool "positive" true (d2 > 0.0);
  check Alcotest.bool "within base" true (d2 >= 0.05 && d2 <= 0.1);
  (* Far attempts saturate at the cap (times the jitter factor). *)
  let d9 = Pool.backoff_delay a ~attempt:9 ~index:0 in
  check Alcotest.bool "capped" true (d9 <= 0.3 && d9 >= 0.15);
  (* Distinct indices draw distinct jitter: retrying chunks never
     synchronize their sleeps. *)
  check Alcotest.bool "decorrelated across indices" true
    (Pool.backoff_delay a ~attempt:4 ~index:1 <> Pool.backoff_delay a ~attempt:4 ~index:2);
  (* backoff = 0 disables sleeping entirely. *)
  check (Alcotest.float 0.0) "zero backoff" 0.0
    (Pool.backoff_delay (Pool.supervision ~retries:2 ~backoff:0.0 ()) ~attempt:5 ~index:0)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map_reduce sums" `Quick test_map_reduce_sums;
          Alcotest.test_case "map_array" `Quick test_map_array;
          Alcotest.test_case "more workers than tasks" `Quick test_more_workers_than_tasks;
          Alcotest.test_case "zero tasks" `Quick test_zero_tasks;
          Alcotest.test_case "single worker runs in the caller" `Quick
            test_single_worker_in_caller;
          Alcotest.test_case "recommended workers" `Quick test_recommended_workers_positive;
          Alcotest.test_case "parallel utility = sequential" `Quick
            test_parallel_utility_matches_sequential;
          Alcotest.test_case "engine fan-outs run on the bank" `Quick
            test_engine_fanouts_on_bank;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "supervised = unsupervised" `Quick
            test_supervised_matches_unsupervised;
          Alcotest.test_case "zero tasks" `Quick test_supervised_zero_tasks;
          Alcotest.test_case "retries recover" `Quick test_supervised_retries_recover;
          Alcotest.test_case "serial fallback" `Quick test_supervised_serial_fallback;
          Alcotest.test_case "failed chunk folded once" `Quick test_failed_chunk_folded_once;
          Alcotest.test_case "failure attribution" `Quick
            test_supervised_failure_attribution;
          Alcotest.test_case "multiple failures aggregated" `Quick
            test_supervised_multiple_failures_aggregated;
          Alcotest.test_case "float parity under faults" `Quick
            test_supervised_engine_parity_under_faults;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "hung task recovered" `Quick test_watchdog_recovers_hung_task;
          Alcotest.test_case "cancelled chunk folded once" `Quick
            test_watchdog_cancelled_chunk_folded_once;
          Alcotest.test_case "unarmed hang degrades" `Quick
            test_watchdog_unarmed_hang_degrades;
          Alcotest.test_case "dynamic drain under hang" `Quick test_watchdog_dynamic_drain;
          Alcotest.test_case "backoff schedule" `Quick test_backoff_delay_schedule;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "per-index slots = Array.init" `Quick
            test_dynamic_per_index_slots;
          Alcotest.test_case "regrouping-invariant sum" `Quick
            test_dynamic_sum_regrouping_invariant;
          Alcotest.test_case "workers=1 is in-order serial" `Quick
            test_dynamic_workers1_in_order;
          Alcotest.test_case "zero tasks" `Quick test_dynamic_zero_tasks;
          Alcotest.test_case "failure attribution" `Quick test_dynamic_failure_attribution;
          Alcotest.test_case "retries recover" `Quick test_dynamic_retries_recover;
          Alcotest.test_case "float parity under faults" `Quick
            test_dynamic_float_parity_under_faults;
        ] );
    ]
