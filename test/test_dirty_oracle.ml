(* The fused dirty-destination check against its eager reference.

   [Incremental.begin_round] only marks destinations (dirty, pending or
   clean) without reading statics; the sweep resolves each pending one
   on the statics record it fetches anyway. Whatever the store
   (unbounded, or a budget so small that every record streams) and
   whatever the sweep's worker count, the dirty set must equal the
   eager serial scan's ([Testkit.Refdirty]) on every round of a random
   flip sequence — and the fused path must build fewer records. *)

module Route_static = Bgp.Route_static
module Incremental = Core.Incremental
module State = Core.State
module Gen = QCheck2.Gen

let check = Alcotest.check

(* Below one record's size: nothing is ever resident, so every fetch
   of a record is a miss and the counters count builds exactly. *)
let tiny_budget = 1024

type mode = Sweep of int | Serial

let mode_to_string = function
  | Sweep w -> Printf.sprintf "sweep at %d workers" w
  | Serial -> "serial"

let misses store = (Route_static.stats store).Route_static.misses

(* Resolve every destination of the round. [Sweep w] asks [is_dirty]
   the way the engine's sweep does, with a fetch through the worker's
   own builder; [Serial] is a caller outside any sweep — [dirty_count]
   first, then [is_dirty] without a fetch. *)
let resolve_all mode inc store n =
  match mode with
  | Serial ->
      ignore (Incremental.dirty_count inc);
      Array.init n (fun d -> Incremental.is_dirty inc d)
  | Sweep workers ->
      let got = Array.make n false in
      ignore
        (Parallel.Pool.map_reduce_dynamic_supervised Parallel.Pool.no_supervision
           ~workers ~tasks:n ~grain:4
           ~init:(fun () -> Route_static.make_builder n)
           ~task:(fun bd d ->
             got.(d) <-
               Incremental.is_dirty
                 ~fetch:(fun () -> Route_static.stream_get store bd d)
                 inc d)
           ~combine:(fun a _ -> a));
      got

let count_true a = Array.fold_left (fun k b -> if b then k + 1 else k) 0 a

let fused_matches_oracle (g, seed, budgeted, mode) =
  let n = Asgraph.Graph.n g in
  let make_store () =
    if budgeted then Route_static.create ~budget_bytes:tiny_budget g
    else Route_static.create ~budget_bytes:0 g
  in
  let store = make_store () and oracle_store = make_store () in
  let inc = Incremental.create store in
  let state = State.create g ~early:[] in
  let rng = Nsutil.Prng.create ~seed in
  for round = 1 to 6 do
    for _ = 1 to Nsutil.Prng.int rng 4 do
      let v = Nsutil.Prng.int rng n in
      if State.full state v then State.disable state v else ignore (State.enable state v)
    done;
    let expected =
      if State.marked state then
        Testkit.Refdirty.invalidate oracle_store
          ~changed:(State.changed_since_mark state)
          ~secure:(State.secure_bytes state)
      else Array.make n true
    in
    Incremental.begin_round inc state;
    let got = resolve_all mode inc store n in
    if got <> expected then
      QCheck2.Test.fail_reportf "round %d (%s): dirty set differs from the oracle"
        round (mode_to_string mode);
    (* Once every destination is resolved, counting and re-running the
       sweep (as supervision does) read no statics and change nothing. *)
    let m = misses store in
    if Incremental.dirty_count inc <> count_true expected then
      QCheck2.Test.fail_reportf "round %d: dirty_count differs" round;
    if resolve_all mode inc store n <> expected then
      QCheck2.Test.fail_reportf "round %d: a re-run resolved differently" round;
    if misses store <> m then
      QCheck2.Test.fail_reportf "round %d: a resolved round read the store" round
  done;
  true

let test_fused_matches_oracle =
  let gen =
    Gen.(
      quad
        (Testkit.Graphgen.graph ~max_n:40 ())
        (int_bound 1_000_000) bool
        (oneofl [ Sweep 1; Sweep 2; Serial ]))
  in
  let print (g, seed, budgeted, mode) =
    Printf.sprintf "n=%d seed=%d %s %s" (Asgraph.Graph.n g) seed
      (if budgeted then "tiny budget" else "unbounded")
      (mode_to_string mode)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"fused dirty set = eager scan" ~count:150 ~print gen
       fused_matches_oracle)

(* A fixed budgeted game, played once by the engine at one worker; its
   flip sequence is then replayed through two sweeps over fresh tiny-
   budget stores, where the miss counters are exact build counts:
   - the oracle path scans eagerly, then the sweep fetches every dirty
     destination again;
   - the fused path fetches each destination that needs a record once,
     resolves on it, recomputes the dirty forests and stores them, then
     does what the engine does between its sweep and its reduce
     ([dirty_count], every entry's addend replay) — which must read no
     statics at all. *)
let test_fused_builds_once () =
  let params = { (Topology.Params.with_n Topology.Params.default 120) with seed = 11 } in
  let built = Topology.Gen.generate params in
  let g = built.graph in
  let n = Asgraph.Graph.n g in
  let weight = Traffic.Weights.assign g ~cp_fraction:0.1 in
  let early = built.cps @ Asgraph.Metrics.top_by_degree g 5 in
  let cfg = { Core.Config.default with Core.Config.workers = 1 } in
  let r =
    Core.Engine.run cfg
      (Route_static.create ~budget_bytes:tiny_budget g)
      ~weight ~state:(State.create g ~early)
  in
  check Alcotest.bool "the game has several rounds" true (List.length r.rounds > 2);
  let replay make_sweep =
    let store = Route_static.create ~budget_bytes:tiny_budget g in
    let sweep = make_sweep store in
    let state = State.create g ~early in
    let dirty_total = ref 0 in
    List.iter
      (fun (rr : Core.Engine.round_record) ->
        dirty_total := !dirty_total + sweep state;
        List.iter (fun i -> ignore (State.enable state i)) rr.turned_on;
        List.iter (fun i -> State.disable state i) rr.turned_off)
      r.rounds;
    (!dirty_total, misses store)
  in
  let bd = Route_static.make_builder n in
  let oracle_sweep store state =
    let dirty =
      if State.marked state then
        Testkit.Refdirty.invalidate store
          ~changed:(State.changed_since_mark state)
          ~secure:(State.secure_bytes state)
      else Array.make n true
    in
    State.mark state;
    Array.iteri (fun d b -> if b then ignore (Route_static.stream_get store bd d)) dirty;
    count_true dirty
  in
  let scratch = Bgp.Forest.make_scratch n in
  let fused_sweep store =
    let inc = Incremental.create store in
    fun state ->
      Incremental.begin_round inc state;
      let secure = State.secure_bytes state in
      let use_secp = State.use_secp_bytes state ~stub_tiebreak:cfg.stub_tiebreak in
      for d = 0 to n - 1 do
        let slot = ref None in
        let fetch () =
          match !slot with
          | Some info -> info
          | None ->
              let info = Route_static.stream_get store bd d in
              slot := Some info;
              info
        in
        if Incremental.is_dirty ~fetch inc d then begin
          let info = fetch () in
          Bgp.Forest.compute info ~tiebreak:cfg.tiebreak ~secure ~use_secp ~weight scratch;
          let pairs = Core.Utility.contribution_pairs cfg.model g info scratch ~weight in
          Incremental.store inc d ~sec_path:scratch.Bgp.Forest.sec_path ~pairs
        end
      done;
      let m = misses store in
      let dc = Incremental.dirty_count inc in
      let utilities = Array.make n 0.0 in
      for d = 0 to n - 1 do
        Incremental.add_pairs (Incremental.entry inc d) ~into:utilities
      done;
      check Alcotest.int "no statics read between sweep and reduce" m (misses store);
      dc
  in
  let oracle_dirty, oracle_misses = replay oracle_sweep in
  let fused_dirty, fused_misses = replay fused_sweep in
  check Alcotest.int "same dirty destinations over the game" oracle_dirty fused_dirty;
  check Alcotest.bool
    (Printf.sprintf "fused misses (%d) < oracle misses (%d)" fused_misses oracle_misses)
    true
    (fused_misses < oracle_misses)

(* A destination left pending by one [invalidate] and not resolved
   before the next was decided against a changed set that is gone, so
   the next call must keep it dirty rather than let it resolve against
   the new (here empty) set. *)
let test_stale_pending_stays_dirty () =
  let params = { (Topology.Params.with_n Topology.Params.default 40) with seed = 3 } in
  let g = (Topology.Gen.generate params).graph in
  let n = Asgraph.Graph.n g in
  let dirty = Route_static.Dirty.create (Route_static.create g) in
  Route_static.Dirty.reset dirty;
  let secure = Bytes.make n '\001' in
  Route_static.Dirty.invalidate dirty ~changed:[ 0 ] ~secure;
  Route_static.Dirty.invalidate dirty ~changed:[] ~secure;
  check Alcotest.int "every pending destination kept dirty" n
    (Route_static.Dirty.dirty_count dirty)

let () =
  Alcotest.run "dirty_oracle"
    [
      ( "oracle",
        [
          test_fused_matches_oracle;
          Alcotest.test_case "stale pending stays dirty" `Quick
            test_stale_pending_stays_dirty;
        ] );
      ( "builds",
        [
          Alcotest.test_case "fused check builds each record once" `Quick
            test_fused_builds_once;
        ] );
    ]
