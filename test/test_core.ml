(* Tests for the deployment game: state bookkeeping, the two utility
   models, the round engine and the analyses. *)

module Graph = Asgraph.Graph
module State = Core.State
module Config = Core.Config
module Utility = Core.Utility
module Engine = Core.Engine
module Analyses = Core.Analyses
module Route_static = Bgp.Route_static

let check = Alcotest.check
let qtest ?(count = 150) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* tier1 (0), ISPs 1 and 2, CP 3 peering with 0, stubs 4 (multi) and
   5 (single-homed to 2). *)
let small () =
  Graph.build ~n:6
    ~cp_edges:[ (0, 1); (0, 2); (1, 4); (2, 4); (2, 5) ]
    ~peer_edges:[ (0, 3); (1, 2) ]
    ~cps:[ 3 ]

let lowest_id_cfg = { Config.default with tiebreak = Bgp.Policy.Lowest_id }

(* ------------------------------------------------------------------ *)
(* State *)

let test_state_initial () =
  let g = small () in
  let s = State.create g ~early:[ 0; 3 ] in
  check Alcotest.bool "early full" true (State.full s 0);
  check Alcotest.bool "early pinned" true (State.pinned s 0);
  check Alcotest.bool "cp full" true (State.full s 3);
  check Alcotest.bool "others off" false (State.secure s 1);
  (* 0 has no stub customers, so no simplex yet. *)
  check Alcotest.int "secure count" 2 (State.secure_count s)

let test_state_simplex_on_enable () =
  let g = small () in
  let s = State.create g ~early:[] in
  let added = State.enable s 2 in
  check Alcotest.(list int) "stubs upgraded" [ 4; 5 ] (List.sort compare added);
  check Alcotest.bool "stub simplex" true (State.simplex s 4);
  check Alcotest.bool "stub secure" true (State.secure s 4);
  check Alcotest.bool "stub not full" false (State.full s 4);
  check Alcotest.int "isp count" 1 (State.secure_isp_count s);
  check Alcotest.int "stub count" 2 (State.secure_stub_count s)

let test_state_simplex_sticky_on_disable () =
  let g = small () in
  let s = State.create g ~early:[] in
  ignore (State.enable s 2);
  State.disable s 2;
  check Alcotest.bool "isp off" false (State.secure s 2);
  check Alcotest.bool "stub keeps simplex (sticky)" true (State.secure s 4);
  check Alcotest.bool "stub 5 too" true (State.secure s 5)

let test_state_undo_enable_exact () =
  let g = small () in
  let s = State.create g ~early:[ 0 ] in
  ignore (State.enable s 1);
  (* 4 is now simplex via 1. *)
  let sig_before = State.signature s in
  let added = State.enable s 2 in
  check Alcotest.(list int) "only 5 newly upgraded" [ 5 ] added;
  State.undo_enable s 2 ~added;
  check Alcotest.int "signature restored" sig_before (State.signature s);
  check Alcotest.bool "4 still simplex" true (State.secure s 4);
  check Alcotest.bool "5 back to insecure" false (State.secure s 5)

let test_state_pinned_protected () =
  let g = small () in
  let s = State.create g ~early:[ 0 ] ~frozen:[ 1 ] in
  Alcotest.check_raises "early protected" (Invalid_argument "State.disable: pinned node 0")
    (fun () -> State.disable s 0);
  Alcotest.check_raises "frozen protected" (Invalid_argument "State.enable: pinned node 1")
    (fun () -> ignore (State.enable s 1))

let test_state_ablation_flags () =
  let g = small () in
  let s = State.create g ~early:[ 2 ] ~simplex:false in
  check Alcotest.bool "no simplex when disabled" false (State.secure s 4);
  let s2 = State.create g ~early:[ 0; 2 ] ~secp:false in
  let u = State.use_secp_bytes s2 ~stub_tiebreak:true in
  check Alcotest.bool "secp bytes all zero" true
    (Bytes.for_all (fun c -> c = '\000') u)

let test_state_stub_tiebreak_toggle () =
  let g = small () in
  let s = State.create g ~early:[ 2 ] in
  let u = State.use_secp_bytes s ~stub_tiebreak:true in
  check Alcotest.string "stub applies secp when on" "\001" (String.make 1 (Bytes.get u 4));
  let u = State.use_secp_bytes s ~stub_tiebreak:false in
  check Alcotest.string "stub ignores security when off" "\000"
    (String.make 1 (Bytes.get u 4));
  check Alcotest.string "isp always applies" "\001" (String.make 1 (Bytes.get u 2))

let test_state_copy_independent () =
  let g = small () in
  let s = State.create g ~early:[] in
  let s2 = State.copy s in
  ignore (State.enable s2 1);
  check Alcotest.bool "original unchanged" false (State.secure s 1);
  check Alcotest.bool "copy changed" true (State.secure s2 1)

(* ------------------------------------------------------------------ *)
(* Utility *)

(* Hand-computed example in the spirit of Figure 1. State: everyone
   insecure (security does not matter for utility itself, only via
   route choices). Weights: CP 3 has weight 10, everyone else 1.
   Lowest-id tiebreak: tier1 0 routes to stub 4 via ISP 1. *)
let utilities model =
  let g = small () in
  let statics = Route_static.create g in
  let state = State.create g ~early:[] in
  let weight = [| 1.0; 1.0; 1.0; 10.0; 1.0; 1.0 |] in
  Utility.all { lowest_id_cfg with model } statics state ~weight

let test_outgoing_utilities_hand_checked () =
  let u = utilities Config.Outgoing in
  (* ISP 1: destination 4 via customer edge; subtree through it:
     0 (1) + 3 (10) = 11. No other customer destinations carry
     transit (dest 4 is its only customer). *)
  check (Alcotest.float 1e-9) "isp1" 11.0 u.(1);
  (* ISP 2: dest 4: carries 5's unit. dest 5: carries 0 (1), 3 (10),
     1 (1), 4 (1) = 13. Total 14. *)
  check (Alcotest.float 1e-9) "isp2" 14.0 u.(2);
  (* Tier 1: dests 1, 2, 4, 5 are reached via customer edges; it
     transits cp traffic (10) to each of the four, and peer/sibling
     traffic: to 1: 10; to 2: 10; to 4: 10; to 5: 10. Plus nothing
     else (1 and 2 route to each other via their peer edge). *)
  check (Alcotest.float 1e-9) "tier1" 40.0 u.(0);
  (* Stubs and the CP transit nothing. *)
  check (Alcotest.float 1e-9) "stub" 0.0 u.(4);
  check (Alcotest.float 1e-9) "cp" 0.0 u.(3)

let test_incoming_utilities_hand_checked () =
  let u = utilities Config.Incoming in
  (* ISP 1: receives over customer edges: traffic from stub 4 to every
     destination 4 reaches via 1. Stub 4's tie to everything beyond
     its providers: lowest-id picks 1 for dests 0, 1, 3 (via 1), and
     for dest 2, 5? Stub 4 routes to 2 via provider 2 directly, to 5
     via 2. So 4 sends through 1 its traffic to 0, 1, 3: 3 units.
     Nothing else enters 1 via a customer edge. *)
  check (Alcotest.float 1e-9) "isp1" 3.0 u.(1);
  (* Tier 1 receives from customers 1 and 2. Traffic entering via 1:
     1's traffic to dests 0, 3 (2 units; note dest 2 goes over the
     peer edge 1-2) plus 4's traffic to 0, 3 relayed through 1 (2
     units). Via 2: 2's traffic to 0, 3 (2) plus 5's to 0, 3 (2).
     Total 8. *)
  check (Alcotest.float 1e-9) "tier1" 8.0 u.(0);
  check (Alcotest.float 1e-9) "stub" 0.0 u.(5)

(* The whole-graph utility loops stream evicted statics through one
   builder: a store far smaller than one round's records must give the
   same floats as an unbounded one, and stay within its budget. *)
let test_utility_loops_budget_invariant () =
  let params = Topology.Params.with_n Topology.Params.default 150 in
  let g = (Topology.Gen.generate { params with seed = 3 }).graph in
  let n = Graph.n g in
  let state = State.create g ~early:[ 0; 1; 2; 3 ] in
  let weight = Array.init n (fun i -> 1.0 +. float (i mod 7)) in
  let unbounded = Route_static.create ~budget_bytes:0 g in
  let tiny = Route_static.create ~budget_bytes:20_000 g in
  List.iter
    (fun model ->
      let cfg = { lowest_id_cfg with model } in
      check
        Alcotest.(array (float 0.0))
        "Utility.all" (Utility.all cfg unbounded state ~weight)
        (Utility.all cfg tiny state ~weight);
      check
        Alcotest.(array (list (pair int (float 0.0))))
        "customer_volumes"
        (Utility.customer_volumes cfg unbounded state ~weight)
        (Utility.customer_volumes cfg tiny state ~weight))
    [ Config.Outgoing; Config.Incoming ];
  let st = Route_static.stats tiny in
  check Alcotest.bool "tiny store missed" true (st.misses > n);
  check Alcotest.bool "tiny store within budget" true (st.cached_bytes <= st.budget_bytes);
  check Alcotest.bool "unbounded store warm" true ((Route_static.stats unbounded).cached = n)

let test_utility_all_equals_sum_of_contributions () =
  let g = small () in
  let statics = Route_static.create g in
  let state = State.create g ~early:[ 0 ] in
  let weight = [| 1.0; 1.0; 1.0; 10.0; 1.0; 1.0 |] in
  List.iter
    (fun model ->
      let cfg = { lowest_id_cfg with model } in
      let all = Utility.all cfg statics state ~weight in
      let scratch = Bgp.Forest.make_scratch (Graph.n g) in
      let secure = State.secure_bytes state in
      let use_secp = State.use_secp_bytes state ~stub_tiebreak:cfg.stub_tiebreak in
      for node = 0 to Graph.n g - 1 do
        let total = ref 0.0 in
        for d = 0 to Graph.n g - 1 do
          let info = Route_static.get statics d in
          Bgp.Forest.compute info ~tiebreak:cfg.tiebreak ~secure ~use_secp ~weight scratch;
          total := !total +. Utility.contribution model g info scratch ~weight node
        done;
        check (Alcotest.float 1e-9) "per-node sum" all.(node) !total
      done)
    [ Config.Outgoing; Config.Incoming ]

let test_stub_and_cp_utility_zero =
  qtest "stubs and CPs never earn transit utility"
    QCheck2.Gen.(
      let* g = Testkit.Graphgen.graph ~max_n:25 () in
      let* secure, _ = Testkit.Graphgen.secure_state g in
      return (g, secure))
    (fun (g, secure) ->
      let statics = Route_static.create g in
      let state = State.create g ~early:[] in
      (* Mirror the random secure set through enable (ISPs only). *)
      for i = 0 to Graph.n g - 1 do
        if Bytes.get secure i = '\001' && Graph.is_isp g i then ignore (State.enable state i)
      done;
      let weight = Array.make (Graph.n g) 1.0 in
      List.for_all
        (fun model ->
          let u = Utility.all { lowest_id_cfg with model } statics state ~weight in
          let ok = ref true in
          for i = 0 to Graph.n g - 1 do
            if (not (Graph.is_isp g i)) && u.(i) > 1e-9 then ok := false
          done;
          !ok)
        [ Config.Outgoing; Config.Incoming ])

(* Theorem 6.2: in the outgoing model a secure node never gains by
   turning off. *)
let test_theorem_6_2 =
  qtest ~count:200 "outgoing utility never increases by disabling (Thm 6.2)"
    QCheck2.Gen.(
      let* g = Testkit.Graphgen.graph ~max_n:22 () in
      let* bits = list_repeat (Graph.n g) bool in
      let* pick = int_bound (Graph.n g - 1) in
      return (g, bits, pick))
    (fun (g, bits, pick) ->
      let isps =
        List.filteri (fun i b -> b && Graph.is_isp g i) (List.mapi (fun i b -> (i, b)) bits |> List.map snd)
      in
      ignore isps;
      let statics = Route_static.create g in
      let state = State.create g ~early:[] in
      List.iteri
        (fun i b -> if b && Graph.is_isp g i then ignore (State.enable state i))
        bits;
      (* Choose a full ISP to flip (if any). *)
      let candidates = ref [] in
      for i = 0 to Graph.n g - 1 do
        if State.full state i then candidates := i :: !candidates
      done;
      match !candidates with
      | [] -> true
      | l ->
          let n = List.nth l (pick mod List.length l) in
          let weight = Array.make (Graph.n g) 1.0 in
          let cfg = { lowest_id_cfg with model = Config.Outgoing } in
          let u_on = (Utility.all cfg statics state ~weight).(n) in
          State.disable state n;
          let u_off = (Utility.all cfg statics state ~weight).(n) in
          u_on >= u_off -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_trivial_stable () =
  let g = small () in
  let statics = Route_static.create g in
  let weight = Traffic.Weights.assign g ~cp_fraction:0.1 in
  let state = State.create g ~early:[] in
  let result = Engine.run lowest_id_cfg statics ~weight ~state in
  check Alcotest.int "one quiet round" 1 (Engine.rounds_run result);
  check Alcotest.bool "stable" true (result.termination = Engine.Stable)

let test_engine_outgoing_never_turns_off =
  qtest ~count:60 "outgoing-model runs never disable"
    QCheck2.Gen.(
      let* g = Testkit.Graphgen.graph ~max_n:25 () in
      let* early_bits = list_repeat (Graph.n g) bool in
      return (g, early_bits))
    (fun (g, early_bits) ->
      let early =
        List.filteri (fun i _ -> Graph.is_isp g i)
          (List.mapi (fun i b -> if b then i else -1) early_bits)
        |> List.filter (fun i -> i >= 0 && Graph.is_isp g i)
      in
      let statics = Route_static.create g in
      let weight = Array.make (Graph.n g) 1.0 in
      let state = State.create g ~early in
      let result = Engine.run lowest_id_cfg statics ~weight ~state in
      List.for_all (fun (r : Engine.round_record) -> r.turned_off = []) result.rounds)

let test_engine_secure_monotone_outgoing =
  qtest ~count:60 "secure count is monotone under the outgoing model"
    (Testkit.Graphgen.graph ~max_n:25 ())
    (fun g ->
      let early = Asgraph.Metrics.top_by_degree g 2 in
      let statics = Route_static.create g in
      let weight = Array.make (Graph.n g) 1.0 in
      let state = State.create g ~early in
      let result = Engine.run lowest_id_cfg statics ~weight ~state in
      let rec monotone last = function
        | [] -> true
        | (r : Engine.round_record) :: rest -> r.secure_as >= last && monotone r.secure_as rest
      in
      monotone result.initial_secure_as result.rounds)

let test_engine_projection_exact_for_lone_flipper () =
  (* In the diamond gadget exactly one ISP flips in each round, so the
     myopic projection must equal the realized utility next round. *)
  let d = Gadgets.Diamond.build () in
  let statics = Route_static.create d.graph in
  let state = State.create d.graph ~early:d.early in
  let result = Engine.run Gadgets.Diamond.config statics ~weight:d.weight ~state in
  match result.rounds with
  | r1 :: r2 :: _ ->
      check Alcotest.(list int) "round1 lone flipper" [ d.isp_b ] r1.turned_on;
      check (Alcotest.float 1e-9) "projection realized exactly"
        r1.projected.(d.isp_b) r2.utilities.(d.isp_b)
  | _ -> Alcotest.fail "expected at least two rounds"

let test_engine_respects_frozen () =
  let g = small () in
  let statics = Route_static.create g in
  let weight = [| 1.0; 1.0; 1.0; 50.0; 1.0; 1.0 |] in
  let state = State.create g ~early:[ 0; 3 ] ~frozen:[ 1; 2 ] in
  let result = Engine.run lowest_id_cfg statics ~weight ~state in
  check Alcotest.bool "frozen 1 stays off" false (State.secure result.final 1);
  check Alcotest.bool "frozen 2 stays off" false (State.secure result.final 2)

let test_engine_baseline_state_independent () =
  let g = small () in
  let statics = Route_static.create g in
  let weight = [| 1.0; 1.0; 1.0; 10.0; 1.0; 1.0 |] in
  let r1 =
    Engine.run lowest_id_cfg statics ~weight ~state:(State.create g ~early:[ 0 ])
  in
  let r2 =
    Engine.run lowest_id_cfg statics ~weight ~state:(State.create g ~early:[ 0; 3 ])
  in
  check Alcotest.(array (float 1e-9)) "baselines equal" r1.baseline r2.baseline

let test_engine_max_rounds () =
  let c = Gadgets.Chicken.build () in
  let statics = Route_static.create c.graph in
  let cfg = { Gadgets.Chicken.config with max_rounds = 1 } in
  let state = State.create c.graph ~early:c.early ~frozen:c.frozen in
  let result = Engine.run cfg statics ~weight:c.weight ~state in
  check Alcotest.bool "hit the cap" true (result.termination = Engine.Max_rounds)

(* ------------------------------------------------------------------ *)
(* Analyses *)

let test_analyses_diamonds () =
  let g = small () in
  let statics = Route_static.create g in
  (* Early adopter 0's tiebreak set towards stub 4 is {1, 2}: one
     diamond. Stub 5 is single-homed: none. *)
  check Alcotest.(list (pair int int)) "diamond count" [ (0, 1) ]
    (Analyses.diamonds statics ~early:[ 0 ])

let test_analyses_tiebreak_distribution () =
  let g = small () in
  let statics = Route_static.create g in
  let dist = Analyses.tiebreak_distribution statics ~among:(fun _ -> true) in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 dist in
  (* Reachable ordered pairs, self excluded: n * (n-1) = 30 in this
     fully-reachable graph. *)
  check Alcotest.int "pairs counted" 30 total;
  check Alcotest.bool "has singleton sets" true (List.mem_assoc 1 dist);
  check Alcotest.bool "has the diamond set" true (List.mem_assoc 2 dist)

let test_analyses_secure_path_stats () =
  let g = small () in
  let statics = Route_static.create g in
  let weight = Array.make 6 1.0 in
  (* Everything secure: every reachable pair is secure. *)
  let state = State.create g ~early:[ 0; 1; 2; 3 ] in
  let stats = Analyses.secure_path_stats lowest_id_cfg statics state ~weight in
  check Alcotest.int "all pairs secure" stats.reachable_pairs stats.secure_pairs;
  check (Alcotest.float 1e-9) "f = 1" 1.0 stats.f_squared;
  (* Nothing secure: zero. *)
  let state0 = State.create g ~early:[] in
  let stats0 = Analyses.secure_path_stats lowest_id_cfg statics state0 ~weight in
  check Alcotest.int "no pairs secure" 0 stats0.secure_pairs

let test_analyses_remorse_turnoff () =
  let r = Gadgets.Remorse.build () in
  let statics = Route_static.create r.graph in
  let state = Gadgets.Remorse.initial_state r in
  let incentives =
    Analyses.turnoff_incentives Gadgets.Remorse.config statics state ~weight:r.weight
  in
  match incentives with
  | [ (isp, dests) ] ->
      check Alcotest.int "the remorse isp" r.isp isp;
      check Alcotest.bool "many destinations" true (dests >= List.length r.stubs)
  | _ -> Alcotest.fail "expected exactly the remorse ISP"

let test_analyses_never_secure () =
  let g = small () in
  let statics = Route_static.create g in
  let weight = Array.make 6 1.0 in
  let state = State.create g ~early:[] in
  let result = Engine.run lowest_id_cfg statics ~weight ~state in
  check Alcotest.(list int) "all ISPs insecure without adopters" [ 0; 1; 2 ]
    (Analyses.never_secure_isps result)

let test_secure_path_stats_matches_reference =
  qtest ~count:60 "secure-path count agrees with the reference routes"
    QCheck2.Gen.(
      let* g = Testkit.Graphgen.graph ~max_n:18 () in
      let* secure, use_secp = Testkit.Graphgen.secure_state g in
      return (g, secure, use_secp))
    (fun (g, secure, use_secp) ->
      (* Build a State mirroring the random secure set exactly (ISPs
         as full deployers; simplex off so stub security matches). *)
      ignore use_secp;
      let statics = Route_static.create g in
      let state = State.create g ~early:[] ~simplex:false in
      for i = 0 to Graph.n g - 1 do
        if Bytes.get secure i = '\001' then ignore (State.enable state i)
      done;
      let cfg = { lowest_id_cfg with stub_tiebreak = false } in
      let weight = Array.make (Graph.n g) 1.0 in
      let stats = Analyses.secure_path_stats cfg statics state ~weight in
      (* Reference count via the independent fixed point. *)
      let sec = State.secure_bytes state in
      let usp = State.use_secp_bytes state ~stub_tiebreak:false in
      let expected = ref 0 in
      for d = 0 to Graph.n g - 1 do
        let rib =
          Testkit.Refbgp.route_to g ~dest:d ~secure:sec ~use_secp:usp
            ~tiebreak:Bgp.Policy.Lowest_id
        in
        Array.iteri
          (fun i r ->
            if i <> d then begin
              match r with
              | Some rr -> if rr.Testkit.Refbgp.secure then incr expected
              | None -> ()
            end)
          rib
      done;
      stats.secure_pairs = !expected)

let test_engine_deterministic =
  qtest ~count:25 "engine runs are deterministic"
    (Testkit.Graphgen.graph ~max_n:25 ())
    (fun g ->
      let run () =
        let statics = Route_static.create g in
        let weight = Array.make (Graph.n g) 1.0 in
        let state = State.create g ~early:(Asgraph.Metrics.top_by_degree g 2) in
        let r = Engine.run Config.default statics ~weight ~state in
        List.map (fun (rr : Engine.round_record) -> (rr.turned_on, rr.turned_off)) r.rounds
      in
      run () = run ())

let test_engine_incoming_always_terminates =
  qtest ~count:40 "incoming-model runs end in stable, oscillation or cap"
    (Testkit.Graphgen.graph ~max_n:20 ())
    (fun g ->
      let statics = Route_static.create g in
      let weight = Array.make (Graph.n g) 1.0 in
      let state = State.create g ~early:(Asgraph.Metrics.top_by_degree g 2) in
      let cfg = { Config.incoming with tiebreak = Bgp.Policy.Lowest_id; max_rounds = 40 } in
      let r = Engine.run cfg statics ~weight ~state in
      Engine.rounds_run r <= 40
      &&
      match r.termination with
      | Engine.Stable | Engine.Oscillation _ | Engine.Max_rounds -> true)

(* ------------------------------------------------------------------ *)
(* Resilience *)

let test_resilience_nobody_secure_attacker_competes () =
  let g = small () in
  let statics = Route_static.create g in
  let state = State.create g ~early:[] in
  (* Attacker ISP 1 hijacks stub 5 (homed only on ISP 2): ISP 1's own
     branch (stub 4 splits) is contested; tier1 picks by id. *)
  let o =
    Core.Resilience.simulate_attack statics state ~stub_tiebreak:true
      ~tiebreak:Bgp.Policy.Lowest_id ~attacker:1 ~victim:5
  in
  check Alcotest.int "total counts all other ASes" 5 o.total;
  check Alcotest.bool "someone is deceived" true (o.deceived > 0);
  check Alcotest.bool "not everyone is deceived" true (o.deceived < o.total)

let test_resilience_full_deployment_protects_ties () =
  let g = small () in
  let statics = Route_static.create g in
  (* Everyone secure: any AS with a fully secure legitimate route of
     equal preference is immune; the deceived count cannot grow when
     moving from nobody-secure to everybody-secure. *)
  let deceived state =
    (Core.Resilience.simulate_attack statics state ~stub_tiebreak:true
       ~tiebreak:Bgp.Policy.Lowest_id ~attacker:1 ~victim:5)
      .deceived
  in
  let none = deceived (State.create g ~early:[]) in
  let full = deceived (State.create g ~early:[ 0; 1; 2; 3 ]) in
  check Alcotest.bool "security does not increase deception" true (full <= none)

let test_resilience_self_attack_rejected () =
  let g = small () in
  let statics = Route_static.create g in
  let state = State.create g ~early:[] in
  Alcotest.check_raises "attacker = victim"
    (Invalid_argument "Resilience.simulate_attack") (fun () ->
      ignore
        (Core.Resilience.simulate_attack statics state ~stub_tiebreak:true
           ~tiebreak:Bgp.Policy.Lowest_id ~attacker:2 ~victim:2))

let test_resilience_mean_fraction_bounds =
  qtest ~count:20 "mean deceived fraction lies in [0, 1]"
    (Testkit.Graphgen.graph ~max_n:25 ())
    (fun g ->
      let statics = Route_static.create g in
      let state = State.create g ~early:[] in
      let f =
        Core.Resilience.mean_deceived_fraction statics state ~stub_tiebreak:true
          ~tiebreak:Bgp.Policy.Lowest_id ~samples:10 ~seed:3
      in
      f >= 0.0 && f <= 1.0)

let test_resilience_ranked_tiebreak_agrees =
  qtest ~count:40 "ranked attack at tiebreak-only equals the forest-based one"
    QCheck2.Gen.(
      let* g = Testkit.Graphgen.graph ~max_n:20 () in
      let* a = int_bound (Graph.n g - 1) in
      let* v = int_bound (Graph.n g - 1) in
      return (g, a, v))
    (fun (g, attacker, victim) ->
      attacker = victim
      ||
      let statics = Route_static.create g in
      let state = State.create g ~early:[] in
      for i = 0 to Graph.n g - 1 do
        if Graph.is_isp g i && i mod 2 = 0 then ignore (State.enable state i)
      done;
      let plain =
        Core.Resilience.simulate_attack statics state ~stub_tiebreak:true
          ~tiebreak:Bgp.Policy.Lowest_id ~attacker ~victim
      in
      let ranked =
        Core.Resilience.simulate_attack_ranked statics state ~stub_tiebreak:true
          ~tiebreak:Bgp.Policy.Lowest_id ~position:Bgp.Flexsim.Tiebreak_only ~attacker
          ~victim
      in
      plain.deceived = ranked.deceived && plain.total = ranked.total)

let test_resilience_security_first_never_worse () =
  let g = small () in
  let statics = Route_static.create g in
  let state = State.create g ~early:[ 0; 1; 2; 3 ] in
  let mean position =
    Core.Resilience.mean_deceived_fraction_ranked statics state ~stub_tiebreak:true
      ~tiebreak:Bgp.Policy.Lowest_id ~position ~samples:30 ~seed:5
  in
  check Alcotest.bool "security-first <= tiebreak-only" true
    (mean Bgp.Flexsim.Before_lp <= mean Bgp.Flexsim.Tiebreak_only +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Threshold jitter (Section 8.2 extension) *)

let test_jitter_zero_matches_default () =
  let g = small () in
  let statics = Route_static.create g in
  let weight = [| 1.0; 1.0; 1.0; 10.0; 1.0; 1.0 |] in
  let run cfg =
    let state = State.create g ~early:[ 0; 3 ] in
    let r = Engine.run cfg statics ~weight ~state in
    (Engine.rounds_run r, State.secure_count r.final)
  in
  check
    Alcotest.(pair int int)
    "jitter 0 is the identity" (run lowest_id_cfg)
    (run { lowest_id_cfg with theta_jitter = 0.0; jitter_seed = 99 })

let test_jitter_deterministic_by_seed () =
  let g = small () in
  let statics = Route_static.create g in
  let weight = [| 1.0; 1.0; 1.0; 50.0; 1.0; 1.0 |] in
  let run seed =
    let state = State.create g ~early:[ 0; 3 ] in
    let cfg = { lowest_id_cfg with theta_jitter = 1.0; jitter_seed = seed } in
    let r = Engine.run cfg statics ~weight ~state in
    List.map (fun (rr : Engine.round_record) -> rr.turned_on) r.rounds
  in
  check
    Alcotest.(list (list int))
    "same seed, same dynamics" (run 7) (run 7)

let () =
  Alcotest.run "core"
    [
      ( "state",
        [
          Alcotest.test_case "initial state" `Quick test_state_initial;
          Alcotest.test_case "enable upgrades stubs" `Quick test_state_simplex_on_enable;
          Alcotest.test_case "simplex is sticky" `Quick test_state_simplex_sticky_on_disable;
          Alcotest.test_case "undo_enable is exact" `Quick test_state_undo_enable_exact;
          Alcotest.test_case "pinned protected" `Quick test_state_pinned_protected;
          Alcotest.test_case "ablation flags" `Quick test_state_ablation_flags;
          Alcotest.test_case "stub tiebreak toggle" `Quick test_state_stub_tiebreak_toggle;
          Alcotest.test_case "copy independent" `Quick test_state_copy_independent;
        ] );
      ( "utility",
        [
          Alcotest.test_case "outgoing hand-checked" `Quick
            test_outgoing_utilities_hand_checked;
          Alcotest.test_case "incoming hand-checked" `Quick
            test_incoming_utilities_hand_checked;
          Alcotest.test_case "all = sum of contributions" `Quick
            test_utility_all_equals_sum_of_contributions;
          Alcotest.test_case "whole-graph loops: tiny budget = unbounded" `Quick
            test_utility_loops_budget_invariant;
          test_stub_and_cp_utility_zero;
          test_theorem_6_2;
        ] );
      ( "engine",
        [
          Alcotest.test_case "no adopters, no deployment" `Quick test_engine_trivial_stable;
          test_engine_outgoing_never_turns_off;
          test_engine_secure_monotone_outgoing;
          Alcotest.test_case "lone flipper projection exact" `Quick
            test_engine_projection_exact_for_lone_flipper;
          Alcotest.test_case "respects frozen nodes" `Quick test_engine_respects_frozen;
          Alcotest.test_case "baseline is state independent" `Quick
            test_engine_baseline_state_independent;
          Alcotest.test_case "round cap" `Quick test_engine_max_rounds;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "attacker competes" `Quick
            test_resilience_nobody_secure_attacker_competes;
          Alcotest.test_case "security never helps the attacker" `Quick
            test_resilience_full_deployment_protects_ties;
          Alcotest.test_case "self attack rejected" `Quick test_resilience_self_attack_rejected;
          test_resilience_mean_fraction_bounds;
          test_resilience_ranked_tiebreak_agrees;
          Alcotest.test_case "security-first never worse" `Quick
            test_resilience_security_first_never_worse;
        ] );
      ( "jitter",
        [
          Alcotest.test_case "zero jitter is the identity" `Quick
            test_jitter_zero_matches_default;
          Alcotest.test_case "deterministic by seed" `Quick test_jitter_deterministic_by_seed;
        ] );
      ( "analyses",
        [
          test_secure_path_stats_matches_reference;
          test_engine_deterministic;
          test_engine_incoming_always_terminates;
          Alcotest.test_case "diamonds" `Quick test_analyses_diamonds;
          Alcotest.test_case "tiebreak distribution" `Quick
            test_analyses_tiebreak_distribution;
          Alcotest.test_case "secure path stats" `Quick test_analyses_secure_path_stats;
          Alcotest.test_case "remorse turn-off incentive" `Quick
            test_analyses_remorse_turnoff;
          Alcotest.test_case "never-secure ISPs" `Quick test_analyses_never_secure;
        ] );
    ]
