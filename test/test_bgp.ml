(* Tests for the BGP routing substrate: the per-destination static
   computation, the state-dependent routing forest, and a differential
   check against the independent reference implementation
   (Testkit.Refbgp) on random graphs and states. *)

module Graph = Asgraph.Graph
module Policy = Bgp.Policy
module Route_static = Bgp.Route_static
module Forest = Bgp.Forest

let check = Alcotest.check
let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Policy *)

let test_policy_class_roundtrip () =
  List.iter
    (fun c ->
      check Alcotest.string "roundtrip"
        (Policy.class_to_string c)
        (Policy.class_to_string (Policy.class_of_char (Policy.class_to_char c))))
    [ Policy.Self; Policy.Via_customer; Policy.Via_peer; Policy.Via_provider; Policy.Unreachable ]

let test_policy_tiebreaks () =
  check Alcotest.int "lowest id is the id" 7 (Policy.tiebreak_key Policy.Lowest_id 3 7);
  check Alcotest.int "hash deterministic"
    (Policy.tiebreak_key (Policy.Hashed 5) 3 7)
    (Policy.tiebreak_key (Policy.Hashed 5) 3 7);
  check Alcotest.bool "hash depends on seed" true
    (Policy.tiebreak_key (Policy.Hashed 5) 3 7 <> Policy.tiebreak_key (Policy.Hashed 6) 3 7);
  check Alcotest.bool "preferred with no current" true
    (Policy.preferred Policy.Lowest_id 0 ~current:(-1) ~candidate:9);
  check Alcotest.bool "lower id preferred" true
    (Policy.preferred Policy.Lowest_id 0 ~current:5 ~candidate:2)

let test_policy_ranked () =
  let r = Policy.ranking_create () in
  Policy.set_rank r ~node:1 ~next_hop:9 0;
  Policy.set_rank r ~node:1 ~next_hop:2 1;
  let tb = Policy.Ranked r in
  check Alcotest.bool "explicit rank overrides id order" true
    (Policy.tiebreak_key tb 1 9 < Policy.tiebreak_key tb 1 2);
  check Alcotest.int "unranked pairs fall back to id" 4 (Policy.tiebreak_key tb 3 4)

(* The reference graph: tier1 (0), ISPs 1 and 2, CP 3 (peer of 0),
   stubs 4 (multihomed to 1, 2) and 5 (single-homed to 2). *)
let small () =
  Graph.build ~n:6
    ~cp_edges:[ (0, 1); (0, 2); (1, 4); (2, 4); (2, 5) ]
    ~peer_edges:[ (0, 3); (1, 2) ]
    ~cps:[ 3 ]

let klass info i = Policy.class_to_string (Route_static.class_of info i)

let test_static_small_dest_stub () =
  let info = Route_static.compute (small ()) 4 in
  check Alcotest.string "isp1 class" "customer" (klass info 1);
  check Alcotest.int "isp1 len" 1 (Route_static.length_of info 1);
  check Alcotest.(list int) "isp1 tie" [ 4 ] (Route_static.tie_list info 1);
  check Alcotest.string "tier1 class" "customer" (klass info 0);
  check Alcotest.int "tier1 len" 2 (Route_static.length_of info 0);
  check Alcotest.(list int) "tier1 tie is the diamond" [ 1; 2 ]
    (List.sort compare (Route_static.tie_list info 0));
  check Alcotest.string "cp class" "peer" (klass info 3);
  check Alcotest.int "cp len" 3 (Route_static.length_of info 3);
  check Alcotest.string "other stub class" "provider" (klass info 5);
  check Alcotest.int "other stub len" 2 (Route_static.length_of info 5);
  check Alcotest.string "dest class" "self" (klass info 4);
  check Alcotest.int "order head is dest" 4 (Route_static.order_get info 0)

let test_static_small_dest_tier1 () =
  let info = Route_static.compute (small ()) 0 in
  check Alcotest.string "isp1 routes up" "provider" (klass info 1);
  check Alcotest.string "cp peers" "peer" (klass info 3);
  check Alcotest.int "cp one hop" 1 (Route_static.length_of info 3);
  check Alcotest.string "stub4" "provider" (klass info 4);
  check Alcotest.int "stub4 len" 2 (Route_static.length_of info 4)

let test_static_peer_route_not_transitive () =
  (* x -- a (peer), a -- b (peer), d customer of b: a reaches d via its
     peer b, but must not export that peer route to x. *)
  let g =
    Graph.build ~n:4 ~cp_edges:[ (2, 3) ] ~peer_edges:[ (0, 1); (1, 2) ] ~cps:[]
  in
  let info = Route_static.compute g 3 in
  check Alcotest.bool "one peer hop ok" true (Route_static.reachable info 1);
  check Alcotest.string "peer class" "peer" (klass info 1);
  check Alcotest.bool "two peer hops filtered" false (Route_static.reachable info 0)

let test_static_lp_beats_length () =
  (* u has a 3-hop customer route and a 2-hop peer route; LP wins. *)
  let u = 0 and c1 = 1 and c2 = 2 and d = 3 and p = 4 in
  let g =
    Graph.build ~n:5
      ~cp_edges:[ (u, c1); (c1, c2); (c2, d); (p, d) ]
      ~peer_edges:[ (u, p) ]
      ~cps:[]
  in
  let info = Route_static.compute g d in
  check Alcotest.string "customer class despite longer path" "customer" (klass info u);
  check Alcotest.int "length 3" 3 (Route_static.length_of info u)

let test_static_unreachable () =
  let g = Graph.build ~n:3 ~cp_edges:[ (0, 1) ] ~peer_edges:[] ~cps:[] in
  let info = Route_static.compute g 0 in
  check Alcotest.bool "orphan unreachable" false (Route_static.reachable info 2);
  check Alcotest.int "order only reachable" 2 (Route_static.order_length info);
  Alcotest.check_raises "length_of raises"
    (Invalid_argument "Route_static.length_of: 2 unreachable") (fun () ->
      ignore (Route_static.length_of info 2))

let test_static_order_sorted_by_length () =
  let g = small () in
  for d = 0 to Graph.n g - 1 do
    let info = Route_static.compute g d in
    let last = ref (-1) in
    Route_static.iter_order info (fun i ->
        let l = Route_static.length_of info i in
        check Alcotest.bool "ascending" true (l >= !last);
        last := l)
  done

let test_static_cache () =
  let statics = Route_static.create (small ()) in
  let a = Route_static.get statics 4 in
  let b = Route_static.get statics 4 in
  check Alcotest.bool "cached instance reused" true (a == b)

let info_equal (a : Route_static.dest_info) (b : Route_static.dest_info) =
  a.dest = b.dest && Bytes.equal a.cls b.cls && Bytes.equal a.len b.len
  && Nsutil.I32.equal a.tie_off b.tie_off
  && Nsutil.I32.equal a.tie b.tie
  && Nsutil.I32.equal a.order b.order
  && a.max_len = b.max_len

(* Eviction property: a bounded store may drop and recompute entries
   at any time, but every [get] must return info bit-identical to a
   fresh [compute] — and the byte budget must hold. *)
let test_bounded_store_recompute_equals_cached () =
  let params = Topology.Params.with_n Topology.Params.default 100 in
  let built = Topology.Gen.generate { params with seed = 9 } in
  let g = built.graph in
  let n = Graph.n g in
  let statics = Route_static.create ~budget_bytes:100_000 g in
  check Alcotest.bool "store is bounded" true (Route_static.bounded statics);
  Route_static.ensure_all statics (* must be a no-op under a budget *);
  let rng = Nsutil.Prng.create ~seed:42 in
  for _ = 1 to 400 do
    let d = Nsutil.Prng.int rng n in
    let cached = Route_static.get statics d in
    let fresh = Route_static.compute g d in
    check Alcotest.bool "get equals fresh compute" true (info_equal cached fresh)
  done;
  let st = Route_static.stats statics in
  check Alcotest.bool "evictions occurred" true (st.evictions > 0);
  check Alcotest.bool "some hits" true (st.hits > 0);
  check Alcotest.bool "budget respected" true (st.cached_bytes <= st.budget_bytes);
  (* Shrinking the budget to nothing trims the store immediately. *)
  Route_static.set_budget_bytes statics 1;
  let st = Route_static.stats statics in
  check Alcotest.int "trimmed to empty" 0 st.cached;
  (* And an unbounded budget restores plain-cache behavior. *)
  Route_static.set_budget_bytes statics 0;
  Route_static.ensure_all statics;
  let st = Route_static.stats statics in
  check Alcotest.int "prefill fills everything" n st.cached

let test_ensure_tiebreak_drops_and_resorts () =
  let g = small () in
  let statics = Route_static.create g in
  let a = Route_static.get statics 4 in
  check Alcotest.bool "sorted for default" true
    (Route_static.sorted_for a Policy.Lowest_id);
  let tb = Policy.Hashed 0x5b9d in
  Route_static.ensure_tiebreak statics tb;
  let b = Route_static.get statics 4 in
  check Alcotest.bool "entries dropped on policy change" true (not (a == b));
  check Alcotest.bool "resorted for the new policy" true (Route_static.sorted_for b tb);
  Route_static.ensure_tiebreak statics tb;
  check Alcotest.bool "same policy keeps entries" true (b == Route_static.get statics 4)

(* The compact layout against its declarative spec: for every
   reachable non-destination node, the tiebreak row holds exactly the
   neighbors (in the relationship its route class dictates) that are
   one hop closer and export the required route class. *)
let tie_row_spec g info d =
  let ok = ref true in
  let exports_cust j =
    match Route_static.class_of info j with
    | Bgp.Policy.Self | Bgp.Policy.Via_customer -> true
    | _ -> false
  in
  for i = 0 to Graph.n g - 1 do
    if i <> d && Route_static.reachable info i then begin
      let want = Route_static.length_of info i - 1 in
      let eligible j =
        Route_static.reachable info j
        && Route_static.length_of info j = want
        &&
        match Route_static.class_of info i with
        | Bgp.Policy.Via_customer -> exports_cust j
        | Bgp.Policy.Via_peer -> exports_cust j
        | _ -> true
      in
      let expected = ref [] in
      (match Route_static.class_of info i with
      | Bgp.Policy.Via_customer ->
          Graph.iter_customers g i (fun j -> if eligible j then expected := j :: !expected)
      | Bgp.Policy.Via_peer ->
          Graph.iter_peers g i (fun j -> if eligible j then expected := j :: !expected)
      | _ ->
          Graph.iter_providers g i (fun j -> if eligible j then expected := j :: !expected));
      let expected = List.sort compare !expected in
      let actual = List.sort compare (Route_static.tie_list info i) in
      if expected <> actual then ok := false;
      if Route_static.tie_size info i = 0 then ok := false
    end
  done;
  !ok

let static_gen =
  QCheck2.Gen.(
    let* g = Testkit.Graphgen.graph ~max_n:30 () in
    let* d = int_bound (Graph.n g - 1) in
    return (g, d))

let test_tie_rows_match_spec =
  qtest ~count:300 "tie rows hold exactly the eligible equal-best neighbors"
    static_gen
    (fun (g, d) -> tie_row_spec g (Route_static.compute g d) d)

(* The pre-sorting invariant the fused forest kernel relies on: every
   row is non-decreasing in the static tiebreak key, under both the
   default and a hashed policy, and sorting never changes the
   membership. *)
let test_tie_rows_presorted =
  qtest ~count:300 "tie rows are sorted by the static tiebreak key" static_gen
    (fun (g, d) ->
      List.for_all
        (fun tb ->
          let info = Route_static.compute ~tiebreak:tb g d in
          Route_static.sorted_for info tb
          &&
          let ok = ref true in
          Route_static.iter_order info (fun i ->
              if i <> d then begin
                let row = Route_static.tie_size info i in
                for k = 1 to row - 1 do
                  let kp = Policy.tiebreak_key tb i (Route_static.tie_get info i (k - 1)) in
                  let kc = Policy.tiebreak_key tb i (Route_static.tie_get info i k) in
                  if kp > kc then ok := false
                done
              end);
          !ok)
        [ Policy.Lowest_id; Policy.Hashed 0x5b9d ])

let test_tie_sort_preserves_members =
  qtest ~count:200 "tiebreak policy permutes rows, never changes membership"
    static_gen
    (fun (g, d) ->
      let a = Route_static.compute ~tiebreak:Policy.Lowest_id g d in
      let b = Route_static.compute ~tiebreak:(Policy.Hashed 0x5b9d) g d in
      let ok = ref true in
      if Route_static.order_length a <> Route_static.order_length b then ok := false;
      for i = 0 to Graph.n g - 1 do
        if
          List.sort compare (Route_static.tie_list a i)
          <> List.sort compare (Route_static.tie_list b i)
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* The statics builder against the reference kernel (Testkit.Refstatics):
   bit-identical records on every destination, transient and persistent,
   through one reused builder. *)

let oracle_agrees label want info =
  match Testkit.Refstatics.diff want info with
  | None -> true
  | Some field ->
      QCheck2.Test.fail_reportf "dest %d, %s record: %s differs from the oracle"
        want.Testkit.Refstatics.dest label field

let oracle_check tb bd g d =
  let want = Testkit.Refstatics.compute ~tiebreak:tb g d in
  let persistent = Route_static.compute_with ~tiebreak:tb bd g d in
  let transient = Route_static.compute_with ~tiebreak:tb ~transient:true bd g d in
  oracle_agrees "transient" want transient
  && oracle_agrees "persistent" want persistent
  && Route_static.check_info g persistent = Ok ()

(* A rank table over a random subset of each node's neighbors, so
   explicit ranks and the id fallback meet inside one row. *)
let random_ranking g seed =
  let r = Policy.ranking_create () in
  let rng = Nsutil.Prng.create ~seed in
  let rank i j =
    if Nsutil.Prng.int rng 3 > 0 then
      Policy.set_rank r ~node:i ~next_hop:j (Nsutil.Prng.int rng 4)
  in
  for i = 0 to Graph.n g - 1 do
    Graph.iter_customers g i (rank i);
    Graph.iter_peers g i (rank i);
    Graph.iter_providers g i (rank i)
  done;
  Policy.Ranked r

let test_builder_matches_oracle =
  qtest ~count:150 "builder = reference kernel, every destination and tiebreak"
    QCheck2.Gen.(pair (Testkit.Graphgen.graph ~max_n:40 ()) (int_bound 0xffff))
    (fun (g, seed) ->
      let n = Graph.n g in
      let bd = Route_static.make_builder n in
      List.for_all
        (fun tb ->
          (* Persistent records must not alias the builder: build them
             all first, and check them again after the reuse below. *)
          let kept = Array.init n (fun d -> Route_static.compute_with ~tiebreak:tb bd g d) in
          List.for_all (oracle_check tb bd g) (List.init n Fun.id)
          && Array.for_all
               (fun info ->
                 oracle_agrees "kept"
                   (Testkit.Refstatics.compute ~tiebreak:tb g info.Route_static.dest)
                   info)
               kept)
        [ Policy.Lowest_id; Policy.Hashed seed; random_ranking g seed ])

let test_builder_matches_oracle_paper_shape () =
  let params = Topology.Params.with_n Topology.Params.default 700 in
  let g = (Topology.Gen.generate { params with seed = 5 }).graph in
  let bd = Route_static.make_builder (Graph.n g) in
  List.iter
    (fun tb ->
      for d = 0 to Graph.n g - 1 do
        check Alcotest.bool (Printf.sprintf "dest %d" d) true (oracle_check tb bd g d)
      done)
    [ Policy.Lowest_id; Policy.Hashed 0x2f1 ]

(* Path lengths live in one byte: every stage stops at [max_path_len]
   and longer routes are unreachable. On a provider chain (node [i + 1]
   is the provider of [i]) the bottom destination's routes climb as
   customer routes and the top's descend as provider routes. *)
let chain n =
  Graph.build ~n ~cp_edges:(List.init (n - 1) (fun i -> (i + 1, i))) ~peer_edges:[] ~cps:[]

let test_path_length_cap () =
  let cap = Route_static.max_path_len in
  List.iter
    (fun n ->
      let g = chain n in
      List.iter
        (fun d ->
          let info = Route_static.compute g d in
          let name what = Printf.sprintf "chain %d, dest %d: %s" n d what in
          check Alcotest.(option string) (name "oracle") None
            (Testkit.Refstatics.diff (Testkit.Refstatics.compute g d) info);
          check Alcotest.bool (name "check_info") true (Route_static.check_info g info = Ok ());
          check Alcotest.int (name "max_len") (min cap (n - 1)) info.max_len;
          check Alcotest.int (name "reachable") (min n (cap + 1)) (Route_static.order_length info);
          check
            Alcotest.(list (option int))
            (name "lengths")
            (List.init n (fun i -> if abs (i - d) <= cap then Some (abs (i - d)) else None))
            (List.init n (fun i ->
                 if Route_static.reachable info i then Some (Route_static.length_of info i)
                 else None)))
        [ 0; n - 1 ])
    [ 255; 256; 257; 300 ]

(* Growing a chain past the cap: a stub appended below the bottom (the
   surgical path) and a provider added above the top (the rebuild path)
   must both repair to a fresh compute on the grown graph. *)
let test_path_length_cap_repair () =
  List.iter
    (fun n ->
      let g = chain n in
      List.iter
        (fun (what, op) ->
          let delta = { Graph.base_n = n; grown = 1; ops = [ op ] } in
          let g' = Graph.apply_delta g delta in
          for d = 0 to n - 1 do
            let repaired = Route_static.repair g' ~delta (Route_static.compute g d) in
            check Alcotest.bool
              (Printf.sprintf "chain %d + %s, dest %d" n what d)
              true
              (Route_static.info_equal repaired (Route_static.compute g' d))
          done)
        [
          ("stub below", Graph.Edge_add ((0, n), Graph.Customer));
          ("provider above", Graph.Edge_add ((n, n - 1), Graph.Customer));
        ])
    [ 254; 255; 256 ]

(* ------------------------------------------------------------------ *)
(* Forest *)

let forest_for g d ~secure_list ~secp_list ~weight =
  let n = Graph.n g in
  let info = Route_static.compute g d in
  let secure = Bytes.make n '\000' in
  let use_secp = Bytes.make n '\000' in
  List.iter (fun i -> Bytes.set secure i '\001') secure_list;
  List.iter (fun i -> Bytes.set use_secp i '\001') secp_list;
  let scratch = Forest.make_scratch n in
  Forest.compute info ~tiebreak:Policy.Lowest_id ~secure ~use_secp ~weight scratch;
  (info, scratch)

let test_forest_tiebreak_lowest_id () =
  let g = small () in
  let weight = Array.make 6 1.0 in
  let _, scratch = forest_for g 4 ~secure_list:[] ~secp_list:[] ~weight in
  check Alcotest.int "tier1 picks lowest id" 1 scratch.next.(0)

let test_forest_secp_restricts () =
  let g = small () in
  let weight = Array.make 6 1.0 in
  (* ISP 2 and stub 4 secure; tier1 secure and applying SecP: must
     choose 2 over the id-preferred 1. *)
  let _, scratch =
    forest_for g 4 ~secure_list:[ 0; 2; 4 ] ~secp_list:[ 0; 2 ] ~weight
  in
  check Alcotest.int "restricted to the secure next hop" 2 scratch.next.(0);
  check Alcotest.string "tier1 has a secure route" "\001"
    (String.make 1 (Bytes.get scratch.sec_path 0))

let test_forest_no_secp_no_restriction () =
  let g = small () in
  let weight = Array.make 6 1.0 in
  let _, scratch = forest_for g 4 ~secure_list:[ 0; 2; 4 ] ~secp_list:[] ~weight in
  check Alcotest.int "hash choice unaffected" 1 scratch.next.(0)

let test_forest_subtree_weights () =
  let g = small () in
  let weight = [| 1.0; 1.0; 1.0; 10.0; 1.0; 1.0 |] in
  let _, scratch = forest_for g 4 ~secure_list:[] ~secp_list:[] ~weight in
  (* Everyone reaches 4; total weight arriving at the destination is
     the sum over all reachable sources. *)
  check (Alcotest.float 1e-9) "conservation at the root" 15.0 scratch.sub.(4);
  (* ISP 1 carries tier1's subtree: itself (1) + tier1 (1) + cp (10). *)
  check (Alcotest.float 1e-9) "isp1 subtree" 12.0 scratch.sub.(1);
  check (Alcotest.float 1e-9) "transit weight excludes self" 11.0
    (Forest.transit_weight scratch ~weight 1)

let test_forest_path_to_dest () =
  let g = small () in
  let weight = Array.make 6 1.0 in
  let info, scratch = forest_for g 4 ~secure_list:[] ~secp_list:[] ~weight in
  check Alcotest.(list int) "path from cp" [ 3; 0; 1; 4 ] (Forest.path_to_dest info scratch 3);
  check Alcotest.(list int) "path from dest" [ 4 ] (Forest.path_to_dest info scratch 4)

(* ------------------------------------------------------------------ *)
(* Differential testing against the reference implementation. *)

let scenario_gen =
  QCheck2.Gen.(
    let* g = Testkit.Graphgen.graph ~max_n:30 () in
    let* secure, use_secp = Testkit.Graphgen.secure_state g in
    let* d = int_bound (Graph.n g - 1) in
    return (g, secure, use_secp, d))

let chosen_security (info : Route_static.dest_info) (scratch : Forest.scratch) ~secure =
  (* Security of the chosen route, walking next hops in ascending
     path-length order. *)
  let n = Array.length scratch.next in
  let cs = Bytes.make n '\000' in
  Bytes.set cs info.dest (Bytes.get secure info.dest);
  for k = 1 to Route_static.order_length info - 1 do
    let i = Route_static.order_get info k in
    let nh = scratch.next.(i) in
    if nh >= 0 && Bytes.get secure i = '\001' && Bytes.get cs nh = '\001' then
      Bytes.set cs i '\001'
  done;
  cs

let run_both (g, secure, use_secp, d) =
  let n = Graph.n g in
  let info = Route_static.compute g d in
  let scratch = Forest.make_scratch n in
  let weight = Array.make n 1.0 in
  Forest.compute info ~tiebreak:Policy.Lowest_id ~secure ~use_secp ~weight scratch;
  let rib = Testkit.Refbgp.route_to g ~dest:d ~secure ~use_secp ~tiebreak:Policy.Lowest_id in
  (info, scratch, rib)

let test_differential_reachability =
  qtest ~count:400 "forest and reference agree on reachability" scenario_gen
    (fun ((g, _, _, d) as sc) ->
      let info, _, rib = run_both sc in
      let ok = ref true in
      for i = 0 to Graph.n g - 1 do
        if i <> d then begin
          let forest_reach = Route_static.reachable info i in
          let ref_reach = rib.(i) <> None in
          if forest_reach <> ref_reach then ok := false
        end
      done;
      !ok)

let test_differential_next_hops =
  qtest ~count:400 "forest and reference agree on chosen next hops" scenario_gen
    (fun ((g, _, _, d) as sc) ->
      let _, scratch, rib = run_both sc in
      let ok = ref true in
      for i = 0 to Graph.n g - 1 do
        if i <> d then begin
          match rib.(i) with
          | Some r -> if scratch.next.(i) <> r.Testkit.Refbgp.next then ok := false
          | None -> if scratch.next.(i) <> -1 then ok := false
        end
      done;
      !ok)

let test_differential_lengths =
  qtest ~count:400 "reference path lengths equal the static lengths" scenario_gen
    (fun ((g, _, _, d) as sc) ->
      let info, _, rib = run_both sc in
      let ok = ref true in
      for i = 0 to Graph.n g - 1 do
        if i <> d then begin
          match rib.(i) with
          | Some r ->
              if List.length r.Testkit.Refbgp.path - 1 <> Route_static.length_of info i
              then ok := false
          | None -> ()
        end
      done;
      !ok)

let test_differential_security =
  qtest ~count:400 "forest and reference agree on chosen-route security" scenario_gen
    (fun ((g, secure, _, d) as sc) ->
      let info, scratch, rib = run_both sc in
      let cs = chosen_security info scratch ~secure in
      let ok = ref true in
      for i = 0 to Graph.n g - 1 do
        if i <> d then begin
          match rib.(i) with
          | Some r ->
              if (Bytes.get cs i = '\001') <> r.Testkit.Refbgp.secure then ok := false
          | None -> ()
        end
      done;
      !ok)

(* Observation C.1: class and length are independent of the state. *)
let test_static_state_independence =
  qtest ~count:200 "route class/length independent of deployment state"
    QCheck2.Gen.(
      let* g = Testkit.Graphgen.graph ~max_n:25 () in
      let* s1 = Testkit.Graphgen.secure_state g in
      let* s2 = Testkit.Graphgen.secure_state g in
      let* d = int_bound (Graph.n g - 1) in
      return (g, s1, s2, d))
    (fun (g, (sec1, secp1), (sec2, secp2), d) ->
      let rib1 = Testkit.Refbgp.route_to g ~dest:d ~secure:sec1 ~use_secp:secp1 ~tiebreak:Policy.Lowest_id in
      let rib2 = Testkit.Refbgp.route_to g ~dest:d ~secure:sec2 ~use_secp:secp2 ~tiebreak:Policy.Lowest_id in
      let ok = ref true in
      for i = 0 to Graph.n g - 1 do
        match (rib1.(i), rib2.(i)) with
        | Some a, Some b ->
            if
              List.length a.Testkit.Refbgp.path <> List.length b.Testkit.Refbgp.path
              || a.Testkit.Refbgp.lp <> b.Testkit.Refbgp.lp
            then ok := false
        | None, None -> ()
        | Some _, None | None, Some _ -> ok := false
      done;
      !ok)

(* Valley-freeness of every chosen path. *)
let valley_free g path =
  (* Pattern: up* peer? down*. Walk consecutive relations. *)
  let rels =
    let rec walk = function
      | a :: (b :: _ as rest) -> begin
          match Graph.rel g a b with
          | Some r -> r :: walk rest
          | None -> [ Graph.Peer ] (* unreachable: fail below *)
        end
      | _ -> []
    in
    walk path
  in
  let rec up = function
    | Graph.Provider :: rest -> up rest
    | rest -> peer rest
  and peer = function Graph.Peer :: rest -> down rest | rest -> down rest
  and down = function
    | Graph.Customer :: rest -> down rest
    | [] -> true
    | _ -> false
  in
  up rels

let test_paths_valley_free =
  qtest ~count:300 "all chosen paths are valley-free" scenario_gen
    (fun ((g, _, _, _) as sc) ->
      let _, _, rib = run_both sc in
      Array.for_all
        (function None -> true | Some r -> valley_free g r.Testkit.Refbgp.path)
        rib)

let test_forest_paths_consistent =
  qtest ~count:200 "forest paths end at the destination with static length" scenario_gen
    (fun ((g, _, _, d) as sc) ->
      let info, scratch, _ = run_both sc in
      let ok = ref true in
      for i = 0 to Graph.n g - 1 do
        if i <> d && Route_static.reachable info i then begin
          match Forest.path_to_dest info scratch i with
          | [] -> ok := false
          | path ->
              let len = List.length path - 1 in
              if
                List.hd path <> i
                || List.nth path len <> d
                || len <> Route_static.length_of info i
              then ok := false
        end
      done;
      !ok)

(* Security availability grows monotonically with the secure set. *)
let test_secpath_monotone =
  qtest ~count:200 "sec_path is monotone in the secure set"
    QCheck2.Gen.(
      let* g = Testkit.Graphgen.graph ~max_n:25 () in
      let* secure, use_secp = Testkit.Graphgen.secure_state g in
      let* extra = int_bound (Graph.n g - 1) in
      let* d = int_bound (Graph.n g - 1) in
      return (g, secure, use_secp, extra, d))
    (fun (g, secure, use_secp, extra, d) ->
      let n = Graph.n g in
      let info = Route_static.compute g d in
      let weight = Array.make n 1.0 in
      let s1 = Forest.make_scratch n in
      Forest.compute info ~tiebreak:Policy.Lowest_id ~secure ~use_secp ~weight s1;
      let before = Bytes.copy s1.sec_path in
      let secure2 = Bytes.copy secure in
      Bytes.set secure2 extra '\001';
      let use_secp2 = Bytes.copy use_secp in
      if not (Graph.is_stub g extra) then Bytes.set use_secp2 extra '\001';
      Forest.compute info ~tiebreak:Policy.Lowest_id ~secure:secure2 ~use_secp:use_secp2
        ~weight s1;
      let ok = ref true in
      Route_static.iter_order info (fun i ->
          if Bytes.get before i = '\001' && Bytes.get s1.sec_path i <> '\001' then
            ok := false);
      !ok)

(* ------------------------------------------------------------------ *)
(* Incremental repair: [Forest.repair] from the base forest must equal
   a from-scratch [Forest.compute] under the flipped bytes — parents,
   sec_path flags and subtree weights all bit-for-bit (subtree floats
   compared through their IEEE bits) — and [Forest.undo] must restore
   the base forest exactly. Each generated case drives a SEQUENCE of
   probe flips through one reused scratch + repairer, the way an
   engine worker does; with 150 cases per tiebreak path the two
   properties cover >= 300 (graph x flip-sequence) scenarios. *)

let scratch_bitwise_equal (a : Forest.scratch) (b : Forest.scratch) n =
  let ok = ref true in
  for i = 0 to n - 1 do
    if a.next.(i) <> b.next.(i) then ok := false;
    if Bytes.get a.sec_path i <> Bytes.get b.sec_path i then ok := false;
    if Int64.bits_of_float a.sub.(i) <> Int64.bits_of_float b.sub.(i) then ok := false
  done;
  !ok

let repair_case_gen =
  QCheck2.Gen.(
    let* g = Testkit.Graphgen.graph ~max_n:40 () in
    let* secure, use_secp = Testkit.Graphgen.secure_state g in
    let* d = int_bound (Graph.n g - 1) in
    let* flips =
      list_size (int_range 1 3) (list_size (int_range 1 4) (int_bound (Graph.n g - 1)))
    in
    return (g, secure, use_secp, d, flips))

(* [tiebreak = Lowest_id] exercises the pre-sorted fast path (the
   statics are built under Lowest_id); any other policy forces the
   generic key-scan path in both [compute] and [repair]. *)
let repair_matches_recompute ~tiebreak (g, secure0, use_secp0, d, flips) =
  let n = Graph.n g in
  let info = Route_static.compute g d in
  let weight = Array.init n (fun i -> 1.0 +. (0.25 *. float_of_int i)) in
  let secure = Bytes.copy secure0 in
  let use_secp = Bytes.copy use_secp0 in
  let live = Forest.make_scratch n in
  Forest.compute info ~tiebreak ~secure ~use_secp ~weight live;
  let base_next = Array.copy live.next in
  let base_sec = Bytes.copy live.sec_path in
  let base_sub = Array.copy live.sub in
  let rep = Forest.make_repairer n in
  let fresh = Forest.make_scratch n in
  let ok = ref true in
  let toggle b i =
    Bytes.set b i (if Bytes.get b i = '\001' then '\000' else '\001')
  in
  (* Deterministic pseudo-choice so the revert repeats the toggles. *)
  let apply_flip flip =
    List.iter
      (fun i ->
        toggle secure i;
        if i mod 3 <> 0 then toggle use_secp i)
      flip
  in
  List.iter
    (fun flip ->
      apply_flip flip;
      Forest.repair info ~tiebreak ~secure ~use_secp ~weight
        ~seeds:(Array.of_list flip) live rep;
      Forest.compute info ~tiebreak ~secure ~use_secp ~weight fresh;
      if not (scratch_bitwise_equal live fresh n) then ok := false;
      (* Contributions read only next/sub, so they must agree too —
         for every ISP, under both utility models. *)
      for i = 0 to n - 1 do
        if Graph.is_isp g i then
          List.iter
            (fun model ->
              let a = Core.Utility.contribution model g info live ~weight i in
              let b = Core.Utility.contribution model g info fresh ~weight i in
              if Int64.bits_of_float a <> Int64.bits_of_float b then ok := false)
            [ Core.Config.Outgoing; Core.Config.Incoming ]
      done;
      Forest.undo live rep;
      apply_flip flip;
      (* The undo must restore the base forest bit-for-bit. *)
      for i = 0 to n - 1 do
        if live.next.(i) <> base_next.(i) then ok := false;
        if Bytes.get live.sec_path i <> Bytes.get base_sec i then ok := false;
        if Int64.bits_of_float live.sub.(i) <> Int64.bits_of_float base_sub.(i) then
          ok := false
      done)
    flips;
  !ok

let test_repair_matches_recompute_sorted =
  qtest ~count:150 "repair = recompute (pre-sorted tie rows)" repair_case_gen
    (repair_matches_recompute ~tiebreak:Policy.Lowest_id)

let test_repair_matches_recompute_generic =
  qtest ~count:150 "repair = recompute (generic tiebreak path)" repair_case_gen
    (repair_matches_recompute ~tiebreak:(Policy.Hashed 0x2f))

let test_repair_noop_flip () =
  (* Seeding nodes whose bytes did NOT change must repair to the same
     forest and undo cleanly (the conservative-admission case). *)
  let g = small () in
  let n = Graph.n g in
  let info = Route_static.compute g 4 in
  let weight = Array.make n 1.0 in
  let secure = Bytes.make n '\000' in
  Bytes.set secure 0 '\001';
  Bytes.set secure 2 '\001';
  let use_secp = Bytes.copy secure in
  let live = Forest.make_scratch n in
  Forest.compute info ~tiebreak:Policy.Lowest_id ~secure ~use_secp ~weight live;
  let fresh = Forest.make_scratch n in
  Forest.compute info ~tiebreak:Policy.Lowest_id ~secure ~use_secp ~weight fresh;
  let rep = Forest.make_repairer n in
  Forest.repair info ~tiebreak:Policy.Lowest_id ~secure ~use_secp ~weight
    ~seeds:[| 0; 2; 5 |] live rep;
  check Alcotest.bool "no-op repair leaves the forest" true
    (scratch_bitwise_equal live fresh n);
  check Alcotest.bool "seeds were visited" true (Forest.touched_count rep > 0);
  Forest.undo live rep;
  check Alcotest.bool "undo after no-op" true (scratch_bitwise_equal live fresh n);
  check Alcotest.int "log drained" 0 (Forest.touched_count rep)

(* ------------------------------------------------------------------ *)
(* Flexsim: the configurable-SecP-position fixed point. *)

let test_flexsim_tiebreak_matches_forest =
  qtest ~count:200 "flexsim at tiebreak-only equals the forest" scenario_gen
    (fun ((g, secure, use_secp, d) as sc) ->
      let _, scratch, _ = run_both sc in
      let out =
        Bgp.Flexsim.route_to g ~dest:d ~secure ~use_secp ~tiebreak:Policy.Lowest_id
          ~position:Bgp.Flexsim.Tiebreak_only
      in
      out.converged
      &&
      let ok = ref true in
      for i = 0 to Graph.n g - 1 do
        if i <> d && scratch.next.(i) <> out.next.(i) then ok := false
      done;
      !ok)

let test_flexsim_secure_first_prefers_secure () =
  (* tier1 (0) has two equal routes to stub 4; only the one via 2 is
     secure. At every SecP position the secure ISP 0 must pick 2; an
     insecure chooser ignores security everywhere. *)
  let g = small () in
  let n = Graph.n g in
  let set l =
    let b = Bytes.make n '\000' in
    List.iter (fun i -> Bytes.set b i '\001') l;
    b
  in
  List.iter
    (fun position ->
      let out =
        Bgp.Flexsim.route_to g ~dest:4 ~secure:(set [ 0; 2; 4 ]) ~use_secp:(set [ 0; 2 ])
          ~tiebreak:Policy.Lowest_id ~position
      in
      check Alcotest.int
        (Bgp.Flexsim.position_to_string position)
        2 out.next.(0);
      check Alcotest.bool "secure flag" true out.secure.(0))
    [ Bgp.Flexsim.Tiebreak_only; Bgp.Flexsim.Before_length; Bgp.Flexsim.Before_lp ]

let test_flexsim_security_first_overrides_length () =
  (* u reaches d via a short insecure provider chain or a longer
     fully-secure one; Before_length flips the choice, Tiebreak_only
     does not. *)
  let u = 0 and a = 1 and b = 2 and c = 3 and d = 4 in
  (* u customer of a and b; a -> d direct; b -> c -> d. *)
  let g =
    Graph.build ~n:5
      ~cp_edges:[ (a, u); (b, u); (a, d); (b, c); (c, d) ]
      ~peer_edges:[] ~cps:[]
  in
  let n = Graph.n g in
  let set l =
    let bts = Bytes.make n '\000' in
    List.iter (fun i -> Bytes.set bts i '\001') l;
    bts
  in
  let secure = set [ u; b; c; d ] in
  let use_secp = set [ u; b; c ] in
  let next position =
    (Bgp.Flexsim.route_to g ~dest:d ~secure ~use_secp ~tiebreak:Policy.Lowest_id
       ~position)
      .next.(u)
  in
  check Alcotest.int "tiebreak-only takes the short route" a
    (next Bgp.Flexsim.Tiebreak_only);
  check Alcotest.int "before-length takes the secure route" b
    (next Bgp.Flexsim.Before_length);
  check Alcotest.int "security-first too" b (next Bgp.Flexsim.Before_lp)

let () =
  Alcotest.run "bgp"
    [
      ( "policy",
        [
          Alcotest.test_case "class roundtrip" `Quick test_policy_class_roundtrip;
          Alcotest.test_case "tiebreak keys" `Quick test_policy_tiebreaks;
          Alcotest.test_case "ranked tiebreak" `Quick test_policy_ranked;
        ] );
      ( "static",
        [
          Alcotest.test_case "small graph, stub dest" `Quick test_static_small_dest_stub;
          Alcotest.test_case "small graph, tier1 dest" `Quick test_static_small_dest_tier1;
          Alcotest.test_case "peer routes are one hop" `Quick
            test_static_peer_route_not_transitive;
          Alcotest.test_case "LP beats path length" `Quick test_static_lp_beats_length;
          Alcotest.test_case "unreachable nodes" `Quick test_static_unreachable;
          Alcotest.test_case "order sorted by length" `Quick test_static_order_sorted_by_length;
          Alcotest.test_case "cache reuses instances" `Quick test_static_cache;
          Alcotest.test_case "bounded store: get = fresh compute" `Quick
            test_bounded_store_recompute_equals_cached;
          Alcotest.test_case "ensure_tiebreak drops and resorts" `Quick
            test_ensure_tiebreak_drops_and_resorts;
          test_tie_rows_match_spec;
          test_tie_rows_presorted;
          test_tie_sort_preserves_members;
        ] );
      ( "statics-ref",
        [
          test_builder_matches_oracle;
          Alcotest.test_case "paper shape, N = 700" `Quick
            test_builder_matches_oracle_paper_shape;
          Alcotest.test_case "path lengths capped at 254" `Quick test_path_length_cap;
          Alcotest.test_case "chain growth repairs to a fresh compute" `Quick
            test_path_length_cap_repair;
        ] );
      ( "forest",
        [
          Alcotest.test_case "lowest-id tiebreak" `Quick test_forest_tiebreak_lowest_id;
          Alcotest.test_case "SecP restricts to secure next hops" `Quick
            test_forest_secp_restricts;
          Alcotest.test_case "no SecP, no restriction" `Quick test_forest_no_secp_no_restriction;
          Alcotest.test_case "subtree weights" `Quick test_forest_subtree_weights;
          Alcotest.test_case "path reconstruction" `Quick test_forest_path_to_dest;
        ] );
      ( "differential",
        [
          test_differential_reachability;
          test_differential_next_hops;
          test_differential_lengths;
          test_differential_security;
          test_static_state_independence;
          test_paths_valley_free;
          test_forest_paths_consistent;
          test_secpath_monotone;
        ] );
      ( "repair",
        [
          test_repair_matches_recompute_sorted;
          test_repair_matches_recompute_generic;
          Alcotest.test_case "no-op flip repairs and undoes cleanly" `Quick
            test_repair_noop_flip;
        ] );
      ( "flexsim",
        [
          test_flexsim_tiebreak_matches_forest;
          Alcotest.test_case "secure choice at every position" `Quick
            test_flexsim_secure_first_prefers_secure;
          Alcotest.test_case "security overrides length when ranked higher" `Quick
            test_flexsim_security_first_overrides_length;
        ] );
    ]
