module Graph = Asgraph.Graph
module Policy = Bgp.Policy
module Route_static = Bgp.Route_static

type t = {
  dest : int;
  cls : Bytes.t;
  len : Bytes.t;
  tie_off : int array;
  tie : int array;
  tie_rev_off : int array;
  tie_rev : int array;
  order : int array;
  tb : Policy.tiebreak;
  max_len : int;
}

let inf = max_int
let max_len_cap = Route_static.max_path_len
let c_self = Policy.class_to_char Policy.Self
let c_cust = Policy.class_to_char Policy.Via_customer
let c_peer = Policy.class_to_char Policy.Via_peer
let c_prov = Policy.class_to_char Policy.Via_provider
let c_unreach = Policy.class_to_char Policy.Unreachable

(* Flatten per-node rows into CSR offsets and data. *)
let csr rows =
  let n = Array.length rows in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun i r -> off.(i + 1) <- off.(i) + List.length r) rows;
  (off, Array.of_list (List.concat (Array.to_list rows)))

let compute ?(tiebreak = Policy.Lowest_id) g d =
  let n = Graph.n g in
  (* Stage 1: customer-route lengths, BFS up provider links from [d]. *)
  let l1 = Array.make n inf in
  l1.(d) <- 0;
  let q = Queue.create () in
  Queue.add d q;
  while not (Queue.is_empty q) do
    let x = Queue.take q in
    if l1.(x) < max_len_cap then
      Graph.iter_providers g x (fun p ->
          if l1.(p) = inf then begin
            l1.(p) <- l1.(x) + 1;
            Queue.add p q
          end)
  done;
  let bl = Array.copy l1 in
  let cls = Bytes.make n c_unreach in
  Array.iteri (fun i l -> if l < inf then Bytes.set cls i (if i = d then c_self else c_cust)) l1;
  (* Stage 2: a node without a customer route takes one peering hop
     onto its best peer's customer route. *)
  for i = 0 to n - 1 do
    if bl.(i) = inf then begin
      let best = ref inf in
      Graph.iter_peers g i (fun p -> if l1.(p) < !best then best := l1.(p));
      if !best < max_len_cap then begin
        bl.(i) <- !best + 1;
        Bytes.set cls i c_peer
      end
    end
  done;
  (* Stage 3: provider routes descend customer links, popped from a
     bucket queue in ascending final length (FIFO within a length). *)
  let buckets = Array.init (max_len_cap + 1) (fun _ -> Queue.create ()) in
  let popped = Array.make n false in
  Array.iteri (fun i l -> if l < inf then Queue.add i buckets.(l)) bl;
  for key = 0 to max_len_cap do
    let b = buckets.(key) in
    while not (Queue.is_empty b) do
      let x = Queue.take b in
      if not popped.(x) then begin
        popped.(x) <- true;
        if bl.(x) = inf then begin
          bl.(x) <- key;
          Bytes.set cls x c_prov
        end;
        if key < max_len_cap then
          Graph.iter_customers g x (fun c ->
              if (not popped.(c)) && bl.(c) = inf then Queue.add c buckets.(key + 1))
      end
    done
  done;
  let reachable i = bl.(i) < inf in
  let len = Bytes.make n '\000' in
  Array.iteri (fun i l -> if l < inf then Bytes.set len i (Char.chr l)) bl;
  (* Tie rows: the equal-best neighbors of the route's class, in
     adjacency order, then stable-sorted by static tiebreak key. *)
  let exports_customer_route j =
    let c = Bytes.get cls j in
    c = c_self || c = c_cust
  in
  let rows =
    Array.init n (fun i ->
        if i = d || not (reachable i) then []
        else begin
          let want = bl.(i) - 1 in
          let acc = ref [] in
          let c = Bytes.get cls i in
          if c = c_cust then
            Graph.iter_customers g i (fun j ->
                if bl.(j) = want && exports_customer_route j then acc := j :: !acc)
          else if c = c_peer then
            Graph.iter_peers g i (fun j ->
                if bl.(j) = want && exports_customer_route j then acc := j :: !acc)
          else Graph.iter_providers g i (fun j -> if bl.(j) = want then acc := j :: !acc);
          List.stable_sort
            (fun a b -> compare (Policy.tiebreak_key tiebreak i a) (Policy.tiebreak_key tiebreak i b))
            (List.rev !acc)
        end)
  in
  let tie_off, tie = csr rows in
  let order = List.filter reachable (List.init n Fun.id) in
  let order = Array.of_list (List.stable_sort (fun a b -> compare bl.(a) bl.(b)) order) in
  (* Reverse rows in descending order position: walk [order] from the
     back, prepending, then reverse each row. *)
  let rev = Array.make n [] in
  for k = Array.length order - 1 downto 0 do
    let i = order.(k) in
    List.iter (fun j -> rev.(j) <- i :: rev.(j)) rows.(i)
  done;
  let tie_rev_off, tie_rev = csr (Array.map List.rev rev) in
  let max_len = Array.fold_left (fun m l -> if l < inf then max m l else m) 0 bl in
  { dest = d; cls; len; tie_off; tie; tie_rev_off; tie_rev; order; tb = tiebreak; max_len }

let diff r (info : Route_static.dest_info) =
  let i32 a = Nsutil.I32.to_array a in
  let fields =
    [
      ("dest", r.dest = info.dest);
      ("tb", Route_static.sorted_for info r.tb);
      ("max_len", r.max_len = info.max_len);
      ("cls", Bytes.equal r.cls info.cls);
      ("len", Bytes.equal r.len info.len);
      ("tie_off", r.tie_off = i32 info.tie_off);
      ("tie", r.tie = i32 info.tie);
      ("tie_rev_off", r.tie_rev_off = i32 info.tie_rev_off);
      ("tie_rev", r.tie_rev = i32 info.tie_rev);
      ("order", r.order = i32 info.order);
    ]
  in
  List.find_map (fun (name, ok) -> if ok then None else Some name) fields
