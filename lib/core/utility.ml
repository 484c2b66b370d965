module Graph = Asgraph.Graph
module I32 = Nsutil.I32
module Route_static = Bgp.Route_static
module Forest = Bgp.Forest

let c_cust = Bgp.Policy.class_to_char Bgp.Policy.Via_customer
let c_prov = Bgp.Policy.class_to_char Bgp.Policy.Via_provider

(* Same-unit Bigarray accessor: [I32.unsafe_get] does not inline
   across modules on the non-flambda compiler, and [contribution]'s
   Incoming case runs per admitted probe. *)
let[@inline] ba_get (a : I32.t) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)

(* Runs once per admitted (destination, candidate) probe — the inner
   loop of the engine sweep — so the [Incoming] case walks the
   customers CSR by direct offset range (same order as
   [Graph.iter_customers], closure-free). Reads only [next]/[sub]:
   a {!Forest.repair}ed scratch is bit-identical to a recomputed one,
   so both flip kernels produce the same float here. *)
let contribution model g (info : Route_static.dest_info) (scratch : Forest.scratch)
    ~weight n =
  match model with
  | Config.Outgoing ->
      if Bytes.get info.cls n = c_cust then scratch.sub.(n) -. weight.(n) else 0.0
  | Config.Incoming ->
      let off = g.Graph.customers.Nsutil.Csr.offsets in
      let dat = g.Graph.customers.Nsutil.Csr.data in
      let next = scratch.Forest.next and sub = scratch.Forest.sub in
      let cls = info.cls in
      let acc = ref 0.0 in
      for k = ba_get off n to ba_get off (n + 1) - 1 do
        let c = ba_get dat k in
        if next.(c) = n && Bytes.unsafe_get cls c = c_prov then
          acc := !acc +. Array.unsafe_get sub c
      done;
      !acc

let accumulate model _g (info : Route_static.dest_info) (scratch : Forest.scratch)
    ~weight ~into =
  let order = info.Route_static.order in
  let nreach = I32.length order in
  match model with
  | Config.Outgoing ->
      for k = 0 to nreach - 1 do
        let i = I32.unsafe_get order k in
        if Bytes.unsafe_get info.cls i = c_cust then
          into.(i) <- into.(i) +. scratch.sub.(i) -. weight.(i)
      done
  | Config.Incoming ->
      for k = 0 to nreach - 1 do
        let i = I32.unsafe_get order k in
        if Bytes.unsafe_get info.cls i = c_prov then begin
          let p = scratch.next.(i) in
          if p >= 0 then into.(p) <- into.(p) +. scratch.sub.(i)
        end
      done

let contribution_pairs model _g (info : Route_static.dest_info)
    (scratch : Forest.scratch) ~weight =
  let order = info.Route_static.order in
  let nreach = I32.length order in
  let count = ref 0 in
  (match model with
  | Config.Outgoing ->
      for k = 0 to nreach - 1 do
        if Bytes.unsafe_get info.cls (I32.unsafe_get order k) = c_cust then
          incr count
      done
  | Config.Incoming ->
      for k = 0 to nreach - 1 do
        let i = I32.unsafe_get order k in
        if Bytes.unsafe_get info.cls i = c_prov && scratch.next.(i) >= 0 then
          incr count
      done);
  let idx = Array.make !count 0 in
  let v = Array.make !count 0.0 in
  let w = ref 0 in
  (match model with
  | Config.Outgoing ->
      for k = 0 to nreach - 1 do
        let i = I32.unsafe_get order k in
        if Bytes.unsafe_get info.cls i = c_cust then begin
          idx.(!w) <- i;
          v.(!w) <- scratch.sub.(i) -. weight.(i);
          incr w
        end
      done
  | Config.Incoming ->
      for k = 0 to nreach - 1 do
        let i = I32.unsafe_get order k in
        if Bytes.unsafe_get info.cls i = c_prov then begin
          let p = scratch.next.(i) in
          if p >= 0 then begin
            idx.(!w) <- p;
            v.(!w) <- scratch.sub.(i);
            incr w
          end
        end
      done);
  (idx, v)

let add_pairs (idx, v) ~into =
  for k = 0 to Array.length idx - 1 do
    let i = Array.unsafe_get idx k in
    into.(i) <- into.(i) +. Array.unsafe_get v k
  done

(* Provider→customer volumes, keyed by the int [p * n + c] in an
   int-specialized table: no per-lookup tuple allocation and no
   polymorphic hashing/compare on the hot path. *)
module Itbl = Hashtbl.Make (Int)

(* The whole-graph loops below read each destination's statics once,
   done with it before the next fetch, so a miss builds through one
   builder per call ({!Route_static.stream_get}) instead of a fresh
   builder per destination, and never evicts under a budget. *)
let customer_volumes config statics state ~weight =
  let g = Route_static.graph statics in
  let n = Graph.n g in
  let scratch = Forest.make_scratch n in
  let secure = State.secure_bytes state in
  let use_secp = State.use_secp_bytes state ~stub_tiebreak:config.Config.stub_tiebreak in
  let volumes = Itbl.create 256 in
  let bd = Route_static.make_builder n in
  for d = 0 to n - 1 do
    let info = Route_static.stream_get statics bd d in
    Forest.compute info ~tiebreak:config.Config.tiebreak ~secure ~use_secp ~weight scratch;
    let order = info.Route_static.order in
    for k = 0 to I32.length order - 1 do
      let c = I32.unsafe_get order k in
      if Bytes.unsafe_get info.cls c = c_prov then begin
        let p = scratch.next.(c) in
        if p >= 0 then begin
          let key = (p * n) + c in
          let prev = Option.value ~default:0.0 (Itbl.find_opt volumes key) in
          Itbl.replace volumes key (prev +. scratch.sub.(c))
        end
      end
    done
  done;
  let out = Array.make n [] in
  Itbl.iter (fun key v -> out.(key / n) <- ((key mod n), v) :: out.(key / n)) volumes;
  Array.map (List.sort (fun (c1, (_ : float)) (c2, _) -> Int.compare c1 c2)) out

let all config statics state ~weight =
  let g = Route_static.graph statics in
  let n = Graph.n g in
  let scratch = Forest.make_scratch n in
  let into = Array.make n 0.0 in
  let secure = State.secure_bytes state in
  let use_secp = State.use_secp_bytes state ~stub_tiebreak:config.Config.stub_tiebreak in
  let bd = Route_static.make_builder n in
  for d = 0 to n - 1 do
    let info = Route_static.stream_get statics bd d in
    Forest.compute info ~tiebreak:config.Config.tiebreak ~secure ~use_secp ~weight scratch;
    accumulate config.Config.model g info scratch ~weight ~into
  done;
  into
