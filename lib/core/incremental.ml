module Graph = Asgraph.Graph
module Route_static = Bgp.Route_static
module I32 = Nsutil.I32
module F64 = Nsutil.F64

(* Same-unit Bigarray accessors: [I32]/[F64] getters do not inline
   across modules on the non-flambda compiler, and [add_pairs] runs
   once per destination per round. *)
let[@inline] i32_get (a : I32.t) k = Int32.to_int (Bigarray.Array1.unsafe_get a k)
let[@inline] f64_get (a : F64.t) k = Bigarray.Array1.unsafe_get a k

(* At paper scale the cache dominates the run's footprint, so every
   per-destination field is stored compactly: the forest's secure
   flags bit-packed (n/8 bytes instead of n), the addend stream in
   unboxed off-heap vectors (12 bytes per addend instead of two boxed
   arrays the GC keeps rescanning), and the per-slot row sparse over
   the slots the stream actually touched. *)
type entry = {
  sec_bits : Bytes.t;  (* bit [i land 7] of byte [i lsr 3] = node i *)
  pairs_idx : I32.t;
  pairs_val : F64.t;
  row_idx : int array;  (* touched compact ISP slots, ascending *)
  row_val : float array;
}

(* Per-worker scratch for [store]: a dense accumulator over compact
   ISP slots plus a touched list, so building the sparse row performs
   exactly the dense additions (same slots, same stream order) the
   old dense row did — values are bit-identical, only the storage of
   the untouched zeros changes. *)
type scratch = {
  rs_row : float array;
  rs_mark : Bytes.t;
  rs_touched : int array;
  mutable rs_count : int;
}

type t = {
  statics : Route_static.t;
  dirty : Route_static.Dirty.t;
  entries : entry option array;
  isp_index : int array;
  isp_count : int;
  mutable pending_churn : int list;
      (* destinations whose *static* info changed under a topology
         delta (same node count), to be force-marked dirty at the next
         [begin_round] on top of the state diff *)
}

let create statics =
  let g = Route_static.graph statics in
  let n = Graph.n g in
  let isp_index = Array.make n (-1) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if Graph.is_isp g i then begin
      isp_index.(i) <- !count;
      incr count
    end
  done;
  {
    statics;
    dirty = Route_static.Dirty.create statics;
    entries = Array.make n None;
    isp_index;
    isp_count = !count;
    pending_churn = [];
  }

let make_scratch t =
  {
    rs_row = Array.make (max 1 t.isp_count) 0.0;
    rs_mark = Bytes.make (max 1 t.isp_count) '\000';
    rs_touched = Array.make (max 1 t.isp_count) 0;
    rs_count = 0;
  }

let note_churn t ~changed =
  if Array.length t.entries <> Graph.n (Route_static.graph t.statics) then
    invalid_arg "Incremental.note_churn: cache does not match the store's graph";
  t.pending_churn <- List.rev_append changed t.pending_churn

let begin_round t state =
  if State.marked state then begin
    Route_static.Dirty.reset t.dirty;
    Route_static.Dirty.invalidate t.dirty
      ~changed:(State.changed_since_mark state)
      ~secure:(State.secure_bytes state)
  end;
  (* Topology churn marks unconditionally: the destination's statics
     changed, so its forest can change regardless of the state diff. *)
  if t.pending_churn <> [] then begin
    List.iter (fun d -> Route_static.Dirty.mark t.dirty d) t.pending_churn;
    t.pending_churn <- []
  end;
  State.mark state

let is_dirty ?fetch t d = Route_static.Dirty.is_dirty ?fetch t.dirty d
let dirty_count t = Route_static.Dirty.dirty_count t.dirty

let pack_sec_path sec_path =
  let n = Bytes.length sec_path in
  let bits = Bytes.make ((n + 7) lsr 3) '\000' in
  for i = 0 to n - 1 do
    if Bytes.unsafe_get sec_path i = '\001' then begin
      let b = i lsr 3 in
      Bytes.unsafe_set bits b
        (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits b) lor (1 lsl (i land 7))))
    end
  done;
  bits

let store t ?scratch d ~sec_path ~pairs =
  let rs = match scratch with Some rs -> rs | None -> make_scratch t in
  let idx, v = pairs in
  (* Accumulate the stream into the dense scratch slots in stream
     order — float-for-float what the old dense row did — and record
     first-touches; the sparse row then reads the finished sums. *)
  for k = 0 to Array.length idx - 1 do
    let s = Array.unsafe_get t.isp_index (Array.unsafe_get idx k) in
    if s >= 0 then begin
      if Bytes.unsafe_get rs.rs_mark s = '\000' then begin
        Bytes.unsafe_set rs.rs_mark s '\001';
        rs.rs_touched.(rs.rs_count) <- s;
        rs.rs_count <- rs.rs_count + 1
      end;
      rs.rs_row.(s) <- rs.rs_row.(s) +. Array.unsafe_get v k
    end
  done;
  let row_idx = Array.sub rs.rs_touched 0 rs.rs_count in
  Array.sort Int.compare row_idx;
  let row_val = Array.map (fun s -> rs.rs_row.(s)) row_idx in
  for k = 0 to rs.rs_count - 1 do
    let s = rs.rs_touched.(k) in
    rs.rs_row.(s) <- 0.0;
    Bytes.unsafe_set rs.rs_mark s '\000'
  done;
  rs.rs_count <- 0;
  t.entries.(d) <-
    Some
      {
        sec_bits = pack_sec_path sec_path;
        pairs_idx = I32.of_array idx;
        pairs_val = F64.of_array v;
        row_idx;
        row_val;
      }

let entry t d =
  match t.entries.(d) with
  | Some e -> e
  | None -> invalid_arg "Incremental.entry: destination never computed"

let sec_bit e i =
  Char.code (Bytes.unsafe_get e.sec_bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add_pairs e ~into =
  let idx = e.pairs_idx and v = e.pairs_val in
  for k = 0 to I32.length idx - 1 do
    let i = i32_get idx k in
    into.(i) <- into.(i) +. f64_get v k
  done

(* Checkpointing: the cache's only cross-round memory is the entries
   array (dirtiness is re-derived each round from the state's mark
   diff). Snapshotting it lets a resumed run replay exactly the cache
   hits the uninterrupted run would have had. Bigarrays carry their
   own [Marshal] representation, so the unboxed vectors round-trip
   exactly. *)
let snapshot t = Marshal.to_string t.entries []

let restore t s =
  let entries = (Marshal.from_string s 0 : entry option array) in
  if Array.length entries <> Array.length t.entries then
    invalid_arg "Incremental.restore: snapshot does not match the topology";
  Array.blit entries 0 t.entries 0 (Array.length entries)

let row_value e s =
  if s < 0 then 0.0
  else begin
    let idx = e.row_idx in
    let lo = ref 0 and hi = ref (Array.length idx - 1) in
    let res = ref 0.0 in
    while !lo <= !hi do
      let mid = (!lo + !hi) lsr 1 in
      let v = Array.unsafe_get idx mid in
      if v = s then begin
        res := Array.unsafe_get e.row_val mid;
        lo := !hi + 1
      end
      else if v < s then lo := mid + 1
      else hi := mid - 1
    done;
    !res
  end

let base_contribution t e nc = row_value e t.isp_index.(nc)

let isp_slot t nc = t.isp_index.(nc)
