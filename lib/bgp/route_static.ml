module Csr = Nsutil.Csr
module I32 = Nsutil.I32
module Graph = Asgraph.Graph

type dest_info = {
  dest : int;
  cls : Bytes.t;
  len : Bytes.t;
  tie_off : I32.t;
  tie : I32.t;
  tie_rev_off : I32.t;
  tie_rev : I32.t;
  order : I32.t;
  tb : Policy.tiebreak;
  max_len : int;
}

let inf = max_int
let max_path_len = 254

(* Direct element primitives over [I32] Bigarrays, used by every hot
   loop in this file. The classic (non-flambda) compiler does not
   inline the [I32] accessors across modules, and the statics
   builder and the repair kernels touch enough int32 elements that
   out-of-line calls triple their cost; same-unit helpers specialize
   down to single loads and stores. *)
let ba_get (a : I32.t) i = Int32.to_int (Bigarray.Array1.unsafe_get a i)
let ba_set (a : I32.t) i v = Bigarray.Array1.unsafe_set a i (Int32.of_int v)

let c_self = Policy.class_to_char Policy.Self
let c_cust = Policy.class_to_char Policy.Via_customer
let c_peer = Policy.class_to_char Policy.Via_peer
let c_prov = Policy.class_to_char Policy.Via_provider
let c_unreach = Policy.class_to_char Policy.Unreachable

(* Stable insertion sort of one tie row by static tiebreak key: among
   equal keys the earlier-inserted member stays first, so taking the
   row head reproduces exactly the legacy strictly-less minimum scan
   over insertion order. Rows are tiny (mean 1-3 members); insertion
   sort beats anything with allocation here. *)
let sort_row tb i members keys len =
  for a = 0 to len - 1 do
    keys.(a) <- Policy.tiebreak_key tb i members.(a)
  done;
  for a = 1 to len - 1 do
    let m = members.(a) and k = keys.(a) in
    let b = ref a in
    while !b > 0 && keys.(!b - 1) > k do
      members.(!b) <- members.(!b - 1);
      keys.(!b) <- keys.(!b - 1);
      decr b
    done;
    members.(!b) <- m;
    keys.(!b) <- k
  done

(* All scratch one statics build touches, hoisted into a reusable
   builder: a streaming store builds tens of thousands of records per
   engine round at 36K+ nodes, and per-call allocation of the O(n)
   temporaries would make the sweep GC-bound. Every build assembles
   its record in the builder's own buffers; a transient record is those
   buffers (valid only until the builder's next build, and never to be
   inserted into a store), a persistent one an exact-size copy. A
   builder is single-domain state — the engine keeps one per worker. *)
type builder = {
  bd_n : int;
  bd_queue : int array;
      (* every reachable node once: stage 1's customer-route list, then
         stage 2's peer-route list, then stage 3's provider FIFO *)
  bd_rev : int array;  (* reverse-row counts, then fill cursors *)
  bd_starts : int array;  (* counting-sort buckets over path lengths *)
  mutable bd_members : int array;  (* tie-row sort buffers, grown on demand *)
  mutable bd_keys : int array;
  bd_cls : Bytes.t;
  bd_len : Bytes.t;
  bd_tie_off : I32.t;  (* n + 1 *)
  bd_tie_rev_off : I32.t;  (* n + 1 *)
  mutable bd_tie : I32.t;  (* grown on demand *)
  mutable bd_tie_rev : I32.t;
  bd_order : I32.t;  (* n *)
}

let make_builder n =
  {
    bd_n = n;
    bd_queue = Array.make n 0;
    bd_rev = Array.make n 0;
    bd_starts = Array.make (max_path_len + 1) 0;
    bd_members = [||];
    bd_keys = [||];
    bd_cls = Bytes.make n c_unreach;
    bd_len = Bytes.make n '\000';
    bd_tie_off = I32.create (n + 1);
    bd_tie_rev_off = I32.create (n + 1);
    bd_tie = I32.create 0;
    bd_tie_rev = I32.create 0;
    bd_order = I32.create n;
  }

(* Room for [need] tie members, keeping the first [used]. *)
let grow_tie bd ~used need =
  let a = I32.create (max need (2 * I32.length bd.bd_tie)) in
  I32.blit ~src:bd.bd_tie ~src_pos:0 ~dst:a ~dst_pos:0 ~len:used;
  bd.bd_tie <- a

(* Deep copy: a persistent record, or a transient one promoted into a
   store slot. *)
let info_copy info =
  let i32_copy (a : I32.t) =
    let c = I32.create (I32.length a) in
    I32.blit ~src:a ~src_pos:0 ~dst:c ~dst_pos:0 ~len:(I32.length a);
    c
  in
  {
    info with
    cls = Bytes.copy info.cls;
    len = Bytes.copy info.len;
    tie_off = i32_copy info.tie_off;
    tie = i32_copy info.tie;
    tie_rev_off = i32_copy info.tie_rev_off;
    tie_rev = i32_copy info.tie_rev;
    order = i32_copy info.order;
  }

let blen b i = Char.code (Bytes.unsafe_get b i)

(* Length of the head of the queue slice [lo, hi), [max_int] if empty. *)
let head_len len queue lo hi = if lo < hi then blen len queue.(lo) else max_int

(* Gao-Rexford static routes (Appendix A / [15]) in one fused pass over
   the builder's scratch. Customer routes climb provider links from d;
   peer routes add one peering hop onto a customer route; provider
   routes descend customer links from any already-routed node. A
   node's length is final when it is first reached, because each stage
   visits its sources in ascending length. The record's own [len] and
   [cls] bytes serve as the working lengths and the visited mark. Every
   stage stops at [max_path_len]: longer routes are unreachable. The
   adjacency CSR arrays are walked by direct offset-range loops — no
   per-node closures on this path. *)
let compute_with ?(tiebreak = Policy.Lowest_id) ?(transient = false) bd g d =
  let n = Graph.n g in
  if bd.bd_n <> n then
    invalid_arg
      (Printf.sprintf "Route_static.compute_with: builder for %d nodes, graph has %d"
         bd.bd_n n);
  if d < 0 || d >= n then
    invalid_arg (Printf.sprintf "Route_static.compute_with: destination %d out of range" d);
  let cust_off = g.Graph.customers.Csr.offsets and cust_dat = g.Graph.customers.Csr.data in
  let prov_off = g.Graph.providers.Csr.offsets and prov_dat = g.Graph.providers.Csr.data in
  let peer_off = g.Graph.peers.Csr.offsets and peer_dat = g.Graph.peers.Csr.data in
  let cls = bd.bd_cls and len = bd.bd_len and queue = bd.bd_queue in
  Bytes.fill cls 0 n c_unreach;
  Bytes.fill len 0 n '\000';
  (* Stage 1: customer routes, BFS up provider links. The queue ends up
     holding the customer-route list (d first) in ascending length. *)
  Bytes.unsafe_set cls d c_self;
  queue.(0) <- d;
  let tail = ref 1 in
  let head = ref 0 in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    let lx = blen len x in
    if lx < max_path_len then
      for k = ba_get prov_off x to ba_get prov_off (x + 1) - 1 do
        let p = ba_get prov_dat k in
        if Bytes.unsafe_get cls p = c_unreach then begin
          Bytes.unsafe_set cls p c_cust;
          Bytes.unsafe_set len p (Char.unsafe_chr (lx + 1));
          queue.(!tail) <- p;
          incr tail
        end
      done
  done;
  let cust_end = !tail in
  (* Stage 2: peer routes. Walking the peers of each customer-route
     node in ascending length, a node's first touch is its shortest
     peer route. Walking [x]'s peer row to reach [i] relies on [x]
     being in [i]'s row too: {!Graph.build} — the only constructor,
     behind every loader and [apply_delta] — stores each peer edge in
     both rows. *)
  for k = 0 to cust_end - 1 do
    let x = queue.(k) in
    let lx = blen len x in
    if lx < max_path_len then
      for e = ba_get peer_off x to ba_get peer_off (x + 1) - 1 do
        let i = ba_get peer_dat e in
        if Bytes.unsafe_get cls i = c_unreach then begin
          Bytes.unsafe_set cls i c_peer;
          Bytes.unsafe_set len i (Char.unsafe_chr (lx + 1));
          queue.(!tail) <- i;
          incr tail
        end
      done
  done;
  let peer_end = !tail in
  (* Stage 3: provider routes. Merge the two ascending lists with the
     FIFO of provider-route nodes, which is ascending too (each push is
     one longer than the node being expanded), so nodes expand in
     ascending length and a node's first push carries its final
     length. Every reachable node expands exactly once, which is where
     the length buckets of [order] are counted. *)
  let starts = bd.bd_starts in
  Array.fill starts 0 (max_path_len + 1) 0;
  let a = ref 0 and b = ref cust_end and q = ref peer_end in
  while !a < cust_end || !b < peer_end || !q < !tail do
    let la = head_len len queue !a cust_end
    and lb = head_len len queue !b peer_end
    and lq = head_len len queue !q !tail in
    let x =
      if la <= lb && la <= lq then begin
        incr a;
        queue.(!a - 1)
      end
      else if lb <= lq then begin
        incr b;
        queue.(!b - 1)
      end
      else begin
        incr q;
        queue.(!q - 1)
      end
    in
    let lx = blen len x in
    starts.(lx) <- starts.(lx) + 1;
    if lx < max_path_len then
      for e = ba_get cust_off x to ba_get cust_off (x + 1) - 1 do
        let c = ba_get cust_dat e in
        if Bytes.unsafe_get cls c = c_unreach then begin
          Bytes.unsafe_set cls c c_prov;
          Bytes.unsafe_set len c (Char.unsafe_chr (lx + 1));
          queue.(!tail) <- c;
          incr tail
        end
      done
  done;
  let reach = !tail in
  let acc = ref 0 in
  for l = 0 to max_path_len do
    let c = starts.(l) in
    starts.(l) <- !acc;
    acc := !acc + c
  done;
  (* Tie rows and [order] in one pass over the nodes. Each row is
     appended in adjacency order, sorted by static tiebreak key
     ([sort_row], stable), and each member is counted into its reverse
     row. Visiting nodes in id order makes the counting sort
     place the reachable nodes in ascending (length, id). A row is a
     subset of one adjacency row, so reserving that row's degree up
     front keeps the appends unchecked. *)
  let tie_off = bd.bd_tie_off and rev = bd.bd_rev and order = bd.bd_order in
  Array.fill rev 0 n 0;
  let w = ref 0 in
  for i = 0 to n - 1 do
    ba_set tie_off i !w;
    let c = Bytes.unsafe_get cls i in
    if c <> c_unreach then begin
      let l = blen len i in
      ba_set order starts.(l) i;
      starts.(l) <- starts.(l) + 1;
      if i <> d then begin
        let want = l - 1 in
        let lo = !w in
        let off = if c = c_cust then cust_off else if c = c_peer then peer_off else prov_off in
        let dat = if c = c_cust then cust_dat else if c = c_peer then peer_dat else prov_dat in
        let klo = ba_get off i and khi = ba_get off (i + 1) in
        if lo + khi - klo > Bigarray.Array1.dim bd.bd_tie then
          grow_tie bd ~used:lo (lo + khi - klo);
        let tie = bd.bd_tie in
        if c = c_prov then
          for e = klo to khi - 1 do
            let j = ba_get dat e in
            if blen len j = want && Bytes.unsafe_get cls j <> c_unreach then begin
              ba_set tie !w j;
              rev.(j) <- rev.(j) + 1;
              incr w
            end
          done
        else
          (* Customer and peer routes only extend a neighbor's customer
             route (or d itself). *)
          for e = klo to khi - 1 do
            let j = ba_get dat e in
            if blen len j = want then begin
              let cj = Bytes.unsafe_get cls j in
              if cj = c_cust || cj = c_self then begin
                ba_set tie !w j;
                rev.(j) <- rev.(j) + 1;
                incr w
              end
            end
          done;
        let row = !w - lo in
        if row > 1 then begin
          if Array.length bd.bd_members < row then begin
            bd.bd_members <- Array.make (max row (2 * Array.length bd.bd_members)) 0;
            bd.bd_keys <- Array.make (Array.length bd.bd_members) 0
          end;
          let members = bd.bd_members in
          for e = 0 to row - 1 do
            members.(e) <- ba_get tie (lo + e)
          done;
          sort_row tiebreak i members bd.bd_keys row;
          for e = 0 to row - 1 do
            ba_set tie (lo + e) members.(e)
          done
        end
      end
    end
  done;
  let total = !w in
  ba_set tie_off n total;
  let tie = bd.bd_tie in
  (* Reverse tiebreak adjacency: row [j] lists every node whose tie
     set contains [j], ordered by DESCENDING position in [order] — the
     exact order Pass 2 of the forest kernel folds child subtrees into
     parents, so an incremental repair that re-sums one parent's
     subtree walks the same addends in the same order (bit-identical
     floats). The reverse CSR is a permutation of the tie CSR's
     members, so it holds [total] entries too. *)
  let tie_rev_off = bd.bd_tie_rev_off in
  let acc = ref 0 in
  for j = 0 to n - 1 do
    ba_set tie_rev_off j !acc;
    let c = rev.(j) in
    rev.(j) <- !acc;
    acc := !acc + c
  done;
  ba_set tie_rev_off n total;
  if I32.length bd.bd_tie_rev < total then
    bd.bd_tie_rev <- I32.create (max total (2 * I32.length bd.bd_tie_rev));
  let tie_rev = bd.bd_tie_rev in
  for k = reach - 1 downto 1 do
    let i = ba_get order k in
    for e = ba_get tie_off i to ba_get tie_off (i + 1) - 1 do
      let j = ba_get tie e in
      ba_set tie_rev rev.(j) i;
      rev.(j) <- rev.(j) + 1
    done
  done;
  let info =
    {
      dest = d;
      cls;
      len;
      tie_off;
      tie = Bigarray.Array1.sub tie 0 total;
      tie_rev_off;
      tie_rev = Bigarray.Array1.sub tie_rev 0 total;
      order = Bigarray.Array1.sub order 0 reach;
      tb = tiebreak;
      max_len = blen len (ba_get order (reach - 1));
    }
  in
  if transient then info else info_copy info

let compute ?tiebreak g d = compute_with ?tiebreak (make_builder (Graph.n g)) g d

let class_of info i = Policy.class_of_char (Bytes.get info.cls i)

let reachable info i = Bytes.get info.cls i <> c_unreach

let length_of info i =
  if not (reachable info i) then
    invalid_arg (Printf.sprintf "Route_static.length_of: %d unreachable" i)
  else Char.code (Bytes.get info.len i)

let sorted_for info tiebreak = Policy.tiebreak_equal info.tb tiebreak

(* ------------------------------------------------------------------ *)
(* Per-destination accessors over the compact layout. *)

let order_length info = I32.length info.order
let order_get info k = I32.get info.order k

let iter_order info f =
  for k = 0 to I32.length info.order - 1 do
    f (I32.unsafe_get info.order k)
  done

let tie_size info i = I32.get info.tie_off (i + 1) - I32.get info.tie_off i

let tie_get info i k = I32.get info.tie (I32.get info.tie_off i + k)

let tie_list info i =
  let lo = I32.get info.tie_off i and hi = I32.get info.tie_off (i + 1) in
  let acc = ref [] in
  for k = hi - 1 downto lo do
    acc := I32.get info.tie k :: !acc
  done;
  !acc

let tie_exists info i p =
  let hi = I32.get info.tie_off (i + 1) in
  let rec loop k = k < hi && (p (I32.unsafe_get info.tie k) || loop (k + 1)) in
  loop (I32.get info.tie_off i)

let tie_fold info i f init =
  let acc = ref init in
  for k = I32.get info.tie_off i to I32.get info.tie_off (i + 1) - 1 do
    acc := f !acc (I32.unsafe_get info.tie k)
  done;
  !acc

let tie_mem info i v = tie_exists info i (fun x -> x = v)

let info_bytes info =
  Bytes.length info.cls + Bytes.length info.len
  + I32.byte_size info.tie_off
  + I32.byte_size info.tie
  + I32.byte_size info.tie_rev_off
  + I32.byte_size info.tie_rev
  + I32.byte_size info.order + 128

let info_equal a b =
  a.dest = b.dest
  && Policy.tiebreak_equal a.tb b.tb
  && a.max_len = b.max_len
  && Bytes.equal a.cls b.cls
  && Bytes.equal a.len b.len
  && I32.equal a.tie_off b.tie_off
  && I32.equal a.tie b.tie
  && I32.equal a.tie_rev_off b.tie_rev_off
  && I32.equal a.tie_rev b.tie_rev
  && I32.equal a.order b.order

(* ------------------------------------------------------------------ *)
(* Incremental repair under topology churn (DESIGN.md section 10).

   [repair_surgical] patches one destination's statics across a
   {!Graph.delta} without rerunning the statics builder,
   whenever the delta provably cannot alter any existing node's class,
   length or tie row for this destination. Two facts carry the proof:

   - An appended stub (a new node that only becomes the *customer* of
     existing providers) has no customers and no peers, so it exports
     no customer route and is nobody's provider or peer: stage 1's
     provider-link BFS and stage 2's peer scans never read it, and in
     stage 3 it is a leaf of the provider FIFO — its own best length
     is [min provider length + 1] and it pushes nothing. Every existing
     byte of the statics is untouched; the stub only appends CSR rows
     and splices into the order and the reverse-tiebreak layout.

   - Routes to [d] propagate exclusively through nodes that already
     hold a route to [d]. An edge op whose endpoints are both
     unreachable (in the pre-delta statics) can therefore never create
     or destroy a route for anyone: the reachable set's adjacency is
     unchanged, so the fixed point is unchanged. (This argument is
     joint across the delta's ops: it holds because *every* non-stub
     op in a surgical delta has only unreachable endpoints, and stub
     attachments never extend reachability among existing nodes.)

   Everything else — an insert or withdrawal touching a reachable
   node, class/participation toggles aside (the statics never read
   [Graph.klass]), edges among new nodes — falls back to a full
   {!compute} via {!repair}. The frontier of the delta is thus exact:
   destinations whose trees the churn cannot reach share their statics
   physically; reached ones are either patched in O(copy) or rebuilt. *)

type kernel = Full | Delta

(* Bump allocator over large slab chunks. The GC paces major work on
   custom-block bytes, so allocating each migrated entry's arrays as
   its own Bigarray makes a store-wide rebase allocation-dominated —
   the per-entry blocks cost an order of magnitude more than the
   patch work they hold. A slab hands out sub-slices of multi-MB
   chunks instead. Entries allocated from a slab share the chunks'
   lifetime, so [rebase] only uses one for unbounded stores, where
   nothing is ever evicted and the chunks die exactly when the next
   rebase (or drop) releases the migrated entries; bounded stores
   keep per-entry arenas so eviction keeps releasing real memory. *)
type slab = { mutable s_chunk : I32.t; mutable s_pos : int }

let slab_chunk_words = 1 lsl 20 (* 4 MB of int32 per chunk *)
let slab_create () = { s_chunk = I32.create 0; s_pos = 0 }

let slab_alloc sl len =
  if sl.s_pos + len > I32.length sl.s_chunk then begin
    sl.s_chunk <- I32.create (max slab_chunk_words len);
    sl.s_pos <- 0
  end;
  let s = Bigarray.Array1.sub sl.s_chunk sl.s_pos len in
  sl.s_pos <- sl.s_pos + len;
  s

(* Per-delta repair context: everything that does not depend on the
   destination — op classification and reusable scratch buffers — is
   hoisted here so a store [rebase] pays for it once, not once per
   resident entry (the per-entry patch must stay within a small
   multiple of its memcpy floor for repair to beat rebuild per unit of
   churn). The scratch is only valid within one [repair_with_ctx]
   call; [rebase] is single-threaded by contract, and the public
   [repair]/[repair_surgical] build a fresh context per call. *)
type repair_ctx = {
  rx_g : Graph.t;  (* the churned graph *)
  rx_delta : Graph.delta;
  rx_eligible : bool;
      (* false: some op (an edge among new nodes, say) disqualifies
         the surgical path for every destination *)
  rx_endpoints : int array;
      (* base-graph endpoints of the non-stub-attach edge ops: a
         destination is surgical iff none of them is reachable *)
  (* scratch, reused across calls *)
  rx_s_len : int array;  (* grown: appended-node length, 0 = unreachable *)
  rx_stubs : int array;  (* grown: reachable stubs, ascending (length, id) *)
  rx_cnt : int array;  (* 256 counting-sort buckets over lengths *)
  rx_row_off : int array;  (* grown + 1: per-stub tie-row offsets *)
  rx_row : int array;  (* flattened stub tie rows *)
  rx_slot_stub : int array;  (* owning stub of each flattened tie slot *)
  rx_row_buf : int array;  (* tie-row sort buffers, max new-node degree *)
  rx_key_buf : int array;
  rx_ex_count : int array;  (* base_n: appended rev-row members per provider *)
  rx_ex_head : int array;  (* base_n: provider's extras head slot, -1 = none *)
  rx_ex_next : int array;  (* next slot in a provider's extras list *)
  rx_pdat : int array;
      (* appended slice of the provider CSR, each stub's row pre-sorted
         by (tiebreak key, CSR position) — a filtered subset of a row
         is then already in stable tiebreak order, so per-destination
         tie rows need no sorting at all *)
  rx_sorted_for : Policy.tiebreak option ref;  (* policy [rx_pdat] is sorted under *)
  rx_alloc : int -> I32.t;  (* arena allocator for patched entries *)
}

(* Tiebreak-policy equality at the only granularity that matters here:
   rank tables compare by identity (they are mutable). *)
let tb_same a b =
  match (a, b) with
  | Policy.Lowest_id, Policy.Lowest_id -> true
  | Policy.Hashed x, Policy.Hashed y -> x = y
  | Policy.Ranked r1, Policy.Ranked r2 -> r1 == r2
  | _ -> false

let make_repair_ctx g' (delta : Graph.delta) =
  let base_n = delta.Graph.base_n in
  let n' = Graph.n g' in
  if n' <> base_n + delta.Graph.grown then
    invalid_arg "Route_static.repair: graph does not match delta";
  let eligible = ref true in
  let endpoints = ref [] in
  List.iter
    (fun op ->
      match op with
      | Graph.Set_cp _ -> () (* classes are never read by [compute] *)
      | Graph.Edge_add ((p, c), Graph.Customer) when p < base_n && c >= base_n ->
          () (* stub attach: recovered from the provider CSR below *)
      | Graph.Edge_add ((c, p), Graph.Provider) when p < base_n && c >= base_n -> ()
      | Graph.Edge_add ((a, b), _) | Graph.Edge_remove ((a, b), _) ->
          if a >= base_n || b >= base_n then eligible := false
          else endpoints := a :: b :: !endpoints)
    delta.Graph.ops;
  let grown = delta.Graph.grown in
  let prov_off = g'.Graph.providers.Csr.offsets in
  let cap = ba_get prov_off n' - ba_get prov_off base_n in
  let maxdeg = ref 1 in
  for s = base_n to n' - 1 do
    maxdeg := max !maxdeg (ba_get prov_off (s + 1) - ba_get prov_off s)
  done;
  {
    rx_g = g';
    rx_delta = delta;
    rx_eligible = !eligible;
    rx_endpoints = Array.of_list !endpoints;
    rx_s_len = Array.make (max 1 grown) 0;
    rx_stubs = Array.make (max 1 grown) 0;
    rx_cnt = Array.make 256 0;
    rx_row_off = Array.make (grown + 1) 0;
    rx_row = Array.make (max 1 cap) 0;
    rx_slot_stub = Array.make (max 1 cap) 0;
    rx_row_buf = Array.make !maxdeg 0;
    rx_key_buf = Array.make !maxdeg 0;
    rx_ex_count = Array.make (max 1 base_n) 0;
    rx_ex_head = Array.make (max 1 base_n) (-1);
    rx_ex_next = Array.make (max 1 cap) (-1);
    rx_pdat = Array.make (max 1 cap) 0;
    rx_sorted_for = ref None;
    rx_alloc = I32.create;
  }

(* Sort every appended stub's provider row once per (context,
   policy): [sort_row] is stable over CSR position, so any subset of a
   pre-sorted row — the providers achieving the minimum length for one
   destination — is exactly the row the per-destination sort used to
   produce. This hoists all tiebreak-key evaluation out of the
   per-destination patch loop. *)
let rx_prepare_rows rx tb =
  match !(rx.rx_sorted_for) with
  | Some tb0 when tb_same tb0 tb -> ()
  | _ ->
      let g' = rx.rx_g in
      let base_n = rx.rx_delta.Graph.base_n in
      let n' = Graph.n g' in
      let prov_off = g'.Graph.providers.Csr.offsets
      and prov_dat = g'.Graph.providers.Csr.data in
      let pbase = ba_get prov_off base_n in
      let pdat = rx.rx_pdat in
      for st = base_n to n' - 1 do
        let lo = ba_get prov_off st - pbase in
        let c = ba_get prov_off (st + 1) - pbase - lo in
        if c > 0 then begin
          for k = 0 to c - 1 do
            rx.rx_row_buf.(k) <- ba_get prov_dat (lo + pbase + k)
          done;
          if c > 1 then sort_row tb st rx.rx_row_buf rx.rx_key_buf c;
          Array.blit rx.rx_row_buf 0 pdat lo c
        end
      done;
      rx.rx_sorted_for := Some tb

let repair_with_ctx rx info =
  let delta = rx.rx_delta in
  let base_n = delta.Graph.base_n in
  if Bytes.length info.cls <> base_n then
    invalid_arg "Route_static.repair: dest_info does not match delta.base_n";
  let reach i = i < base_n && Bytes.unsafe_get info.cls i <> c_unreach in
  let surgical = ref rx.rx_eligible in
  let ep = rx.rx_endpoints in
  let ne = Array.length ep in
  let i = ref 0 in
  while !surgical && !i < ne do
    if reach (Array.unsafe_get ep !i) then surgical := false;
    incr i
  done;
  if not !surgical then None
  else if delta.Graph.grown = 0 then Some info (* nothing the tree can see changed *)
  else begin
    let g' = rx.rx_g in
    let n' = Graph.n g' in
    let grown = delta.Graph.grown in
    rx_prepare_rows rx info.tb;
    let prov_off = g'.Graph.providers.Csr.offsets in
    let pbase = ba_get prov_off base_n in
    let pdat = rx.rx_pdat in
    (* One pass over the appended stubs fuses three jobs: each stub's
       class/length (min reachable provider + 1 — exactly the length
       stage 3 first pushes it at), the new
       cls/len bytes, and the stub's tiebreak row (the providers that
       achieve the minimum, in provider-CSR order, tiebreak-sorted
       like every other row). Every provider of an appended stub is an
       existing node (make_repair_ctx routed anything else to the
       fallback), so reachability is one byte read. *)
    let s_len = rx.rx_s_len in
    let cls = Bytes.make n' c_unreach in
    Bytes.blit info.cls 0 cls 0 base_n;
    let len = Bytes.make n' '\000' in
    Bytes.blit info.len 0 len 0 base_n;
    let row_off = rx.rx_row_off
    and row = rx.rx_row
    and slot_stub = rx.rx_slot_stub in
    let olen = info.len in
    let w = ref 0 in
    row_off.(0) <- 0;
    let d0 = info.dest in
    for s = base_n to n' - 1 do
      let klo = ba_get prov_off s - pbase and khi = ba_get prov_off (s + 1) - pbase in
      (* One argmin-collect pass: a strictly shorter provider resets
         the row, an equal one appends — [pdat] rows are pre-sorted, so
         the surviving row is born in stable tiebreak order with no
         per-destination sort. Reachability is one byte: an unwritten
         length byte is 0, and the only reachable node of length 0 is
         the destination itself. *)
      let first = !w in
      let best = ref inf in
      for k = klo to khi - 1 do
        let p = Array.unsafe_get pdat k in
        let l = Char.code (Bytes.unsafe_get olen p) in
        if l > 0 || p = d0 then
          if l < !best then begin
            best := l;
            w := first;
            row.(first) <- p;
            slot_stub.(first) <- s;
            w := first + 1
          end
          else if l = !best then begin
            row.(!w) <- p;
            slot_stub.(!w) <- s;
            incr w
          end
      done;
      let j = s - base_n in
      if !best < inf && !best + 1 <= max_path_len then begin
        s_len.(j) <- !best + 1;
        Bytes.unsafe_set cls s c_prov;
        Bytes.unsafe_set len s (Char.unsafe_chr (!best + 1))
      end
      else begin
        s_len.(j) <- 0;
        w := first
      end;
      row_off.(j + 1) <- !w
    done;
    (* Reachable stubs in ascending (length, id): their relative order
       in the new [order], where each sits after every existing node of
       equal length (the builder's counting sort is stable by id and
       all appended ids exceed all existing ids). Counting sort over the
       one-byte lengths; filling in ascending id keeps equal lengths
       id-sorted. *)
    let cnt = rx.rx_cnt in
    Array.fill cnt 0 256 0;
    for j = 0 to grown - 1 do
      let l = s_len.(j) in
      if l > 0 then cnt.(l) <- cnt.(l) + 1
    done;
    let acc = ref 0 in
    for l = 1 to 255 do
      let c = cnt.(l) in
      cnt.(l) <- !acc;
      acc := !acc + c
    done;
    let nstub = !acc in
    let stubs = rx.rx_stubs in
    for j = 0 to grown - 1 do
      let l = s_len.(j) in
      if l > 0 then begin
        stubs.(cnt.(l)) <- base_n + j;
        cnt.(l) <- cnt.(l) + 1
      end
    done;
    let extra_total = !w in
    let old_total = I32.length info.tie in
    let old_reach = I32.length info.order in
    let old_rev_total = I32.length info.tie_rev in
    (* The five int32 arrays come from the context's allocator: plain
       [I32.create] for one-off repairs and bounded stores (eviction
       keeps releasing real memory), slab sub-slices for store-wide
       rebases (see [slab]). *)
    let sz_off = n' + 1 in
    let sz_tie = old_total + extra_total in
    let sz_rev = old_rev_total + extra_total in
    let sz_order = old_reach + nstub in
    let tie_off = rx.rx_alloc sz_off in
    let tie = rx.rx_alloc sz_tie in
    let tie_rev_off = rx.rx_alloc sz_off in
    let tie_rev = rx.rx_alloc sz_rev in
    let order = rx.rx_alloc sz_order in
    I32.blit ~src:info.tie_off ~src_pos:0 ~dst:tie_off ~dst_pos:0 ~len:(base_n + 1);
    for j = 1 to grown do
      ba_set tie_off (base_n + j) (old_total + row_off.(j))
    done;
    I32.blit ~src:info.tie ~src_pos:0 ~dst:tie ~dst_pos:0 ~len:old_total;
    for k = 0 to extra_total - 1 do
      ba_set tie (old_total + k) row.(k)
    done;
    (* Order: splice the stubs in after the existing nodes of their
       length. Stubs share few distinct lengths, so the merge runs one
       binary search and one wholesale chunk copy per distinct length,
       then appends that length's run of stubs. *)
    let cursor = ref 0 and out = ref 0 in
    let idx = ref 0 in
    while !idx < nstub do
      let l = s_len.(stubs.(!idx) - base_n) in
      let stop = ref (!idx + 1) in
      while !stop < nstub && s_len.(stubs.(!stop) - base_n) = l do incr stop done;
      let lo = ref !cursor and hi = ref old_reach in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Char.code (Bytes.unsafe_get info.len (ba_get info.order mid)) <= l then lo := mid + 1 else hi := mid
      done;
      let ins = !lo in
      I32.blit ~src:info.order ~src_pos:!cursor ~dst:order ~dst_pos:!out
        ~len:(ins - !cursor);
      out := !out + (ins - !cursor);
      cursor := ins;
      for k = !idx to !stop - 1 do
        ba_set order !out stubs.(k);
        incr out
      done;
      idx := !stop
    done;
    I32.blit ~src:info.order ~src_pos:!cursor ~dst:order ~dst_pos:!out
      ~len:(old_reach - !cursor);
    (* Reverse tiebreak CSR: only the stub providers' rows gain
       members. Rows are ordered by descending order position, which
       over the new order is descending (length, id) — appended ids
       exceed existing ones, so a stub sorts after (= higher position
       than) every existing node of its length. Walking the stubs in
       ascending position and pushing each onto its providers' linked
       extras leaves every list descending; one pass over the
       providers then copies unchanged row ranges wholesale and merges
       the changed rows in place. *)
    let ex_count = rx.rx_ex_count
    and ex_head = rx.rx_ex_head
    and ex_next = rx.rx_ex_next in
    for idx = 0 to nstub - 1 do
      let j = stubs.(idx) - base_n in
      for k = row_off.(j) to row_off.(j + 1) - 1 do
        let p = row.(k) in
        ex_count.(p) <- ex_count.(p) + 1;
        ex_next.(k) <- ex_head.(p);
        ex_head.(p) <- k
      done
    done;
    let pos_gt a b =
      let la = Char.code (Bytes.unsafe_get len a)
      and lb = Char.code (Bytes.unsafe_get len b) in
      la > lb || (la = lb && a > b)
    in
    let sh = ref 0 in
    let prev_end = ref 0 in
    for p = 0 to base_n - 1 do
      ba_set tie_rev_off p (ba_get info.tie_rev_off p + !sh);
      if ex_count.(p) > 0 then begin
        let p_lo = ba_get info.tie_rev_off p
        and p_hi = ba_get info.tie_rev_off (p + 1) in
        let sh0 = !sh in
        for i = !prev_end to p_lo - 1 do
          Bigarray.Array1.unsafe_set tie_rev (i + sh0)
            (Bigarray.Array1.unsafe_get info.tie_rev i)
        done;
        let wr = ref (p_lo + !sh) in
        let ex = ref ex_head.(p) in
        let k = ref p_lo in
        while !k < p_hi || !ex >= 0 do
          let take_stub =
            !ex >= 0
            && (!k >= p_hi
               || pos_gt slot_stub.(!ex) (ba_get info.tie_rev !k))
          in
          if take_stub then begin
            ba_set tie_rev !wr slot_stub.(!ex);
            ex := ex_next.(!ex)
          end
          else begin
            ba_set tie_rev !wr (ba_get info.tie_rev !k);
            incr k
          end;
          incr wr
        done;
        sh := !sh + ex_count.(p);
        prev_end := p_hi
      end
    done;
    I32.blit ~src:info.tie_rev ~src_pos:!prev_end ~dst:tie_rev
      ~dst_pos:(!prev_end + !sh) ~len:(old_rev_total - !prev_end);
    let tail = old_rev_total + extra_total in
    for i = base_n to n' do
      ba_set tie_rev_off i tail
    done;
    (* Reset the provider-indexed scratch for the next call; [ex_next]
       may stay stale, it is only read behind a live head. *)
    for k = 0 to extra_total - 1 do
      let p = row.(k) in
      ex_count.(p) <- 0;
      ex_head.(p) <- -1
    done;
    let max_len = ref info.max_len in
    for j = 0 to grown - 1 do
      if s_len.(j) > !max_len then max_len := s_len.(j)
    done;
    Some
      {
        dest = info.dest;
        cls;
        len;
        tie_off;
        tie;
        tie_rev_off;
        tie_rev;
        order;
        tb = info.tb;
        max_len = !max_len;
      }
  end

let repair_surgical g' ~delta info = repair_with_ctx (make_repair_ctx g' delta) info

let repair g' ~delta info =
  match repair_surgical g' ~delta info with
  | Some info' -> info'
  | None -> compute ~tiebreak:info.tb g' info.dest

(* ------------------------------------------------------------------ *)
(* CSR invariant self-checks: cheap structural validation of one
   record — the probe of the engine's graceful-degradation ladder and
   of the post-repair boundary in [rebase]. A record that passes is
   structurally sound: offsets monotone and bounded, the order a
   duplicate-free ascending-length permutation of exactly the
   reachable nodes, every row member in range, and the reverse
   tiebreak CSR holding exactly the transposed multiset of the forward
   rows (sum and xor of a pairwise hash — a corrupted member or a
   shifted row boundary perturbs at least one accumulator). It does
   NOT prove the record equals a fresh [compute] — that is the churn
   differential suite's job — but every in-tree corruption
   (bit-flipped offsets, truncated rows, spliced members) lands
   here. Cost: O(record size), the same order as copying it. *)

exception Invariant of string

let check_info g info =
  let n = Graph.n g in
  let fail fmt = Printf.ksprintf (fun m -> raise (Invariant m)) fmt in
  match
    if info.dest < 0 || info.dest >= n then
      fail "dest %d out of range [0, %d)" info.dest n;
    if Bytes.length info.cls <> n then
      fail "cls length %d, expected %d" (Bytes.length info.cls) n;
    if Bytes.length info.len <> n then
      fail "len length %d, expected %d" (Bytes.length info.len) n;
    if I32.length info.tie_off <> n + 1 then
      fail "tie_off length %d, expected %d" (I32.length info.tie_off) (n + 1);
    if I32.length info.tie_rev_off <> n + 1 then
      fail "tie_rev_off length %d, expected %d" (I32.length info.tie_rev_off) (n + 1);
    let total = I32.length info.tie in
    let rev_total = I32.length info.tie_rev in
    if ba_get info.tie_off 0 <> 0 then
      fail "tie_off.(0) = %d, expected 0" (ba_get info.tie_off 0);
    for i = 0 to n - 1 do
      if ba_get info.tie_off (i + 1) < ba_get info.tie_off i then
        fail "tie_off not monotone at row %d" i
    done;
    if ba_get info.tie_off n <> total then
      fail "tie_off.(%d) = %d, expected %d" n (ba_get info.tie_off n) total;
    if ba_get info.tie_rev_off 0 <> 0 then
      fail "tie_rev_off.(0) = %d, expected 0" (ba_get info.tie_rev_off 0);
    for i = 0 to n - 1 do
      if ba_get info.tie_rev_off (i + 1) < ba_get info.tie_rev_off i then
        fail "tie_rev_off not monotone at row %d" i
    done;
    if ba_get info.tie_rev_off n <> rev_total then
      fail "tie_rev_off.(%d) = %d, expected %d" n (ba_get info.tie_rev_off n) rev_total;
    let nreach = I32.length info.order in
    if nreach > n then fail "order length %d exceeds n = %d" nreach n;
    let reach_count = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.unsafe_get info.cls i <> c_unreach then incr reach_count
    done;
    if nreach <> !reach_count then
      fail "order length %d, but %d reachable nodes" nreach !reach_count;
    if nreach > 0 && ba_get info.order 0 <> info.dest then
      fail "order.(0) = %d, expected dest %d" (ba_get info.order 0) info.dest;
    let seen = Bytes.make n '\000' in
    let prev_len = ref 0 in
    for k = 0 to nreach - 1 do
      let i = ba_get info.order k in
      if i < 0 || i >= n then fail "order.(%d) = %d out of range" k i;
      if Bytes.get seen i = '\001' then fail "order repeats node %d" i;
      Bytes.set seen i '\001';
      if Bytes.unsafe_get info.cls i = c_unreach then
        fail "order lists unreachable node %d" i;
      let l = Char.code (Bytes.unsafe_get info.len i) in
      if l < !prev_len then fail "order not ascending in length at position %d" k;
      prev_len := l
    done;
    if nreach > 0 && info.max_len <> !prev_len then
      fail "max_len = %d, expected %d" info.max_len !prev_len;
    let sum_f = ref 0 and xor_f = ref 0 in
    for i = 0 to n - 1 do
      for k = ba_get info.tie_off i to ba_get info.tie_off (i + 1) - 1 do
        let j = ba_get info.tie k in
        if j < 0 || j >= n then fail "tie row %d holds out-of-range member %d" i j;
        let h = Nsutil.Prng.mix2 i j in
        sum_f := !sum_f + h;
        xor_f := !xor_f lxor h
      done
    done;
    let sum_r = ref 0 and xor_r = ref 0 in
    for p = 0 to n - 1 do
      for k = ba_get info.tie_rev_off p to ba_get info.tie_rev_off (p + 1) - 1 do
        let m = ba_get info.tie_rev k in
        if m < 0 || m >= n then fail "tie_rev row %d holds out-of-range member %d" p m;
        let h = Nsutil.Prng.mix2 m p in
        sum_r := !sum_r + h;
        xor_r := !xor_r lxor h
      done
    done;
    if !sum_f <> !sum_r || !xor_f <> !xor_r then
      fail "tie/tie_rev permutation digests disagree"
  with
  | () -> Ok ()
  | exception Invariant m -> Error m

(* ------------------------------------------------------------------ *)
(* The whole-graph statics store: lazily filled, optionally bounded.

   Memory is governed by a byte budget ([SBGP_STATICS_MB], --statics-mb
   or {!set_budget_bytes}); the slot space is striped into shards, each
   with its own clock hand, byte account and counters, aligned with the
   contiguous destination slices the engine hands to workers — so
   concurrent worker domains touch mostly disjoint shard state. Under a
   budget, a missed [get] recomputes (pure, so results never change)
   and inserts under clock (second-chance) eviction. Counter updates
   from concurrent domains are plain writes: a lost increment skews the
   stats by a hair but can never corrupt results. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  cached : int;
  cached_bytes : int;
  budget_bytes : int;
}

type shard = {
  lo : int;
  hi : int;  (** slot range [lo, hi) *)
  mutable budget : int;  (** bytes; [max_int] = unbounded *)
  mutable used : int;
  mutable hand : int;
  mutable s_hits : int;
  mutable s_misses : int;
  mutable s_evictions : int;
}

type t = {
  mutable g : Graph.t;
  mutable slots : dest_info option array;
  mutable ref_bits : Bytes.t;
  mutable shards : shard array;
  mutable shard_idx : Bytes.t;  (** destination -> owning shard (≤ 16 shards) *)
  mutable tiebreak : Policy.tiebreak;
}

let shard_of t d = t.shards.(Char.code (Bytes.unsafe_get t.shard_idx d))

let num_shards n = max 1 (min 16 n)

let default_budget_bytes () =
  let mb = Nsutil.Env.int_var ~name:"SBGP_STATICS_MB" ~min:0 ~default:0 () in
  if mb <= 0 then max_int else mb * 1024 * 1024

(* Fresh slot space, shard stripes and counters for an [n]-node graph;
   shared between [create] and [rebase]. *)
let skeleton ~budget n =
  let s = num_shards n in
  let per_shard = if budget = max_int then max_int else max 1 (budget / s) in
  let shards =
    Array.init s (fun k ->
        let lo = k * n / s and hi = (k + 1) * n / s in
        {
          lo;
          hi;
          budget = per_shard;
          used = 0;
          hand = lo;
          s_hits = 0;
          s_misses = 0;
          s_evictions = 0;
        })
  in
  let shard_idx = Bytes.make n '\000' in
  Array.iteri
    (fun k sh ->
      for d = sh.lo to sh.hi - 1 do
        Bytes.set shard_idx d (Char.chr k)
      done)
    shards;
  (Array.make n None, Bytes.make n '\000', shards, shard_idx)

let create ?budget_bytes ?(tiebreak = Policy.Lowest_id) g =
  let budget =
    match budget_bytes with
    | Some b -> if b <= 0 then max_int else b
    | None -> default_budget_bytes ()
  in
  let slots, ref_bits, shards, shard_idx = skeleton ~budget (Graph.n g) in
  { g; slots; ref_bits; shards; shard_idx; tiebreak }

let graph t = t.g

let stats t =
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 in
  let used = ref 0 in
  Array.iter
    (fun s ->
      hits := !hits + s.s_hits;
      misses := !misses + s.s_misses;
      evictions := !evictions + s.s_evictions;
      used := !used + s.used)
    t.shards;
  let cached = Array.fold_left (fun a -> function Some _ -> a + 1 | None -> a) 0 t.slots in
  let budget =
    Array.fold_left
      (fun a s -> if s.budget = max_int || a = max_int then max_int else a + s.budget)
      0 t.shards
  in
  {
    hits = !hits;
    misses = !misses;
    evictions = !evictions;
    cached;
    cached_bytes = !used;
    budget_bytes = budget;
  }

let bounded t = Array.exists (fun s -> s.budget <> max_int) t.shards

(* Clock (second-chance) eviction within one shard until [need] bytes
   fit; gives up (and skips caching) if a full double scan frees
   nothing, which can only happen when every resident entry was
   re-referenced concurrently. *)
let make_room t shard need =
  if need > shard.budget then false
  else begin
    let span = shard.hi - shard.lo in
    let steps = ref (2 * span) in
    while shard.used + need > shard.budget && !steps > 0 do
      let d = shard.hand in
      shard.hand <- (if d + 1 >= shard.hi then shard.lo else d + 1);
      decr steps;
      match t.slots.(d) with
      | None -> ()
      | Some info ->
          if Bytes.get t.ref_bits d = '\001' then Bytes.set t.ref_bits d '\000'
          else begin
            t.slots.(d) <- None;
            shard.used <- shard.used - info_bytes info;
            shard.s_evictions <- shard.s_evictions + 1
          end
    done;
    shard.used + need <= shard.budget
  end

let insert t d info =
  let shard = shard_of t d in
  if shard.budget = max_int then begin
    t.slots.(d) <- Some info;
    shard.used <- shard.used + info_bytes info
  end
  else begin
    let size = info_bytes info in
    if make_room t shard size then begin
      t.slots.(d) <- Some info;
      shard.used <- shard.used + size;
      Bytes.set t.ref_bits d '\000'
    end
  end

let get t d =
  match t.slots.(d) with
  | Some info ->
      let shard = shard_of t d in
      shard.s_hits <- shard.s_hits + 1;
      Bytes.unsafe_set t.ref_bits d '\001';
      info
  | None ->
      let shard = shard_of t d in
      shard.s_misses <- shard.s_misses + 1;
      let info = compute ~tiebreak:t.tiebreak t.g d in
      insert t d info;
      info

(* The streaming read path for whole-graph sweeps under a budget.
   Where {!get} evicts to make room — right for random-access reads
   with locality — a sweep touches every destination once per round,
   so clock eviction degenerates to churning the entire store every
   round while serving almost no hits. [stream_get] instead keeps a
   *stable cached prefix*: a miss recomputes into the caller's builder
   (transient, zero record allocation) and promotes the record into
   the store only when it fits the shard's remaining headroom without
   evicting anything. The cached set therefore converges to whatever
   the budget holds and stays put; every other destination streams
   through the builder with no resident footprint at all. Results are
   bit-identical to {!get} at any budget because {!compute_with} is
   pure. The returned record is only valid until the builder's next
   compute when it was not promoted — callers must finish
   with it before their next [stream_get] on the same builder. *)
let stream_get t bd d =
  match t.slots.(d) with
  | Some info ->
      let shard = shard_of t d in
      shard.s_hits <- shard.s_hits + 1;
      Bytes.unsafe_set t.ref_bits d '\001';
      info
  | None ->
      let shard = shard_of t d in
      shard.s_misses <- shard.s_misses + 1;
      if shard.budget = max_int then begin
        let info = compute_with ~tiebreak:t.tiebreak bd t.g d in
        t.slots.(d) <- Some info;
        shard.used <- shard.used + info_bytes info;
        info
      end
      else begin
        let info = compute_with ~tiebreak:t.tiebreak ~transient:true bd t.g d in
        let size = info_bytes info in
        if shard.used + size <= shard.budget then begin
          let promoted = info_copy info in
          t.slots.(d) <- Some promoted;
          shard.used <- shard.used + size;
          Bytes.set t.ref_bits d '\000';
          promoted
        end
        else info
      end

(* Destinations per dynamically-claimed chunk for a whole-graph sweep
   over this store: large enough that one worker stays inside one
   shard stripe for a while (shard counters and clock state then see
   mostly single-writer traffic, and promoted entries cluster), small
   enough that dynamic claiming can rebalance shards whose
   destinations run hot. Floors at the engine's gadget-scale grain. *)
let batch_grain t ~workers ~tasks =
  let span =
    if Array.length t.shards = 0 then tasks else t.shards.(0).hi - t.shards.(0).lo
  in
  max 8 (min (max 1 span) (tasks / max 1 (workers * 16)))

let drop_all t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  Bytes.fill t.ref_bits 0 (Bytes.length t.ref_bits) '\000';
  Array.iter
    (fun s ->
      s.used <- 0;
      s.hand <- s.lo)
    t.shards

let set_budget_bytes t budget =
  let s = Array.length t.shards in
  let budget = if budget <= 0 then max_int else budget in
  let per_shard = if budget = max_int then max_int else max 1 (budget / s) in
  Array.iter
    (fun shard ->
      shard.budget <- per_shard;
      (* Trim immediately so a shrunk budget takes effect now. *)
      if shard.used > per_shard then ignore (make_room t shard 0))
    t.shards

let set_budget_mb t mb = set_budget_bytes t (if mb <= 0 then 0 else mb * 1024 * 1024)

let ensure_tiebreak t tiebreak =
  if not (Policy.tiebreak_equal t.tiebreak tiebreak) then begin
    (* Cached rows are sorted under the old policy; recomputing them
       lazily under the new one keeps the sort invariant exact
       (including insertion-order stability on key ties). *)
    t.tiebreak <- tiebreak;
    drop_all t
  end

let ensure_all ?(workers = 1) t =
  if not (bounded t) then begin
    let n = Graph.n t.g in
    let missing = ref [] in
    for d = n - 1 downto 0 do
      if t.slots.(d) = None then missing := d :: !missing
    done;
    match !missing with
    | [] -> ()
    | missing ->
        let miss = Array.of_list missing in
        let tiebreak = t.tiebreak in
        (* [compute_with] is pure, so filling the store fans out
           safely; each worker reuses one builder's scratch across its
           chunk, and the output slots are written one per task. *)
        let infos = Array.make (Array.length miss) None in
        ignore
          (Parallel.Pool.map_reduce_dynamic_supervised Parallel.Pool.no_supervision
             ~workers ~tasks:(Array.length miss) ~grain:8 ~init:(fun () -> make_builder n)
             ~task:(fun bd i -> infos.(i) <- Some (compute_with ~tiebreak bd t.g miss.(i)))
             ~combine:(fun a _ -> a));
        Array.iteri
          (fun i info ->
            match info with
            | None -> ()
            | Some info ->
                let d = miss.(i) in
                let shard = shard_of t d in
                shard.s_misses <- shard.s_misses + 1;
                insert t d info)
          infos
  end
(* Under a budget, prefilling would only evict what it just built:
   leave the store to fill lazily, trading recompute for memory. *)

(* ------------------------------------------------------------------ *)
(* Rebasing the store across a topology delta. The store swaps in a
   fresh slot space sized for the new graph and, under the [Delta]
   kernel, migrates every resident entry through [repair_surgical]:
   shared and patched entries are re-inserted through the normal
   budget accounting (so eviction state stays exact), entries the
   churn actually reaches are dropped for lazy recompute against the
   new graph. The returned journal snapshots the pre-rebase store —
   slots, reference bits, shards and shard map are never mutated after
   the swap, so [undo_rebase] is an O(1) pointer restore, mirroring
   the once-per-node undo log of [Forest.repair] one level up. *)

type rebase_stats = { shared : int; patched : int; dropped : int; invalid : int }

type journal = {
  j_g : Graph.t;
  j_slots : dest_info option array;
  j_ref_bits : Bytes.t;
  j_shards : shard array;
  j_shard_idx : Bytes.t;
  j_tiebreak : Policy.tiebreak;
  j_stats : rebase_stats;
  j_changed : int list;
}

(* Fault injection, site [statics.repair]: hand back a corrupted copy
   of a freshly patched record (never a physically shared one — that
   would mutate live data) with its first CSR offset smashed, which
   the post-repair validation in phase 2 is guaranteed to catch. *)
let maybe_corrupt faults ~old info' =
  match faults with
  | Some f when info' != old -> (
      match Nsutil.Faults.fires f "statics.repair" with
      | Some _ ->
          let len = I32.length info'.tie_off in
          let bad = I32.create len in
          I32.blit ~src:info'.tie_off ~src_pos:0 ~dst:bad ~dst_pos:0 ~len;
          ba_set bad 0 (-1);
          { info' with tie_off = bad }
      | None -> info')
  | _ -> info'

let rebase ?(kernel = Delta) ?(workers = 1) ?faults t ~delta g' =
  let base_n = delta.Graph.base_n in
  if Graph.n t.g <> base_n then
    invalid_arg "Route_static.rebase: store does not match delta.base_n";
  if Graph.n g' <> base_n + delta.Graph.grown then
    invalid_arg "Route_static.rebase: graph does not match delta";
  let old_g = t.g
  and old_slots = t.slots
  and old_ref = t.ref_bits
  and old_shards = t.shards
  and old_idx = t.shard_idx in
  let budget =
    if bounded t then
      Array.fold_left
        (fun a s -> if s.budget = max_int then a else a + s.budget)
        0 t.shards
    else max_int
  in
  let slots, ref_bits, shards, shard_idx = skeleton ~budget (Graph.n g') in
  t.g <- g';
  t.slots <- slots;
  t.ref_bits <- ref_bits;
  t.shards <- shards;
  t.shard_idx <- shard_idx;
  let shared = ref 0
  and patched = ref 0
  and dropped = ref 0
  and invalid = ref 0
  and changed = ref [] in
  (match kernel with
  | Full ->
      (* Everything rebuilds lazily; conservatively report every
         destination as changed. *)
      for d = base_n - 1 downto 0 do
        (match old_slots.(d) with Some _ -> incr dropped | None -> ());
        changed := d :: !changed
      done
  | Delta ->
      (* Phase 1, parallel: pure per-entry repair — the migration is
         memory-bound (each resident entry is read and its patched
         copy written), so it fans out across domains; each worker
         builds its own context (op classification + patch
         scratch, per-delta not per-entry). Phase 2, serial: inserts
         in the same fixed order as a serial rebase, so budget
         accounting, eviction state and stats are bit-identical at
         any worker count. Every freshly patched record is validated
         ({!check_info}) before insertion — the post-repair boundary
         of the degradation ladder: a record the surgery (or an
         injected [statics.repair] fault) corrupted is dropped for
         lazy recompute instead of poisoning the delta kernels, so
         results stay bit-identical even under corruption. *)
      let results = Array.make (max 1 base_n) None in
      if base_n > 0 then
        Parallel.Pool.map_reduce_dynamic_supervised Parallel.Pool.no_supervision ~workers
          ~tasks:base_n ~grain:32 ~init:(fun () ->
            let rx = make_repair_ctx g' delta in
            if bounded t then rx else { rx with rx_alloc = slab_alloc (slab_create ()) })
          ~task:(fun rx d ->
            match old_slots.(d) with
            | None -> ()
            | Some info ->
                results.(d) <-
                  Some
                    (Option.map
                       (fun info' -> maybe_corrupt faults ~old:info info')
                       (repair_with_ctx rx info)))
          ~combine:(fun rx _ -> rx)
        |> ignore;
      for d = base_n - 1 downto 0 do
        match results.(d) with
        | None ->
            (* Never computed: nothing to migrate, and nothing proves
               it unchanged either. *)
            changed := d :: !changed
        | Some (Some info') ->
            if (match old_slots.(d) with Some info -> info' == info | None -> false)
            then begin
              insert t d info';
              incr shared
            end
            else begin
              (match check_info g' info' with
              | Ok () ->
                  insert t d info';
                  incr patched
              | Error reason ->
                  incr invalid;
                  Nsutil.Warnings.emit
                    (Printf.sprintf
                       "sbgp: statics rebase: dropping invalid patched record for \
                        destination %d (%s); it will recompute lazily"
                       d reason));
              changed := d :: !changed
            end
        | Some None ->
            incr dropped;
            changed := d :: !changed
      done);
  {
    j_g = old_g;
    j_slots = old_slots;
    j_ref_bits = old_ref;
    j_shards = old_shards;
    j_shard_idx = old_idx;
    j_tiebreak = t.tiebreak;
    j_stats =
      { shared = !shared; patched = !patched; dropped = !dropped; invalid = !invalid };
    j_changed = !changed;
  }

let undo_rebase t j =
  t.g <- j.j_g;
  t.slots <- j.j_slots;
  t.ref_bits <- j.j_ref_bits;
  t.shards <- j.j_shards;
  t.shard_idx <- j.j_shard_idx;
  t.tiebreak <- j.j_tiebreak

let rebase_stats j = j.j_stats
let rebase_changed j = j.j_changed

(* Checkpoint-boundary sweep of the degradation ladder: re-run the
   structural checks over every resident record and drop (for lazy
   recompute — the Full-kernel behavior for that destination) any
   record that fails, returning the violations. Results after a drop
   are bit-identical because [compute] is the reference the repaired
   records are contracted to equal. *)
let revalidate t =
  let bad = ref [] in
  for d = Array.length t.slots - 1 downto 0 do
    match t.slots.(d) with
    | None -> ()
    | Some info -> (
        match check_info t.g info with
        | Ok () -> ()
        | Error reason ->
            t.slots.(d) <- None;
            let shard = shard_of t d in
            shard.used <- shard.used - info_bytes info;
            bad := (d, reason) :: !bad)
  done;
  !bad

(* ------------------------------------------------------------------ *)
(* Store snapshots for churn-consistent checkpoints. The image holds
   everything but the graph (graphs serialize separately through
   {!Asgraph.Graph_io}): slot contents, reference bits, shard accounts
   *including the hit/miss/eviction counters* — so a resumed run
   reports the same statics statistics as an uninterrupted one — and
   the tiebreak policy. [Marshal] round-trips the int32 bigarray CSRs
   by value; slab-allocated records come back as plain copies, which
   only costs memory compactness, not correctness. *)

type store_image = {
  im_n : int;
  im_tiebreak : Policy.tiebreak;
  im_slots : dest_info option array;
  im_ref_bits : Bytes.t;
  im_shards : shard array;
  im_shard_idx : Bytes.t;
}

let snapshot t =
  Marshal.to_string
    {
      im_n = Graph.n t.g;
      im_tiebreak = t.tiebreak;
      im_slots = t.slots;
      im_ref_bits = t.ref_bits;
      im_shards = t.shards;
      im_shard_idx = t.shard_idx;
    }
    []

let of_snapshot g s =
  let im : store_image = Marshal.from_string s 0 in
  if im.im_n <> Graph.n g then
    invalid_arg "Route_static.of_snapshot: graph does not match the snapshot";
  {
    g;
    slots = im.im_slots;
    ref_bits = im.im_ref_bits;
    shards = im.im_shards;
    shard_idx = im.im_shard_idx;
    tiebreak = im.im_tiebreak;
  }

module Dirty = struct
  type statics = t

  (* One byte per destination. [pending] is an origin that
     participates and whose own byte did not change: it is dirty iff
     some changed node is reachable in its static info, which
     [resolve] decides on a record the caller already holds. *)
  let clean = '\000'
  let dirty = '\001'
  let pending = '\002'

  type t = {
    statics : statics;
    flags : Bytes.t;
    in_changed : Bytes.t;  (* '\001' at every node of [changed] *)
    mutable changed : int list;
    mutable changed_count : int;
  }

  let create statics =
    let n = Graph.n statics.g in
    {
      statics;
      flags = Bytes.make n dirty;
      in_changed = Bytes.make n '\000';
      changed = [];
      changed_count = 0;
    }

  let mark t d = Bytes.set t.flags d dirty

  let invalidate t ~changed ~secure =
    List.iter (fun c -> Bytes.set t.in_changed c '\000') t.changed;
    List.iter (fun c -> Bytes.set t.in_changed c '\001') changed;
    t.changed <- changed;
    t.changed_count <- List.length changed;
    let any = changed <> [] in
    for d = 0 to Bytes.length t.flags - 1 do
      let f = Bytes.get t.flags d in
      (* A destination still pending from an earlier call was decided
         against that call's changed set, which is gone: keep it
         conservatively dirty. *)
      if f = pending then Bytes.set t.flags d dirty
      else if any && f = clean then
        if Bytes.get t.in_changed d = '\001' then Bytes.set t.flags d dirty
        else if Bytes.get secure d = '\001' then
          (* The origin participates, so routes towards it can be
             secure: any reachable changed byte may flip a route's
             security or a security tie-break. An origin that does not
             participate (and whose own bytes are unchanged) has no
             secure routes before or after — its tree only reads
             static preferences, so it stays clean. *)
          Bytes.set t.flags d pending
    done

  (* Scan whichever of the changed set and the destination's
     reachable order is smaller. *)
  let reaches_changed t info =
    let nreach = I32.length info.order in
    if t.changed_count <= nreach then List.exists (fun c -> reachable info c) t.changed
    else begin
      let rec scan k =
        k < nreach
        && (Bytes.unsafe_get t.in_changed (I32.unsafe_get info.order k) = '\001'
           || scan (k + 1))
      in
      scan 0
    end

  let resolve t d info =
    if Bytes.get t.flags d = pending then
      Bytes.set t.flags d (if reaches_changed t info then dirty else clean)

  (* The serial read path: under a byte budget, evicted records stream
     through [bd] ([get] would compute-and-insert, churning the very
     budget the caller set); unbounded stores never force it. *)
  let fetch_serial t bd d =
    if bounded t.statics then stream_get t.statics (Lazy.force bd) d else get t.statics d

  let is_dirty ?fetch t d =
    if Bytes.get t.flags d = pending then
      resolve t d
        (match fetch with
        | Some f -> f ()
        | None -> fetch_serial t (lazy (make_builder (Bytes.length t.flags))) d);
    Bytes.get t.flags d = dirty

  let reset t = Bytes.fill t.flags 0 (Bytes.length t.flags) clean

  let dirty_count t =
    let n = Bytes.length t.flags in
    let bd = lazy (make_builder n) in
    let acc = ref 0 in
    for d = 0 to n - 1 do
      if Bytes.get t.flags d = pending then resolve t d (fetch_serial t bd d);
      if Bytes.get t.flags d = dirty then incr acc
    done;
    !acc
end

let mean_tiebreak_size t ~among =
  let n = Graph.n t.g in
  let total = ref 0 in
  let count = ref 0 in
  for d = 0 to n - 1 do
    let info = get t d in
    iter_order info (fun i ->
        if i <> d && among i then begin
          total := !total + tie_size info i;
          incr count
        end)
  done;
  if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count

let mean_path_length t ~from =
  let n = Graph.n t.g in
  let total = ref 0 in
  let count = ref 0 in
  for d = 0 to n - 1 do
    if d <> from then begin
      let info = get t d in
      if reachable info from then begin
        total := !total + length_of info from;
        incr count
      end
    end
  done;
  if !count = 0 then 0.0 else float_of_int !total /. float_of_int !count
