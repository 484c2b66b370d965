type counter = { c_name : string; c_help : string; c_v : int Atomic.t }

type gauge = { g_name : string; g_help : string; mutable g_v : float }

type histogram = {
  h_name : string;
  h_help : string;
  bounds : float array;  (** ascending upper bucket bounds; +inf implicit *)
  counts : int array;  (** length = Array.length bounds + 1 *)
  mutable sum : float;
  h_mutex : Mutex.t;
}

type metric = C of counter | G of gauge | H of histogram

(* The process-global registry. Creation is idempotent by name (the
   same call site can re-request its metric) and mutex-guarded;
   updates touch only the metric's own cells. *)
let table : (string, metric) Hashtbl.t = Hashtbl.create 64
let table_mutex = Mutex.create ()

let enabled_flag = ref false

let enabled () = !enabled_flag
let set_enabled v = enabled_flag := v

let valid_name n =
  n <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = ':')
       n
  && not (String.get n 0 >= '0' && String.get n 0 <= '9')

let register name build cast kind =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  Mutex.lock table_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock table_mutex)
    (fun () ->
      match Hashtbl.find_opt table name with
      | Some m -> (
          match cast m with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %s already registered as another kind (wanted %s)"
                   name kind))
      | None ->
          let v = build () in
          v)

let counter ?(help = "") name =
  register name
    (fun () ->
      let c = { c_name = name; c_help = help; c_v = Atomic.make 0 } in
      Hashtbl.replace table name (C c);
      c)
    (function C c -> Some c | _ -> None)
    "counter"

let gauge ?(help = "") name =
  register name
    (fun () ->
      let g = { g_name = name; g_help = help; g_v = 0.0 } in
      Hashtbl.replace table name (G g);
      g)
    (function G g -> Some g | _ -> None)
    "gauge"

let duration_ms_buckets = Array.init 24 (fun k -> Float.ldexp 1.0 (k - 3))

let histogram ?(help = "") ~buckets name =
  if Array.length buckets = 0 then
    invalid_arg "Metrics.histogram: at least one bucket bound required";
  Array.iteri
    (fun i b ->
      if i > 0 && not (b > buckets.(i - 1)) then
        invalid_arg "Metrics.histogram: bucket bounds must be strictly ascending")
    buckets;
  register name
    (fun () ->
      let h =
        {
          h_name = name;
          h_help = help;
          bounds = Array.copy buckets;
          counts = Array.make (Array.length buckets + 1) 0;
          sum = 0.0;
          h_mutex = Mutex.create ();
        }
      in
      Hashtbl.replace table name (H h);
      h)
    (function H h -> Some h | _ -> None)
    "histogram"

(* Updates are inert while collection is off: the [enabled] checks at
   instrumentation sites are an optimization (skip argument
   computation), not the only gate. *)
let inc c = if !enabled_flag then ignore (Atomic.fetch_and_add c.c_v 1)

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters only go up";
  if !enabled_flag then ignore (Atomic.fetch_and_add c.c_v n)

let counter_value c = Atomic.get c.c_v

let set g v = if !enabled_flag then g.g_v <- v
let gauge_value g = g.g_v

(* First bucket whose bound is >= v, Prometheus [le] semantics; the
   overflow bucket is the implicit +inf. Bucket arrays are small
   (fixed at registration), so a linear scan wins over bisection. *)
let bucket_index h v =
  let nb = Array.length h.bounds in
  let rec find i = if i >= nb || v <= h.bounds.(i) then i else find (i + 1) in
  find 0

let observe h v =
  if !enabled_flag then begin
    Mutex.lock h.h_mutex;
    let i = bucket_index h v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.sum <- h.sum +. v;
    Mutex.unlock h.h_mutex
  end

let histogram_count h =
  Mutex.lock h.h_mutex;
  let c = Array.fold_left ( + ) 0 h.counts in
  Mutex.unlock h.h_mutex;
  c

let histogram_sum h =
  Mutex.lock h.h_mutex;
  let s = h.sum in
  Mutex.unlock h.h_mutex;
  s

let histogram_counts h =
  Mutex.lock h.h_mutex;
  let c = Array.copy h.counts in
  Mutex.unlock h.h_mutex;
  c

let snapshot () =
  Mutex.lock table_mutex;
  let ms = Hashtbl.fold (fun name m acc -> (name, m) :: acc) table [] in
  Mutex.unlock table_mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) ms

let counters () =
  List.filter_map
    (function name, C c -> Some (name, counter_value c) | _ -> None)
    (snapshot ())

let value name =
  Mutex.lock table_mutex;
  let m = Hashtbl.find_opt table name in
  Mutex.unlock table_mutex;
  match m with
  | None -> None
  | Some (C c) -> Some (float_of_int (counter_value c))
  | Some (G g) -> Some g.g_v
  | Some (H h) -> Some (float_of_int (histogram_count h))

let find_histogram name =
  Mutex.lock table_mutex;
  let m = Hashtbl.find_opt table name in
  Mutex.unlock table_mutex;
  match m with Some (H h) -> Some h | _ -> None

let reset () =
  Mutex.lock table_mutex;
  Hashtbl.reset table;
  Mutex.unlock table_mutex

(* ------------------------------------------------------------------ *)
(* Exposition. *)

let fmt_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

let prom_bound b = if b = Float.infinity then "+Inf" else fmt_float b

let to_prometheus () =
  let buf = Buffer.create 4096 in
  let header name help kind =
    if help <> "" then Printf.bprintf buf "# HELP %s %s\n" name help;
    Printf.bprintf buf "# TYPE %s %s\n" name kind
  in
  List.iter
    (fun (name, m) ->
      match m with
      | C c ->
          header name c.c_help "counter";
          Printf.bprintf buf "%s %d\n" name (counter_value c)
      | G g ->
          header name g.g_help "gauge";
          Printf.bprintf buf "%s %s\n" name (fmt_float g.g_v)
      | H h ->
          header name h.h_help "histogram";
          let counts = histogram_counts h in
          let cum = ref 0 in
          Array.iteri
            (fun i b ->
              cum := !cum + counts.(i);
              Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" name (prom_bound b) !cum)
            h.bounds;
          cum := !cum + counts.(Array.length counts - 1);
          Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" name !cum;
          Printf.bprintf buf "%s_sum %s\n" name (fmt_float (histogram_sum h));
          Printf.bprintf buf "%s_count %d\n" name !cum)
    (snapshot ());
  Buffer.contents buf

let summary () =
  let table = Nsutil.Table.create ~header:[ "metric"; "kind"; "value"; "detail" ] in
  List.iter
    (fun (name, m) ->
      match m with
      | C c ->
          Nsutil.Table.add_row table
            [ name; "counter"; string_of_int (counter_value c); c.c_help ]
      | G g ->
          Nsutil.Table.add_row table
            [ name; "gauge"; Nsutil.Table.cell_f g.g_v; g.g_help ]
      | H h ->
          let count = histogram_count h in
          let sum = histogram_sum h in
          let mean = if count = 0 then 0.0 else sum /. float_of_int count in
          let counts = histogram_counts h in
          let buckets =
            String.concat " "
              (List.filteri
                 (fun _ s -> s <> "")
                 (Array.to_list
                    (Array.mapi
                       (fun i c ->
                         if c = 0 then ""
                         else if i < Array.length h.bounds then
                           Printf.sprintf "le%s:%d" (prom_bound h.bounds.(i)) c
                         else Printf.sprintf "inf:%d" c)
                       counts)))
          in
          Nsutil.Table.add_row table
            [
              name;
              "histogram";
              Printf.sprintf "n=%d mean=%s" count (Nsutil.Table.cell_f mean);
              buckets;
            ])
    (snapshot ());
  table

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_prometheus ()))

(* ------------------------------------------------------------------ *)
(* Derived helpers. *)

external monotonic_ns : unit -> float = "nsobs_monotonic_ns"

let timed h f =
  if not !enabled_flag then f ()
  else begin
    let t0 = monotonic_ns () in
    Fun.protect
      ~finally:(fun () -> observe h ((monotonic_ns () -. t0) /. 1e6))
      f
  end

(* Bucket-interpolated quantile, same estimate Prometheus's
   histogram_quantile() computes server-side: find the bucket holding
   the rank, assume uniform spread inside it. The overflow bucket has
   no upper bound, so a rank landing there reports the largest finite
   bound — an underestimate, by construction, never garbage. *)
let quantile h q =
  if not (q >= 0.0 && q <= 1.0) then invalid_arg "Metrics.quantile";
  let counts = histogram_counts h in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then None
  else begin
    let rank = q *. float_of_int total in
    let nb = Array.length h.bounds in
    let rec find i cum =
      let cum' = cum +. float_of_int counts.(i) in
      if cum' >= rank || i = nb then (i, cum)
      else find (i + 1) cum'
    in
    let i, below = find 0 0.0 in
    if i >= nb then Some h.bounds.(nb - 1)
    else begin
      let lo = if i = 0 then 0.0 else h.bounds.(i - 1) in
      let hi = h.bounds.(i) in
      let in_bucket = float_of_int counts.(i) in
      if in_bucket <= 0.0 then Some hi
      else Some (lo +. ((hi -. lo) *. ((rank -. below) /. in_bucket)))
    end
  end
