module J = Nsobs.Jsonv

let key_fields = [ "schema"; "n"; "seed"; "workers"; "smoke"; "nproc" ]
let kernel_tolerance = 2.0
let rss_tolerance = 2.0

type verdict =
  | Refused of string list
  | Checked of { lines : string list; failures : string list }

let show = function
  | None -> "missing"
  | Some (J.Str s) -> Printf.sprintf "%S" s
  | Some (J.Num f) -> Printf.sprintf "%g" f
  | Some (J.Bool b) -> string_of_bool b
  | Some J.Null -> "null"
  | Some (J.Arr _ | J.Obj _) -> "<structured>"

let key_mismatches ~fresh ~baseline =
  List.filter_map
    (fun field ->
      let f = J.member field fresh and b = J.member field baseline in
      if f <> None && f = b then None
      else Some (Printf.sprintf "%s: baseline %s vs fresh %s" field (show b) (show f)))
    key_fields

(* (name, ns_per_op) of every well-formed kernel row; [None] when the
   document has no kernels array at all. *)
let kernels json =
  Option.map
    (List.filter_map (fun k ->
         match
           ( Option.bind (J.member "name" k) J.to_string,
             Option.bind (J.member "ns_per_op" k) J.to_float )
         with
         | Some name, Some ns -> Some (name, ns)
         | _ -> None))
    (Option.bind (J.member "kernels" json) J.to_list)

let check ~fresh ~baseline =
  match key_mismatches ~fresh ~baseline with
  | _ :: _ as m -> Refused m
  | [] ->
      let lines = ref [] and failures = ref [] in
      let line fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
      let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
      (match (kernels fresh, kernels baseline) with
      | None, _ -> fail "fresh run has no kernels array"
      | _, None -> fail "baseline has no kernels array"
      | Some fk, Some bk ->
          if bk = [] then fail "baseline has no kernels";
          List.iter
            (fun (name, ns0) ->
              match List.assoc_opt name fk with
              | None -> fail "%s: in the baseline but not in the fresh run" name
              | Some ns ->
                  let ratio = if ns0 > 0.0 then ns /. ns0 else infinity in
                  line "compare %-22s %12.1f vs baseline %12.1f ns/op (%.2fx)" name ns
                    ns0 ratio;
                  if ratio > kernel_tolerance then
                    fail "%s regressed %.2fx (> %.1fx)" name ratio kernel_tolerance)
            bk;
          List.iter
            (fun (name, ns) ->
              if not (List.mem_assoc name bk) then
                line "compare %-22s %12.1f ns/op (not in the baseline)" name ns)
            fk);
      (* Peak RSS is gated like a kernel: memory regressions (a dense
         buffer back in the sweep, a store that stops evicting) never
         show in ns/op. *)
      let rss json = J.member "peak_rss_kb" json in
      (match (rss fresh, rss baseline) with
      | Some (J.Num kb), Some (J.Num kb0) when kb > 0.0 && kb0 > 0.0 ->
          let ratio = kb /. kb0 in
          line "compare %-22s %12.0f vs baseline %12.0f kb (%.2fx)" "peak_rss" kb kb0
            ratio;
          if ratio > rss_tolerance then
            fail "peak RSS regressed %.2fx (> %.1fx)" ratio rss_tolerance
      | f, b ->
          fail "peak_rss_kb: baseline %s vs fresh %s, both must be positive" (show b)
            (show f));
      Checked { lines = List.rev !lines; failures = List.rev !failures }
