(* The bench regression gate: key refusal, kernel and peak-RSS
   tolerances, and kernels that vanish from the fresh run. *)

module J = Nsobs.Jsonv

let two_kernels = [ ("forest_sweep_w1", 1000.0); ("flip_repair_w1", 50.0) ]

(* A suite document at the smoke key; [key] replaces a field's value
   ([Some v]) or drops the field ([None]). *)
let doc ?(key = []) ?(kernels = two_kernels) ?(rss = 20_000.0) () =
  let base_key =
    [
      ("schema", J.Str "sbgp-bench-v2");
      ("n", J.Num 120.0);
      ("seed", J.Num 3.0);
      ("workers", J.Num 2.0);
      ("smoke", J.Bool true);
      ("nproc", J.Num 2.0);
    ]
  in
  let key =
    List.filter_map
      (fun (f, v) ->
        match List.assoc_opt f key with
        | None -> Some (f, v)
        | Some override -> Option.map (fun v -> (f, v)) override)
      base_key
  in
  J.Obj
    (key
    @ [
        ( "kernels",
          J.Arr
            (List.map
               (fun (name, ns) -> J.Obj [ ("name", J.Str name); ("ns_per_op", J.Num ns) ])
               kernels) );
        ("peak_rss_kb", J.Num rss);
      ])

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let failures = function
  | Gate.Refused m -> Alcotest.failf "refused: %s" (String.concat "; " m)
  | Gate.Checked { failures; _ } -> failures

let expect_fail ~mentions verdict =
  match failures verdict with
  | [] -> Alcotest.failf "gate passed; expected a failure naming %s" mentions
  | fs ->
      Alcotest.(check bool)
        (Printf.sprintf "a failure names %s" mentions)
        true
        (List.exists (fun f -> contains f mentions) fs)

let test_equal_passes () =
  let verdict = Gate.check ~fresh:(doc ()) ~baseline:(doc ()) in
  Alcotest.(check (list string)) "no failures" [] (failures verdict);
  match verdict with
  | Gate.Checked { lines; _ } ->
      Alcotest.(check int) "two kernels and peak RSS reported" 3 (List.length lines)
  | Gate.Refused _ -> assert false

let test_key_mismatch_refused () =
  List.iter
    (fun (field, v) ->
      match Gate.check ~fresh:(doc ()) ~baseline:(doc ~key:[ (field, v) ] ()) with
      | Gate.Checked _ -> Alcotest.failf "baseline with a different %s was compared" field
      | Gate.Refused m ->
          Alcotest.(check int) (field ^ ": one mismatch") 1 (List.length m);
          Alcotest.(check bool) (field ^ " named") true (contains (List.hd m) field))
    [
      ("schema", Some (J.Str "sbgp-bench-v1"));
      ("n", Some (J.Num 1000.0));
      ("seed", Some (J.Num 4.0));
      ("workers", Some (J.Num 4.0));
      ("smoke", Some (J.Bool false));
      ("nproc", Some (J.Num 1.0));
      ("nproc", None);
    ]

let test_slow_kernel_fails () =
  let sweep ns = doc ~kernels:[ ("forest_sweep_w1", ns); ("flip_repair_w1", 50.0) ] () in
  expect_fail ~mentions:"forest_sweep_w1"
    (Gate.check ~fresh:(sweep 2100.0) ~baseline:(doc ()));
  Alcotest.(check (list string))
    "1.9x passes" [] (failures (Gate.check ~fresh:(sweep 1900.0) ~baseline:(doc ())))

let test_rss_fails () =
  expect_fail ~mentions:"peak RSS"
    (Gate.check ~fresh:(doc ~rss:40_001.0 ()) ~baseline:(doc ()));
  expect_fail ~mentions:"peak_rss_kb"
    (Gate.check ~fresh:(doc ~rss:0.0 ()) ~baseline:(doc ()))

let test_missing_kernel_fails () =
  let fresh = doc ~kernels:[ ("forest_sweep_w1", 1000.0) ] () in
  expect_fail ~mentions:"flip_repair_w1" (Gate.check ~fresh ~baseline:(doc ()));
  (* A kernel only the fresh run has is reported, not failed. *)
  let extra = doc ~kernels:(two_kernels @ [ ("new", 1.0) ]) () in
  Alcotest.(check (list string))
    "extra fresh kernel passes" [] (failures (Gate.check ~fresh:extra ~baseline:(doc ())))

let () =
  Alcotest.run "bench_gate"
    [
      ( "gate",
        [
          Alcotest.test_case "matching key, equal numbers pass" `Quick test_equal_passes;
          Alcotest.test_case "each mismatched or missing key field refused" `Quick
            test_key_mismatch_refused;
          Alcotest.test_case "kernel over tolerance fails" `Quick test_slow_kernel_fails;
          Alcotest.test_case "peak RSS over tolerance fails" `Quick test_rss_fails;
          Alcotest.test_case "baseline kernel missing from fresh run fails" `Quick
            test_missing_kernel_fails;
        ] );
    ]
