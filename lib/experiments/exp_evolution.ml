(* Section 8.4 extension: deployment on an evolving AS graph. After
   the case-study dynamics stabilize, the graph grows (new stubs
   multihome, preferentially to secure ISPs when the market rewards
   security), routing state is rebuilt, and the dynamics continue —
   epoch after epoch. The mechanics live in {!Evolution_run} (the
   checkpointable churn runner); this experiment renders its epoch
   summaries. *)

module Table = Nsutil.Table

module Evolution = struct
  let id = "evolution"
  let title =
    "Section 8.4: deployment across graph-growth epochs (new stubs prefer secure ISPs)"

  let run (s : Scenario.t) =
    let outcome =
      Evolution_run.run Evolution_run.default_params Core.Config.default
        (Scenario.graph s)
        ~early:(Scenario.case_study_adopters s)
    in
    let t =
      Table.create
        ~header:
          [
            "epoch";
            "ASes";
            "secure ASes";
            "secure ISPs";
            "new stubs on secure ISPs";
            "rounds";
            "statics misses";
            "epoch s";
          ]
    in
    List.iter
      (fun (e : Evolution_run.epoch_summary) ->
        Table.add_row t
          [
            string_of_int e.e_epoch;
            string_of_int e.e_nodes;
            Table.cell_pct e.e_secure_as;
            Table.cell_pct e.e_secure_isp;
            (match e.e_new_on_secure with
            | None -> "-"
            | Some (on_secure, added) ->
                Printf.sprintf "%d/%d (%s)" on_secure added
                  (Table.cell_pct (float_of_int on_secure /. float_of_int (max 1 added))));
            string_of_int e.e_rounds;
            string_of_int e.e_statics_misses;
            Printf.sprintf "%.3f" e.e_seconds;
          ])
      outcome.Evolution_run.summaries;
    t
end
