type t = {
  n : int;
  seed : int;
  built : Topology.Gen.built;
  statics : Bgp.Route_static.t;
  built_aug : Topology.Gen.built Lazy.t;
  statics_aug : Bgp.Route_static.t Lazy.t;
}

let default_n () = Nsutil.Env.int_var ~name:"SBGP_N" ~min:50 ~default:500 ()

let create ?n ?(seed = 42) () =
  let n = match n with Some v -> v | None -> default_n () in
  Nsobs.Log.info "scenario: generating synthetic topology (n=%d, seed=%d)" n seed;
  let params = { (Topology.Params.with_n Topology.Params.default n) with seed } in
  let built = Topology.Gen.generate params in
  let built_aug =
    lazy (Topology.Augment.augment_built built ~fraction:0.8 ~seed:(seed + 1))
  in
  (* Sort tie rows under the tiebreak the experiments actually run with
     (Config.default), so [Engine.run]'s [ensure_tiebreak] keeps the
     primed cache instead of dropping and re-sorting it. *)
  let tiebreak = Core.Config.default.tiebreak in
  {
    n;
    seed;
    built;
    statics = Bgp.Route_static.create ~tiebreak built.graph;
    built_aug;
    statics_aug =
      lazy (Bgp.Route_static.create ~tiebreak (Lazy.force built_aug).graph);
  }

let graph t = t.built.graph
let graph_aug t = (Lazy.force t.built_aug).graph
let cps t = t.built.cps
let top_isps t k = Asgraph.Metrics.top_by_degree (graph t) k
let case_study_adopters t = cps t @ top_isps t 5

let weights ?(augmented = false) t (cfg : Core.Config.t) =
  let g = if augmented then graph_aug t else graph t in
  Traffic.Weights.assign g ~cp_fraction:cfg.cp_fraction

type job_error = { job : int; error : string }

let run_many_outcomes ?(augmented = false) t jobs =
  let statics = if augmented then Lazy.force t.statics_aug else t.statics in
  let g = Bgp.Route_static.graph statics in
  let jobs = Array.of_list jobs in
  let workers = min (Parallel.Pool.default_workers ()) (max 1 (Array.length jobs)) in
  Nsobs.Log.info "scenario: running %d simulation job(s) on %d worker(s)"
    (Array.length jobs) workers;
  (* Prime the shared per-destination cache; engine runs below get
     [workers = 1], so parallelism is across jobs and a job's engine
     only ever reads the cache. *)
  Bgp.Route_static.ensure_all ~workers statics;
  let run_job i =
    (* Crash containment per job: a failing simulation becomes an
       [Error] outcome instead of killing the other jobs' domains and
       losing the whole sweep. *)
    match
      let cfg, early = jobs.(i) in
      let cfg = { cfg with Core.Config.workers = 1 } in
      let weight = Traffic.Weights.assign g ~cp_fraction:cfg.Core.Config.cp_fraction in
      let state =
        Core.State.create g ~early ~simplex:(not cfg.disable_simplex)
          ~secp:(not cfg.disable_secp)
      in
      Core.Engine.run cfg statics ~weight ~state
    with
    | result -> Ok result
    | exception e ->
        let error = Printexc.to_string e in
        Nsobs.Log.warn "scenario: job %d failed: %s" i error;
        Error { job = i; error }
  in
  (* One job per chunk, so uneven jobs balance across workers; each
     job writes its own outcome slot. *)
  let outcomes = Array.make (Array.length jobs) None in
  Parallel.Pool.map_reduce_dynamic_supervised Parallel.Pool.no_supervision ~workers
    ~tasks:(Array.length jobs) ~grain:1
    ~init:(fun () -> ())
    ~task:(fun () i -> outcomes.(i) <- Some (run_job i))
    ~combine:(fun () () -> ());
  Array.to_list (Array.map Option.get outcomes)

let run_many ?augmented t jobs =
  List.map
    (function
      | Ok r -> r
      | Error { job; error } ->
          failwith (Printf.sprintf "Scenario.run_many: job %d failed: %s" job error))
    (run_many_outcomes ?augmented t jobs)

let run ?(augmented = false) ?early t (cfg : Core.Config.t) =
  let g = if augmented then graph_aug t else graph t in
  let statics = if augmented then Lazy.force t.statics_aug else t.statics in
  let early = match early with Some e -> e | None -> case_study_adopters t in
  let weight = weights ~augmented t cfg in
  let state =
    Core.State.create g ~early ~simplex:(not cfg.disable_simplex)
      ~secp:(not cfg.disable_secp)
  in
  Core.Engine.run cfg statics ~weight ~state
