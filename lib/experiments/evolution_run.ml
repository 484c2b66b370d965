(* Checkpointable churn runner: the Section 8.4 evolution epochs
   (engine run -> graph growth -> statics rebase -> next epoch) under
   one resumable umbrella. Progress persists as [Checkpoint.Churn]
   frames holding the epoch cursor, the current graph, the warm
   statics store and the completed-epoch summaries — plus, between
   snapshot rounds, the running epoch's full engine progress — so a
   run killed between or inside an epoch resumes float-identical to
   the uninterrupted run (including the statics hit/miss counters,
   which travel inside the store snapshot). *)

module Graph = Asgraph.Graph
module Graph_io = Asgraph.Graph_io
module Route_static = Bgp.Route_static
module Config = Core.Config
module State = Core.State
module Engine = Core.Engine
module Checkpoint = Core.Checkpoint
module Faults = Nsutil.Faults

(* Statics churn-repair timing lands here rather than in
   [Route_static] itself: lib/bgp deliberately has no nsobs
   dependency, and this call site is the only epoch-boundary rebase
   path. *)
let m_rebase_ms =
  lazy
    (Nsobs.Metrics.histogram ~help:"statics store churn rebase (ms)"
       ~buckets:Nsobs.Metrics.duration_ms_buckets "statics_rebase_ms")

type params = {
  epochs : int;
  growth_fraction : float;
  secure_bias : float;
  growth_seed : int;
}

let default_params =
  { epochs = 3; growth_fraction = 0.15; secure_bias = 2.0; growth_seed = 100 }

type epoch_summary = {
  e_epoch : int;
  e_nodes : int;
  e_secure_as : float;
  e_secure_isp : float;
  e_new_on_secure : (int * int) option;
  e_rounds : int;
  e_statics_misses : int;
  e_demotions : int;
  e_seconds : float;
}

type outcome = {
  summaries : epoch_summary list;
  final : State.t;
  final_graph : Graph.t;
}

type checkpoint_spec = { path : string; every_rounds : int }

(* The churn-frame payload. [c_statics] is empty when [c_engine]
   carries a mid-epoch engine payload — the engine progress embeds its
   own store snapshot, and duplicating it would double the frame. *)
type progress = {
  c_epoch : int;
  c_graph : string;  (* [Graph_io] text of the epoch's graph *)
  c_statics : string;  (* [Route_static.snapshot], or "" (see above) *)
  c_full_isps : int list;  (* deployed-ISP carryover into [c_epoch] *)
  c_summaries_rev : epoch_summary list;
  c_engine : (int * string) option;  (* mid-epoch engine round + progress *)
}

(* The churn digest extends the engine's input digest (config minus
   the result-invisible knobs, epoch-0 topology, weights, initial
   state) with the evolution parameters: a snapshot resumes only
   against the run that wrote it. *)
let input_digest params (cfg : Config.t) g0 ~early =
  let statics = Route_static.create g0 in
  let weight = Traffic.Weights.assign g0 ~cp_fraction:cfg.cp_fraction in
  let state = State.create g0 ~early in
  let base = Engine.input_digest cfg statics ~weight ~state in
  Scrypto.Sha256.digest_string
    (Printf.sprintf "sbgp-churn-ckpt-v1\n%s;%d;%h;%h;%d" base params.epochs
       params.growth_fraction params.secure_bias params.growth_seed)

(* Same ladder rung as the engine's: under [degrade] a failed write is
   skipped and the previous frame kept. *)
let write_frame ?faults ~degrade ~path ~digest ~round (p : progress) =
  ignore
    (Checkpoint.write_or_skip ?faults ~kind:Checkpoint.Churn ~degrade ~path ~digest
       ~round (Marshal.to_string p []))

let run_epochs ~params ~(cfg : Config.t) ~faults ~checkpoint ~digest ~early ~start
    ~g ~statics ~full_isps ~summaries_rev ~engine_payload =
  let summaries_rev = ref summaries_rev in
  let rec epoch k g statics full_isps engine_payload =
    let t0 = Unix.gettimeofday () in
    if Nsobs.Journal.enabled () then
      Nsobs.Journal.event "epoch_start"
        [
          ("epoch", Nsobs.Journal.Int k);
          ("nodes", Nsobs.Journal.Int (Graph.n g));
        ];
    let weight = Traffic.Weights.assign g ~cp_fraction:cfg.cp_fraction in
    let state = State.create g ~early in
    List.iter
      (fun i ->
        if (not (State.pinned state i)) && i < Graph.n g && Graph.is_isp g i then
          ignore (State.enable state i))
      full_isps;
    (* Mid-epoch persistence: the engine hands its serialized progress
       to this sink every [every_rounds] completed rounds; each
       delivery becomes a churn frame that pins the epoch context
       around it. *)
    let sink =
      match checkpoint with
      | Some { path; every_rounds } when every_rounds > 0 ->
          let graph_str = Graph_io.to_string g in
          Some
            {
              Engine.s_every = every_rounds;
              s_save =
                (fun ~round ~payload ->
                  write_frame ?faults ~degrade:cfg.degrade ~path ~digest ~round
                    {
                      c_epoch = k;
                      c_graph = graph_str;
                      c_statics = "";
                      c_full_isps = full_isps;
                      c_summaries_rev = !summaries_rev;
                      c_engine = Some (round, payload);
                    });
            }
      | _ -> None
    in
    let result =
      match engine_payload with
      | Some payload ->
          Engine.resume_of_payload ~payload ?sink ?faults cfg statics ~weight ~state
      | None -> Engine.run ?sink ?faults cfg statics ~weight ~state
    in
    (* On a mid-epoch resume the engine rebuilt the warm store from
       its snapshot; every later epoch must carry THAT store. *)
    let statics = result.Engine.statics_store in
    let dt = Unix.gettimeofday () -. t0 in
    let n = Graph.n g in
    if Nsobs.Journal.enabled () then
      Nsobs.Journal.event "epoch_end"
        [
          ("epoch", Nsobs.Journal.Int k);
          ("nodes", Nsobs.Journal.Int n);
          ("rounds", Nsobs.Journal.Int (Engine.rounds_run result));
          ("seconds", Nsobs.Journal.Float dt);
          ("statics_misses", Nsobs.Journal.Int result.Engine.statics_misses);
          ("demotions", Nsobs.Journal.Int result.Engine.demotions);
        ];
    let summary ~new_on_secure =
      {
        e_epoch = k;
        e_nodes = n;
        e_secure_as = Engine.secure_fraction result `As;
        e_secure_isp = Engine.secure_fraction result `Isp;
        e_new_on_secure = new_on_secure;
        e_rounds = Engine.rounds_run result;
        e_statics_misses = result.Engine.statics_misses;
        e_demotions = result.Engine.demotions;
        e_seconds = dt;
      }
    in
    if k >= params.epochs then begin
      summaries_rev := summary ~new_on_secure:None :: !summaries_rev;
      {
        summaries = List.rev !summaries_rev;
        final = result.Engine.final;
        final_graph = g;
      }
    end
    else begin
      let full_after = ref [] in
      for i = 0 to n - 1 do
        if Graph.is_isp g i && State.full result.Engine.final i then
          full_after := i :: !full_after
      done;
      let grown, delta =
        Topology.Evolve.grow_delta g
          ~new_stubs:(max 1 (int_of_float (params.growth_fraction *. float_of_int n)))
          ~secure_bias:params.secure_bias
          ~is_secure:(fun i -> State.secure result.Engine.final i)
          ~seed:(params.growth_seed + k)
      in
      let statics =
        match cfg.statics_kernel with
        | Route_static.Delta -> (
            let j =
              (if Nsobs.Metrics.enabled () then
                 Nsobs.Metrics.timed (Lazy.force m_rebase_ms)
               else fun f -> f ())
                (fun () ->
                  Route_static.rebase ~kernel:Route_static.Delta
                    ~workers:cfg.workers ?faults statics ~delta grown)
            in
            (* Fault site evolve.delta: the epoch migration is declared
               failed after the fact. Recovery exercises the journal —
               undo the rebase (an O(1) restore to the pre-churn
               store), then fall back to the full statics kernel for
               this boundary: a cold store on the grown graph, which
               recomputes the same records lazily, so results stay
               bit-identical. *)
            match faults with
            | Some f when Faults.fires f "evolve.delta" <> None ->
                Route_static.undo_rebase statics j;
                Nsutil.Warnings.emit
                  (Printf.sprintf
                     "sbgp: churn: injected rebase failure at epoch %d; rebuilding \
                      the statics store from scratch"
                     k);
                Route_static.create grown
            | _ -> statics)
        | Route_static.Full -> Route_static.create grown
      in
      (* Count this epoch's new stubs that landed on >= 1 secure provider. *)
      let on_secure = ref 0 in
      let added = Graph.n grown - n in
      for stub = n to Graph.n grown - 1 do
        let hit = ref false in
        Graph.iter_providers grown stub (fun p ->
            if (not !hit) && State.secure result.Engine.final p then hit := true);
        if !hit then incr on_secure
      done;
      summaries_rev :=
        summary ~new_on_secure:(Some (!on_secure, added)) :: !summaries_rev;
      (* Epoch-boundary frame: the next epoch's full starting context —
         grown graph, post-rebase warm store, ISP carryover — plus
         every completed summary. *)
      (match checkpoint with
      | Some { path; _ } ->
          write_frame ?faults ~degrade:cfg.degrade ~path ~digest ~round:(k + 1)
            {
              c_epoch = k + 1;
              c_graph = Graph_io.to_string grown;
              c_statics = Route_static.snapshot statics;
              c_full_isps = !full_after;
              c_summaries_rev = !summaries_rev;
              c_engine = None;
            }
      | None -> ());
      epoch (k + 1) grown statics !full_after None
    end
  in
  epoch start g statics full_isps engine_payload

let run ?checkpoint ?faults params (cfg : Config.t) g0 ~early =
  let faults = Faults.or_env faults in
  let digest =
    match checkpoint with
    | None -> Checkpoint.null_digest
    | Some _ -> input_digest params cfg g0 ~early
  in
  run_epochs ~params ~cfg ~faults ~checkpoint ~digest ~early ~start:0 ~g:g0
    ~statics:(Route_static.create g0) ~full_isps:[] ~summaries_rev:[]
    ~engine_payload:None

let resume ~from ?checkpoint ?faults params (cfg : Config.t) g0 ~early =
  let faults = Faults.or_env faults in
  let digest = input_digest params cfg g0 ~early in
  let _, (c : progress) =
    Checkpoint.load_payload ~kind:Checkpoint.Churn ~path:from ~digest
  in
  let g = Graph_io.of_string c.c_graph in
  let statics, engine_payload =
    match c.c_engine with
    | Some (_, payload) ->
        (* The engine payload embeds the warm store; the placeholder
           is never consulted ([Engine.resume_of_payload] rebinds). *)
        (Route_static.create g, Some payload)
    | None -> (Route_static.of_snapshot g c.c_statics, None)
  in
  run_epochs ~params ~cfg ~faults ~checkpoint ~digest ~early ~start:c.c_epoch ~g
    ~statics ~full_isps:c.c_full_isps ~summaries_rev:c.c_summaries_rev
    ~engine_payload
