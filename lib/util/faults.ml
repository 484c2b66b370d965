exception Injected of { site : string; shot : int }

type spec = { seed : int; rate : float; budget : int; after : int }

(* One arming: a seeded rate, a shot budget and a warm-up count, with
   its own atomic counters. A plan is one optional default cell (serving
   every site without a dedicated cell) plus site-scoped cells. *)
type cell = {
  c_seed : int;
  c_rate : float;
  c_after : int;
  c_remaining : int Atomic.t;
  c_shots : int Atomic.t;
  c_fired : int Atomic.t;
}

type t = { default : cell option; sites : (string * cell) list }

(* Every site name threaded through the codebase; [of_env] warns when
   a plan scopes a cell to a name outside this list (a typo would
   otherwise silently disable the injection). *)
let known_sites =
  [
    "pool.task";
    "pool.hang";
    "checkpoint.corrupt";
    "checkpoint.io";
    "statics.repair";
    "evolve.delta";
  ]

let cell_of_spec { seed; rate; budget; after } =
  {
    c_seed = seed;
    c_rate = rate;
    c_after = max 0 after;
    c_remaining = Atomic.make (max 0 budget);
    c_shots = Atomic.make 0;
    c_fired = Atomic.make 0;
  }

let create ?(rate = 1.0) ?(budget = 1) ?(after = 0) ~seed () =
  { default = Some (cell_of_spec { seed; rate; budget; after }); sites = [] }

let of_spec spec = { default = Some (cell_of_spec spec); sites = [] }

let of_plan entries =
  let default = ref None
  and sites = ref [] in
  List.iter
    (fun (site, spec) ->
      match site with
      | None -> if !default = None then default := Some (cell_of_spec spec)
      | Some name ->
          if not (List.mem_assoc name !sites) then
            sites := (name, cell_of_spec spec) :: !sites)
    entries;
  { default = !default; sites = List.rev !sites }

(* djb2: a stable cross-run string hash (Hashtbl.hash would also do,
   but its stability is an implementation detail). *)
let site_hash s =
  let h = ref 5381 in
  String.iter (fun c -> h := (((!h lsl 5) + !h) + Char.code c) land max_int) s;
  !h

(* The sites added after the legacy single-spec grammar never fall
   back to the default cell: letting them consume default-cell shots
   would silently reshuffle every pre-existing fault schedule (tests
   aim their [after] offsets at the pool.task shot sequence), and a
   hang or I/O failure is something a plan should opt into by name.
   Every other site — including ad-hoc names — keeps the legacy
   default-cell behavior. *)
let scoped_only_sites =
  [ "pool.hang"; "checkpoint.io"; "statics.repair"; "evolve.delta" ]

let cell_for t site =
  match List.assoc_opt site t.sites with
  | Some c -> Some c
  | None -> if List.mem site scoped_only_sites then None else t.default

let sum_cells t f =
  let d = match t.default with Some c -> f c | None -> 0 in
  List.fold_left (fun a (_, c) -> a + f c) d t.sites

let shots t = sum_cells t (fun c -> Atomic.get c.c_shots)
let fired t = sum_cells t (fun c -> Atomic.get c.c_fired)

let fired_at t site =
  match cell_for t site with Some c -> Atomic.get c.c_fired | None -> 0

(* Claim one unit of budget; never goes below zero under contention. *)
let rec claim c =
  let r = Atomic.get c.c_remaining in
  if r <= 0 then false
  else if Atomic.compare_and_set c.c_remaining r (r - 1) then true
  else claim c

let draw c ~shot ~site =
  let v = Prng.mix2 (Prng.mix2 c.c_seed shot) (site_hash site) in
  float_of_int v /. 4.611686018427387904e18 (* 2^62 *)

let fires t site =
  match cell_for t site with
  | None -> None
  | Some c ->
      let shot = Atomic.fetch_and_add c.c_shots 1 in
      if shot >= c.c_after && draw c ~shot ~site < c.c_rate && claim c then begin
        ignore (Atomic.fetch_and_add c.c_fired 1);
        Some shot
      end
      else None

let trip t site =
  match fires t site with
  | Some shot -> raise (Injected { site; shot })
  | None -> ()

let parse_spec s =
  let err () =
    Error
      (Printf.sprintf
         "bad fault spec %S: expected seed:rate[:budget[:after]] (e.g. \"7:0.05:2\")" s)
  in
  match String.split_on_char ':' (String.trim s) with
  | [] | [ "" ] -> err ()
  | seed :: rest -> (
      let parse_tail rate budget after =
        match (rate, budget, after) with
        | Some rate, Some budget, Some after
          when rate >= 0.0 && rate <= 1.0 && budget >= 0 && after >= 0 ->
            fun seed -> Ok { seed; rate; budget; after }
        | _ -> fun _ -> err ()
      in
      let k =
        match rest with
        | [] -> parse_tail (Some 1.0) (Some 1) (Some 0)
        | [ r ] -> parse_tail (float_of_string_opt r) (Some 1) (Some 0)
        | [ r; b ] -> parse_tail (float_of_string_opt r) (int_of_string_opt b) (Some 0)
        | [ r; b; a ] ->
            parse_tail (float_of_string_opt r) (int_of_string_opt b) (int_of_string_opt a)
        | _ -> fun _ -> err ()
      in
      match int_of_string_opt seed with Some seed -> k seed | None -> err ())

(* Plan grammar: semicolon-separated entries, each
   [site=]seed:rate[:budget[:after]]. An entry without [site=] is the
   default cell (the legacy single-spec grammar is thus a one-entry
   plan). *)
let parse_plan s =
  let entries =
    String.split_on_char ';' s
    |> List.map String.trim
    |> List.filter (fun e -> e <> "")
  in
  if entries = [] then
    Error (Printf.sprintf "bad fault plan %S: no entries" s)
  else
    let rec parse acc = function
      | [] -> Ok (List.rev acc)
      | e :: rest -> (
          let site, spec_str =
            match String.index_opt e '=' with
            | Some i ->
                ( Some (String.trim (String.sub e 0 i)),
                  String.sub e (i + 1) (String.length e - i - 1) )
            | None -> (None, e)
          in
          match site with
          | Some "" -> Error (Printf.sprintf "bad fault plan entry %S: empty site name" e)
          | _ -> (
              match parse_spec spec_str with
              | Ok spec -> parse ((site, spec) :: acc) rest
              | Error reason -> Error reason))
    in
    parse [] entries

let env_var = "SBGP_FAULTS"

let of_env () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> None
  | Some s -> (
      match parse_plan s with
      | Ok entries ->
          List.iter
            (function
              | Some site, _ when not (List.mem site known_sites) ->
                  Warnings.emit
                    (Printf.sprintf
                       "warning: %s: unknown fault site %S (known: %s)" env_var site
                       (String.concat ", " known_sites))
              | _ -> ())
            entries;
          Some (of_plan entries)
      | Error warning ->
          Warnings.emit (Printf.sprintf "warning: ignoring %s: %s" env_var warning);
          None)

let or_env = function Some _ as f -> f | None -> of_env ()
