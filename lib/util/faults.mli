(** Deterministic fault injection for the fault-tolerance layer.

    A fault plan decides, at named *sites* threaded through the worker
    pool, the statics repair path and the checkpoint writer, whether to
    inject a failure: a raised {!Injected} in a worker task, a hang, or
    a deliberate corruption of a checkpoint file or repaired CSR.
    Decisions are a pure function of the arming cell's seed, its shot
    counter and the site name, so a plan replays the same failure
    schedule on every (serial) run; the [budget] bounds the total
    number of injections so supervised retries always converge, and
    [after] arms the cell only from the given shot onward (letting
    tests kill a run at a chosen depth).

    A plan is one optional {e default} cell — consulted by every site
    without a dedicated cell, exactly the legacy single-spec behavior —
    plus any number of {e site-scoped} cells with their own seeds,
    rates, budgets and counters. Exception: the sites added after the
    single-spec grammar ([pool.hang], [checkpoint.io],
    [statics.repair], [evolve.delta]) inject {e only} when a plan
    names them — a hang or I/O failure is opted into explicitly, and
    a legacy spec's fault schedule stays bit-identical to what it
    always was.

    Counters are atomics: a single plan is shared by all worker
    domains of a run. Under parallel execution the *set* of shots that
    fire is schedule-dependent, but the per-cell budget bound — the
    property retries rely on — holds regardless.

    The [SBGP_FAULTS] environment variable holds a semicolon-separated
    plan of [[site=]seed:rate[:budget[:after]]] entries (a bare legacy
    spec is a one-entry plan); the test suite reruns the engine-parity
    suite under it. *)

exception Injected of { site : string; shot : int }

type t

type spec = { seed : int; rate : float; budget : int; after : int }

val known_sites : string list
(** Every site name threaded through the codebase ([pool.task],
    [pool.hang], [checkpoint.corrupt], [checkpoint.io],
    [statics.repair], [evolve.delta]). {!of_env} warns when a plan
    scopes a cell to a name outside this list. *)

val create : ?rate:float -> ?budget:int -> ?after:int -> seed:int -> unit -> t
(** A default-cell-only plan. [rate] is the per-shot firing
    probability in [0, 1] (default 1); [budget] the maximum number of
    injections (default 1); [after] the number of initial shots that
    never fire (default 0). *)

val of_spec : spec -> t

val of_plan : (string option * spec) list -> t
(** Build a plan from parsed entries; [None] keys the default cell.
    The first entry wins on duplicate sites. *)

val parse_spec : string -> (spec, string) result
(** Parse one ["seed:rate[:budget[:after]]"] entry; [Error] is a
    printable one-line reason. *)

val parse_plan : string -> ((string option * spec) list, string) result
(** Parse a semicolon-separated plan of [[site=]spec] entries. *)

val of_env : unit -> t option
(** Build a plan from [SBGP_FAULTS] if set; malformed plans print a
    one-line stderr warning and yield [None], and entries scoped to a
    site outside {!known_sites} warn (but are kept). *)

val or_env : t option -> t option
(** The plan a run was given, or {!of_env} when it was given none:
    how every run entry point resolves its [?faults] argument. *)

val fires : t -> string -> int option
(** Count one shot at the site (against its site cell, or the default
    cell when none — no cell at all counts nothing); [Some shot]
    (consuming that cell's budget) when the plan injects here — used
    by callers that corrupt data rather than raise. *)

val trip : t -> string -> unit
(** [trip t site] raises {!Injected} when {!fires} does. *)

val shots : t -> int
(** Total shots counted so far, over all cells. *)

val fired : t -> int
(** Injections delivered so far, over all cells (bounded by the sum of
    budgets). *)

val fired_at : t -> string -> int
(** Injections delivered by the cell serving the given site. *)
