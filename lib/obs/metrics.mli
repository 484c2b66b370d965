(** A process-global metrics registry: named counters, gauges and
    fixed-bucket histograms, dumped as Prometheus-style exposition
    text and as a human summary table ({!Nsutil.Table}) at end of
    run.

    Creation is idempotent by name — requesting an existing metric
    returns it; requesting it as a different kind is an error.
    Counters are atomic (safe from any domain), histograms take a
    per-histogram mutex per observation, gauges are plain writes.
    Like tracing, collection is off by default: updates are inert
    while disabled, and instrumented code additionally guards update
    batches with a single static {!enabled} check, so a run with
    metrics off pays one load+branch per hook site. *)

type counter
type gauge
type histogram

val enabled : unit -> bool
val set_enabled : bool -> unit

val counter : ?help:string -> string -> counter
(** Find or create. Names are Prometheus-ish: [[a-zA-Z_:][a-zA-Z0-9_:]*]. *)

val gauge : ?help:string -> string -> gauge

val histogram : ?help:string -> buckets:float array -> string -> histogram
(** [buckets] are strictly ascending upper bounds; an overflow (+Inf)
    bucket is implicit. An observation lands in the first bucket
    whose bound is [>=] the value (Prometheus [le] semantics). *)

val duration_ms_buckets : float array
(** The one bucket ladder for wall-time histograms in milliseconds:
    the powers of two from 2{^-3} ms to 2{^20} ms (~17.5 minutes), so
    a paper-scale round of ~855 s lands in a finite bucket and
    {!quantile} does not clamp it. Histograms copy their bounds, so
    the array is safe to share. *)

val inc : counter -> unit
val add : counter -> int -> unit
(** Raises [Invalid_argument] on a negative delta: counters only go up. *)

val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val counter_value : counter -> int
val gauge_value : gauge -> float
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_counts : histogram -> int array
(** Per-bucket (non-cumulative) counts; last entry is the overflow
    bucket. *)

val value : string -> float option
(** Lookup by name: counter value, gauge value, or histogram
    observation count. *)

val find_histogram : string -> histogram option
(** Lookup an already-registered histogram by name (the health
    report reads quantiles without registering anything). *)

val counters : unit -> (string * int) list
(** Every registered counter with its current value, sorted by name —
    the monotonicity probe used by the bench self-check. *)

val to_prometheus : unit -> string
(** Exposition text: [# TYPE] lines, cumulative [_bucket{le="..."}]
    rows, [_sum]/[_count] per histogram, metrics sorted by name. *)

val summary : unit -> Nsutil.Table.t
(** Human-readable end-of-run table: one row per metric. *)

val write : string -> unit
(** {!to_prometheus} to a file. *)

val timed : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and observe its wall time in milliseconds (recorded
    even if the thunk raises). While collection is disabled this is
    exactly the thunk: no clock reads. *)

val quantile : histogram -> float -> float option
(** Bucket-interpolated quantile estimate (same construction as
    PromQL's [histogram_quantile]): [quantile h 0.99] is the p99 in
    the histogram's own unit. [None] when no observations; ranks
    falling in the overflow bucket clamp to the largest finite
    bound. Raises [Invalid_argument] outside [0..1]. *)

val reset : unit -> unit
(** Drop every registration and value (testing hook). Metric handles
    obtained before a reset must not be used afterwards. *)
