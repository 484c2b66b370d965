(** Cross-round per-destination cache for the deployment engine.

    Each engine round needs, for every destination [d], the routing
    forest under the current state: its secure-route flags (for the
    Appendix C.4 projection skips) and its utility contributions (for
    the round's utility vector). Observation behind the cache: a
    round's flips change the participation bytes of a handful of
    nodes, and [d]'s forest only depends on the bytes of nodes
    *reachable* in [d]'s static info — so most destinations are
    byte-for-byte unchanged from the previous round and need no
    recomputation ({!Bgp.Route_static.Dirty}).

    Protocol, per round: {!begin_round} diffs the state against the
    previous round via {!State.mark} and marks destinations without
    reading any statics — dirty if their own byte changed, pending if
    their origin participates (so a changed node reachable from them
    could alter the tree). The sweep then asks {!is_dirty} of every
    destination, passing the closure that fetches the destination's
    statics record: a pending destination is resolved on that record
    ({!Bgp.Route_static.Dirty.resolve}), the one fetch the sweep makes
    anyway, so no record is built twice in a round. For every dirty
    destination recompute the forest and {!store} its entry; read
    {!entry} for every destination. Entries of clean destinations
    replay bit-identically: the cached addend stream
    ({!Utility.contribution_pairs}) performs the same float additions
    the from-scratch sweep would.

    Safe to drive from {!Parallel.Pool} workers: [is_dirty] and
    [store] write only destination [d]'s flag byte and slot, distinct
    destinations go to distinct workers, the round's changed set is
    not written during the sweep, and reads of clean entries see
    values published before the round's fork. A re-run of the sweep
    (supervision, the degradation ladder) finds every flag it already
    resolved and decides it the same way. *)

type entry = private {
  sec_bits : Bytes.t;
      (** the forest's secure-route flag per node, bit-packed: bit
          [i land 7] of byte [i lsr 3] is node [i] (read via
          {!sec_bit}, or inline the shift locally on hot paths) *)
  pairs_idx : Nsutil.I32.t;
  pairs_val : Nsutil.F64.t;
      (** utility addend stream in {!Utility.contribution_pairs}
          order, unboxed — {!add_pairs} replays it bit-identically *)
  row_idx : int array;  (** touched compact ISP slots, ascending *)
  row_val : float array;  (** summed contribution per touched slot *)
}

type t

type scratch
(** Per-worker workspace for {!store}'s sparse-row construction. Any
    number of scratches may be live; one must not be shared between
    concurrent {!store} calls. *)

val create : Bgp.Route_static.t -> t
(** Empty cache; every destination starts dirty. *)

val make_scratch : t -> scratch

val begin_round : t -> State.t -> unit
(** Mark destinations whose forest can change given the state's byte
    diff since the previous call — dirty, or pending until
    {!is_dirty} resolves them — plus any destinations queued by
    {!note_churn}, then re-mark the state. Reads no statics: O(n).
    The first call leaves everything dirty. Call once per round,
    before the sweep, with the state at its round-start value. *)

val note_churn : t -> changed:int list -> unit
(** Queue destinations whose *static* info changed under a topology
    delta that preserved the node count — the
    {!Bgp.Route_static.rebase_changed} list after a
    {!Bgp.Route_static.rebase} of the cache's store. They are marked
    dirty unconditionally at the next {!begin_round}: their forests
    can change even when the deployment state did not. Destinations
    absent from the list keep physically identical statics, so their
    cached entries replay bit-identically across the churn. Raises
    [Invalid_argument] if the store's graph no longer matches the
    cache's node count (a growing delta requires a fresh {!create}). *)

val is_dirty : ?fetch:(unit -> Bgp.Route_static.dest_info) -> t -> int -> bool
(** Whether destination [d] must be recomputed this round. A pending
    [d] is resolved on [fetch ()], which must return [d]'s statics
    record (the sweep passes its once-per-task fetch); without
    [fetch], on a serial store read ({!Bgp.Route_static.Dirty.is_dirty}),
    which is not safe to call concurrently. *)

val dirty_count : t -> int
(** Dirty destinations this round. Resolves still-pending ones
    serially through one builder; after a sweep that asked
    {!is_dirty} of every destination, a pure byte count with no store
    reads. *)

val store :
  t ->
  ?scratch:scratch ->
  int ->
  sec_path:Bytes.t ->
  pairs:int array * float array ->
  unit
(** Record destination [d]'s freshly computed forest: [sec_path] is
    bit-packed, [pairs] copied into unboxed vectors and regrouped into
    the sparse per-slot row (same additions in the same order as the
    former dense row, so cached values are bit-identical). Call for
    every dirty destination each round; pass a per-worker [scratch]
    on hot paths to avoid an O(#ISP) allocation per call. *)

val entry : t -> int -> entry
(** The destination's entry. Raises [Invalid_argument] if it was never
    stored (protocol violation). *)

val sec_bit : entry -> int -> bool
(** Node [i]'s secure-route flag from the entry's packed forest —
    [sec_path.(i) = '\001'] of the forest that was stored. *)

val add_pairs : entry -> into:float array -> unit
(** Replay the entry's addend stream: float-for-float the additions
    {!Utility.add_pairs} would perform on the stream {!store} was
    given. *)

val snapshot : t -> string
(** Opaque serialization of the per-destination entries — the cache's
    only cross-round memory — for {!Checkpoint} snapshots. *)

val restore : t -> string -> unit
(** Refill a fresh cache from {!snapshot} output (same topology;
    raises [Invalid_argument] on a size mismatch). Together with the
    state's restored {!State.mark} snapshot, the next {!begin_round}
    computes exactly the dirty set the uninterrupted run would. *)

val base_contribution : t -> entry -> int -> float
(** The candidate's utility contribution under the entry's forest —
    the cached equivalent of {!Utility.contribution} on the base
    forest (bit-equal under [Outgoing]; equal up to addend regrouping
    under [Incoming]). *)

val isp_slot : t -> int -> int
(** The node's compact ISP slot, [-1] for non-ISPs. Pre-resolving the
    slot once per round lets the reduce loop read {!row_value}
    directly instead of paying the per-(destination, candidate)
    indirection of {!base_contribution}. *)

val row_value : entry -> int -> float
(** [row_value e s] is the summed contribution in slot [s] ([0.0] for
    [s < 0] or an untouched slot) — [base_contribution t e nc] with
    the slot lookup hoisted. A binary search over the entry's touched
    slots; the old dense row held [0.0] in untouched slots, so the
    result is unchanged. *)
