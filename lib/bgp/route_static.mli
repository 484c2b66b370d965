(** Per-destination *static* routing information, in a compact layout.

    Observation C.1: under the Appendix-A policies, the class and
    length of every node's best route to a destination do not depend
    on the deployment state. This module computes, once per
    destination, each node's route class, path length and *tiebreak
    set* (the equally-good next hops among which SecP and TB choose).
    The per-state routing tree is then derived by {!Forest} in
    O(t * N) per destination.

    The tiebreak CSR and the length-sorted order are stored as int32
    bigarrays ({!Nsutil.I32}): half the footprint of [int array]s, out
    of the OCaml heap (never GC-scanned), and shareable across worker
    domains without copying. Each tiebreak row is pre-sorted by the
    static {!Policy.tiebreak_key} (stable, so insertion order breaks
    key collisions exactly as the legacy minimum scan did): the first
    eligible member of a row *is* the winner, which lets the forest
    kernel drop all key computations from its inner loop. *)

type dest_info = private {
  dest : int;
  cls : Bytes.t;  (** route class per node, {!Policy.class_to_char} encoding *)
  len : Bytes.t;
      (** path length per node, valid when reachable; at most
          {!max_path_len} *)
  tie_off : Nsutil.I32.t;  (** CSR offsets, length [n + 1] *)
  tie : Nsutil.I32.t;
      (** CSR data: tiebreak-set members, each row sorted ascending by
          [Policy.tiebreak_key tb i] *)
  tie_rev_off : Nsutil.I32.t;  (** reverse-CSR offsets, length [n + 1] *)
  tie_rev : Nsutil.I32.t;
      (** reverse tiebreak adjacency: row [j] lists every node whose
          tie set contains [j], in {e descending} [order] position —
          the order Pass 2 of {!Forest.compute} folds child subtrees
          into parents, so {!Forest.repair} re-sums a parent's subtree
          with bit-identical float addition order *)
  order : Nsutil.I32.t;
      (** reachable nodes in ascending path length; [order.(0) = dest] *)
  tb : Policy.tiebreak;  (** the policy the tie rows are sorted under *)
  max_len : int;
}

val max_path_len : int
(** Upper bound on any route length (254 — lengths live in one byte).
    Routes longer than this do not exist: a node whose every route is
    longer is unreachable, and a node whose preferred-class route is
    longer falls back to its next class. *)

val compute : ?tiebreak:Policy.tiebreak -> Asgraph.Graph.t -> int -> dest_info
(** Static info for one destination; O(V + E). Tie rows are sorted
    under [tiebreak] (default [Lowest_id]). Allocates a whole
    {!builder}; callers building many records hold one and use
    {!compute_with}. Raises [Invalid_argument] if the destination is
    out of range. *)

(** {2 Reusable computation scratch} *)

type builder
(** All O(n) scratch one statics build touches, hoisted so a caller
    computing many records (a streaming sweep at 36K+ nodes) allocates
    nothing per destination beyond the record it keeps. The build is
    one fused pass: customer routes by BFS up provider links, peer
    routes by walking the peers of that customer-route list in
    ascending length, provider routes by merging both ascending lists
    with a FIFO of provider-route nodes, then one pass over the nodes
    that appends, sorts and reverse-counts each tie row and places the
    length order. Single-domain state: keep one builder per worker,
    never share one across domains. *)

val make_builder : int -> builder
(** A builder for [n]-node graphs; {!compute_with} raises
    [Invalid_argument] on a node-count mismatch. *)

val compute_with :
  ?tiebreak:Policy.tiebreak ->
  ?transient:bool ->
  builder ->
  Asgraph.Graph.t ->
  int ->
  dest_info
(** {!compute} through a builder's scratch — bit-identical output.
    Every build assembles the record in builder-owned buffers. With
    [~transient:true] those buffers are the record: it is only valid
    until the builder's next compute (transient or not), and must
    never outlive the builder or be retained (the store's
    {!stream_get} promotes by deep copy). Otherwise the record is an
    exact-size copy that owns its memory.

    Precondition: the peer CSR of [g] is symmetric ([j] is in row [i]
    iff [i] is in row [j]); stage 2 finds a node's peer routes by
    walking the rows of its peers. {!Asgraph.Graph.build} — the only
    constructor of a graph, behind every loader and
    {!Asgraph.Graph.apply_delta} — guarantees it. *)

val class_of : dest_info -> int -> Policy.route_class
val length_of : dest_info -> int -> int
(** Path length of the node's best route; raises if unreachable. *)

val reachable : dest_info -> int -> bool

val sorted_for : dest_info -> Policy.tiebreak -> bool
(** Are this info's tie rows sorted under the given policy (so the
    row head is the TB winner)? *)

(** {2 Accessors over the compact layout} *)

val order_length : dest_info -> int
val order_get : dest_info -> int -> int
val iter_order : dest_info -> (int -> unit) -> unit

val tie_size : dest_info -> int -> int
val tie_get : dest_info -> int -> int -> int
(** [tie_get info i k] is the [k]-th member of node [i]'s row. *)

val tie_list : dest_info -> int -> int list
val tie_exists : dest_info -> int -> (int -> bool) -> bool
val tie_fold : dest_info -> int -> ('a -> int -> 'a) -> 'a -> 'a
val tie_mem : dest_info -> int -> int -> bool

val info_bytes : dest_info -> int
(** Approximate resident size of one record, in bytes — the unit of
    the statics byte budget. *)

val info_equal : dest_info -> dest_info -> bool
(** Bit-for-bit equality of two records: destination, tiebreak policy,
    class and length bytes, tie CSR (offsets and pre-sorted rows),
    reverse tiebreak CSR, and the length-sorted order. The contract of
    the incremental repair path: [repair] must be [info_equal] to a
    fresh {!compute} on the churned graph. *)

(** {2 Incremental repair under topology churn} *)

type kernel = Full | Delta
(** Statics maintenance strategy across a {!Asgraph.Graph.delta}:
    [Full] rebuilds from scratch, [Delta] patches per-destination
    records surgically where the churn provably cannot reach the
    destination's routing tree and falls back to {!compute} elsewhere.
    Both produce bit-identical results: [Delta] is the production
    kernel and [Full] the reference the parity suites hold it to. *)

val repair : Asgraph.Graph.t -> delta:Asgraph.Graph.delta -> dest_info -> dest_info
(** [repair g' ~delta info] is the statics of [info.dest] on the
    churned graph [g' = apply_delta g delta], given the statics on the
    pre-churn graph [g]. Bit-identical ({!info_equal}) to
    [compute ~tiebreak:info.tb g' info.dest]. Destinations whose
    routing tree the delta cannot reach are patched in O(copy) —
    appended stubs are spliced into the CSR rows, tie permutation,
    reverse CSR and length order without recomputation — otherwise the
    record is rebuilt by {!compute}. The input [info] is never
    mutated. Raises [Invalid_argument] if [info] or [g'] do not match
    [delta]. *)

val repair_surgical :
  Asgraph.Graph.t -> delta:Asgraph.Graph.delta -> dest_info -> dest_info option
(** The patch-only half of {!repair}: [None] when the delta reaches
    the destination's tree and a full rebuild is required. [Some info]
    (physically shared) when the delta provably cannot affect this
    destination at all. *)

val check_info : Asgraph.Graph.t -> dest_info -> (unit, string) result
(** Cheap structural self-check of one record against its graph — the
    degradation ladder's invariant probe. Verifies, in O(record size):
    CSR offset monotonicity and bounds for both tie CSRs, that [order]
    is a duplicate-free ascending-length permutation of exactly the
    reachable nodes starting at [dest], that [max_len] matches the
    last order entry, that every tie member is in range, and that
    [tie_rev] is the exact transpose of [tie] (compared as a multiset
    of (row, member) pairs via an order-insensitive sum/xor digest —
    collisions are possible in principle but not constructible by the
    single-byte corruptions the fault harness injects). [Error reason]
    names the first violated invariant. *)

(** {2 The whole-graph store} *)

type t
(** Whole-graph store of per-destination info, filled lazily, with an
    optional byte budget. Unbounded (the default) it is a plain cache:
    {!ensure_all} prefills it in parallel and {!get} is afterwards a
    read-only lookup, safe from any domain. Bounded, {!get} recomputes
    on miss and inserts under clock (second-chance) eviction; the
    store is striped into shards with per-shard budgets, hands and
    counters, aligned with the contiguous destination chunks the
    engine's workers claim ({!batch_grain}). Because {!compute} is
    pure and slot updates are single pointer stores, concurrent
    [get]s from several domains always return correct (bit-identical)
    info — only the {!stats} counters are best-effort under
    concurrency. *)

type stats = {
  hits : int;
  misses : int;  (** includes initial fills *)
  evictions : int;
  cached : int;  (** destinations currently resident *)
  cached_bytes : int;
  budget_bytes : int;  (** [max_int] when unbounded *)
}

val create : ?budget_bytes:int -> ?tiebreak:Policy.tiebreak -> Asgraph.Graph.t -> t
(** [budget_bytes <= 0] means unbounded. Default comes from the
    [SBGP_STATICS_MB] environment variable (megabytes; unset or [0] =
    unbounded). *)

val graph : t -> Asgraph.Graph.t
val get : t -> int -> dest_info
(** [get t d] returns the info for destination [d], computing it (and
    caching it, budget permitting) on miss. *)

val stream_get : t -> builder -> int -> dest_info
(** The whole-graph-sweep read path. Hit: same as {!get}. Miss:
    recompute through the caller's builder; under a budget the record
    is transient unless it fits the owning shard's remaining headroom
    without evicting anything, in which case a deep copy is promoted
    into the store. The cached set thus converges to a stable prefix
    of the budget instead of churning every round (clock eviction
    degenerates to 100% turnover when a sweep touches every
    destination once). A non-promoted return value is only valid until
    the builder's next compute. Bit-identical to {!get} at
    any budget and worker count ({!compute_with} is pure). *)

val batch_grain : t -> workers:int -> tasks:int -> int
(** Destinations per dynamically-claimed chunk for a whole-graph sweep
    over this store: keeps one worker inside one shard stripe long
    enough that shard state sees mostly single-writer traffic, while
    leaving enough chunks for dynamic claiming to rebalance. Floors at
    the gadget-scale grain of 8. *)

val stats : t -> stats
val bounded : t -> bool

val set_budget_bytes : t -> int -> unit
(** [<= 0] means unbounded. Shrinking trims the store immediately. *)

val set_budget_mb : t -> int -> unit

val ensure_tiebreak : t -> Policy.tiebreak -> unit
(** Make the store serve info whose tie rows are sorted under the
    given policy, dropping all cached entries if it differs from the
    current one. Call before handing the store to an engine run. *)

val ensure_all : ?workers:int -> t -> unit
(** Unbounded store: force every destination's info, fanning the
    (pure, per-destination) computations out over [workers] domains;
    after this call {!get} is a read-only lookup. Bounded store: no-op
    — prefilling would only evict what it just built; workers fill
    shards lazily through {!get}. *)

(** {2 Rebasing across topology churn} *)

type rebase_stats = {
  shared : int;  (** resident entries untouched by the delta, kept as-is *)
  patched : int;  (** resident entries repaired surgically *)
  dropped : int;  (** resident entries the churn reached, left for lazy recompute *)
  invalid : int;
      (** patched entries that failed the {!check_info} structural
          validation and were dropped for lazy recompute instead of
          being inserted — the degradation ladder's per-destination
          [delta -> full] statics demotion. Always [0] unless a fault
          plan (site [statics.repair]) or a real repair bug corrupts a
          patched record. *)
}

type journal
(** Snapshot of the pre-rebase store, for {!undo_rebase}. O(1) — the
    rebase never mutates the superseded slot space. *)

val rebase :
  ?kernel:kernel ->
  ?workers:int ->
  ?faults:Nsutil.Faults.t ->
  t ->
  delta:Asgraph.Graph.delta ->
  Asgraph.Graph.t ->
  journal
(** [rebase t ~delta g'] retargets the store at the churned graph
    [g' = apply_delta (graph t) delta] in place: fresh slot space and
    shard stripes sized for [g'] (the total byte budget is preserved),
    then — under the [Delta] kernel (the default) — every
    resident entry is migrated through {!repair_surgical}, re-inserted
    through the normal budget accounting so eviction state stays
    exact. The migration itself fans out over [workers] domains
    (default 1); inserts stay serial in a fixed order, so the
    resulting store is bit-identical at any worker count. Entries the
    churn reaches are dropped and recompute lazily
    against [g'] on their next {!get}, as do entries under [Full].
    Every surgically patched record is structurally validated
    ({!check_info}) before insertion; a record that fails — possible
    only under fault injection (site [statics.repair], which corrupts
    a freshly patched, never shared, record) or a repair bug — is
    dropped for lazy recompute and counted in [rebase_stats.invalid]:
    the outcome stays bit-identical because {!compute} is the
    reference the patch is contracted to equal.
    After a rebase the store never serves pre-churn info. Hit/miss/
    eviction counters restart from zero. Not thread-safe: call between
    engine runs, never concurrently with {!get}. Raises
    [Invalid_argument] when store or graph do not match [delta]. *)

val undo_rebase : t -> journal -> unit
(** Restore the store to its exact pre-rebase state (slots, reference
    bits, shard accounts, graph, tiebreak). Only meaningful with the
    journal of the store's most recent rebase. *)

val rebase_stats : journal -> rebase_stats

val revalidate : t -> (int * string) list
(** Checkpoint-boundary rung of the degradation ladder: run
    {!check_info} over every resident record, drop the ones that fail
    (their destinations recompute lazily — the [Full]-kernel behavior)
    and return [(dest, reason)] for each drop, ascending. Results stay
    bit-identical because {!compute} is the reference. Empty on a
    healthy store. Not thread-safe. *)

(** {3 Snapshots for churn-consistent checkpoints} *)

val snapshot : t -> string
(** Serialize the store's full warm state — resident records,
    reference bits, shard budgets/hands and the hit/miss/eviction
    counters, and the tiebreak policy — as an opaque blob, so a churn
    run resumed from a checkpoint reports byte-identical statics
    statistics to an uninterrupted one. The graph is {e not} included;
    pair the blob with however the caller persists/recomputes its
    graph. *)

val of_snapshot : Asgraph.Graph.t -> string -> t
(** Rebuild a store from {!snapshot} output onto [g], which must have
    the node count the snapshot was taken under (raises
    [Invalid_argument] otherwise). The blob is a [Marshal] image:
    callers must gate it behind an integrity check
    ({!Core.Checkpoint} does) before handing it here. *)

val rebase_changed : journal -> int list
(** Destinations (of the pre-churn graph, ascending) whose static info
    is not provably unchanged by the delta: patched or dropped
    entries, plus destinations that were not resident at rebase time.
    The complement — destinations omitted here — kept physically
    identical info, so any per-destination derived cache (forests,
    utility contributions) remains valid for them; feed this list to
    {!Core.Incremental.note_churn}. *)

(** Cross-round dirty-destination tracking for deployment-state
    caches. A consumer that caches *per-destination* derived data
    (routing forests, utility contributions) keyed on the deployment
    state can, after a state change, invalidate only the destinations
    whose security-aware routing tree can actually change: destination
    [d]'s tree reads the participation bytes of reachable nodes only
    (every node in [order], [d] itself, and all tiebreak-set members —
    which are themselves reachable), so a flip at a node that is
    unreachable in [d]'s static info cannot alter the tree; and if the
    origin [d] itself does not participate, no route towards it is
    ever fully secure, so flips elsewhere cannot alter the tree
    either.

    Deciding reachability needs [d]'s statics record, which under a
    byte budget may have to be rebuilt. So the check is split:
    {!invalidate} is an O(n) marking pass that reads no statics and
    leaves each candidate destination {e pending}; {!resolve} (or
    {!is_dirty} with [~fetch]) decides a pending destination on a
    record the caller fetches anyway — inside a parallel sweep, the
    one fetch per destination the sweep already makes. Resolution
    writes only [d]'s own flag byte and reads the changed set, which
    is immutable until the next {!invalidate}; so workers may resolve
    distinct destinations concurrently, and resolving twice is a
    no-op. *)
module Dirty : sig
  type statics := t

  type t

  val create : statics -> t
  (** All destinations start dirty (nothing cached yet). *)

  val invalidate : t -> changed:int list -> secure:Bytes.t -> unit
  (** Record [changed] (the nodes whose participation or tie-break
      byte flipped) as the set pending destinations resolve against,
      and mark every clean destination [d]: dirty if [d] itself is in
      [changed]; pending if its origin participates
      ([secure.[d] = '\001'], the post-change participation bytes) and
      [changed] is non-empty; clean otherwise. Destinations still
      pending from an earlier call become dirty. Reads no statics;
      O(n + |changed|). *)

  val resolve : t -> int -> dest_info -> unit
  (** [resolve t d info], with [info] destination [d]'s statics
      record: a pending [d] becomes dirty iff some node of the changed
      set is reachable in [info] (scanning the smaller of the changed
      set and [info]'s order), clean otherwise. No-op unless [d] is
      pending. Conservative: may mark a destination whose tree happens
      not to change, never misses one that does. *)

  val reset : t -> unit
  (** Mark every destination clean (call once the consumer has
      recomputed its cache for the current state). *)

  val mark : t -> int -> unit
  (** Mark one destination dirty unconditionally — used for topology
      churn, where the destination's static info (not just the
      deployment state) changed. *)

  val is_dirty : ?fetch:(unit -> dest_info) -> t -> int -> bool
  (** Whether [d] must be recomputed, resolving it first if pending:
      on [fetch ()] when given (which must return [d]'s record), else
      on a serial read of the store — a private builder for an
      evicted record under a budget, so the budget's resident set is
      not churned. Without [fetch], not safe to call concurrently. *)

  val dirty_count : t -> int
  (** The number of dirty destinations, resolving any still-pending
      ones serially through one builder. Once every destination has
      been resolved (a completed sweep), a pure byte count that reads
      no statics. *)
end

val mean_tiebreak_size : t -> among:(int -> bool) -> float
(** Mean tiebreak-set size over all (source satisfying [among],
    destination) pairs with a reachable route (Section 6.6). Forces
    every destination. *)

val mean_path_length : t -> from:int -> float
(** Mean best-path length from [from] to all other reachable
    destinations (Table 3). *)
