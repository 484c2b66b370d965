(** Reference dirty-destination check: the eager serial scan that
    {!Bgp.Route_static.Dirty} splits into a marking pass and a lazy
    per-destination [resolve]. Kept as a test oracle: the fused check
    must produce exactly this dirty set. *)

val invalidate :
  Bgp.Route_static.t -> changed:int list -> secure:Bytes.t -> bool array
(** [invalidate statics ~changed ~secure] is the dirty set after a
    round whose participation or tie-break bytes flipped at the nodes
    of [changed] ([secure] holds the post-change participation bytes),
    starting from an all-clean cache: [d] is dirty iff [d] is in
    [changed], or [d]'s origin participates and some node of
    [changed] is reachable in [d]'s statics. Reads every such record
    before returning — under a budget, evicted ones are rebuilt
    through a private builder. *)
