(** Reference static-route kernel: the three-stage Gao-Rexford
    computation (customer routes by BFS up provider links, peer routes
    by a scan of every node's peers, provider routes through a bucket
    queue keyed by final length), with routes longer than
    {!Bgp.Route_static.max_path_len} dropped at every stage. Kept as a
    test oracle for {!Bgp.Route_static.compute_with}: it walks the
    graph through [Asgraph.Graph]'s iterators and shares no code with
    the library kernel. *)

type t = {
  dest : int;
  cls : Bytes.t;  (** {!Bgp.Policy.class_to_char} encoding *)
  len : Bytes.t;  (** ['\000'] for unreachable nodes *)
  tie_off : int array;
  tie : int array;  (** rows stable-sorted by [Policy.tiebreak_key] *)
  tie_rev_off : int array;
  tie_rev : int array;  (** rows in descending [order] position *)
  order : int array;  (** reachable nodes, ascending (length, id) *)
  tb : Bgp.Policy.tiebreak;
  max_len : int;
}

val compute : ?tiebreak:Bgp.Policy.tiebreak -> Asgraph.Graph.t -> int -> t
(** Static info for one destination (default tiebreak [Lowest_id]). *)

val diff : t -> Bgp.Route_static.dest_info -> string option
(** [None] when the library record holds exactly the reference bits in
    every field {!Bgp.Route_static.info_equal} compares; otherwise the
    name of the first field that differs. *)
