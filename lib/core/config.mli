(** Simulation parameters (Sections 3.2-3.3, 6.2). *)

type utility_model =
  | Outgoing  (** Eq. 1: traffic forwarded *to* customers *)
  | Incoming  (** Eq. 2: traffic received *from* customers *)

type flip_kernel =
  | Flip_full
      (** probe each admitted candidate with a full O(t·N)
          {!Bgp.Forest.compute} (the reference kernel, and the
          degradation ladder's fallback) *)
  | Flip_delta
      (** probe with {!Bgp.Forest.repair}: start from the
          destination's base forest and re-decide only the frontier
          the flip actually reaches — bit-identical results, an order
          of magnitude less work per probe *)

type t = {
  theta : float;  (** deployment threshold of Eq. 3, e.g. 0.05 *)
  theta_off : float;  (** threshold for disabling (same rule, flip down) *)
  model : utility_model;
  stub_tiebreak : bool;  (** do simplex stubs apply the SecP step (§6.7) *)
  tiebreak : Bgp.Policy.tiebreak;
  cp_fraction : float;  (** x: share of traffic originated by the CPs *)
  max_rounds : int;
  allow_turn_off : bool;
      (** consider disabling S*BGP; pointless under [Outgoing]
          (Theorem 6.2) and on by default under [Incoming] *)
  disable_secp : bool;
      (** ablation: security never influences route selection
          (removes the Section 2.2.2 requirement) *)
  disable_simplex : bool;
      (** ablation: secure ISPs do not upgrade their stub customers
          (removes simplex S*BGP, Section 2.2.1) *)
  theta_jitter : float;
      (** Section 8.2 extension: per-ISP heterogeneity in the
          deployment threshold. Each ISP i uses
          theta_i = theta * (1 + theta_jitter * u_i) with
          u_i ~ U[-1, 1] drawn from [jitter_seed]; 0 recovers the
          paper's uniform-theta sweeps. *)
  jitter_seed : int;
  workers : int;
      (** domains for the per-destination engine sweeps
          ({!Parallel.Pool}); results are identical for every value.
          Defaults to [Parallel.Pool.default_workers ()] (the
          [SBGP_WORKERS] environment variable when set). *)
  retries : int;
      (** per-chunk retry budget for the supervised engine sweeps
          (see {!Parallel.Pool.supervision}); like [workers], has no
          effect on results — only on whether a faulty run survives. *)
  flip_kernel : flip_kernel;
      (** which candidate-probe kernel the sweep uses; results are
          bit-identical for both (enforced by the parity suite), so —
          like [workers] — it is excluded from checkpoint digests.
          [Flip_delta] is the production kernel and the default;
          [Flip_full] is the reference the parity and chaos suites
          select, and the kernel the degradation ladder demotes a
          destination to. No option or environment variable sets
          it. *)
  statics_kernel : Bgp.Route_static.kernel;
      (** how the per-destination statics store is maintained across
          topology churn (the Section 8.4 evolution epochs):
          [Full] rebuilds every destination each epoch, [Delta]
          migrates the warm store through
          {!Bgp.Route_static.rebase}, repairing only destinations the
          churn reaches. Bit-identical results (enforced by the churn
          differential in the parity suite), so — like [flip_kernel] —
          it is excluded from checkpoint digests. Defaults to [Delta];
          [Full] is the reference the parity and chaos suites
          select. *)
  task_timeout_ms : int;
      (** watchdog deadline for the supervised engine sweeps
          ({!Parallel.Pool.supervision}): a worker making no
          progress for this long is cancelled and re-executed. [0]
          (the default) disables the watchdog. Like [workers] and
          [retries], has no effect on results — only on whether a
          hung run recovers — so it is excluded from checkpoint
          digests. Defaults to [SBGP_TASK_TIMEOUT_MS] (milliseconds)
          when set. *)
  degrade : bool;
      (** graceful-degradation ladder (default off): on repeated
          supervision failure of the sweep, or on a CSR invariant
          violation in a statics record, the engine demotes the
          delta flip/statics kernels to their full counterparts for
          the affected destinations and continues — recording the
          demotions in {!Engine.result} — instead of crashing. Off,
          those conditions raise as before. Bit-identical results
          either way (the full kernels are the reference), so it is
          excluded from checkpoint digests. *)
}

val default : t
(** The Section 5 case-study parameters: θ = 5%, outgoing utility,
    stubs break ties, hashed tie break, x = 10%. *)

val incoming : t
(** [default] switched to the incoming-utility model with turn-off
    enabled. *)

val utility_model_to_string : utility_model -> string
