(** The regression gate behind [main.exe --compare]: a fresh kernel
    suite document against a committed baseline.

    A comparison only means something between runs of the same shape,
    so both documents carry a key ({!key_fields}) and a baseline whose
    key differs in any field is refused outright rather than compared.
    At a matching key, every baseline kernel must be present in the
    fresh run and no slower than {!kernel_tolerance} times its baseline
    ns/op, and the fresh peak RSS must be within {!rss_tolerance} of
    the baseline's. *)

val key_fields : string list
(** [schema], [n], [seed], [workers], [smoke], [nproc]. *)

val kernel_tolerance : float
(** 2.0: the largest fresh/baseline ns/op ratio that passes. *)

val rss_tolerance : float
(** 2.0: the largest fresh/baseline [peak_rss_kb] ratio that passes. *)

type verdict =
  | Refused of string list
      (** One message per key field that differs (or is missing),
          each naming the field. Nothing was compared. *)
  | Checked of { lines : string list; failures : string list }
      (** [lines] reports every compared figure; the gate passes iff
          [failures] is empty. *)

val check : fresh:Nsobs.Jsonv.t -> baseline:Nsobs.Jsonv.t -> verdict
