(** Translated, scheduled regions — the unit of atomic execution.

    A region is the output of the optimizer for one superblock: VLIW
    bundles (one instruction list per issue cycle) whose memory
    operations carry alias annotations, possibly interleaved with
    [Rotate] and [Amov] alias-queue management instructions.

    Regions also carry the bookkeeping the runtime needs to handle an
    alias exception: which pair of original memory operations each
    check corresponds to is recoverable from the hardware model, and
    [assumed_no_alias] lists the speculation assumptions that a
    conservative re-optimization must drop. *)

type t = {
  entry : Instr.label;  (** guest label this region translates *)
  bundles : Instr.t list array;  (** index = issue cycle *)
  final_exit : Instr.label option;
  ar_window : int;  (** max alias-register offset used + 1 *)
  assumed_no_alias : (int * int) list;
      (** pairs of original instruction ids speculated disjoint *)
  certified_no_alias : (int * int) list;
      (** pairs statically {e proven} disjoint by the alias certifier;
          an alias fault on one of these is a hard soundness error,
          not a mis-speculation *)
  source : Superblock.t;  (** the superblock this region was built from *)
}

val make :
  entry:Instr.label ->
  bundles:Instr.t list array ->
  final_exit:Instr.label option ->
  ar_window:int ->
  assumed_no_alias:(int * int) list ->
  source:Superblock.t ->
  unit ->
  t
(** A region with no certified pairs: [certified_no_alias] is filled
    in afterwards, only when the alias certifier runs. *)

val schedule_length : t -> int
(** Number of issue cycles. *)

val instrs : t -> Instr.t list
(** All instructions in issue order (bundle by bundle). *)

val instr_count : t -> int
val memory_op_count : t -> int
val pp : Format.formatter -> t -> unit
