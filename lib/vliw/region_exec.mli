(** Atomic execution of a translated region on the VLIW.

    A region is first predecoded ({!predecode}) into flat code, once
    per installed translation; malformed regions are rejected there
    with a typed {!rejection} instead of failing mid-region.  Executing
    it ({!exec}) creates a checkpoint, resets the alias-detection unit,
    then issues the region's bundles in order.  Memory operations feed
    their runtime access range to the detector; a reported violation
    raises an alias exception: the machine rolls back to the checkpoint
    and the outcome names the offending instruction pair so the runtime
    can re-optimize.  A taken side exit commits (the scheduler
    guarantees committed state is exact at every side exit) and leaves
    towards the guest label.  Falling off the end commits and continues
    at the region's final exit.

    Cycle accounting: checkpoint cost + one cycle per bundle (the list
    scheduler already folded latencies and resource limits into bundle
    placement) + rollback penalty on an exception. *)

type outcome =
  | Committed of Ir.Instr.label option
      (** ran to a (side or final) exit; [None] means program end *)
  | Alias_fault of Hw.Detector.violation  (** rolled back *)
  | Window_overflow of string
      (** rolled back: the detector rejected an alias register offset
          outside its own queue (a hardware model with fewer registers
          than the machine's window); carries the detector's message *)

type result = {
  outcome : outcome;
  cycles : int;  (** includes cache stall cycles when a cache is given *)
  alias_checks : int;  (** range comparisons performed by the detector *)
}

(** Why a region cannot run on this machine: a software allocation or
    translation bug, reported before any of it executes. *)
type rejection =
  | Window_exceeds_machine of {
      ar_window : int;
      alias_registers : int;
    }  (** the region needs more alias registers than the machine has *)
  | Offset_outside_window of {
      id : int;
      offset : int;
      ar_window : int;
    }  (** a [Queue] annotation or [Amov] offset outside [0, ar_window) *)
  | Jump_in_region of { id : int }  (** regions are straight-line *)
  | Bad_width of {
      id : int;
      width : int;
    }  (** a memory access width outside 1..8 *)

val pp_rejection : Format.formatter -> rejection -> unit

type decoded
(** A validated, predecoded region: its code and final exit.  It does
    not keep the {!Ir.Region.t} it was decoded from. *)

val predecode : config:Config.t -> Ir.Region.t -> (decoded, rejection) Stdlib.result
(** Validate the region against [config] and decode it for {!exec}. *)

val final_exit : decoded -> Ir.Instr.label option

val exec :
  config:Config.t ->
  detector:Hw.Detector.t ->
  machine:Machine.t ->
  ?cache:Cache.t ->
  decoded ->
  result
(** Run a predecoded region atomically.  Reads the detector's
    [checks_performed] before its [reset] and once more after the
    region commits or rolls back.  A detector that raises
    [Invalid_argument] yields [Window_overflow], charged the checkpoint
    and rollback penalties; any other exception is re-raised after the
    rollback, so no region is ever left open. *)

val run :
  config:Config.t ->
  detector:Hw.Detector.t ->
  machine:Machine.t ->
  ?cache:Cache.t ->
  Ir.Region.t ->
  (result, rejection) Stdlib.result
(** [predecode], then [exec]: for one-off executions (tests, examples).
    The runtime predecodes each translation once at install instead. *)
