(** List scheduler with integrated alias-register allocation.

    Classic cycle-driven list scheduling over the hazard edges
    (critical-path priority, issue-width and memory-port limits, one
    branch per cycle), extended with the two SMARQ integrations of
    Section 5.3:

    - every scheduled memory operation is reported to the
      {!Smarq_alloc} allocator, which builds constraints and allocates
      register orders on the fly;
    - before each cycle the scheduler asks the allocator for overflow
      risk; while risk is high it runs in {e non-speculation mode},
      forcing memory operations to issue in original program order so
      no new reordering constraints (hence no new registers) appear.

    On completion the issue sequence is materialized into VLIW bundles
    with AMOV insertions, rotations, and per-operation annotations for
    the selected scheme. *)

type stats = {
  schedule_length : int;
  instr_count : int;
  mem_ops : int;
  p_bits : int;
  c_bits : int;
  check_constraints : int;
  anti_constraints : int;
  amov_fresh : int;  (** AMOVs that needed a new register *)
  amov_clear : int;  (** AMOVs that only clear the source *)
  ar_working_set : int;  (** max alias-register offset + 1 *)
  dropped_pairs : int;  (** speculated may-alias dependences *)
  used_nonspec_mode : bool;
}

type outcome = {
  region : Ir.Region.t;
  alloc_result : Smarq_alloc.result option;  (** queue scheme only *)
  stats : stats;
  hazards : Hazards.t;
      (** the hazard graph the schedule was built against, kept for
          translation validation ({!Check.Verifier}) *)
  issue_seq : (int * Ir.Instr.t) list;
      (** (cycle, instruction) in issue order — the schedule before
          materialization splices AMOV/ROTATE ops in *)
}

exception Unschedulable of string

type issued = {
  seq : (int * Ir.Instr.t) list;  (** (cycle, instruction), newest first *)
  length : int;  (** cycles *)
}

(** A scheduling core: the issue sequence, and whether non-speculation
    mode was used. *)
type core =
  sb:Ir.Superblock.t ->
  hazards:Hazards.t ->
  heights:(int, int) Hashtbl.t ->
  issue_width:int ->
  mem_ports:int ->
  latency:(Ir.Instr.t -> int) ->
  alloc:Smarq_alloc.t option ->
  issued * bool

val schedule_core : core
(** The incremental ready-queue core; bit-identical to the seed's
    per-cycle rescan, which the test oracle keeps. *)

val schedule :
  build_hazards:Hazards.builder ->
  core:core ->
  sb:Ir.Superblock.t ->
  deps:Analysis.Depgraph.t ->
  policy:Policy.t ->
  issue_width:int ->
  mem_ports:int ->
  latency:(Ir.Instr.t -> int) ->
  fresh_id:int ref ->
  ?extra_assumed:(int * int) list ->
  ?profile:Profile.t ->
  ?arena:Analysis.Arena.t ->
  unit ->
  outcome
(** [extra_assumed] lists speculation assumptions made by earlier
    optimization passes (eliminations); they are recorded in the
    region together with the dropped dependence pairs.  May raise
    {!Smarq_alloc.Overflow} when even non-speculation mode cannot fit
    the physical alias registers — callers fall back to a
    non-speculative build of the region.

    [build_hazards] and [core] are the swappable phases (see
    [Opt.Optimizer.PHASES]).  [profile] accumulates per-phase
    translation timers when given; [arena] is lent to [build_hazards]. *)
