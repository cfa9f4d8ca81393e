(** The dynamic optimizer: superblock in, translated region out.

    Pipeline: may-alias analysis → speculative eliminations → dependence
    graph (with extended dependences) → list scheduling with integrated
    alias-register allocation → region materialization.

    [known_alias] carries pairs learned from alias exceptions; they are
    treated as must-alias, which disables both the reordering and the
    eliminations that speculated on them — the paper's conservative
    re-optimization.

    When the allocator overflows the physical alias registers (or the
    mask encoding), the optimizer falls back to a fully
    non-speculative build of the same superblock and reports it. *)

type opt_stats = {
  sched_stats : Sched.List_sched.stats;
  loads_eliminated : int;
  stores_eliminated : int;
  fell_back : bool;  (** overflow forced a non-speculative rebuild *)
  work_units : int;  (** IR instructions processed, for overhead accounting *)
}

type t = {
  region : Ir.Region.t;
  alloc_result : Sched.Smarq_alloc.result option;
  stats : opt_stats;
  deps : Analysis.Depgraph.t;
      (** dependence graph of the final (post-elimination) body *)
  hazards : Sched.Hazards.t;
      (** hazard graph the schedule was built against *)
  issue_seq : (int * Ir.Instr.t) list;
      (** (cycle, instruction) issue order before materialization *)
  policy_used : Sched.Policy.t;
      (** policy of the attempt that actually produced the region —
          differs from the requested policy after an overflow fallback *)
  cert : Analysis.Disamb.t option;
      (** alias certificate: proof witnesses for every pair upgraded to
          no-alias, present iff the producing attempt's policy had
          [certify] set.  [Check.Verifier] replays these witnesses
          independently; the region's [certified_no_alias] list is the
          runtime-facing projection. *)
}

(** A self-contained translation request: everything [optimize] reads,
    captured at the moment the driver would have translated.  Replaying
    a request is deterministic and independent of every other request —
    the basis for parallel translation ({!Exec.Translate}). *)
type request = {
  sb : Ir.Superblock.t;
  policy : Sched.Policy.t;
  known_alias : (int * int) list;
  fresh_base : int;  (** driver id counter at capture time *)
}

(** The three phases with a seed implementation kept as a test oracle.
    The product includes {!Make} applied to the fast ones; the oracle
    applies it to the seed's, so everything else stays one copy. *)

module type PHASES = sig
  val depgraph :
    body:Ir.Instr.t list ->
    alias:Analysis.May_alias.t ->
    ?eliminated:(Analysis.Depgraph.elimination * Ir.Instr.t list) list ->
    ?arena:Analysis.Arena.t ->
    unit ->
    Analysis.Depgraph.t

  val hazards : Sched.Hazards.builder
  val schedule_core : Sched.List_sched.core
end

module type S = sig
  val optimize :
    policy:Sched.Policy.t ->
    issue_width:int ->
    mem_ports:int ->
    latency:(Ir.Instr.t -> int) ->
    fresh_id:int ref ->
    ?known_alias:(int * int) list ->
    ?profile:Sched.Profile.t ->
    ?arena:Analysis.Arena.t ->
    Ir.Superblock.t ->
    t
  (** [profile], when given, accumulates per-phase translation timers
      and per-region instruction counts across every attempt (including
      fallback rebuilds).  [arena] lends the depgraph and hazard
      builders reusable scratch buffers; one arena serves one sequence
      of translations and must never be shared between domains. *)

  val run_request :
    issue_width:int ->
    mem_ports:int ->
    latency:(Ir.Instr.t -> int) ->
    ?profile:Sched.Profile.t ->
    ?arena:Analysis.Arena.t ->
    request ->
    t
  (** Replay a captured request; bit-identical to the optimize call it
      was captured from. *)
end

module Make (Phases : PHASES) : S

val work_units : Ir.Superblock.t -> int
(** The [work_units] of any translation of this superblock: it depends
    on the superblock alone, not on policy or known pairs. *)

include S
(** Over {!Analysis.Depgraph.build}, {!Sched.Hazards.build} and
    {!Sched.List_sched.schedule_core}. *)
