(** Execution-count profiling for hot-region detection.

    The dynamic optimization system interprets cold code while counting
    basic-block executions; when a block's count crosses
    [hot_threshold] it becomes a region seed (Section 6: "when a hot
    block is identified ... the dynamic optimizer forms a region along
    the hot execution paths ... until it reaches a cold block"). *)

type t

val create : ?hot_threshold:int -> unit -> t
(** [hot_threshold] defaults to 50 executions; a block is {e cold}
    relative to a seed when its count is below a quarter of the seed's
    count. *)

val note_execution : t -> Ir.Instr.label -> unit

val note_edge : t -> Ir.Instr.label -> Ir.Instr.label -> unit
(** Record one traversal of the control edge [from -> to].  Region
    formation prefers these measured counts to a conditional's static
    [taken_probability] hint. *)

val edge_bias :
  t -> from_:Ir.Instr.label -> taken:Ir.Instr.label ->
  fallthrough:Ir.Instr.label -> float option
(** Profiled probability of the taken arm; [None] until at least 16
    traversals of the conditional have been observed. *)

val count : t -> Ir.Instr.label -> int
val is_hot : t -> Ir.Instr.label -> bool
val is_cold_relative : t -> seed_count:int -> Ir.Instr.label -> bool
val hot_threshold : t -> int
