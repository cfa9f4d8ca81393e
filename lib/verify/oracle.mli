(** Differential oracle: the pure interpreter is ground truth.

    Runs a guest program through [Frontend.Interp] and through the full
    dynamic-optimization driver under one or more schemes — optionally
    with a fault-injection {!Fault.plan} layered over each scheme's
    detector — and compares final guest state (registers and memory,
    via [Vliw.Machine.equal_guest_state]).  The first divergence is
    reported as a structured diff; fault and recovery counters ride
    along so campaigns can report recovery overhead. *)

type entry = {
  scheme : string;
  outcome : Runtime.Driver.outcome;
  stats : Runtime.Stats.t;
  injected : int;  (** faults injected into this run *)
  divergence : string list;
      (** empty = final guest state matches the interpreter;
          otherwise [Vliw.Machine.diff_guest_state] lines, optimized
          run vs. oracle *)
}

type report = {
  program : string;  (** label for messages *)
  entries : entry list;
}

val entry_static_ok : entry -> bool
(** The run's static verifier rejected no region (vacuously true with
    verification off). *)

val entry_cert_ok : entry -> bool
(** No non-injected alias fault landed on a statically certified pair
    (vacuously true with certification off). *)

val entry_ok : entry -> bool
(** Completed, converged to the oracle's state, and no static
    rejections — the dynamic and static verdicts must agree that the
    run was sound. *)

val ok : report -> bool

val reference : ?fuel:int -> Ir.Program.t -> Vliw.Machine.t
(** Final machine state of the pure interpreter ([fuel] in
    instructions, default 200,000,000). *)

val run_scheme :
  ?fuel:int ->
  ?tcache_policy:Tcache.Policy.t ->
  ?tcache_capacity:int ->
  ?fault:Fault.plan ->
  ?verify:Check.Verifier.mode ->
  ?certify:bool ->
  scheme:Smarq.Scheme.t ->
  Ir.Program.t ->
  Runtime.Driver.result * int
(** One optimized run, with [fault]'s detector wrapper and driver
    hooks installed when given.  Returns the driver result and the
    number of faults the plan injected {e during this run}.  [fuel]
    is in guest blocks (default 1e9); the machine configuration is the
    scheme's own ([Smarq.config_for]). *)

val check :
  ?fuel:int ->
  ?fault:(seed:int -> rate:float -> unit -> Fault.plan) ->
  ?verify:Check.Verifier.mode ->
  ?certify:bool ->
  ?seed:int ->
  ?rate:float ->
  ?name:string ->
  schemes:Smarq.Scheme.t list ->
  Ir.Program.t ->
  report
(** The differential check: interpret once, then run every scheme and
    diff its final state against the oracle's.  When [fault] is given
    (e.g. [Fault.plan]), a {e fresh} plan is built from [seed]
    (default 1) and [rate] (default 0.05) for each scheme, so every
    scheme faces the same campaign.  Schemes run sequentially in list
    order; the whole report is deterministic. *)

val pp_entry : Format.formatter -> entry -> unit
val pp_report : Format.formatter -> report -> unit
