(** Order-based alias register queue (Sections 2.4 and 3 of the paper).

    Alias registers form an ordered circular queue of [size] entries
    addressed by an {e offset} relative to a rotating [BASE] pointer.
    A memory operation annotated [Queue {offset; p; c}]:

    - with the C bit, checks every {e set} register whose queue order
      is at-or-after its own register's order — this implements the
      ORDERED-ALIAS-DETECTION-RULE: X checks Y iff Y executed earlier,
      Y has P, X has C, and [order(X) <= order(Y)].  Registers set by
      loads are never checked by loads (hardware marks them);
    - with the P bit, then stores its access range into the register at
      [offset] (check happens before set, so an operation never checks
      itself).

    [rotate n] advances [BASE] by [n], freeing the [n] registers that
    slide off the front of the window.  [amov ~src ~dst] moves the
    range held at offset [src] to offset [dst] and clears [src]
    ([src = dst] just clears).

    Internally the registers form a ring of [size] slots: the register
    at logical order [base + offset] (the paper's
    [order(X) = base(X) + offset(X)] invariant) lives in slot
    [order mod size].  [reset] is O(1) (a generation stamp invalidates
    every slot), [rotate] only advances [BASE], and a check scans the
    orders from the checker's own up to the highest live one, lowest
    first, stopping at the first conflict.  A violation therefore names
    the lowest-order conflicting register, and {!checks_performed}
    counts the qualifying registers compared up to and including that
    conflict. *)

type t

val create : size:int -> t
(** Raises [Invalid_argument] if [size <= 0]. *)

val size : t -> int
val base : t -> int
(** Current logical BASE (total rotation since last reset). *)

val detector : t -> Detector.t
(** Wrap the queue as a generic detector named ["smarq<size>"]. *)

val reset : t -> unit

val on_mem : t -> Ir.Instr.t -> Access.t -> (unit, Detector.violation) result
(** Performs the checks/sets implied by the instruction's annotation.
    Instructions without a [Queue] annotation are ignored.  Raises
    [Invalid_argument] if an annotation offset falls outside the
    register window (software overflow bug). *)

val rotate : t -> int -> unit
val amov : t -> src:int -> dst:int -> unit

val live_entries : t -> (int * Access.t * int) list
(** [(order, range, setter_id)] of every set register, for tests and
    debugging. *)

val checks_performed : t -> int
