(** Architectural state: register file and byte-addressed sparse memory,
    with checkpoint/rollback support for atomic-region execution.

    Registers live in one dense array indexed by register; memory is
    a page table of fixed-size [Bytes] pages, so the simulator's
    innermost loads and stores touch flat storage instead of hashing.
    Values are plain OCaml integers; loads and stores move [width]
    little-endian bytes so overlapping accesses of different widths
    interact exactly as alias detection expects.  Checkpoints journal
    the previous value of each touched word and register, so checkpoint
    is O(1) and rollback cost is proportional to the region's write
    footprint, never to total state size. *)

type t

val create : unit -> t

val copy : t -> t
(** Deep copy (registers and memory) — used to run a reference
    interpreter beside the optimized execution in equivalence tests. *)

val get_reg : t -> Ir.Reg.t -> int
(** Unwritten registers read 0. *)

val set_reg : t -> Ir.Reg.t -> int -> unit

val load : t -> addr:int -> width:int -> int
(** Little-endian; unwritten bytes read 0.  Raises [Invalid_argument]
    for non-positive width or widths above 8. *)

val store : t -> addr:int -> width:int -> int -> unit

val checkpoint : t -> unit
(** Begin journaling.  Raises [Invalid_argument] if a checkpoint is
    already active (regions do not nest). *)

val commit : t -> unit
(** Discard the active checkpoint, keeping all effects. *)

val rollback : t -> unit
(** Restore state to the active checkpoint. *)

val in_region : t -> bool

(** {2 Predecoded region code}

    A translated region's bundles, decoded once into flat int arrays
    (opcode and operands, registers resolved to register-file indices,
    immediates inline) and run by a loop that allocates nothing per op
    except the {!Hw.Access.t} handed to the alias detector. *)

type code

val compile : Ir.Instr.t list array -> code
(** Predecode bundles (index = issue cycle).  The caller validates the
    region first: raises [Invalid_argument] on a [Jump], a memory width
    outside 1..8 or a negative register index. *)

type stop =
  | Fell_through  (** ran past the last bundle *)
  | Side_exit of Ir.Instr.label  (** a taken branch or an exit *)
  | Fault of Hw.Detector.violation  (** the detector reported a conflict *)

type run = {
  stop : stop;
  issued : int;  (** bundles issued, counting the one that stopped *)
  stalls : int;  (** cache stall cycles *)
}

val execute :
  t -> code -> detector:Hw.Detector.t -> cache:Cache.t option -> run
(** Run predecoded code inside the active region (see {!checkpoint}),
    with the same effects, in the same order, as evaluating each
    instruction with {!Eval}: a memory op touches [cache], then asks
    the detector, then (if no conflict) performs its access; [Rotate]
    and [Amov] go to the detector.  Execution stops at the first taken
    side exit or fault and never commits or rolls back itself.  Raises
    [Invalid_argument] outside a region. *)

val equal_guest_state : t -> t -> bool
(** Registers (guest-visible only) and memory agree.  Optimizer
    temporaries are excluded — they are dead outside regions.  Compares
    dense state directly, order-insensitively: no sorting, no
    intermediate lists. *)

val diff_guest_state : t -> t -> string list
(** Human-readable discrepancies, for test failure messages. *)

val dump_regs : t -> (Ir.Reg.t * int) list
(** Non-zero guest registers in [Ir.Reg.compare] order.  Cold path:
    walks the register file; for equality use {!equal_guest_state}. *)

val dump_mem : t -> (int * int) list
(** Non-zero bytes, sorted by address.  Cold path: walks every resident
    page; for equality use {!equal_guest_state}. *)
