(* Architectural state on the hot path of the simulator.

   Registers live in one dense [int array] of slots: [R i], [F i] and
   [T i] sit at [3i], [3i + 1] and [3i + 2], so every register of every
   class has a fixed index without any class ever colliding with
   another.  Memory lives in fixed-size [Bytes] pages hung off a page
   table keyed by [addr asr page_bits].  Unwritten registers and bytes
   read 0, so a missing page is indistinguishable from a page of zeros
   and rollback may restore a byte to 0 instead of removing it.  A
   one-entry page cache short-circuits the table lookup for the
   streaming accesses that dominate region execution.

   Atomic regions journal the previous value of every touched word and
   register into a growable [int array] of (tag, key, previous value)
   triples, so checkpoint is O(1), journaling allocates nothing, and
   rollback is O(journal), never O(whole state).

   Translated regions run here too, predecoded into flat int arrays
   ({!compile}, {!execute}).  The per-op loop and every register,
   memory and journal primitive it touches share this compilation unit
   so the compiler can inline them even when cross-module inlining is
   off (dune's dev profile passes [-opaque]). *)

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

type t = {
  mutable regs : int array;  (* indexed by [slot] *)
  pages : (int, Bytes.t) Hashtbl.t;
  mutable cached_idx : int;  (* page cache; [min_int] = empty *)
  mutable cached_page : Bytes.t;
  mutable journaling : bool;  (* a region is active *)
  mutable journal : int array;
  mutable jlen : int;  (* used prefix of [journal], a multiple of 3 *)
}

(* journal tags: a register write, or a memory write of [tag] bytes *)
let tag_reg = 0

let[@inline] slot = function
  | Ir.Reg.R i -> 3 * i
  | Ir.Reg.F i -> (3 * i) + 1
  | Ir.Reg.T i -> (3 * i) + 2

let create () =
  {
    regs = Array.make (3 * 64) 0;
    pages = Hashtbl.create 16;
    cached_idx = min_int;
    cached_page = Bytes.empty;
    journaling = false;
    journal = Array.make 96 0;
    jlen = 0;
  }

let copy t =
  let pages = Hashtbl.create (Hashtbl.length t.pages * 2) in
  Hashtbl.iter (fun idx page -> Hashtbl.replace pages idx (Bytes.copy page)) t.pages;
  { (create ()) with regs = Array.copy t.regs; pages }

(* -- undo journal -- *)

let grow_journal t =
  let j = Array.make (2 * Array.length t.journal) 0 in
  Array.blit t.journal 0 j 0 t.jlen;
  t.journal <- j

let[@inline] push t tag key prev =
  let n = t.jlen in
  if n + 3 > Array.length t.journal then grow_journal t;
  let j = t.journal in
  Array.unsafe_set j n tag;
  Array.unsafe_set j (n + 1) key;
  Array.unsafe_set j (n + 2) prev;
  t.jlen <- n + 3

(* -- registers -- *)

let grown a i =
  let n = Array.length a in
  let a' = Array.make (Int.max (i + 1) (n * 2)) 0 in
  Array.blit a 0 a' 0 n;
  a'

let get_reg t r =
  let s = slot r in
  if s < Array.length t.regs then t.regs.(s) else 0

let set_reg t r v =
  let s = slot r in
  if s >= Array.length t.regs then t.regs <- grown t.regs s;
  if t.journaling then push t tag_reg s t.regs.(s);
  t.regs.(s) <- v

(* -- memory -- *)

external big_endian : unit -> bool = "%big_endian"
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

let check_width width =
  if width <= 0 || width > 8 then
    invalid_arg (Printf.sprintf "Machine: unsupported access width %d" width)

(* [asr] floors, so page indices work unchanged for negative addresses:
   page p covers [p * page_size, (p + 1) * page_size). *)
let page_index addr = addr asr page_bits

let find_page t idx =
  if idx = t.cached_idx then Some t.cached_page
  else
    match Hashtbl.find_opt t.pages idx with
    | Some page ->
      t.cached_idx <- idx;
      t.cached_page <- page;
      Some page
    | None -> None

let ensure_page t idx =
  match find_page t idx with
  | Some page -> page
  | None ->
    let page = Bytes.make page_size '\000' in
    Hashtbl.replace t.pages idx page;
    t.cached_idx <- idx;
    t.cached_page <- page;
    page

(* Little-endian [width]-byte value at [off] of one page, zero-extended
   (an 8-byte value keeps its low 63 bits, like an OCaml int). *)
let read_page page off width =
  match width with
  | 4 ->
    let v = get32 page off in
    Int32.to_int (if big_endian () then swap32 v else v) land 0xFFFF_FFFF
  | 8 ->
    let v = get64 page off in
    Int64.to_int (if big_endian () then swap64 v else v)
  | 1 -> Char.code (Bytes.unsafe_get page off)
  | 2 ->
    let v = get16 page off in
    if big_endian () then swap16 v else v
  | _ ->
    let rec go i acc =
      if i < 0 then acc
      else go (i - 1) ((acc lsl 8) lor Char.code (Bytes.unsafe_get page (off + i)))
    in
    go (width - 1) 0

(* Stores the low [8 * width] bits of [v]; byte 7 of an 8-byte store
   gets bits 56..62 and a clear top bit, as a 63-bit int has no bit 63. *)
let write_page page off width v =
  match width with
  | 4 ->
    let v = Int32.of_int v in
    set32 page off (if big_endian () then swap32 v else v)
  | 8 ->
    let v = Int64.logand (Int64.of_int v) 0x7FFF_FFFF_FFFF_FFFFL in
    set64 page off (if big_endian () then swap64 v else v)
  | 1 -> Bytes.unsafe_set page off (Char.unsafe_chr (v land 0xff))
  | 2 ->
    let v = v land 0xFFFF in
    set16 page off (if big_endian () then swap16 v else v)
  | _ ->
    for i = 0 to width - 1 do
      Bytes.unsafe_set page (off + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
    done

let read_slow t addr width =
  let idx = page_index addr in
  if page_index (addr + width - 1) = idx then
    match find_page t idx with
    | None -> 0
    | Some page -> read_page page (addr land page_mask) width
  else
    let byte i =
      match find_page t (page_index (addr + i)) with
      | None -> 0
      | Some page -> Char.code (Bytes.unsafe_get page ((addr + i) land page_mask))
    in
    let rec go i acc = if i < 0 then acc else go (i - 1) ((acc lsl 8) lor byte i) in
    go (width - 1) 0

let write_slow t addr width v =
  let idx = page_index addr in
  if page_index (addr + width - 1) = idx then
    write_page (ensure_page t idx) (addr land page_mask) width v
  else
    for i = 0 to width - 1 do
      let page = ensure_page t (page_index (addr + i)) in
      Bytes.unsafe_set page
        ((addr + i) land page_mask)
        (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
    done

(* fast paths: the access sits inside the cached page *)
let[@inline] read t addr width =
  let off = addr land page_mask in
  if page_index addr = t.cached_idx && off + width <= page_size then
    read_page t.cached_page off width
  else read_slow t addr width

let[@inline] write t addr width v =
  let off = addr land page_mask in
  if page_index addr = t.cached_idx && off + width <= page_size then
    write_page t.cached_page off width v
  else write_slow t addr width v

(* An 8-byte word has 64 bits and does not round-trip through a 63-bit
   OCaml int, so it is journaled as two 4-byte halves. *)
let journal_store t addr width =
  if width = 8 then begin
    push t 4 addr (read t addr 4);
    push t 4 (addr + 4) (read t (addr + 4) 4)
  end
  else push t width addr (read t addr width)

let load t ~addr ~width =
  check_width width;
  read t addr width

let store t ~addr ~width v =
  check_width width;
  if t.journaling then journal_store t addr width;
  write t addr width v

(* -- atomic regions -- *)

let checkpoint t =
  if t.journaling then invalid_arg "Machine.checkpoint: region already active";
  t.journaling <- true;
  t.jlen <- 0

let commit t =
  if not t.journaling then invalid_arg "Machine.commit: no active region";
  t.journaling <- false;
  t.jlen <- 0

let rollback t =
  if not t.journaling then invalid_arg "Machine.rollback: no active region";
  t.journaling <- false;
  (* newest-first: the oldest entry for an address or register is
     applied last and wins, restoring the checkpointed value *)
  let j = t.journal in
  let i = ref (t.jlen - 3) in
  while !i >= 0 do
    let tag = j.(!i) and key = j.(!i + 1) and prev = j.(!i + 2) in
    if tag = tag_reg then t.regs.(key) <- prev else write t key tag prev;
    i := !i - 3
  done;
  t.jlen <- 0

let in_region t = t.journaling

(* -- predecoded region code --

   A region's bundles flattened into one [int array] of ops.  Each op
   is an opcode word followed by its operands; registers are slots,
   immediates and displacements are inline.  Bit [imm_a] (resp.
   [imm_b]) of the opcode word marks the first (second) source operand
   as an immediate rather than a slot.

     opcode  operands                      effect
     0       d a                           mov
     1       d a                           neg
     2..10   d a b                         add sub mul div and or xor shl shr
     11..16  d a b                         cmp eq ne lt le gt ge
     17      d base disp width k           load, [k] indexes [mem]
     18      src base disp width k         store (src is operand a)
     19      cond label issued             branch (cond is operand a)
     20      label issued                  exit
     21      n                             rotate
     22      src dst                       amov

   [label] indexes [labels]; [issued] is the number of bundles issued
   when the op leaves the region (its bundle's index + 1).  [Fadd],
   [Fsub], [Fmul] and [Fdiv] share the integer opcodes, whose
   semantics they share; [Nop]s are dropped. *)

type code = {
  ops : int array;
  mem : Ir.Instr.t array;  (* the memory ops, handed to the detector *)
  mem_issued : int array;  (* bundles issued when [mem.(k)] faults *)
  labels : Ir.Instr.label array;
  top_slot : int;  (* highest register slot the code touches *)
  bundles : int;
}

let imm_a = 0x100
let imm_b = 0x200
let opcode_mask = 0xff

let binop_code = function
  | Ir.Instr.Add -> 2
  | Ir.Instr.Sub -> 3
  | Ir.Instr.Mul -> 4
  | Ir.Instr.Div -> 5
  | Ir.Instr.And -> 6
  | Ir.Instr.Or -> 7
  | Ir.Instr.Xor -> 8
  | Ir.Instr.Shl -> 9
  | Ir.Instr.Shr -> 10

let fbinop_code = function
  | Ir.Instr.Fadd -> 2
  | Ir.Instr.Fsub -> 3
  | Ir.Instr.Fmul -> 4
  | Ir.Instr.Fdiv -> 5

let cmp_code = function
  | Ir.Instr.Eq -> 11
  | Ir.Instr.Ne -> 12
  | Ir.Instr.Lt -> 13
  | Ir.Instr.Le -> 14
  | Ir.Instr.Gt -> 15
  | Ir.Instr.Ge -> 16

(* words an instruction occupies in [ops] *)
let op_words (i : Ir.Instr.t) =
  match i.op with
  | Ir.Instr.Nop | Ir.Instr.Jump _ -> 0
  | Ir.Instr.Rotate _ -> 2
  | Ir.Instr.Mov _ | Ir.Instr.Unop_neg _ | Ir.Instr.Exit _ | Ir.Instr.Amov _ -> 3
  | Ir.Instr.Binop _ | Ir.Instr.Fbinop _ | Ir.Instr.Cmp _ | Ir.Instr.Branch _ -> 4
  | Ir.Instr.Load _ | Ir.Instr.Store _ -> 6

(* Sized in a first pass and filled in place, so predecoding leaves no
   garbage behind but the label list. *)
let compile (bundles : Ir.Instr.t list array) =
  let n_words = ref 0 and n_mem = ref 0 in
  Array.iter
    (List.iter (fun i ->
         n_words := !n_words + op_words i;
         if Ir.Instr.is_memory i then incr n_mem))
    bundles;
  let ops = Array.make !n_words 0 in
  let mem = Array.make !n_mem (Ir.Instr.make ~id:(-1) Ir.Instr.Nop) in
  let mem_issued = Array.make !n_mem 0 in
  let pc = ref 0 and k = ref 0 and top = ref (-1) in
  let labels = ref [] and n_labels = ref 0 in
  let put v =
    ops.(!pc) <- v;
    incr pc
  in
  (* an op's opcode word; returns its index for [operand] to flag *)
  let start code =
    let at = !pc in
    put code;
    at
  in
  let reg r =
    let s = slot r in
    if s < 0 then
      invalid_arg
        (Printf.sprintf "Machine.compile: register %s" (Ir.Reg.to_string r));
    top := Int.max !top s;
    put s
  in
  let operand at flag = function
    | Ir.Instr.Reg r -> reg r
    | Ir.Instr.Imm n ->
      ops.(at) <- ops.(at) lor flag;
      put n
  in
  let label l =
    labels := l :: !labels;
    put !n_labels;
    incr n_labels
  in
  let mem_op (i : Ir.Instr.t) (addr : Ir.Instr.addr) ~width ~issued =
    check_width width;
    reg addr.base;
    put addr.disp;
    put width;
    mem.(!k) <- i;
    mem_issued.(!k) <- issued;
    put !k;
    incr k
  in
  let unary code d a =
    let at = start code in
    reg d;
    operand at imm_a a
  in
  let binary code d a b =
    let at = start code in
    reg d;
    operand at imm_a a;
    operand at imm_b b
  in
  Array.iteri
    (fun cycle bundle ->
      let issued = cycle + 1 in
      List.iter
        (fun (i : Ir.Instr.t) ->
          match i.op with
          | Ir.Instr.Nop -> ()
          | Ir.Instr.Mov (d, a) -> unary 0 d a
          | Ir.Instr.Unop_neg (d, a) -> unary 1 d a
          | Ir.Instr.Binop (op, d, a, b) -> binary (binop_code op) d a b
          | Ir.Instr.Fbinop (op, d, a, b) -> binary (fbinop_code op) d a b
          | Ir.Instr.Cmp (c, d, a, b) -> binary (cmp_code c) d a b
          | Ir.Instr.Load { dst; addr; width; _ } ->
            ignore (start 17);
            reg dst;
            mem_op i addr ~width ~issued
          | Ir.Instr.Store { src; addr; width; _ } ->
            let at = start 18 in
            operand at imm_a src;
            mem_op i addr ~width ~issued
          | Ir.Instr.Branch { cond; target } ->
            let at = start 19 in
            operand at imm_a cond;
            label target;
            put issued
          | Ir.Instr.Exit l ->
            ignore (start 20);
            label l;
            put issued
          | Ir.Instr.Rotate n ->
            ignore (start 21);
            put n
          | Ir.Instr.Amov { src_offset; dst_offset } ->
            ignore (start 22);
            put src_offset;
            put dst_offset
          | Ir.Instr.Jump _ -> invalid_arg "Machine.compile: jump inside region")
        bundle)
    bundles;
  {
    ops;
    mem;
    mem_issued;
    labels = Array.of_list (List.rev !labels);
    top_slot = !top;
    bundles = Array.length bundles;
  }

type stop =
  | Fell_through
  | Side_exit of Ir.Instr.label
  | Fault of Hw.Detector.violation

type run = {
  stop : stop;
  issued : int;
  stalls : int;
}

let safe_div a b = if b = 0 then 0 else a / b

(* the value of source operand [x] of an op whose word is [w] *)
let[@inline] operand regs w flag x =
  if w land flag = 0 then Array.unsafe_get regs x else x

let[@inline] src_a regs ops pc w =
  operand regs w imm_a (Array.unsafe_get ops (pc + 2))

let[@inline] src_b regs ops pc w =
  operand regs w imm_b (Array.unsafe_get ops (pc + 3))

let[@inline] set t regs s v =
  push t tag_reg s (Array.unsafe_get regs s);
  Array.unsafe_set regs s v

let execute t code ~(detector : Hw.Detector.t) ~cache =
  if not t.journaling then invalid_arg "Machine.execute: no active region";
  if code.top_slot >= Array.length t.regs then
    t.regs <- grown t.regs code.top_slot;
  let regs = t.regs and ops = code.ops in
  let n = Array.length ops in
  let stalls = ref 0 in
  (* the detector's view of a memory op; [None] lets the op proceed *)
  let check k addr width =
    (match cache with
    | Some c -> stalls := !stalls + Cache.access c ~addr
    | None -> ());
    match
      detector.Hw.Detector.on_mem code.mem.(k)
        { Hw.Access.lo = addr; hi = addr + width - 1 }
    with
    | Ok () -> None
    | Error v ->
      Some { stop = Fault v; issued = code.mem_issued.(k); stalls = !stalls }
  in
  let rec go pc =
    if pc >= n then { stop = Fell_through; issued = code.bundles; stalls = !stalls }
    else
      let w = Array.unsafe_get ops pc in
      let x1 = Array.unsafe_get ops (pc + 1) in
      match w land opcode_mask with
      | 0 ->
        set t regs x1 (src_a regs ops pc w);
        go (pc + 3)
      | 1 ->
        set t regs x1 (-src_a regs ops pc w);
        go (pc + 3)
      | 2 ->
        set t regs x1 (src_a regs ops pc w + src_b regs ops pc w);
        go (pc + 4)
      | 3 ->
        set t regs x1 (src_a regs ops pc w - src_b regs ops pc w);
        go (pc + 4)
      | 4 ->
        set t regs x1 (src_a regs ops pc w * src_b regs ops pc w);
        go (pc + 4)
      | 5 ->
        set t regs x1 (safe_div (src_a regs ops pc w) (src_b regs ops pc w));
        go (pc + 4)
      | 6 ->
        set t regs x1 (src_a regs ops pc w land src_b regs ops pc w);
        go (pc + 4)
      | 7 ->
        set t regs x1 (src_a regs ops pc w lor src_b regs ops pc w);
        go (pc + 4)
      | 8 ->
        set t regs x1 (src_a regs ops pc w lxor src_b regs ops pc w);
        go (pc + 4)
      | 9 ->
        set t regs x1 (src_a regs ops pc w lsl (src_b regs ops pc w land 31));
        go (pc + 4)
      | 10 ->
        set t regs x1 (src_a regs ops pc w asr (src_b regs ops pc w land 31));
        go (pc + 4)
      | 11 ->
        set t regs x1 (Bool.to_int (src_a regs ops pc w = src_b regs ops pc w));
        go (pc + 4)
      | 12 ->
        set t regs x1 (Bool.to_int (src_a regs ops pc w <> src_b regs ops pc w));
        go (pc + 4)
      | 13 ->
        set t regs x1 (Bool.to_int (src_a regs ops pc w < src_b regs ops pc w));
        go (pc + 4)
      | 14 ->
        set t regs x1 (Bool.to_int (src_a regs ops pc w <= src_b regs ops pc w));
        go (pc + 4)
      | 15 ->
        set t regs x1 (Bool.to_int (src_a regs ops pc w > src_b regs ops pc w));
        go (pc + 4)
      | 16 ->
        set t regs x1 (Bool.to_int (src_a regs ops pc w >= src_b regs ops pc w));
        go (pc + 4)
      | 17 ->
        let addr =
          Array.unsafe_get regs (Array.unsafe_get ops (pc + 2))
          + Array.unsafe_get ops (pc + 3)
        and width = Array.unsafe_get ops (pc + 4) in
        (match check (Array.unsafe_get ops (pc + 5)) addr width with
        | None ->
          set t regs x1 (read t addr width);
          go (pc + 6)
        | Some fault -> fault)
      | 18 ->
        let addr =
          Array.unsafe_get regs (Array.unsafe_get ops (pc + 2))
          + Array.unsafe_get ops (pc + 3)
        and width = Array.unsafe_get ops (pc + 4) in
        (match check (Array.unsafe_get ops (pc + 5)) addr width with
        | None ->
          let v = operand regs w imm_a x1 in
          journal_store t addr width;
          write t addr width v;
          go (pc + 6)
        | Some fault -> fault)
      | 19 ->
        if operand regs w imm_a x1 <> 0 then
          {
            stop = Side_exit code.labels.(Array.unsafe_get ops (pc + 2));
            issued = Array.unsafe_get ops (pc + 3);
            stalls = !stalls;
          }
        else go (pc + 4)
      | 20 ->
        {
          stop = Side_exit code.labels.(x1);
          issued = Array.unsafe_get ops (pc + 2);
          stalls = !stalls;
        }
      | 21 ->
        detector.Hw.Detector.on_rotate x1;
        go (pc + 2)
      | _ ->
        detector.Hw.Detector.on_amov ~src:x1 ~dst:(Array.unsafe_get ops (pc + 2));
        go (pc + 3)
  in
  go 0

(* -- observation (cold paths: tests, diffs, dumps) -- *)

let dump_regs t =
  let n = Array.length t.regs / 3 in
  let collect mk cls acc =
    let out = ref acc in
    for i = n - 1 downto 0 do
      let v = t.regs.((3 * i) + cls) in
      if v <> 0 then out := (mk i, v) :: !out
    done;
    !out
  in
  (* index order per class = [Ir.Reg.compare] order, no sort needed *)
  collect (fun i -> Ir.Reg.R i) 0 (collect (fun i -> Ir.Reg.F i) 1 [])

let dump_mem t =
  let page_idxs =
    Hashtbl.fold (fun idx _ acc -> idx :: acc) t.pages []
    |> List.sort Int.compare
  in
  List.concat_map
    (fun idx ->
      let page = Hashtbl.find t.pages idx in
      let base = idx * page_size in
      let out = ref [] in
      for off = page_size - 1 downto 0 do
        let b = Char.code (Bytes.unsafe_get page off) in
        if b <> 0 then out := (base + off, b) :: !out
      done;
      !out)
    page_idxs

let zero_page = Bytes.make page_size '\000'

(* guest registers agree (optimizer temporaries, slots [3i + 2], are
   dead outside regions; missing slots read 0) *)
let equal_regs a b =
  let na = Array.length a and nb = Array.length b in
  let get x n s = if s < n then x.(s) else 0 in
  let ok = ref true in
  for s = 0 to Int.max na nb - 1 do
    if s mod 3 <> 2 && get a na s <> get b nb s then ok := false
  done;
  !ok

let equal_mem a b =
  let covered_by x y =
    Hashtbl.fold
      (fun idx page acc ->
        acc
        &&
        match Hashtbl.find_opt y.pages idx with
        | Some page' -> Bytes.equal page page'
        | None -> Bytes.equal page zero_page)
      x.pages true
  in
  covered_by a b && covered_by b a

let equal_guest_state a b = equal_regs a.regs b.regs && equal_mem a b

let diff_guest_state a b =
  let diffs = ref [] in
  let note fmt = Printf.ksprintf (fun s -> diffs := s :: !diffs) fmt in
  let regs_a = dump_regs a and regs_b = dump_regs b in
  if regs_a <> regs_b then begin
    let tbl = Hashtbl.create 32 in
    List.iter (fun (r, v) -> Hashtbl.replace tbl r (Some v, None)) regs_a;
    List.iter
      (fun (r, v) ->
        match Hashtbl.find_opt tbl r with
        | Some (x, _) -> Hashtbl.replace tbl r (x, Some v)
        | None -> Hashtbl.replace tbl r (None, Some v))
      regs_b;
    Hashtbl.iter
      (fun r (x, y) ->
        if x <> y then
          note "reg %s: %s vs %s" (Ir.Reg.to_string r)
            (match x with Some v -> string_of_int v | None -> "0")
            (match y with Some v -> string_of_int v | None -> "0"))
      tbl
  end;
  let mem_a = dump_mem a and mem_b = dump_mem b in
  if mem_a <> mem_b then begin
    let tbl = Hashtbl.create 64 in
    List.iter (fun (ad, v) -> Hashtbl.replace tbl ad (Some v, None)) mem_a;
    List.iter
      (fun (ad, v) ->
        match Hashtbl.find_opt tbl ad with
        | Some (x, _) -> Hashtbl.replace tbl ad (x, Some v)
        | None -> Hashtbl.replace tbl ad (None, Some v))
      mem_b;
    Hashtbl.iter
      (fun ad (x, y) ->
        if x <> y then
          note "mem[%d]: %s vs %s" ad
            (match x with Some v -> string_of_int v | None -> "0")
            (match y with Some v -> string_of_int v | None -> "0"))
      tbl
  end;
  List.rev !diffs
