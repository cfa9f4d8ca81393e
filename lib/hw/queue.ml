(* The alias register file is a ring of [size] slots: the register at
   logical order [o] lives in slot [o mod size].  Each slot records the
   order it was last set at and the generation it was set in; a slot is
   live iff it was set in the current generation and its order has not
   slid below [BASE].  Every live order lies in [BASE, BASE + size), so
   two live orders never share a slot.  [reset] bumps the generation
   (O(1)); [rotate] only advances [BASE]. *)

type t = {
  qsize : int;
  mutable qbase : int;
  mutable gen : int;  (* current generation; slots stamped 0 are clear *)
  mutable top : int;  (* upper bound on the highest live order *)
  order : int array;
  stamp : int array;
  lo : int array;
  hi : int array;
  setter : int array;
  by_load : bool array;
  mutable checks : int;
}

let create ~size =
  if size <= 0 then invalid_arg "Queue.create: size must be positive";
  {
    qsize = size;
    qbase = 0;
    gen = 1;
    top = -1;
    order = Array.make size 0;
    stamp = Array.make size 0;
    lo = Array.make size 0;
    hi = Array.make size 0;
    setter = Array.make size 0;
    by_load = Array.make size false;
    checks = 0;
  }

let size t = t.qsize
let base t = t.qbase

let reset t =
  t.qbase <- 0;
  t.gen <- t.gen + 1;
  t.top <- -1

let checks_performed t = t.checks

let check_offset t offset ~what =
  if offset < 0 || offset >= t.qsize then
    invalid_arg
      (Printf.sprintf
         "Queue.%s: offset %d outside alias register window of %d (software \
          overflow bug)"
         what offset t.qsize)

let slot t order = order mod t.qsize

let live t order =
  let s = slot t order in
  t.stamp.(s) = t.gen && t.order.(s) = order && order >= t.qbase

let clear t order = t.stamp.(slot t order) <- 0

let set t order ~lo ~hi ~setter ~by_load =
  let s = slot t order in
  t.order.(s) <- order;
  t.stamp.(s) <- t.gen;
  t.lo.(s) <- lo;
  t.hi.(s) <- hi;
  t.setter.(s) <- setter;
  t.by_load.(s) <- by_load;
  if order > t.top then t.top <- order

let rotate t n =
  if n < 0 then invalid_arg "Queue.rotate: negative rotation";
  t.qbase <- t.qbase + n

let amov t ~src ~dst =
  check_offset t src ~what:"amov";
  check_offset t dst ~what:"amov";
  let src_order = t.qbase + src and dst_order = t.qbase + dst in
  if live t src_order then begin
    let s = slot t src_order in
    clear t src_order;
    if src <> dst then
      set t dst_order ~lo:t.lo.(s) ~hi:t.hi.(s) ~setter:t.setter.(s)
        ~by_load:t.by_load.(s)
  end
  else clear t dst_order

(* Check every live register at-or-after [my_order], lowest order first,
   against [lo, hi]; loads skip registers set by loads.  Each qualifying
   register counts as one comparison, up to and including the first
   conflict. *)
let run_checks t ~checker ~is_load ~my_order ~lo ~hi =
  let last = Int.min t.top (t.qbase + t.qsize - 1) in
  let rec scan order =
    if order > last then Ok ()
    else
      let s = slot t order in
      if live t order && not (is_load && t.by_load.(s)) then begin
        t.checks <- t.checks + 1;
        if t.lo.(s) <= hi && lo <= t.hi.(s) then
          Error
            Detector.
              { checker; setter = t.setter.(s); false_positive_prone = false }
        else scan (order + 1)
      end
      else scan (order + 1)
  in
  scan (Int.max my_order t.qbase)

let on_mem t (instr : Ir.Instr.t) (range : Access.t) =
  match Ir.Instr.annot instr with
  | Ir.Annot.Queue { offset; p; c } ->
    check_offset t offset ~what:"on_mem";
    let my_order = t.qbase + offset in
    let is_load = Ir.Instr.is_load instr in
    let result =
      if c then
        run_checks t ~checker:instr.id ~is_load ~my_order ~lo:range.lo
          ~hi:range.hi
      else Ok ()
    in
    (match result with
    | Error _ as e -> e
    | Ok () ->
      if p then
        set t my_order ~lo:range.lo ~hi:range.hi ~setter:instr.id
          ~by_load:is_load;
      Ok ())
  | Ir.Annot.No_annot | Ir.Annot.Mask _ | Ir.Annot.Alat _ -> Ok ()

let live_entries t =
  let out = ref [] in
  for order = Int.min t.top (t.qbase + t.qsize - 1) downto t.qbase do
    if live t order then begin
      let s = slot t order in
      out :=
        (order, { Access.lo = t.lo.(s); hi = t.hi.(s) }, t.setter.(s)) :: !out
    end
  done;
  !out

let caps size =
  Detector.
    {
      scheme = "ordered queue";
      scalable = true;
      false_positives = false;
      detects_store_store = true;
      max_registers = Some size;
    }

let detector t =
  Detector.
    {
      name = Printf.sprintf "smarq%d" t.qsize;
      caps = caps t.qsize;
      reset = (fun () -> reset t);
      on_mem = (fun i r -> on_mem t i r);
      on_rotate = (fun n -> rotate t n);
      on_amov = (fun ~src ~dst -> amov t ~src ~dst);
      checks_performed = (fun () -> checks_performed t);
    }
