type entry = {
  range : Access.t;
  setter : int;
}

type t = {
  capacity : int;
  mutable table : entry list;  (* newest first *)
  mutable live : int;  (* [List.length table] *)
  mutable checks : int;
}

let create ?(size = 32) () =
  if size <= 0 then invalid_arg "Alat.create: size must be positive";
  { capacity = size; table = []; live = 0; checks = 0 }

let size t = t.capacity

let reset t =
  t.table <- [];
  t.live <- 0

let live_count t = t.live
let checks_performed t = t.checks

(* the oldest entry falls off a full table *)
let insert t e =
  if t.live < t.capacity then begin
    t.table <- e :: t.table;
    t.live <- t.live + 1
  end
  else t.table <- e :: List.filteri (fun i _ -> i < t.capacity - 1) t.table

(* Stores check every live entry; that blanket check is what makes the
   scheme false-positive prone. *)
let check_all t ~checker range =
  let rec scan = function
    | [] -> Ok ()
    | e :: rest ->
      t.checks <- t.checks + 1;
      if Access.overlap e.range range then
        Error
          Detector.
            { checker; setter = e.setter; false_positive_prone = true }
      else scan rest
  in
  scan t.table

let on_mem t (instr : Ir.Instr.t) range =
  match Ir.Instr.annot instr, instr.op with
  | Ir.Annot.Alat { advanced }, Ir.Instr.Load _ ->
    if advanced then insert t { range; setter = instr.id };
    Ok ()
  | Ir.Annot.Alat _, Ir.Instr.Store _ -> check_all t ~checker:instr.id range
  | Ir.Annot.Alat _, _ -> Ok ()
  | (Ir.Annot.No_annot | Ir.Annot.Queue _ | Ir.Annot.Mask _), op ->
    (* Stores always snoop the table on Itanium, annotated or not. *)
    (match op with
    | Ir.Instr.Store _ -> check_all t ~checker:instr.id range
    | _ -> Ok ())

let caps () =
  Detector.
    {
      scheme = "ALAT";
      scalable = true;
      false_positives = true;
      detects_store_store = false;
      max_registers = None;
    }

let detector t =
  Detector.
    {
      name = "alat";
      caps = caps ();
      reset = (fun () -> reset t);
      on_mem = (fun i r -> on_mem t i r);
      on_rotate = (fun _ -> ());
      on_amov = (fun ~src:_ ~dst:_ -> ());
      checks_performed = (fun () -> checks_performed t);
    }
