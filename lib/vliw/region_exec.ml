module I = Ir.Instr

type outcome =
  | Committed of Ir.Instr.label option
  | Alias_fault of Hw.Detector.violation
  | Window_overflow of string

type result = {
  outcome : outcome;
  cycles : int;
  alias_checks : int;
}

type rejection =
  | Window_exceeds_machine of {
      ar_window : int;
      alias_registers : int;
    }
  | Offset_outside_window of {
      id : int;
      offset : int;
      ar_window : int;
    }
  | Jump_in_region of { id : int }
  | Bad_width of {
      id : int;
      width : int;
    }

let pp_rejection ppf = function
  | Window_exceeds_machine { ar_window; alias_registers } ->
    Format.fprintf ppf "region needs %d alias registers, machine has %d"
      ar_window alias_registers
  | Offset_outside_window { id; offset; ar_window } ->
    Format.fprintf ppf
      "instr %d uses alias register offset %d outside the region's window of %d"
      id offset ar_window
  | Jump_in_region { id } -> Format.fprintf ppf "instr %d jumps inside a region" id
  | Bad_width { id; width } ->
    Format.fprintf ppf "instr %d accesses %d bytes (supported: 1..8)" id width

type decoded = {
  code : Machine.code;
  final_exit : Ir.Instr.label option;
}

let final_exit d = d.final_exit

exception Rejected of rejection

let check_offset ~ar_window id offset =
  if offset < 0 || offset >= ar_window then
    raise_notrace (Rejected (Offset_outside_window { id; offset; ar_window }))

let check_instr ~ar_window (i : I.t) =
  match i.op with
  | I.Jump _ -> raise_notrace (Rejected (Jump_in_region { id = i.id }))
  | I.Load { width; annot; _ } | I.Store { width; annot; _ } -> (
    if width < 1 || width > 8 then
      raise_notrace (Rejected (Bad_width { id = i.id; width }));
    match annot with
    | Ir.Annot.Queue { offset; _ } -> check_offset ~ar_window i.id offset
    | Ir.Annot.No_annot | Ir.Annot.Mask _ | Ir.Annot.Alat _ -> ())
  | I.Amov { src_offset; dst_offset } ->
    check_offset ~ar_window i.id src_offset;
    check_offset ~ar_window i.id dst_offset
  | I.Nop | I.Mov _ | I.Unop_neg _ | I.Binop _ | I.Fbinop _ | I.Cmp _
  | I.Branch _ | I.Exit _ | I.Rotate _ ->
    ()

let predecode ~config (region : Ir.Region.t) =
  let ar_window = region.ar_window in
  if ar_window > config.Config.alias_registers then
    Error
      (Window_exceeds_machine
         { ar_window; alias_registers = config.Config.alias_registers })
  else
    match Array.iter (List.iter (check_instr ~ar_window)) region.bundles with
    | exception Rejected r -> Error r
    | () ->
      Ok { code = Machine.compile region.bundles; final_exit = region.final_exit }

let exec ~config ~detector ~machine ?cache d =
  let checks_before = detector.Hw.Detector.checks_performed () in
  detector.Hw.Detector.reset ();
  Machine.checkpoint machine;
  let outcome, cycles =
    (* a detector that raises (a hardware model smaller than the
       machine's window) must not leave the region open *)
    match Machine.execute machine d.code ~detector ~cache with
    | exception Invalid_argument msg ->
      Machine.rollback machine;
      (Window_overflow msg, config.Config.rollback_cycles)
    | exception e ->
      Machine.rollback machine;
      raise e
    | run ->
      let outcome, extra =
        match run.Machine.stop with
        | Machine.Fault v ->
          Machine.rollback machine;
          (Alias_fault v, config.Config.rollback_cycles)
        | Machine.Side_exit l ->
          Machine.commit machine;
          (Committed (Some l), 0)
        | Machine.Fell_through ->
          Machine.commit machine;
          (Committed d.final_exit, 0)
      in
      (outcome, run.Machine.issued + run.Machine.stalls + extra)
  in
  {
    outcome;
    cycles = config.Config.checkpoint_cycles + cycles;
    alias_checks = detector.Hw.Detector.checks_performed () - checks_before;
  }

let run ~config ~detector ~machine ?cache region =
  Result.map (exec ~config ~detector ~machine ?cache) (predecode ~config region)
