(* The VLIW region executor: atomic commit/rollback, side exits, cycle
   accounting, AMOV insertion under cycles, typed rejection of malformed
   regions, and the predecoded executor against per-instruction
   evaluation. *)

open Helpers
module I = Ir.Instr
module RE = Vliw.Region_exec

let detector () = Hw.Queue.detector (Hw.Queue.create ~size:64)

let run_region ?(init = []) region =
  let machine = Vliw.Machine.create () in
  List.iter (fun (reg, v) -> Vliw.Machine.set_reg machine reg v) init;
  (Helpers.run_region ~detector:(detector ()) ~machine region, machine)

let test_commit_full_region () =
  reset_ids ();
  let body = [ movi (r 1) 5; st (I.Reg (r 1)) (r 2) 0 ] in
  let sb = sb_of body in
  let o = optimize sb in
  let res, machine = run_region ~init:[ (r 2, 100) ] o.Opt.Optimizer.region in
  (match res.RE.outcome with
  | RE.Committed None -> ()
  | _ -> Alcotest.fail "expected final-exit commit");
  Alcotest.(check int) "store visible" 5
    (Vliw.Machine.load machine ~addr:100 ~width:4);
  Alcotest.(check bool) "not mid-region" false (Vliw.Machine.in_region machine)

let test_side_exit_commits_prefix () =
  reset_ids ();
  let pre = st (I.Imm 1) (r 2) 0 in
  let br = mk (I.Branch { cond = I.Reg (r 5); target = "elsewhere" }) in
  let post = st (I.Imm 2) (r 2) 8 in
  let sb = sb_of [ pre; br; post ] in
  let o = optimize sb in
  let res, machine =
    run_region ~init:[ (r 2, 200); (r 5, 1) ] o.Opt.Optimizer.region
  in
  (match res.RE.outcome with
  | RE.Committed (Some "elsewhere") -> ()
  | _ -> Alcotest.fail "expected the side exit");
  Alcotest.(check int) "pre-exit store committed" 1
    (Vliw.Machine.load machine ~addr:200 ~width:4);
  Alcotest.(check int) "post-exit store suppressed" 0
    (Vliw.Machine.load machine ~addr:208 ~width:4)

let test_fault_rolls_everything_back () =
  reset_ids ();
  (* store then later load through another base; aliased at runtime *)
  let s1 = st (I.Imm 77) (r 1) 0 in
  let l1 = ld (f 1) (r 2) 0 in
  let consume = fadd (f 2) (f 1) (f 1) in
  let sb = sb_of [ s1; l1; consume ] in
  let o = optimize sb in
  (* the load hoists above the store; make them truly alias *)
  let res, machine =
    run_region ~init:[ (r 1, 300); (r 2, 300) ] o.Opt.Optimizer.region
  in
  (match res.RE.outcome with
  | RE.Alias_fault v ->
    Alcotest.(check int) "setter is the load" l1.I.id v.Hw.Detector.setter;
    Alcotest.(check int) "checker is the store" s1.I.id v.Hw.Detector.checker
  | RE.Committed _ | RE.Window_overflow _ -> Alcotest.fail "expected a fault");
  Alcotest.(check int) "memory rolled back" 0
    (Vliw.Machine.load machine ~addr:300 ~width:4);
  Alcotest.(check int) "register rolled back" 0
    (Vliw.Machine.get_reg machine (f 1))

let test_fault_costs_rollback_penalty () =
  reset_ids ();
  let s1 = st (I.Imm 77) (r 1) 0 in
  let l1 = ld (f 1) (r 2) 0 in
  let sb = sb_of [ s1; l1 ] in
  let o = optimize sb in
  let res, _ =
    run_region ~init:[ (r 1, 300); (r 2, 300) ] o.Opt.Optimizer.region
  in
  Alcotest.(check bool) "penalty charged" true
    (res.RE.cycles >= Vliw.Config.default.Vliw.Config.rollback_cycles)

let test_window_guard () =
  reset_ids ();
  let l1 = ld (f 1) (r 1) 0 in
  let sb = sb_of [ l1 ] in
  let region =
    Ir.Region.make ~entry:"t" ~bundles:[| [ l1 ] |] ~final_exit:None
      ~ar_window:100 ~assumed_no_alias:[] ~source:sb ()
  in
  let machine = Vliw.Machine.create () in
  match
    RE.run ~config:Vliw.Config.default ~detector:(detector ()) ~machine region
  with
  | Error (RE.Window_exceeds_machine { ar_window = 100; alias_registers = 64 })
    ->
    Alcotest.(check bool) "no region left open" false
      (Vliw.Machine.in_region machine)
  | Error rej ->
    Alcotest.failf "unexpected rejection: %a" RE.pp_rejection rej
  | Ok _ -> Alcotest.fail "an oversized window must be rejected"

(* A deterministic generated superblock that forces AMOV insertion
   (found by search over Genprog seeds; kept as a regression anchor for
   the Figure 12 cycle-breaking machinery). *)
let amov_superblock () =
  let params =
    Workload.Genprog.
      {
        n_instrs = 24;
        mem_fraction = 0.6;
        store_fraction = 0.5;
        n_bases = 3;
        collide_fraction = 0.0;
        side_exit_every = None;
      }
  in
  fst (Workload.Genprog.superblock ~seed:12 ~params)

let test_amov_cycle_breaking () =
  let sb = amov_superblock () in
  let o = optimize sb in
  let st = o.Opt.Optimizer.stats.Opt.Optimizer.sched_stats in
  Alcotest.(check bool) "AMOVs inserted" true
    (st.Sched.List_sched.amov_fresh + st.Sched.List_sched.amov_clear > 0);
  (* the region contains actual Amov instructions *)
  let amovs =
    List.filter
      (fun (i : I.t) ->
        match i.I.op with
        | I.Amov _ -> true
        | _ -> false)
      (Ir.Region.instrs o.Opt.Optimizer.region)
  in
  Alcotest.(check bool) "Amov in the code" true (List.length amovs > 0);
  (* and the constraint graph is acyclic after breaking *)
  match o.Opt.Optimizer.alloc_result with
  | Some res ->
    Alcotest.(check bool) "acyclic" false
      (Analysis.Constraints.has_cycle
         (res.Sched.Smarq_alloc.check_edges @ res.Sched.Smarq_alloc.anti_edges))
  | None -> Alcotest.fail "queue allocation expected"

let test_amov_region_executes_correctly () =
  let sb = amov_superblock () in
  let init =
    Workload.Genprog.setup_machine_regs
      ~params:
        Workload.Genprog.
          {
            n_instrs = 24;
            mem_fraction = 0.6;
            store_fraction = 0.5;
            n_bases = 3;
            collide_fraction = 0.0;
            side_exit_every = None;
          }
      ~bases:(fun k -> 0x10000 * (k + 1))
  in
  let faults = run_to_commit ~init sb in
  Alcotest.(check int) "no faults despite AMOVs (no genuine aliases)" 0 faults

let test_rotate_amov_are_free_slots () =
  (* Rotate/Amov do not consume issue slots: the region executes them
     inline without extending bundles *)
  let sb = amov_superblock () in
  let o = optimize sb in
  let region = o.Opt.Optimizer.region in
  Array.iter
    (fun bundle ->
      let real =
        List.filter
          (fun (i : I.t) ->
            match i.I.op with
            | I.Rotate _ | I.Amov _ -> false
            | _ -> true)
          bundle
      in
      Alcotest.(check bool) "real ops within width" true
        (List.length real <= 4))
    region.Ir.Region.bundles

(* ---- typed rejections: malformed regions never start executing ---- *)

let reject_case name ~ar_window bundle expected =
  let region =
    Ir.Region.make ~entry:"t" ~bundles:[| bundle |] ~final_exit:None ~ar_window
      ~assumed_no_alias:[] ~source:(sb_of []) ()
  in
  let machine = Vliw.Machine.create () in
  (match
     RE.run ~config:Vliw.Config.default ~detector:(detector ()) ~machine region
   with
  | Error rej when expected rej -> ()
  | Error rej -> Alcotest.failf "%s: unexpected rejection %a" name RE.pp_rejection rej
  | Ok _ -> Alcotest.failf "%s: malformed region ran" name);
  (* nothing executed, so the machine can open the next region *)
  Alcotest.(check bool) "no region left open" false
    (Vliw.Machine.in_region machine);
  Vliw.Machine.checkpoint machine;
  Vliw.Machine.commit machine

let test_rejections () =
  reset_ids ();
  let queued offset =
    mk
      (I.Load
         {
           dst = f 1;
           addr = { I.base = r 1; disp = 0 };
           width = 4;
           annot = Ir.Annot.queue ~offset ~p:true ~c:false;
         })
  in
  let jump = mk (I.Jump "elsewhere") in
  reject_case "jump" ~ar_window:0
    [ movi (r 1) 1; jump; movi (r 2) 2 ]
    (function RE.Jump_in_region { id } -> id = jump.I.id | _ -> false);
  let wide = ld ~width:9 (f 1) (r 1) 0 in
  reject_case "width 9" ~ar_window:0 [ wide ]
    (function
      | RE.Bad_width { id; width = 9 } -> id = wide.I.id | _ -> false);
  let zero = st ~width:0 (I.Imm 1) (r 1) 0 in
  reject_case "width 0" ~ar_window:0 [ zero ]
    (function
      | RE.Bad_width { id; width = 0 } -> id = zero.I.id | _ -> false);
  let outside = queued 4 in
  reject_case "annotation offset" ~ar_window:4 [ queued 3; outside ]
    (function
      | RE.Offset_outside_window { id; offset = 4; ar_window = 4 } ->
        id = outside.I.id
      | _ -> false);
  let amov = mk (I.Amov { src_offset = 0; dst_offset = 2 }) in
  reject_case "amov offset" ~ar_window:2 [ queued 0; amov ]
    (function
      | RE.Offset_outside_window { id; offset = 2; _ } -> id = amov.I.id
      | _ -> false)

(* A detector smaller than the region's window raises mid-region; the
   exception propagates, but the region is rolled back, not left open. *)
let test_raising_detector_closes_region () =
  reset_ids ();
  let store =
    mk
      (I.Store
         {
           src = I.Imm 7;
           addr = { I.base = r 1; disp = 0 };
           width = 4;
           annot = Ir.Annot.queue ~offset:0 ~p:true ~c:false;
         })
  in
  let load =
    mk
      (I.Load
         {
           dst = f 1;
           addr = { I.base = r 1; disp = 8 };
           width = 4;
           annot = Ir.Annot.queue ~offset:5 ~p:true ~c:false;
         })
  in
  let region =
    Ir.Region.make ~entry:"t" ~bundles:[| [ store ]; [ load ] |]
      ~final_exit:None ~ar_window:6 ~assumed_no_alias:[] ~source:(sb_of []) ()
  in
  let machine = Vliw.Machine.create () in
  Vliw.Machine.set_reg machine (r 1) 64;
  let small = Hw.Queue.detector (Hw.Queue.create ~size:4) in
  (match
     RE.run ~config:Vliw.Config.default ~detector:small ~machine region
   with
  | Ok { RE.outcome = RE.Window_overflow _; cycles; _ } ->
    Alcotest.(check int) "checkpoint and rollback are charged"
      (Vliw.Config.default.Vliw.Config.checkpoint_cycles
      + Vliw.Config.default.Vliw.Config.rollback_cycles)
      cycles
  | _ ->
    Alcotest.fail "an offset beyond the detector's queue must overflow");
  Alcotest.(check bool) "no region left open" false
    (Vliw.Machine.in_region machine);
  Alcotest.(check int) "the store before it rolled back" 0
    (Vliw.Machine.load machine ~addr:64 ~width:4)

(* ---- differential: predecoded executor vs per-instruction Eval ---- *)

(* The per-instruction executor the predecoded one replaced: every
   instruction evaluated through [Vliw.Eval], one at a time. *)
let reference_exec ~detector ~machine ?cache (region : Ir.Region.t) =
  let config = Vliw.Config.default in
  let checks_before = detector.Hw.Detector.checks_performed () in
  detector.Hw.Detector.reset ();
  Vliw.Machine.checkpoint machine;
  let stalls = ref 0 in
  let finish outcome ~issued ~extra =
    {
      RE.outcome;
      cycles = config.Vliw.Config.checkpoint_cycles + issued + !stalls + extra;
      alias_checks = detector.Hw.Detector.checks_performed () - checks_before;
    }
  in
  let exception Stop of RE.result in
  let exec cycle (i : I.t) =
    match i.I.op with
    | I.Rotate n -> detector.Hw.Detector.on_rotate n
    | I.Amov { src_offset; dst_offset } ->
      detector.Hw.Detector.on_amov ~src:src_offset ~dst:dst_offset
    | _ -> (
      match Vliw.Eval.exec_control machine i with
      | Vliw.Eval.Leave_region l ->
        Vliw.Machine.commit machine;
        raise (Stop (finish (RE.Committed (Some l)) ~issued:(cycle + 1) ~extra:0))
      | Vliw.Eval.Goto _ -> Alcotest.fail "jump in a generated region"
      | Vliw.Eval.Fall_through ->
        (match Vliw.Eval.access_of machine i with
        | Some range -> (
          (match cache with
          | Some c -> stalls := !stalls + Vliw.Cache.access c ~addr:range.Hw.Access.lo
          | None -> ());
          match detector.Hw.Detector.on_mem i range with
          | Ok () -> ()
          | Error v ->
            Vliw.Machine.rollback machine;
            raise
              (Stop
                 (finish (RE.Alias_fault v) ~issued:(cycle + 1)
                    ~extra:config.Vliw.Config.rollback_cycles)))
        | None -> ());
        Vliw.Eval.exec_data machine i)
  in
  try
    Array.iteri (fun cycle bundle -> List.iter (exec cycle) bundle) region.bundles;
    Vliw.Machine.commit machine;
    finish (RE.Committed region.final_exit)
      ~issued:(Array.length region.bundles) ~extra:0
  with Stop r -> r

let window = 8

(* registers of every class, so slots of all three interleave *)
let reg_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Ir.Reg.R i) (int_bound 5);
        map (fun i -> Ir.Reg.F i) (int_bound 3);
        map (fun i -> Ir.Reg.T i) (int_bound 3);
      ])

let operand_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun r -> I.Reg r) reg_gen);
        (1, map (fun n -> I.Imm n) (int_range (-70) 70));
        (1, map (fun n -> I.Imm n) (oneofl [ 0; 1; max_int; min_int ]));
      ])

(* bases sit next to page boundaries, so accesses of every width
   straddle pages *)
let base_values = [ 0; 4090; 8189; 12_285; -6; -4097; 1 lsl 40 ]

let op_gen =
  QCheck.Gen.(
    let annot =
      map3
        (fun offset p c -> Ir.Annot.queue ~offset ~p ~c)
        (int_bound (window - 1)) bool bool
    in
    let addr = map2 (fun base disp -> { I.base; disp }) reg_gen (int_range (-9) 9) in
    frequency
      [
        (1, return I.Nop);
        (2, map2 (fun d a -> I.Mov (d, a)) reg_gen operand_gen);
        (1, map2 (fun d a -> I.Unop_neg (d, a)) reg_gen operand_gen);
        ( 3,
          map3
            (fun (op, d) a b -> I.Binop (op, d, a, b))
            (pair
               (oneofl I.[ Add; Sub; Mul; Div; And; Or; Xor; Shl; Shr ])
               reg_gen)
            operand_gen operand_gen );
        ( 2,
          map3
            (fun (op, d) a b -> I.Fbinop (op, d, a, b))
            (pair (oneofl I.[ Fadd; Fsub; Fmul; Fdiv ]) reg_gen)
            operand_gen operand_gen );
        ( 2,
          map3
            (fun (c, d) a b -> I.Cmp (c, d, a, b))
            (pair (oneofl I.[ Eq; Ne; Lt; Le; Gt; Ge ]) reg_gen)
            operand_gen operand_gen );
        ( 5,
          map3
            (fun dst (addr, width) annot -> I.Load { dst; addr; width; annot })
            reg_gen (pair addr (int_range 1 8)) annot );
        ( 5,
          map3
            (fun src (addr, width) annot -> I.Store { src; addr; width; annot })
            operand_gen (pair addr (int_range 1 8)) annot );
        ( 1,
          map2
            (fun cond target -> I.Branch { cond; target })
            (frequency
               [ (4, return (I.Imm 0)); (1, operand_gen) ])
            (oneofl [ "side_a"; "side_b" ]) );
        (1, map (fun l -> I.Exit l) (oneofl [ "exit_a"; "exit_b" ]));
        (1, map (fun n -> I.Rotate n) (int_bound 2));
        ( 1,
          map2
            (fun src_offset dst_offset -> I.Amov { src_offset; dst_offset })
            (int_bound (window - 1)) (int_bound (window - 1)) );
      ])

type case = {
  bundles : I.op list list;
  final_exit : I.label option;
  regs : (Ir.Reg.t * int) list;
  mem : (int * int * int) list;  (* addr, width, value *)
  fault_at : int option;  (* the on_mem call forced to fault *)
  with_cache : bool;
}

let case_gen =
  QCheck.Gen.(
    let* bundles = list_size (int_range 1 8) (list_size (int_bound 5) op_gen) in
    let* final_exit = opt (return "fin") in
    let* regs =
      list_size (int_bound 12)
        (pair reg_gen (frequency [ (3, oneofl base_values); (1, int) ]))
    in
    let* mem =
      list_size (int_bound 6)
        (triple
           (map2 ( + ) (oneofl base_values) (int_range (-9) 9))
           (int_range 1 8) int)
    in
    let* fault_at = opt (int_bound 12) in
    let* with_cache = bool in
    return { bundles; final_exit; regs; mem; fault_at; with_cache })

let print_case c =
  let region = String.concat " | " (List.map (fun b ->
      String.concat "; " (List.map (fun op -> I.to_string (I.make ~id:0 op)) b))
      c.bundles) in
  Printf.sprintf "%s; fault_at=%s cache=%b regs=[%s]" region
    (match c.fault_at with Some k -> string_of_int k | None -> "-")
    c.with_cache
    (String.concat ", "
       (List.map (fun (r, v) -> Printf.sprintf "%s=%d" (Ir.Reg.to_string r) v) c.regs))

(* a fresh queue whose [fault_at]-th memory op (counting from 0 per
   region) reports a conflict whatever its range *)
let forcing_detector fault_at =
  let calls = ref 0 in
  Hw.Detector.wrap
    ~reset:(fun () -> calls := 0)
    ~on_mem:(fun next i range ->
      let k = !calls in
      incr calls;
      match next i range with
      | Error _ as e -> e
      | Ok () when Some k = fault_at ->
        Error
          { Hw.Detector.checker = i.I.id; setter = -1; false_positive_prone = false }
      | Ok () -> Ok ())
    (Hw.Queue.detector (Hw.Queue.create ~size:window))

let temps m = List.init 4 (fun i -> Vliw.Machine.get_reg m (Ir.Reg.T i))

let same_state a b =
  Vliw.Machine.equal_guest_state a b && temps a = temps b

let prop_predecoded_matches_eval c =
  let id = ref 0 in
  let bundles =
    Array.of_list
      (List.map (List.map (fun op -> incr id; I.make ~id:!id op)) c.bundles)
  in
  let region =
    Ir.Region.make ~entry:"t" ~bundles ~final_exit:c.final_exit
      ~ar_window:window ~assumed_no_alias:[] ~source:(sb_of []) ()
  in
  let m_new = Vliw.Machine.create () in
  List.iter (fun (r, v) -> Vliw.Machine.set_reg m_new r v) c.regs;
  List.iter (fun (addr, width, v) -> Vliw.Machine.store m_new ~addr ~width v) c.mem;
  let m_ref = Vliw.Machine.copy m_new in
  let cache () =
    if c.with_cache then Some (Vliw.Cache.create Vliw.Cache.default_config)
    else None
  in
  let d_new = forcing_detector c.fault_at and d_ref = forcing_detector c.fault_at in
  let c_new = cache () and c_ref = cache () in
  (* twice in a row: the second run reuses the journal of the first *)
  List.for_all
    (fun _ ->
      let before = Vliw.Machine.copy m_new in
      let got =
        match
          RE.run ~config:Vliw.Config.default ~detector:d_new ~machine:m_new
            ?cache:c_new region
        with
        | Ok r -> r
        | Error rej -> Alcotest.failf "rejected: %a" RE.pp_rejection rej
      in
      let want = reference_exec ~detector:d_ref ~machine:m_ref ?cache:c_ref region in
      let rolled_back =
        match got.RE.outcome with
        | RE.Alias_fault _ | RE.Window_overflow _ -> same_state m_new before
        | RE.Committed _ -> true
      in
      got = want && same_state m_new m_ref && rolled_back
      && not (Vliw.Machine.in_region m_new))
    [ (); () ]

let differential_case =
  qcase ~count:1000 "predecoded executor matches per-instruction Eval"
    (QCheck.make ~print:print_case case_gen)
    prop_predecoded_matches_eval

let suite =
  ( "region-exec",
    [
      case "full region commits" test_commit_full_region;
      case "side exit commits the prefix" test_side_exit_commits_prefix;
      case "alias fault rolls back everything" test_fault_rolls_everything_back;
      case "fault pays the rollback penalty" test_fault_costs_rollback_penalty;
      case "window guard" test_window_guard;
      case "cycles break via AMOV (Fig 12)" test_amov_cycle_breaking;
      case "AMOV regions execute correctly" test_amov_region_executes_correctly;
      case "rotate/amov cost no issue slots" test_rotate_amov_are_free_slots;
      case "malformed regions rejected before running" test_rejections;
      case "a raising detector leaves no region open"
        test_raising_detector_closes_region;
      differential_case;
    ] )
