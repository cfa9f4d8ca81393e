(* Liveness, profiling and superblock region formation. *)

open Helpers
module I = Ir.Instr

(* A diamond CFG: entry -> (hot | cold) -> join -> halt, with the hot
   side biased 0.9. *)
let diamond () =
  reset_ids ();
  let entry =
    Ir.Block.make ~label:"entry"
      ~body:[ movi (r 1) 1; mk (I.Cmp (I.Gt, r 2, I.Reg (r 1), I.Imm 0)) ]
      (Ir.Block.Cond
         {
           cond = I.Reg (r 2);
           taken = "hot";
           fallthrough = "cold";
           taken_probability = 0.9;
         })
  in
  let hot =
    Ir.Block.make ~label:"hot"
      ~body:[ movi (r 3) 7 ]
      (Ir.Block.Fallthrough "join")
  in
  let cold =
    Ir.Block.make ~label:"cold"
      ~body:[ movi (r 3) 8; movi (r 4) 9 ]
      (Ir.Block.Fallthrough "join")
  in
  let join =
    Ir.Block.make ~label:"join"
      ~body:[ mk (I.Binop (I.Add, r 5, I.Reg (r 3), I.Imm 1)) ]
      Ir.Block.Halt
  in
  Ir.Program.make ~entry:"entry" [ entry; hot; cold; join ]

let test_liveness_basic () =
  let p = diamond () in
  let lv = Frontend.Liveness.analyze p in
  (* r3 is live into join (used there) *)
  let live_join = Frontend.Liveness.live_in lv "join" in
  Alcotest.(check bool) "r3 live into join" true (Ir.Reg.Set.mem (r 3) live_join);
  (* r3 is NOT live into hot (hot defines it before join uses it)...
     it is redefined in hot, so live_in hot excludes it *)
  let live_hot = Frontend.Liveness.live_in lv "hot" in
  Alcotest.(check bool) "r3 dead into hot" false (Ir.Reg.Set.mem (r 3) live_hot);
  (* halt boundary: every guest register is live at join's out edge *)
  let out_join = Frontend.Liveness.live_out_of_block lv (Ir.Program.block p "join") in
  Alcotest.(check int) "halt is fully live"
    (List.length Ir.Reg.all_guest)
    (Ir.Reg.Set.cardinal out_join)

let test_liveness_loop () =
  reset_ids ();
  (* loop-carried use keeps the counter live around the back edge *)
  let loop =
    Ir.Block.make ~label:"loop"
      ~body:
        [
          mk (I.Binop (I.Sub, r 1, I.Reg (r 1), I.Imm 1));
          mk (I.Cmp (I.Gt, r 2, I.Reg (r 1), I.Imm 0));
        ]
      (Ir.Block.Cond
         {
           cond = I.Reg (r 2);
           taken = "loop";
           fallthrough = "out";
           taken_probability = 0.9;
         })
  in
  let out = Ir.Block.make ~label:"out" ~body:[] Ir.Block.Halt in
  let p = Ir.Program.make ~entry:"loop" [ loop; out ] in
  let lv = Frontend.Liveness.analyze p in
  Alcotest.(check bool) "counter live around back edge" true
    (Ir.Reg.Set.mem (r 1) (Frontend.Liveness.live_in lv "loop"))

let test_profiler () =
  let pr = Frontend.Profiler.create ~hot_threshold:3 () in
  Alcotest.(check bool) "cold initially" false (Frontend.Profiler.is_hot pr "a");
  Frontend.Profiler.note_execution pr "a";
  Frontend.Profiler.note_execution pr "a";
  Alcotest.(check bool) "still cold at 2" false (Frontend.Profiler.is_hot pr "a");
  Frontend.Profiler.note_execution pr "a";
  Alcotest.(check bool) "hot at 3" true (Frontend.Profiler.is_hot pr "a");
  Alcotest.(check bool) "relative cold" true
    (Frontend.Profiler.is_cold_relative pr ~seed_count:100 "b")

let warm_profiler p rounds =
  let pr = Frontend.Profiler.create ~hot_threshold:1 () in
  let m = Vliw.Machine.create () in
  for _ = 1 to rounds do
    let rec go label =
      Frontend.Profiler.note_execution pr label;
      match Frontend.Interp.exec_block m (Ir.Program.block p label) with
      | Some l -> go l
      | None -> ()
    in
    go p.Ir.Program.entry
  done;
  pr

let test_region_formation_follows_bias () =
  let p = diamond () in
  let pr = warm_profiler p 10 in
  let lv = Frontend.Liveness.analyze p in
  let fresh_id = ref (Ir.Program.max_instr_id p + 1) in
  let sb =
    Frontend.Region_form.form ~program:p ~liveness:lv ~profiler:pr ~fresh_id
      "entry"
  in
  (* region follows entry -> hot -> join; cold becomes a side exit *)
  Alcotest.(check (list string)) "merged blocks" [ "entry"; "hot"; "join" ]
    sb.Ir.Superblock.source_blocks;
  Alcotest.(check int) "one side exit" 1
    (List.length (Ir.Superblock.side_exits sb));
  Alcotest.(check (option string)) "ends at halt" None
    sb.Ir.Superblock.final_exit;
  (* the taken arm was followed, so the guard is inverted through a temp *)
  match Ir.Superblock.side_exits sb with
  | [ br ] ->
    (match br.I.op with
    | I.Branch { target; _ } ->
      Alcotest.(check string) "exit to the cold side" "cold" target
    | _ -> Alcotest.fail "not a branch")
  | _ -> Alcotest.fail "expected one exit"

let test_region_formation_stops_on_loop () =
  reset_ids ();
  let loop =
    Ir.Block.make ~label:"loop"
      ~body:
        [
          mk (I.Binop (I.Sub, r 1, I.Reg (r 1), I.Imm 1));
          mk (I.Cmp (I.Gt, r 2, I.Reg (r 1), I.Imm 0));
        ]
      (Ir.Block.Cond
         {
           cond = I.Reg (r 2);
           taken = "loop";
           fallthrough = "out";
           taken_probability = 0.95;
         })
  in
  let out = Ir.Block.make ~label:"out" ~body:[] Ir.Block.Halt in
  let p = Ir.Program.make ~entry:"loop" [ loop; out ] in
  let pr = warm_profiler p 3 in
  let lv = Frontend.Liveness.analyze p in
  let fresh_id = ref (Ir.Program.max_instr_id p + 1) in
  let sb =
    Frontend.Region_form.form ~program:p ~liveness:lv ~profiler:pr ~fresh_id
      "loop"
  in
  Alcotest.(check (list string)) "loop body once" [ "loop" ]
    sb.Ir.Superblock.source_blocks;
  Alcotest.(check (option string)) "falls back to the loop head"
    (Some "loop") sb.Ir.Superblock.final_exit

let test_region_formation_semantics_preserved () =
  (* executing the formed superblock must equal executing the blocks *)
  let p = diamond () in
  let pr = warm_profiler p 10 in
  let lv = Frontend.Liveness.analyze p in
  let fresh_id = ref (Ir.Program.max_instr_id p + 1) in
  let sb =
    Frontend.Region_form.form ~program:p ~liveness:lv ~profiler:pr ~fresh_id
      "entry"
  in
  let m_ref = Vliw.Machine.create () in
  ignore (Frontend.Interp.run m_ref p);
  let m_sb = Vliw.Machine.create () in
  let t = Frontend.Interp.trace_superblock m_sb sb in
  Alcotest.(check (option string)) "no exit taken" None
    t.Frontend.Interp.taken_exit;
  Alcotest.(check bool) "same final state" true
    (Vliw.Machine.equal_guest_state m_ref m_sb)

let test_region_max_blocks () =
  reset_ids ();
  (* a long fallthrough chain is cut at max_blocks *)
  let blocks =
    List.init 12 (fun k ->
        let lbl = Printf.sprintf "b%d" k in
        let next = Printf.sprintf "b%d" (k + 1) in
        if k = 11 then Ir.Block.make ~label:lbl ~body:[] Ir.Block.Halt
        else
          Ir.Block.make ~label:lbl ~body:[ movi (r (k mod 8)) k ]
            (Ir.Block.Fallthrough next))
  in
  let p = Ir.Program.make ~entry:"b0" blocks in
  let pr = warm_profiler p 2 in
  let lv = Frontend.Liveness.analyze p in
  let fresh_id = ref (Ir.Program.max_instr_id p + 1) in
  let sb =
    Frontend.Region_form.form
      ~params:{ Frontend.Region_form.max_blocks = 4; min_bias = 0.6 }
      ~program:p ~liveness:lv ~profiler:pr ~fresh_id "b0"
  in
  Alcotest.(check int) "four blocks merged" 4
    (List.length sb.Ir.Superblock.source_blocks);
  Alcotest.(check (option string)) "exits into the rest" (Some "b4")
    sb.Ir.Superblock.final_exit

let test_edge_profiling_recovers_bias () =
  let pr = Frontend.Profiler.create () in
  Alcotest.(check bool) "no verdict before samples" true
    (Frontend.Profiler.edge_bias pr ~from_:"a" ~taken:"t" ~fallthrough:"f"
    = None);
  for _ = 1 to 30 do
    Frontend.Profiler.note_edge pr "a" "t"
  done;
  for _ = 1 to 10 do
    Frontend.Profiler.note_edge pr "a" "f"
  done;
  match Frontend.Profiler.edge_bias pr ~from_:"a" ~taken:"t" ~fallthrough:"f"
  with
  | Some bias -> Alcotest.(check (float 0.01)) "bias" 0.75 bias
  | None -> Alcotest.fail "expected a verdict"

(* The same program with every static branch hint replaced by a coin
   flip. *)
let strip_hints p =
  Ir.Program.make ~entry:p.Ir.Program.entry
    (List.map
       (fun (b : Ir.Block.t) ->
         match b.Ir.Block.terminator with
         | Ir.Block.Cond c ->
           Ir.Block.make ~label:b.Ir.Block.label ~body:b.Ir.Block.body
             (Ir.Block.Cond { c with taken_probability = 0.5 })
         | Ir.Block.Fallthrough _ | Ir.Block.Halt -> b)
       (Ir.Program.blocks p))

let test_profile_overrides_stripped_hints () =
  (* static hints are guesses and the edge profile is measured: region
     formation must follow the profile, so stripping every hint leaves
     the optimized run cycle-for-cycle unchanged *)
  let cycles prog =
    (Smarq.run_program ~fuel:200_000_000 ~scheme:(Smarq.Scheme.Smarq 64)
       prog).Runtime.Driver.stats.Runtime.Stats.total_cycles
  in
  List.iter
    (fun (b : Workload.Specfp.bench) ->
      let p = Workload.Specfp.program ~scale:2 b in
      Alcotest.(check int)
        (b.Workload.Specfp.name ^ " cycles without hints")
        (cycles p)
        (cycles (strip_hints p)))
    Workload.Specfp.suite

let test_stripped_equivalence_all_schemes () =
  (* whatever regions the profile forms on a hint-stripped program,
     every scheme must still leave the interpreter's guest state *)
  let stripped =
    strip_hints (Workload.Specfp.program (Workload.Specfp.find "art"))
  in
  let ref_m = Vliw.Machine.create () in
  ignore (Frontend.Interp.run ~fuel:100_000_000 ref_m stripped);
  List.iter
    (fun scheme ->
      let r = Smarq.run_program ~fuel:100_000_000 ~scheme stripped in
      if not (Vliw.Machine.equal_guest_state ref_m r.Runtime.Driver.machine)
      then
        Alcotest.failf "hint-stripped art diverged under %s"
          (Smarq.Scheme.name scheme))
    [ Smarq.Scheme.Smarq 64; Smarq.Scheme.Alat; Smarq.Scheme.None_ ]

let suite =
  ( "frontend",
    [
      case "liveness: diamond" test_liveness_basic;
      case "liveness: loop-carried" test_liveness_loop;
      case "profiler thresholds" test_profiler;
      case "region formation follows bias" test_region_formation_follows_bias;
      case "region formation stops at loop back edge"
        test_region_formation_stops_on_loop;
      case "region formation preserves semantics"
        test_region_formation_semantics_preserved;
      case "region formation respects max blocks" test_region_max_blocks;
      case "edge profiling recovers branch bias"
        test_edge_profiling_recovers_bias;
      case "profiled bias replaces stripped hints"
        test_profile_overrides_stripped_hints;
      case "stripped programs stay equivalent, all schemes"
        test_stripped_equivalence_all_schemes;
    ] )
