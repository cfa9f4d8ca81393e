type params = {
  max_blocks : int;
  min_bias : float;
}

let default_params = { max_blocks = 8; min_bias = 0.6 }

(* A side exit guarded so that it fires when control would leave the
   hot path. [follow] is the label execution continues to inside the
   region. Returns the guard instructions and the exit target. *)
let side_exit_for ~fresh_id (cond : Ir.Instr.operand) ~taken ~fallthrough
    ~follow_taken =
  let next_id () =
    let id = !fresh_id in
    incr fresh_id;
    id
  in
  if follow_taken then begin
    (* region continues on the taken arm; exit when the condition is
       false, so invert the guard into a temporary *)
    let tmp = Ir.Reg.T (next_id ()) in
    let invert =
      Ir.Instr.make ~id:(next_id ())
        (Ir.Instr.Cmp (Ir.Instr.Eq, tmp, cond, Ir.Instr.Imm 0))
    in
    let branch =
      Ir.Instr.make ~id:(next_id ())
        (Ir.Instr.Branch { cond = Ir.Instr.Reg tmp; target = fallthrough })
    in
    ([ invert; branch ], taken)
  end
  else
    let branch =
      Ir.Instr.make ~id:(next_id ()) (Ir.Instr.Branch { cond; target = taken })
    in
    ([ branch ], fallthrough)

let form ?(params = default_params) ~program ~liveness ~profiler ~fresh_id
    seed =
  let seed_count = max 1 (Profiler.count profiler seed) in
  let body = ref [] in
  let live_out = ref [] in
  let source_blocks = ref [] in
  let in_region = Hashtbl.create 16 in
  let emit is = body := List.rev_append is !body in
  let rec grow label n_blocks =
    let stop () = Some label in
    if n_blocks >= params.max_blocks then stop ()
    else if Hashtbl.mem in_region label then stop ()
    else if
      n_blocks > 0 && Profiler.is_cold_relative profiler ~seed_count label
    then stop ()
    else begin
      let b = Ir.Program.block program label in
      Hashtbl.replace in_region label ();
      source_blocks := label :: !source_blocks;
      emit b.body;
      match b.terminator with
      | Ir.Block.Halt -> None
      | Ir.Block.Fallthrough next -> grow next (n_blocks + 1)
      | Ir.Block.Cond { cond; taken; fallthrough; taken_probability } ->
        (* prefer profiled edge counts over the static hint: the hint
           is a guess made before the run, the profile is measured *)
        let taken_probability =
          match
            Profiler.edge_bias profiler ~from_:label ~taken ~fallthrough
          with
          | Some p -> p
          | None -> taken_probability
        in
        let bias = max taken_probability (1.0 -. taken_probability) in
        if bias < params.min_bias then begin
          (* unbiased branch: end the region here, both arms cold-ish;
             exit through the conditional as a final guarded exit pair *)
          let guard, continue_to =
            side_exit_for ~fresh_id cond ~taken ~fallthrough
              ~follow_taken:(taken_probability >= 0.5)
          in
          emit guard;
          (match guard with
          | [ _; branch ] | [ branch ] ->
            live_out :=
              (branch.Ir.Instr.id, Liveness.live_in liveness
                 (match branch.Ir.Instr.op with
                  | Ir.Instr.Branch { target; _ } -> target
                  | _ -> continue_to))
              :: !live_out
          | _ -> ());
          Some continue_to
        end
        else begin
          let follow_taken = taken_probability >= 0.5 in
          let guard, continue_to =
            side_exit_for ~fresh_id cond ~taken ~fallthrough ~follow_taken
          in
          emit guard;
          (match List.rev guard with
          | branch :: _ ->
            let exit_target =
              match branch.Ir.Instr.op with
              | Ir.Instr.Branch { target; _ } -> target
              | _ -> continue_to
            in
            live_out :=
              (branch.Ir.Instr.id, Liveness.live_in liveness exit_target)
              :: !live_out
          | [] -> ());
          grow continue_to (n_blocks + 1)
        end
    end
  in
  let final_exit = grow seed 0 in
  let final_live_out =
    match final_exit with
    | Some l -> Liveness.live_in liveness l
    | None -> Ir.Reg.Set.of_list Ir.Reg.all_guest
  in
  Ir.Superblock.make ~entry:seed ~body:(List.rev !body) ~final_exit
    ~source_blocks:(List.rev !source_blocks) ~live_out:!live_out
    ~final_live_out ()
