(* The seed's list-and-hashtable hazard builder: explicit all-pairs
   exit fences, no transitive reduction.  The oracle
   [Sched.Hazards.build] is differentially tested against. *)

open Sched.Hazards

(* RAW, WAR, WAW edges over the straight-line body (positions) — the
   seed's hashtable walk, kept for the reference oracle. *)
let register_edges ~arr ~add =
  let last_def : (Ir.Reg.t, int) Hashtbl.t = Hashtbl.create 64 in
  let uses_since_def : (Ir.Reg.t, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun pos (i : Ir.Instr.t) ->
      List.iter
        (fun r ->
          (* RAW: reader depends on the last writer *)
          (match Hashtbl.find_opt last_def r with
          | Some d -> add d pos
          | None -> ());
          let l = Option.value (Hashtbl.find_opt uses_since_def r) ~default:[] in
          Hashtbl.replace uses_since_def r (pos :: l))
        (Ir.Instr.uses i);
      List.iter
        (fun r ->
          (* WAW on the previous writer, WAR on readers since then *)
          (match Hashtbl.find_opt last_def r with
          | Some d -> add d pos
          | None -> ());
          List.iter
            (fun u -> add u pos)
            (Option.value (Hashtbl.find_opt uses_since_def r) ~default:[]);
          Hashtbl.replace last_def r pos;
          Hashtbl.replace uses_since_def r [])
        (Ir.Instr.defs i))
    arr

let crosses_exit_blocked (i : Ir.Instr.t) live =
  Ir.Instr.is_store i
  || List.exists (fun r -> Ir.Reg.Set.mem r live) (Ir.Instr.defs i)

(* Control edges around side exits, seed form: for every (instruction,
   exit) pair whose crossing is blocked, an explicit edge — O(n^2). *)
let control_edges_reference ~sb ~arr ~add =
  branch_chain ~arr ~add;
  let n = Array.length arr in
  let exits = ref [] in
  for idx = 0 to n - 1 do
    let i = arr.(idx) in
    if Ir.Instr.is_side_exit i then begin
      let live = Ir.Superblock.exit_live_out sb i.Ir.Instr.id in
      (* earlier instructions that must stay before this exit *)
      for k = 0 to idx - 1 do
        let j = arr.(k) in
        if (not (Ir.Instr.is_side_exit j)) && crosses_exit_blocked j live then
          add k idx
      done;
      exits := (idx, live) :: !exits
    end
    else
      (* later instruction blocked from hoisting above earlier exits *)
      List.iter
        (fun (bpos, live) -> if crosses_exit_blocked i live then add bpos idx)
        !exits
  done

(* Reference builder: the seed's list-and-hashtable construction,
   verbatim — the oracle the flat builder is differentially tested
   against. *)
let build_reference ~sb ~arr ~n ~ids ~index ~deps ~policy =
  let succs_pos = Array.make (max 1 n) [] in
  let seen = Hashtbl.create 1024 in
  let add a b =
    if a <> b then begin
      let key = (a * n) + b in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        succs_pos.(a) <- b :: succs_pos.(a)
      end
    end
  in
  register_edges ~arr ~add;
  let dropped = memory_edges ~arr ~pos_of:index ~deps ~policy ~add in
  control_edges_reference ~sb ~arr ~add;
  let preds_of = Array.make (max 1 n) [] in
  let succs_of = Array.make (max 1 n) [] in
  for a = 0 to n - 1 do
    List.iter
      (fun b ->
        preds_of.(b) <- ids.(a) :: preds_of.(b);
        succs_of.(a) <- ids.(b) :: succs_of.(a))
      succs_pos.(a)
  done;
  let dropped = List.sort_uniq compare dropped in
  { ids; index; preds_of; succs_of; dropped }

let build : builder =
 fun ~sb ~deps ~policy ?arena:_ () ->
  let arr, ids, index = index_body sb in
  build_reference ~sb ~arr ~n:(Array.length arr) ~ids ~index ~deps ~policy
