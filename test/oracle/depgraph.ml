(* The seed's O(n^2) pairwise dependence builder: the oracle
   [Analysis.Depgraph.build] is differentially tested against. *)

open Analysis
open Analysis.Depgraph

(* Real dependences: X before Y, may access same memory, >= 1 store.

   The reference builder is the seed's O(n^2) pairwise loop with a full
   may-alias verdict per pair; it is kept verbatim as the oracle the
   swept builder is differentially tested against. *)
let real_edges_reference ~body ~alias =
  let mems = Array.of_list (List.filter Ir.Instr.is_memory body) in
  let n = Array.length mems in
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let x = mems.(i) and y = mems.(j) in
      if Ir.Instr.is_store x || Ir.Instr.is_store y then
        match strength_of (May_alias.verdict alias x y) with
        | Some strength ->
          acc := { first = x.id; second = y.id; kind = Real; strength } :: !acc
        | None -> ()
    done
  done;
  List.rev !acc

let build ~body ~alias ?(eliminated = []) ?arena:_ () =
  let ext = ext_edges ~body ~alias ~eliminated in
  of_edge_list (dedup_edges (real_edges_reference ~body ~alias @ ext))
